// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive lets it reach the packages under
// ../internal, which Go resolves by import path ("repro/bench" sits
// inside "repro").
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
