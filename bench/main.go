// Command bench is the repository's benchmark: five workloads, seven
// bounded end-to-end metrics and a per-layer traced run. See README.md
// in this directory for what each workload and metric is and why.
//
//	bash bench/run.sh --workload authd_hot --seed 1 --seconds 15 --trace 0
//
// prints a table on standard error and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}. With
// --trace 1 the metrics are the per-layer ones and the spans land in
// bench/out/trace-<workload>.ndjson. --workload all runs every
// workload, each in a child process of its own so that peak RSS and
// the heap belong to one workload; -agree runs two full sets and
// checks that their medians agree within the bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	// wrongRCode makes the authd_* checker expect the wrong RCODE; only
	// the tests set it, to prove that a failed check fails the run.
	wrongRCode bool
}

// sizes are the workload dimensions: full is what the manifest
// describes, smoke is the same code paths at test size.
type sizes struct {
	shardedRegistered, shardedShards int
	oneWorldRegistered               int
	resolverScaleDen, resolverShards int
	zoneNames                        int
	authdSetups, batchSetups         int
	// The traced slice: domains scanned, validators probed, queries sent.
	sliceDomains, sliceResolvers int
	sliceQueries                 int64
	distRegistered               int
}

func (o options) sizes() sizes {
	if o.smoke {
		return sizes{
			shardedRegistered: 240, shardedShards: 2,
			oneWorldRegistered: 160,
			// The fleet never drops below 50 validators a quadrant.
			resolverScaleDen: 1 << 20, resolverShards: 2,
			zoneNames:   400,
			authdSetups: 2, batchSetups: 2,
			sliceDomains: 40, sliceResolvers: 2, sliceQueries: 2000,
			distRegistered: 120,
		}
	}
	return sizes{
		shardedRegistered: 12000, shardedShards: 4,
		oneWorldRegistered: 8000,
		resolverScaleDen:   1000, resolverShards: 4,
		zoneNames:   20000,
		authdSetups: 3, batchSetups: 5,
		sliceDomains: 1000, sliceResolvers: 20, sliceQueries: 50000,
		distRegistered: 3000,
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var scale string
	var agree bool
	var runs int
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	fs.StringVar(&scale, "scale", "full", "full or smoke (test size)")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes to")
	fs.BoolVar(&agree, "agree", false, "run two full sets and check that their medians agree within the bounds")
	fs.IntVar(&runs, "runs", 3, "with -agree: runs per workload in each set, each with its own seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.trace = trace != 0
	switch scale {
	case "full":
	case "smoke":
		o.smoke = true
	default:
		fmt.Fprintf(stderr, "bench: unknown -scale %q\n", scale)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	ctx := context.Background()
	if agree {
		return runAgree(ctx, o, runs, stdout, stderr)
	}
	if o.workload == "all" {
		return runAll(ctx, o, stdout, stderr)
	}
	if !workloadNamed(o.workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	return execute(ctx, o, stdout, stderr)
}

// execute runs one workload in this process and prints its result.
func execute(ctx context.Context, o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(procs)
	res, err := runWorkload(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printTable(stderr, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed or a check did not hold\n",
			o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runWorkload dispatches on the workload name and the run kind.
func runWorkload(ctx context.Context, o options, log io.Writer) (*result, error) {
	var m *measured
	var err error
	switch o.workload {
	case wSurveySharded, wSurveyOneWorld, wResolverStudy:
		m, err = runBatch(ctx, o, log)
	case wAuthdHot, wAuthdUnique:
		m, err = runAuthd(ctx, o, log)
	default:
		return nil, fmt.Errorf("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	defs := o.metricDefs()
	res := &result{
		Correct:   m.correct,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m.values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the registry", name)
		}
	}
	return res, nil
}

// measured is what a workload hands back: raw values by metric name
// plus the correctness verdict.
type measured struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
}

// metricDefs is the list of metrics this kind of run prints.
func (o options) metricDefs() []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

func printTable(w io.Writer, o options, res *result) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n%s  seed=%d  %s  GOMAXPROCS=%d  attempted=%d failed=%d correct=%t\n",
		o.workload, o.seed, kind, procs, res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range o.metricDefs() {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	_ = tw.Flush() // the table is a diagnostic on standard error; the result line is what counts
}
