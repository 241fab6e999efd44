package statewalk

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/scanner"
)

// Config parameterizes one differential run.
type Config struct {
	// Seed fixes the simulated network; enumeration and zone content
	// are seed-independent, so any seed yields the same cell grid.
	Seed uint64
	// Offset/Limit select the cell range [Offset, Offset+Limit) of the
	// topology-major × profile-minor grid; Limit <= 0 runs to the end.
	// Concatenating the reports of [0,k) and [k,n) is byte-identical
	// to one [0,n) run — the split-range golden property.
	Offset, Limit int
	// Workers bounds concurrent cells (default 8). Records are emitted
	// in cell order regardless, so worker count never changes output.
	Workers int
	// EmitCells writes a record for every cell, not just divergences —
	// the golden tests and EXPERIMENTS.md tables use this.
	EmitCells bool
	// Out receives NDJSON records; nil discards them.
	Out *scanner.Encoder
	// Obs, when set, receives statewalk_cells_total and
	// statewalk_divergences_total.
	Obs *obs.Registry
}

// Record is one cell's NDJSON line. Divergence records carry the
// topology ID, profile, both triples, and the minimized query trace.
type Record struct {
	Kind      string     `json:"kind"`
	Topology  string     `json:"topology"`
	Shape     string     `json:"shape"`
	Profile   string     `json:"profile"`
	QName     string     `json:"qname"`
	QType     string     `json:"qtype"`
	Expected  TripleJSON `json:"expected"`
	Observed  TripleJSON `json:"observed"`
	Diverged  bool       `json:"diverged"`
	Explained string     `json:"explained,omitempty"`
	Trace     []string   `json:"trace"`
}

// Summary aggregates one run.
type Summary struct {
	Topologies  int
	Profiles    int
	Cells       int
	Divergences int
	// Unexplained counts divergences Explain has no entry for — a
	// resolver bug or a model gap; CI fails on any.
	Unexplained int
	// Seeds are the fuzz-corpus seeds minimized from the topologies
	// that produced unexplained divergences (one set per topology).
	Seeds []CorpusSeed
}

// traceRecorder wraps the network to capture the resolver's upstream
// queries for the cell's minimized trace.
type traceRecorder struct {
	inner netsim.Exchanger

	mu     sync.Mutex
	events []string
}

// Exchange implements netsim.Exchanger.
func (t *traceRecorder) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Questions) == 1 {
		ev := fmt.Sprintf("%s %s @%s", q.Questions[0].Type, q.Questions[0].Name, server)
		t.mu.Lock()
		t.events = append(t.events, ev)
		t.mu.Unlock()
	}
	return t.inner.Exchange(ctx, server, q)
}

// minimized returns the trace with exact repeats removed (retries and
// cache-warm loops collapse), capped at max entries.
func (t *traceRecorder) minimized(max int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[string]bool, len(t.events))
	out := make([]string, 0, len(t.events))
	dropped := 0
	for _, ev := range t.events {
		if seen[ev] {
			continue
		}
		seen[ev] = true
		if len(out) >= max {
			dropped++
			continue
		}
		out = append(out, ev)
	}
	if dropped > 0 {
		out = append(out, fmt.Sprintf("(+%d more)", dropped))
	}
	return out
}

// cellAddr is the client address cell i's resolver listens on.
func cellAddr(i int) netip.AddrPort {
	return netsim.Addr4(10, 99, byte(i>>8), byte(i))
}

// Run executes the selected cell range and returns the summary. The
// report (divergences, or every cell with EmitCells) is written to
// cfg.Out in cell order: same seed and range ⇒ byte-identical output.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	w, err := BuildWorld(cfg.Seed)
	if err != nil {
		return nil, err
	}
	profiles := respop.Profiles()
	total := len(w.Topologies) * len(profiles)
	lo := min(max(cfg.Offset, 0), total)
	hi := total
	if cfg.Limit > 0 && lo+cfg.Limit < total {
		hi = lo + cfg.Limit
	}
	n := hi - lo

	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	records := make([]*Record, n)
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
acquire:
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break acquire
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cell := lo + i
			records[i], errs[i] = runCell(ctx, w, cell, w.Topologies[cell/len(profiles)], profiles[cell%len(profiles)], nil, false)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var cellsC, divC *obs.Counter
	if cfg.Obs != nil {
		cellsC = cfg.Obs.Counter("statewalk_cells_total",
			"(topology × profile) cells executed by the statewalk differential runner")
		divC = cfg.Obs.Counter("statewalk_divergences_total",
			"statewalk cells whose observed triple differed from the expectation model")
	}
	sum := &Summary{Topologies: len(w.Topologies), Profiles: len(profiles)}
	seeded := make(map[int]bool)
	for _, rec := range records {
		sum.Cells++
		if cellsC != nil {
			cellsC.Inc()
		}
		if rec.Diverged {
			sum.Divergences++
			if divC != nil {
				divC.Inc()
			}
			if rec.Explained == "" {
				sum.Unexplained++
				// Minimize the divergence into corpus seeds, once per
				// topology (cells of one topology share the zone).
				ti := topologyIndexOf(w.Topologies, rec.Topology)
				if ti >= 0 && !seeded[ti] {
					seeded[ti] = true
					seeds, err := SeedsForTopology(w.Topologies[ti])
					if err != nil {
						return nil, err
					}
					sum.Seeds = append(sum.Seeds, seeds...)
				}
			}
		}
		if cfg.Out != nil && (rec.Diverged || cfg.EmitCells) {
			if err := cfg.Out.WriteAny(rec); err != nil {
				return nil, err
			}
		}
	}
	return sum, nil
}

// topologyIndexOf finds a topology by its record ID.
func topologyIndexOf(topos []TopologySpec, id string) int {
	for i, tp := range topos {
		if tp.ID() == id {
			return i
		}
	}
	return -1
}

// runCell probes one (topology × profile) cell: a fresh resolver with
// the profile's policy, registered on the shared network, queried over
// the wire so AD/EDE/extended-RCODE are observed exactly as a remote
// classifier would see them. memo is the resolver's VerifyMemo; the
// differential run passes nil so every cell verifies for itself. With
// warmCuts the resolver first answers the cell's own question with
// CD=1 — no validation, its own message-cache key — so that the probe
// meets a warm delegation cache and nothing else; the trace then holds
// only the probe's upstream queries.
func runCell(ctx context.Context, w *World, cell int, topo TopologySpec, prof respop.Profile, memo *dnssec.VerifyMemo, warmCuts bool) (*Record, error) {
	h := w.Hierarchy
	tr := &traceRecorder{inner: h.Net}
	res := resolver.New(resolver.Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   tr,
		Policy:      prof.Policy,
		Now:         func() uint32 { return simNow },
		VerifyMemo:  memo,
	})
	addr := cellAddr(cell)
	h.Net.Register(addr, res)
	defer h.Net.Unregister(addr)

	qname, qtype := topo.Probe()
	if warmCuts {
		if _, err := res.ResolveCD(ctx, qname, qtype, true); err != nil {
			return nil, fmt.Errorf("statewalk: cell %d (%s × %s): warming: %w", cell, topo.ID(), prof.Policy.Name, err)
		}
		tr.mu.Lock()
		tr.events = nil
		tr.mu.Unlock()
	}
	q := dnswire.NewQuery(uint16(0x5A00)^uint16(cell), qname, qtype, true)
	resp, err := h.Net.Exchange(ctx, addr, q)
	if err != nil {
		return nil, fmt.Errorf("statewalk: cell %d (%s × %s): %w", cell, topo.ID(), prof.Policy.Name, err)
	}
	observed := Triple{
		RCode: resp.ExtendedRCode(),
		AD:    resp.Header.AuthenticatedData,
	}
	if opt, ok := resp.OPT(); ok && len(opt.EDEs) > 0 {
		observed.EDE = opt.EDEs[0].Code
	}
	expected := Expect(topo, prof.Policy)

	rec := &Record{
		Kind:     "statewalk_cell",
		Topology: topo.ID(),
		Shape:    string(topo.Shape),
		Profile:  prof.Policy.Name,
		QName:    qname.String(),
		QType:    qtype.String(),
		Expected: expected.JSON(),
		Observed: observed.JSON(),
		Trace:    tr.minimized(16),
	}
	if observed != expected {
		rec.Kind = "statewalk_divergence"
		rec.Diverged = true
		rec.Explained = Explain(topo, prof, expected, observed)
	}
	return rec, nil
}
