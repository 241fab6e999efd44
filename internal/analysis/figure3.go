package analysis

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dnswire"
	"repro/internal/testbed"
)

// Figure 3: for each iteration count N, the share of validators
// answering the it-N probe with NXDOMAIN, NXDOMAIN+AD, or SERVFAIL.

// RCodePoint is one x-position of the Figure 3 series.
type RCodePoint struct {
	Iterations int
	// Shares in percent of validators probed.
	NXDOMAIN   float64 // all NXDOMAINs (the AD subset included, as in the paper)
	ADNXDOMAIN float64
	SERVFAIL   float64
}

// RCodeCounts are the raw per-iteration response tallies an RCodeSeries
// accumulates. Keeping counts (not percentages) is what makes the
// series mergeable: shard series sum field-by-field, and the percent
// view is derived on demand.
type RCodeCounts struct {
	NXDOMAIN   int `json:"nxdomain"`
	ADNXDOMAIN int `json:"ad_nxdomain"`
	SERVFAIL   int `json:"servfail"`
}

// RCodeSeries is one subfigure (one resolver quadrant), accumulated as
// raw counts so shard-local series merge exactly.
type RCodeSeries struct {
	Title      string
	Validators int
	// Counts maps iteration count → response tallies.
	Counts map[int]*RCodeCounts
}

// NewRCodeSeries prepares an empty series.
func NewRCodeSeries(title string) *RCodeSeries {
	return &RCodeSeries{Title: title, Counts: make(map[int]*RCodeCounts)}
}

// Observe folds one validator's transcript into the tallies.
func (s *RCodeSeries) Observe(tr *testbed.Transcript) {
	s.Validators++
	for _, o := range tr.ItSeries() {
		c := s.Counts[int(o.Iterations)]
		if c == nil {
			c = &RCodeCounts{}
			s.Counts[int(o.Iterations)] = c
		}
		switch {
		case o.Err != nil:
		case o.RCode == dnswire.RCodeNXDomain:
			c.NXDOMAIN++
			if o.AD {
				c.ADNXDOMAIN++
			}
		case o.RCode == dnswire.RCodeServFail:
			c.SERVFAIL++
		}
	}
}

// Merge folds another series' tallies into s. Every field is a sum, so
// merging shard series in any order equals observing the union.
func (s *RCodeSeries) Merge(b *RCodeSeries) {
	if b == nil {
		return
	}
	s.Validators += b.Validators
	for n, bc := range b.Counts {
		c := s.Counts[n]
		if c == nil {
			c = &RCodeCounts{}
			s.Counts[n] = c
		}
		c.NXDOMAIN += bc.NXDOMAIN
		c.ADNXDOMAIN += bc.ADNXDOMAIN
		c.SERVFAIL += bc.SERVFAIL
	}
}

// Points derives the percent view, one point per probed iteration
// count in increasing order.
func (s *RCodeSeries) Points() []RCodePoint {
	iters := make([]int, 0, len(s.Counts))
	for n := range s.Counts {
		iters = append(iters, n)
	}
	sort.Ints(iters)
	points := make([]RCodePoint, 0, len(iters))
	for _, n := range iters {
		c := s.Counts[n]
		points = append(points, RCodePoint{
			Iterations: n,
			NXDOMAIN:   pct(c.NXDOMAIN, s.Validators),
			ADNXDOMAIN: pct(c.ADNXDOMAIN, s.Validators),
			SERVFAIL:   pct(c.SERVFAIL, s.Validators),
		})
	}
	return points
}

// At returns the point for iteration count n.
func (s *RCodeSeries) At(n int) (RCodePoint, bool) {
	c, ok := s.Counts[n]
	if !ok {
		return RCodePoint{}, false
	}
	return RCodePoint{
		Iterations: n,
		NXDOMAIN:   pct(c.NXDOMAIN, s.Validators),
		ADNXDOMAIN: pct(c.ADNXDOMAIN, s.Validators),
		SERVFAIL:   pct(c.SERVFAIL, s.Validators),
	}, true
}

// RenderRCodeSeries writes the series as a table, one row per probed
// iteration count.
func RenderRCodeSeries(w io.Writer, s *RCodeSeries) {
	fmt.Fprintf(w, "Figure 3 — %s (validators=%d)\n", s.Title, s.Validators)
	fmt.Fprintf(w, "  %6s %10s %12s %10s\n", "it-N", "NXDOMAIN", "AD+NXDOMAIN", "SERVFAIL")
	for _, p := range s.Points() {
		fmt.Fprintf(w, "  %6d %9.1f%% %11.1f%% %9.1f%%\n",
			p.Iterations, p.NXDOMAIN, p.ADNXDOMAIN, p.SERVFAIL)
	}
}

// SparkRender draws a compact ASCII chart of the three series across
// the probed iteration values, mimicking the visual shape of Figure 3.
func SparkRender(w io.Writer, s *RCodeSeries) {
	levels := []rune(" .:-=+*#%@")
	points := s.Points()
	line := func(name string, get func(RCodePoint) float64) {
		fmt.Fprintf(w, "  %-12s ", name)
		for _, p := range points {
			idx := int(get(p) / 100 * float64(len(levels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(levels) {
				idx = len(levels) - 1
			}
			fmt.Fprintf(w, "%c", levels[idx])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s — density over it-N (left→right: increasing N)\n", s.Title)
	line("NXDOMAIN", func(p RCodePoint) float64 { return p.NXDOMAIN })
	line("AD+NXDOMAIN", func(p RCodePoint) float64 { return p.ADNXDOMAIN })
	line("SERVFAIL", func(p RCodePoint) float64 { return p.SERVFAIL })
}
