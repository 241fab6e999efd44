// Package analysis turns raw measurement output into the paper's
// tables and figures: cumulative distributions (Figure 1 and 2),
// operator attribution tables (Table 2), response-code series across
// iteration counts (Figure 3), and plain-text renderings of all of
// them for the repro harness and EXPERIMENTS.md.
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over integer values.
type CDF struct {
	// points are (value, cumulativeCount) sorted by value.
	values []int
	cum    []int
	total  int
}

// CDFFromHist builds a CDF from a value→count histogram.
func CDFFromHist(hist map[int]int) *CDF {
	c := &CDF{}
	for v := range hist {
		c.values = append(c.values, v)
	}
	sort.Ints(c.values)
	acc := 0
	for _, v := range c.values {
		acc += hist[v]
		c.cum = append(c.cum, acc)
	}
	c.total = acc
	return c
}

// Total returns the population size.
func (c *CDF) Total() int { return c.total }

// Hist reconstructs the value→count histogram the CDF was built from.
func (c *CDF) Hist() map[int]int {
	h := make(map[int]int, len(c.values))
	prev := 0
	for i, v := range c.values {
		h[v] = c.cum[i] - prev
		prev = c.cum[i]
	}
	return h
}

// Merge folds other's population into c, as if both CDFs had been
// built from one combined histogram.
func (c *CDF) Merge(other *CDF) {
	if other == nil || other.total == 0 {
		return
	}
	h := c.Hist()
	for v, n := range other.Hist() {
		h[v] += n
	}
	*c = *CDFFromHist(h)
}

// At returns the fraction of the population with value ≤ x, in [0,1].
func (c *CDF) At(x int) float64 {
	if c.total == 0 {
		return 0
	}
	i := sort.SearchInts(c.values, x+1) - 1
	if i < 0 {
		return 0
	}
	return float64(c.cum[i]) / float64(c.total)
}

// Percentile returns the smallest value v such that At(v) ≥ p (p in
// [0,1]).
func (c *CDF) Percentile(p float64) int {
	if c.total == 0 {
		return 0
	}
	need := int(p*float64(c.total) + 0.999999)
	for i, cc := range c.cum {
		if cc >= need {
			return c.values[i]
		}
	}
	return c.values[len(c.values)-1]
}

// Max returns the largest observed value.
func (c *CDF) Max() int {
	if len(c.values) == 0 {
		return 0
	}
	return c.values[len(c.values)-1]
}

// RenderCDF writes a fixed set of probe points of the CDF as a text
// table: the shape summary the repro harness compares against Figure 1.
func RenderCDF(w io.Writer, title string, c *CDF, probes []int) {
	fmt.Fprintf(w, "%s (n=%d)\n", title, c.total)
	fmt.Fprintf(w, "  %-10s %s\n", "value<=", "share")
	for _, p := range probes {
		fmt.Fprintf(w, "  %-10d %6.2f %%\n", p, 100*c.At(p))
	}
	fmt.Fprintf(w, "  %-10s %d\n", "max", c.Max())
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// OperatorRow is one row of Table 2.
type OperatorRow struct {
	Operator string
	Domains  int
	Share    float64 // percent of all NSEC3-enabled domains
	// Settings are the distinct "iterations/saltlen" strings observed,
	// most frequent first.
	Settings []string
}

// OperatorStats accumulates per-operator observations for Table 2:
// NSEC3-enabled domains grouped by the registered domain of their
// (exclusive) name server operator, with the parameter settings seen.
type OperatorStats struct {
	total   int
	domains map[string]int            // operator -> exclusive domain count
	params  map[string]map[string]int // operator -> "it/salt" -> count
	mixed   int                       // domains served by multiple operators
}

// NewOperatorStats prepares an empty accumulator.
func NewOperatorStats() *OperatorStats {
	return &OperatorStats{
		domains: make(map[string]int),
		params:  make(map[string]map[string]int),
	}
}

// Add records one NSEC3-enabled domain: the registered domains of its
// NS hosts (operator keys), and its parameters. Domains whose NS set
// spans multiple operators are counted as mixed, not attributed — the
// paper's table covers exclusively served domains only.
func (s *OperatorStats) Add(operators []string, iterations uint16, saltLen int) {
	s.total++
	distinct := map[string]bool{}
	for _, op := range operators {
		distinct[op] = true
	}
	if len(distinct) != 1 {
		s.mixed++
		return
	}
	var op string
	for k := range distinct {
		op = k
	}
	s.domains[op]++
	if s.params[op] == nil {
		s.params[op] = make(map[string]int)
	}
	s.params[op][fmt.Sprintf("%d/%d", iterations, saltLen)]++
}

// Merge folds another accumulator into s. Scan workers each own a
// private OperatorStats merged once at the end of a shard; merge order
// does not affect the result.
func (s *OperatorStats) Merge(o *OperatorStats) {
	if o == nil {
		return
	}
	s.total += o.total
	s.mixed += o.mixed
	for op, n := range o.domains {
		s.domains[op] += n
	}
	for op, settings := range o.params {
		if s.params[op] == nil {
			s.params[op] = make(map[string]int, len(settings))
		}
		for k, v := range settings {
			s.params[op][k] += v
		}
	}
}

// operatorStatsJSON is the wire form of OperatorStats: the fields are
// unexported so shard outcomes crossing a process boundary need an
// explicit codec. encoding/json sorts map keys, so the encoding is
// deterministic.
type operatorStatsJSON struct {
	Total   int                       `json:"total"`
	Mixed   int                       `json:"mixed"`
	Domains map[string]int            `json:"domains"`
	Params  map[string]map[string]int `json:"params"`
}

// MarshalJSON encodes the accumulator for shard-outcome transport.
func (s *OperatorStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(operatorStatsJSON{
		Total:   s.total,
		Mixed:   s.mixed,
		Domains: s.domains,
		Params:  s.params,
	})
}

// UnmarshalJSON decodes an accumulator, guaranteeing non-nil maps so a
// decoded value is indistinguishable from a locally built one (Merge
// and reflect.DeepEqual both rely on that).
func (s *OperatorStats) UnmarshalJSON(data []byte) error {
	var w operatorStatsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.total = w.Total
	s.mixed = w.Mixed
	s.domains = w.Domains
	s.params = w.Params
	if s.domains == nil {
		s.domains = make(map[string]int)
	}
	if s.params == nil {
		s.params = make(map[string]map[string]int)
	}
	return nil
}

// Top returns the n largest operators by exclusive domain count,
// Table 2 style.
func (s *OperatorStats) Top(n int) []OperatorRow {
	rows := make([]OperatorRow, 0, len(s.domains))
	for op, count := range s.domains {
		row := OperatorRow{
			Operator: op,
			Domains:  count,
			Share:    pct(count, s.total),
		}
		type kv struct {
			k string
			v int
		}
		var settings []kv
		for k, v := range s.params[op] {
			settings = append(settings, kv{k, v})
		}
		sort.Slice(settings, func(i, j int) bool {
			if settings[i].v != settings[j].v {
				return settings[i].v > settings[j].v
			}
			return settings[i].k < settings[j].k
		})
		for _, sv := range settings {
			// Table 2 lists the settings representing ≥99.9 % of the
			// operator's domains; drop one-off noise below 0.1 %.
			if pct(sv.v, count) < 0.1 && len(row.Settings) > 0 {
				continue
			}
			row.Settings = append(row.Settings, sv.k)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Domains != rows[j].Domains {
			return rows[i].Domains > rows[j].Domains
		}
		return rows[i].Operator < rows[j].Operator
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Total returns the number of NSEC3-enabled domains added.
func (s *OperatorStats) Total() int { return s.total }

// RenderOperatorTable writes Table 2.
func RenderOperatorTable(w io.Writer, rows []OperatorRow) {
	fmt.Fprintf(w, "%-24s %12s %8s   %s\n", "Auth. NS operator", "# domains", "share", "iterations/salt (B)")
	topSum := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12d %7.1f%%   %s\n",
			r.Operator, r.Domains, r.Share, strings.Join(r.Settings, ", "))
		topSum += r.Domains
	}
	fmt.Fprintf(w, "%-24s %12d\n", "(top rows combined)", topSum)
}
