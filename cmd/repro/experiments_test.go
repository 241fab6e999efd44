package main

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// allCommand is how EXPERIMENTS.md cites the run allGolden holds. A
// section that cites it quotes that run's stdout in its Measured
// columns.
const allCommand = "`repro -all -resolver-scale 400 -seed 1`"

// citingSections are the EXPERIMENTS.md sections, by heading prefix,
// that must cite allCommand: a citation deleted from one of them would
// otherwise take its table out of the check.
var citingSections = []string{"Figure 1 ", "Table 2 ", "§5.1 TLD ", "Figure 2 ", "Figure 3 "}

// reportNumber is a number as EXPERIMENTS.md or the report writes it:
// digits, thousands separators and a fraction.
var reportNumber = regexp.MustCompile(`\d+(?:,\d{3})*(?:\.\d+)?`)

// paperFigure is the paper's figure the report prints beside a measured
// one, from "paper" to the closing parenthesis: a Measured cell that
// drifted to the paper's value is still a drift.
var paperFigure = regexp.MustCompile(`paper[^)\n]*`)

// numbers returns the numbers in s, thousands separators dropped.
func numbers(s string) []string {
	found := reportNumber.FindAllString(s, -1)
	for i, n := range found {
		found[i] = strings.ReplaceAll(n, ",", "")
	}
	return found
}

// measuredMismatches checks doc's Measured cells against report. Every
// section (a heading at any level up to the next) whose text cites
// allCommand is read: in each of its tables, every number in a column
// whose header begins "Measured" must be one the report prints as
// measured, not as the paper's. It returns one line per number the
// report does not print, and the headings of the sections it read.
func measuredMismatches(doc, report string) (bad, read []string) {
	printed := make(map[string]bool)
	for _, n := range numbers(paperFigure.ReplaceAllString(report, "")) {
		printed[n] = true
	}
	type section struct {
		heading string
		lines   []string
		start   int // doc line of the heading, 1-based
	}
	var sections []section
	cur := section{start: 1}
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if !fenced && strings.HasPrefix(line, "#") {
			sections = append(sections, cur)
			cur = section{heading: strings.TrimSpace(strings.TrimLeft(line, "#")), start: i + 1}
		}
		cur.lines = append(cur.lines, line)
	}
	sections = append(sections, cur)
	for _, s := range sections {
		if !strings.Contains(strings.Join(s.lines, "\n"), allCommand) {
			continue
		}
		read = append(read, s.heading)
		var measured []bool // by column, for the table being read
		for i, line := range s.lines {
			if !strings.HasPrefix(line, "|") {
				measured = nil
				continue
			}
			cells := strings.Split(strings.Trim(line, "|"), "|")
			switch {
			case measured == nil: // a table's header row
				measured = make([]bool, len(cells))
				for c, h := range cells {
					measured[c] = strings.HasPrefix(strings.TrimSpace(h), "Measured")
				}
				continue
			case strings.HasPrefix(line, "|---"):
				continue
			}
			for c, cell := range cells {
				if c >= len(measured) || !measured[c] {
					continue
				}
				for _, n := range numbers(cell) {
					if !printed[n] {
						bad = append(bad, fmt.Sprintf("EXPERIMENTS.md:%d (%s): Measured cell %q: %s is not in the report", s.start+i, s.heading, strings.TrimSpace(cell), n))
					}
				}
			}
		}
	}
	return bad, read
}

// readExperiments returns EXPERIMENTS.md and the report allGolden pins.
func readExperiments(t *testing.T) (doc, report string) {
	t.Helper()
	d, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	r, err := os.ReadFile(allGolden)
	if err != nil {
		t.Fatal(err)
	}
	return string(d), string(r)
}

// TestExperimentsQuoteTheReport holds EXPERIMENTS.md's Measured columns
// to the report they quote: every number in them, under a section that
// cites the run allGolden pins, must be one that run prints. A cell
// that drifts is fixed in EXPERIMENTS.md; the golden moves only with
// the report.
func TestExperimentsQuoteTheReport(t *testing.T) {
	doc, report := readExperiments(t)
	bad, read := measuredMismatches(doc, report)
	for _, line := range bad {
		t.Error(line)
	}
	for _, want := range citingSections {
		if !slices.ContainsFunc(read, func(h string) bool { return strings.HasPrefix(h, want) }) {
			t.Errorf("no section headed %q cites %s: its Measured column goes unchecked", want, allCommand)
		}
	}
}

// TestExperimentsCheckCanFail doctors one Measured cell at a time and
// requires the check to name the number the report does not print. The
// second doctors a cell to the paper's figure, which the report prints
// beside the measured one.
func TestExperimentsCheckCanFail(t *testing.T) {
	doc, report := readExperiments(t)
	for _, tc := range []struct{ cell, doctored, want string }{
		{"| 2,641 = 8.7 % |", "| 2,614 = 8.7 % |", "2614 is not in the report"},
		{"| 634 = 6.3 % |", "| 634 = 6.4 % |", "6.4 is not in the report"},
		{"| 1,302 | 1,302 |", "| 1,302 | 1,320 |", "1320 is not in the report"},
	} {
		if strings.Count(doc, tc.cell) != 1 {
			t.Fatalf("EXPERIMENTS.md holds %q %d times, want once", tc.cell, strings.Count(doc, tc.cell))
		}
		bad, _ := measuredMismatches(strings.Replace(doc, tc.cell, tc.doctored, 1), report)
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("doctored %q to %q: got %q, want one line naming %q", tc.cell, tc.doctored, bad, tc.want)
		}
	}
}
