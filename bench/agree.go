package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"

	"repro/bench/internal/stats"
)

// This file runs workloads in child processes of the same binary:
// --workload all, and -agree, the second acceptance check kept as a
// command — two full sets of runs of the same code must agree within
// the benchmark's own bounds.

// runChild runs one workload in a child process and parses the result
// from the last line of its standard output.
func runChild(ctx context.Context, o options, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace, scale := "0", "full"
	if o.trace {
		trace = "1"
	}
	if o.smoke {
		scale = "smoke"
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", trace, "--scale", scale, "--out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", o.workload, o.seed, err)
	}
	return &res, nil
}

// runAll runs every workload once, each in its own child, and prints
// one result line per workload.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		o.workload = w.Name
		res, err := runChild(ctx, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
			continue
		}
		line, _ := json.Marshal(struct { // a result always marshals
			Workload string `json:"workload"`
			*result
		}{w.Name, res})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runAgree measures every workload runs times in each of two sets, one
// seed per run, and compares the sets' medians metric by metric.
func runAgree(ctx context.Context, o options, runs int, stdout, stderr io.Writer) int {
	if runs < 1 {
		fmt.Fprintln(stderr, "bench: -runs must be at least 1")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !workloadNamed(o.workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, name := range names {
			values[set][name] = make(map[string][]float64)
			for k := 0; k < runs; k++ {
				c := o
				c.workload, c.trace, c.seed = name, false, o.seed+uint64(k)
				res, err := runChild(ctx, c, io.Discard)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				for m, v := range res.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
				fmt.Fprintf(stderr, "bench: set %d %s seed %d done\n", set+1, name, c.seed)
			}
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian 1\tmedian 2\tdiff\tbound\tspread 1\tspread 2\t")
	code := 0
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := values[0][name][d.Name], values[1][name][d.Name]
			ma, mb := stats.Median(a), stats.Median(b)
			diff := math.Abs(mb-ma) / ma
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				name, d.Name, ma, mb, (mb-ma)/ma*100, d.Bound*100,
				stats.IQRShare(a)*100, stats.IQRShare(b)*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return code
}
