package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests drive run as the process would be driven — flags in, a
// loopback coordinator and its workers, a /metrics endpoint — and read
// what it prints.

// output is a stdout or stderr that run's goroutines and the test share.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// await waits for re to match the output and returns its first
// submatch; it fails the test if done closes first or 30 s pass.
func (o *output) await(t *testing.T, re string, done <-chan struct{}) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.After(30 * time.Second)
	for {
		if m := rx.FindStringSubmatch(o.String()); m != nil {
			return m[1]
		}
		select {
		case <-done:
			t.Fatalf("exited before printing %q:\n%s", re, o.String())
		case <-deadline:
			t.Fatalf("never printed %q:\n%s", re, o.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// gate is a stdout that holds run at its first report section ("===="),
// after the study is done but before run returns and takes its /metrics
// endpoint down, so the test can scrape the final counters.
type gate struct {
	output
	held, release chan struct{}
	hold, open    sync.Once
}

func newGate() *gate {
	return &gate{held: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("====")) {
		g.hold.Do(func() {
			close(g.held)
			<-g.release
		})
	}
	return g.output.Write(p)
}

// Open lets run go on past the gate.
func (g *gate) Open() { g.open.Do(func() { close(g.release) }) }

// started is one run in a goroutine.
type started struct {
	code   int
	done   chan struct{}
	stderr *output
}

// start runs run(ctx, args, stdout, stderr) in a goroutine; the test's
// cleanup cancels ctx and waits for it.
func start(t *testing.T, args []string, stdout io.Writer) *started {
	ctx, cancel := context.WithCancel(context.Background())
	s := &started{done: make(chan struct{}), stderr: &output{}}
	go func() {
		defer close(s.done)
		s.code = run(ctx, args, stdout, s.stderr)
	}()
	t.Cleanup(func() {
		cancel()
		<-s.done
	})
	return s
}

// wait returns run's exit status, failing the test past 60 s.
func (s *started) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-s.done:
		return s.code
	case <-time.After(60 * time.Second):
		t.Fatalf("run did not return:\n%s", s.stderr.String())
		return 0
	}
}

// held waits until run writes its first report section to g. The gate
// opens at the latest in the test's cleanup, which runs before start's
// and so lets run return.
func (s *started) held(t *testing.T, g *gate) {
	t.Helper()
	t.Cleanup(g.Open)
	select {
	case <-g.held:
	case <-s.done:
		t.Fatalf("exit %d before the report:\n%s", s.code, s.stderr.String())
	case <-time.After(60 * time.Second):
		t.Fatalf("no report within 60 s:\n%s", s.stderr.String())
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// hasLine reports whether text has a line matching re.
func hasLine(text, re string) bool {
	return regexp.MustCompile(`(?m)^` + re + `$`).MatchString(text)
}

const metricsLine = `repro: metrics on (http://\S+/metrics)\n`

// TestRunMetricsReachesStudy: -metrics serves the study's own counters
// while it runs — the registry run makes is the one the survey fills.
func TestRunMetricsReachesStudy(t *testing.T) {
	g := newGate()
	s := start(t, []string{"-fig1", "-shards", "2", "-domain-scale", "50000", "-metrics", "127.0.0.1:0"}, g)
	url := s.stderr.await(t, metricsLine, s.done)
	s.held(t, g)
	if got := get(t, strings.TrimSuffix(url, "metrics")+"healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q, want ok", got)
	}
	m := get(t, url)
	for _, re := range []string{`survey_shards_completed_total 2`, `survey_rrsigs_signed_total [1-9]\d*`} {
		if !hasLine(m, re) {
			t.Errorf("/metrics has no line %q:\n%s", re, m)
		}
	}
	g.Open()
	if code := s.wait(t); code != 0 {
		t.Fatalf("exit %d: %s", code, s.stderr.String())
	}
}

// TestRunDistributed runs each study as a coordinator (-serve) and two
// workers (-worker) on loopback, all started with the same study
// flags: both workers are counted, every shard leaves a checkpoint in -state-dir, and the
// coordinator prints the report the in-process run prints.
func TestRunDistributed(t *testing.T) {
	for _, c := range []struct {
		name, shardsDone string
		flags            []string
	}{
		{"survey", "survey_shards_completed_total", []string{"-fig1", "-table2", "-tlds", "-shards", "4", "-domain-scale", "500000"}},
		{"resolver-study", "resolverstudy_shards_completed_total", []string{"-fig3", "-shards", "4", "-resolver-scale", "2000"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			state := t.TempDir()
			g := newGate()
			coord := start(t, append([]string{"-serve", "127.0.0.1:0", "-state-dir", state, "-metrics", "127.0.0.1:0"}, c.flags...), g)
			url := coord.stderr.await(t, metricsLine, coord.done)
			addr := coord.stderr.await(t, `repro: coordinating on (\S+)\n`, coord.done)
			workers := []*started{
				start(t, append([]string{"-worker", addr}, c.flags...), io.Discard),
				start(t, append([]string{"-worker", addr}, c.flags...), io.Discard),
			}
			coord.held(t, g)
			m := get(t, url)
			for _, re := range []string{c.shardsDone + ` 4`, `distsurvey_leases_granted_total \d+`, `distsurvey_workers_connected_total 2`} {
				if !hasLine(m, re) {
					t.Errorf("coordinator /metrics has no line %q:\n%s", re, m)
				}
			}
			g.Open()
			if code := coord.wait(t); code != 0 {
				t.Fatalf("coordinator exit %d: %s", code, coord.stderr.String())
			}
			for i, w := range workers {
				if code := w.wait(t); code != 0 {
					t.Errorf("worker %d exit %d: %s", i+1, code, w.stderr.String())
				}
			}
			if ckpts, _ := filepath.Glob(filepath.Join(state, "shard-*.json")); len(ckpts) != 4 {
				t.Errorf("%d shard checkpoints in -state-dir, want 4: %v", len(ckpts), ckpts)
			}

			// Past each run's one-paragraph header, the coordinator's
			// report is the in-process run's.
			var local, stderr bytes.Buffer
			if code := run(context.Background(), c.flags, &local, &stderr); code != 0 {
				t.Fatalf("in-process exit %d: %s", code, stderr.String())
			}
			_, want, _ := strings.Cut(local.String(), "\n\n")
			_, got, _ := strings.Cut(g.String(), "\n\n")
			if got != want || got == "" {
				t.Errorf("coordinator report differs from the in-process run's:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestRunStatewalkReport: -statewalk -statewalk-cells writes every
// cell's record to -statewalk-out, and the file equals the package's
// own golden octet for octet, so the command answers as
// internal/statewalk does.
func TestRunStatewalkReport(t *testing.T) {
	const golden = "../../internal/statewalk/testdata/cells-seed7.ndjson"
	out := filepath.Join(t.TempDir(), "cells.ndjson")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-statewalk", "-seed", "7", "-statewalk-cells", "-statewalk-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	if !hasLine(stdout.String(), `  cells executed +462`) {
		t.Errorf("stdout does not report 462 cells:\n%s", stdout.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("-statewalk-out differs from %s at cell %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("-statewalk-out has %d lines, %s %d", len(gl), golden, len(wl))
	}
}
