package statewalk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/obs"
	"repro/internal/respop"
	"repro/internal/scanner"
)

// TestEnumerateIndexPure pins the enumerator's determinism contract:
// indices are positional, IDs unique, repeated calls identical.
func TestEnumerateIndexPure(t *testing.T) {
	a, b := Enumerate(), Enumerate()
	if len(a) != len(b) {
		t.Fatalf("Enumerate length changed between calls: %d vs %d", len(a), len(b))
	}
	ids := make(map[string]int)
	for i, tp := range a {
		if tp.Index != i {
			t.Errorf("Enumerate()[%d].Index = %d", i, tp.Index)
		}
		if a[i] != b[i] {
			t.Errorf("Enumerate()[%d] differs between calls: %+v vs %+v", i, a[i], b[i])
		}
		if prev, dup := ids[tp.ID()]; dup {
			t.Errorf("duplicate topology ID %q at indices %d and %d", tp.ID(), prev, i)
		}
		ids[tp.ID()] = i
	}
}

// TestStatewalkNoDivergences is the main differential gate: every
// (topology × profile) cell through the real resolver, and not one
// divergence from the model.
func TestStatewalkNoDivergences(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	sum, err := Run(context.Background(), Config{
		Seed: 1,
		Out:  scanner.NewEncoder(&buf),
		Obs:  reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := len(Enumerate()) * len(respop.Profiles())
	if sum.Cells != want || sum.Topologies*sum.Profiles != want {
		t.Fatalf("ran %d cells of %d topologies × %d profiles, want %d", sum.Cells, sum.Topologies, sum.Profiles, want)
	}
	if got := reg.Counter("statewalk_cells_total", "").Value(); got != uint64(want) {
		t.Errorf("statewalk_cells_total = %d, want %d", got, want)
	}
	if sum.Divergences != 0 {
		t.Errorf("%d divergences:\n%s", sum.Divergences, buf.String())
	}
}

// TestStatewalkStateTransparent runs the whole matrix on cold resolvers
// and then once under each piece of state a resolver can carry between
// queries, and requires that no cell's verdict move:
//   - memo: one dnssec.VerifyMemo shared by every cell. The whole
//     record — triple and upstream query trace — equals the cold run's,
//     whichever profile's resolver first put a verdict there, and the
//     memo both hit and missed;
//   - warm cuts: a delegation cache that already holds every cut on the
//     way to the cell's question. The triple is the one the model
//     predicts for a cold resolver, and the matrix sends fewer distinct
//     upstream queries than cold, or the cache was never consulted and
//     the row proves nothing.
func TestStatewalkStateTransparent(t *testing.T) {
	w, err := BuildWorld(1)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	profiles := respop.Profiles()
	matrix := func(t *testing.T, memo *dnssec.VerifyMemo, warmCuts bool) []*Record {
		t.Helper()
		var recs []*Record
		for _, topo := range w.Topologies {
			for _, prof := range profiles {
				rec, err := runCell(context.Background(), w, len(recs), topo, prof, memo, warmCuts)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
			}
		}
		return recs
	}
	queries := func(recs []*Record) (n int) {
		for _, rec := range recs {
			n += len(rec.Trace)
		}
		return n
	}
	cold := matrix(t, nil, false)
	if want := len(Enumerate()) * len(profiles); len(cold) != want {
		t.Fatalf("ran %d cells, want %d", len(cold), want)
	}

	memoReg := obs.NewRegistry()
	for _, row := range []struct {
		name     string
		memo     *dnssec.VerifyMemo
		warmCuts bool
		// cell says how a cell under the state differs from what it
		// must be, or "" when it does not.
		cell func(topo TopologySpec, prof respop.Profile, cold, got *Record) string
		// exercised says why the state was never used, or "".
		exercised func(got []*Record) string
	}{
		{
			name: "memo",
			memo: dnssec.NewVerifyMemo(memoReg),
			cell: func(_ TopologySpec, _ respop.Profile, cold, got *Record) string {
				if reflect.DeepEqual(got, cold) {
					return ""
				}
				return fmt.Sprintf("shared memo changed the cell\n with: %+v\nwithout: %+v", got, cold)
			},
			exercised: func([]*Record) string {
				checks := memoReg.Counter("resolver_sig_verifications_total", "").Value()
				hits := memoReg.Counter("resolver_sig_verify_memo_hits_total", "").Value()
				if hits == 0 || hits >= checks {
					return fmt.Sprintf("memo never shared or never missed: %d hits of %d checks", hits, checks)
				}
				return ""
			},
		},
		{
			name:     "warm cuts",
			warmCuts: true,
			cell: func(topo TopologySpec, prof respop.Profile, _, got *Record) string {
				if want := Expect(topo, prof.Policy).JSON(); got.Observed != want {
					return fmt.Sprintf("observed %+v, want %+v\ntrace: %v", got.Observed, want, got.Trace)
				}
				return ""
			},
			exercised: func(got []*Record) string {
				if warm, cold := queries(got), queries(cold); warm >= cold {
					return fmt.Sprintf("warm cuts saved nothing: %d distinct upstream queries warm, %d cold", warm, cold)
				}
				return ""
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			got := matrix(t, row.memo, row.warmCuts)
			for i, rec := range got {
				topo, prof := w.Topologies[i/len(profiles)], profiles[i%len(profiles)]
				if msg := row.cell(topo, prof, cold[i], rec); msg != "" {
					t.Errorf("%s × %s: %s", topo.ID(), prof.Policy.Name, msg)
				}
			}
			if msg := row.exercised(got); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestStatewalkCellsPinned compares Run's seed-7 report of every cell —
// the triples and each cell's upstream query trace — with the committed
// testdata/cells-seed7.ndjson, octet for octet, and names the first
// line that differs. A change that moves a verdict, or a query the
// resolver sends on its way to one, fails here. CORE_WRITE_GOLDEN=1
// rewrites the file first — a deliberate act, done on a commit whose
// science is the reference.
func TestStatewalkCellsPinned(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(context.Background(), Config{Seed: 7, EmitCells: true, Out: scanner.NewEncoder(&buf)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	path := filepath.Join("testdata", "cells-seed7.ndjson")
	if os.Getenv("CORE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("committed report missing (CORE_WRITE_GOLDEN=1 writes it): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("report differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report differs from %s: %d lines, want %d", path, len(gl), len(wl))
}

// TestRunCancelled: a run whose context is already cancelled returns
// context.Canceled and writes no record, whatever cells had started.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	sum, err := Run(ctx, Config{Seed: 1, EmitCells: true, Out: scanner.NewEncoder(&buf)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want context.Canceled", sum, err)
	}
	if buf.Len() != 0 {
		t.Errorf("cancelled run wrote records:\n%s", buf.String())
	}
}
