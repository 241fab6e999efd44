package scanner

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// wireRecorder is an Exchanger that keeps the distinct (query,
// response) octet pairs crossing it.
type wireRecorder struct {
	inner netsim.Exchanger

	mu    sync.Mutex
	pairs map[string]bool
}

func (w *wireRecorder) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := w.inner.Exchange(ctx, server, q)
	if err != nil {
		return nil, err
	}
	qw, err := q.Pack()
	if err != nil {
		return nil, err
	}
	rw, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	var pair []byte
	pair = binary.BigEndian.AppendUint32(pair, uint32(len(qw)))
	pair = append(append(pair, qw...), rw...)
	w.mu.Lock()
	w.pairs[string(pair)] = true
	w.mu.Unlock()
	return resp, nil
}

// digest is one SHA-256 over the sorted distinct pairs.
func (w *wireRecorder) digest() string {
	sorted := make([]string, 0, len(w.pairs))
	for p := range w.pairs {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	h := sha256.New()
	for _, p := range sorted {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p))))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

const wireDigestPath = "testdata/scan-seed9.sha256"

// TestScanAllIndependentOfWorkers: every draw the scanner makes is a
// function of its seed and the query it serves, so one worker and
// eight scan the same world into the same per-domain Results — probe
// NSEC3 records and query counts included — over the same set of
// query and response octets. That set's digest is committed, so a
// change to anything the scanner sends or its resolver answers fails
// here; CORE_WRITE_GOLDEN=1 rewrites it.
func TestScanAllIndependentOfWorkers(t *testing.T) {
	scan := func(workers int) (map[dnswire.Name]Result, string) {
		net, u := scanWorld(t, 600)
		rec := &wireRecorder{inner: net, pairs: map[string]bool{}}
		sc := New(Config{Exchanger: rec, Resolver: netsim.Addr4(1, 1, 1, 1), Workers: workers, Seed: 7})
		defer sc.Close()
		names := make([]dnswire.Name, len(u.Domains))
		for i := range u.Domains {
			names[i] = u.Domains[i].Name
		}
		sinks := make([]*countingSink, workers)
		err := sc.ScanAll(context.Background(), Names(names), func(w int) Sink {
			sinks[w] = &countingSink{}
			return sinks[w]
		})
		if err != nil {
			t.Fatal(err)
		}
		results := map[dnswire.Name]Result{}
		for _, s := range sinks {
			for _, r := range s.results {
				if r.Err != nil {
					t.Fatalf("workers=%d: %s: %v", workers, r.Facts.Domain, r.Err)
				}
				results[r.Facts.Domain] = r
			}
		}
		if len(results) != len(u.Domains) {
			t.Fatalf("workers=%d: %d results for %d domains", workers, len(results), len(u.Domains))
		}
		return results, rec.digest()
	}
	one, oneDigest := scan(1)
	eight, eightDigest := scan(8)
	for d, r := range one {
		if !reflect.DeepEqual(r, eight[d]) {
			t.Fatalf("%s: Workers 1 and 8 differ:\n1: %+v\n8: %+v", d, r, eight[d])
		}
	}
	if oneDigest != eightDigest {
		t.Fatalf("wire digest %s at Workers 1, %s at Workers 8", oneDigest, eightDigest)
	}
	if os.Getenv("CORE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(wireDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireDigestPath, []byte(oneDigest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(wireDigestPath)
	if err != nil {
		t.Fatalf("committed digest missing (CORE_WRITE_GOLDEN=1 writes it): %v", err)
	}
	if want := strings.TrimSpace(string(want)); oneDigest != want {
		t.Fatalf("wire digest %s, committed %s", oneDigest, want)
	}
}
