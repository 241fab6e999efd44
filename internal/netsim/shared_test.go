package netsim_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/testbed"
)

const (
	inception  = 1709251200
	expiration = 1717200000
	now        = 1712000000
)

// buildTestbedWorld is the root, com and the paper's 49 testbed zones
// on one network.
func buildTestbedWorld(t *testing.T) *testbed.Hierarchy {
	t.Helper()
	b := testbed.NewBuilder(inception, expiration)
	testbed.InstallWorld(b)
	h, err := b.Build(netsim.NewNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// newValidator is a cold RFC 9276-style validator on h's network.
func newValidator(h *testbed.Hierarchy) *resolver.Resolver {
	return resolver.New(resolver.Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy: resolver.Policy{
			Name: "shared-responses", Validate: true,
			InsecureLimit: 150, ServfailLimit: resolver.NoLimit,
			VerifyInsecureNSEC3: true,
			EDE:                 dnswire.EDEUnsupportedNSEC3Iter,
		},
		Now: func() uint32 { return now },
	})
}

// walkTestbed has r resolve every testbed zone's DNSKEY and DS RRsets
// and its probe name under unique, and returns one line per answer:
// what a validator concluded, for comparing validators.
func walkTestbed(ctx context.Context, r *resolver.Resolver, unique string) ([]string, error) {
	var out []string
	for _, sub := range testbed.Subdomains() {
		for _, q := range []dnswire.Question{
			{Name: sub.Apex(), Type: dnswire.TypeDNSKEY},
			{Name: sub.Apex(), Type: dnswire.TypeDS},
			{Name: sub.QName(unique), Type: dnswire.TypeA},
		} {
			res, err := r.Resolve(ctx, q.Name, q.Type)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", q.Name, q.Type, err)
			}
			name := q.Name.String()
			if q.Type == dnswire.TypeA {
				name = sub.Label
			}
			out = append(out, fmt.Sprintf("%s %s %s ad=%t answers=%d", name, q.Type, res.RCode, res.AD, len(res.Answers)))
		}
	}
	return out, nil
}

// TestSharedResponsesConcurrent has two cold validators walk the same
// testbed zones at once through one network, so the DNSKEY and DS
// responses they fetch are the same octets under the same IDs. Both
// must conclude what a validator walking alone concludes; under -race
// (ci.sh runs it ten times) a response one of them writes into while
// the other reads it shows as a race.
func TestSharedResponsesConcurrent(t *testing.T) {
	h := buildTestbedWorld(t)
	ctx := context.Background()
	want, err := walkTestbed(ctx, newValidator(h), "alone")
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = walkTestbed(ctx, newValidator(h), "alone")
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("validator %d: %v", i, errs[i])
		}
		if !slices.Equal(got[i], want) {
			t.Errorf("validator %d concluded differently:\n got %q\nwant %q", i, got[i], want)
		}
	}
}

// TestSharedResponsesIntact has several cold validators, each behind an
// address on the network, probe the testbed through it, as the resolver
// study does. Every response the network then shares must still be
// what its octets decode to: a validator, prober or cache that writes
// through a response it was handed changes it under every other asker.
func TestSharedResponsesIntact(t *testing.T) {
	h := buildTestbedWorld(t)
	ctx := context.Background()
	for i := range 4 {
		addr := netsim.Addr4(10, 53, 0, byte(i))
		h.Net.Register(addr, newValidator(h))
		if _, err := testbed.ProbeResolver(ctx, h.Net, addr, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := walkTestbed(ctx, newValidator(h), fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	shared := map[dnswire.Type]int{}
	h.Net.SharedResponses(func(wire []byte, msg *dnswire.Message) {
		shared[msg.Question().Type]++
		fresh, err := dnswire.Unpack(wire)
		if err != nil {
			t.Fatalf("shared octets no longer decode: %v", err)
		}
		if !reflect.DeepEqual(msg, fresh) {
			t.Errorf("shared %s %s response differs from its octets' decoding:\n got %v\nwant %v", msg.Question().Name, msg.Question().Type, msg, fresh)
		}
	})
	if shared[dnswire.TypeDNSKEY] == 0 || shared[dnswire.TypeDS] == 0 {
		t.Fatalf("shared responses by type %v: want DNSKEY and DS among them", shared)
	}
}
