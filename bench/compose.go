package main

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/bench/internal/span"
	"repro/internal/atlas"
	"repro/internal/authserver"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/scanner"
	"repro/internal/testbed"
)

// This file composes one shard's world from the same public pieces
// ShardRunner.Execute and ResolverShardRunner.Execute compose, so the
// harness can do from outside what the engines do inside: time the
// set-up every run pays before its first query, and put a decorator on
// every netsim.Exchanger and netsim.Handler for the traced run. With a
// nil recorder nothing is decorated.

// Span names are layer names, so self time sums by layer.
const (
	spanSlice    = "harness.slice"
	spanRequests = "harness.requests"
	spanExchange = "netsim.exchange"
	spanResolver = "resolver.handle"
	spanAuth     = "authserver.handle"
	spanDomain   = "scanner.domain"
	spanProbe    = "testbed.probe"
	spanAtlas    = "atlas.measure"
	spanGenerate = "population.generate"
	spanDeploy   = "population.deploy"
	spanWorld    = "testbed.build_world"
	spanFleet    = "respop.deploy"
)

// tracedExchanger records a span around every Exchange.
type tracedExchanger struct {
	inner netsim.Exchanger
	rec   *span.Recorder
}

func (t tracedExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	ctx, sp := t.rec.Start(ctx, spanExchange)
	defer sp.End()
	return t.inner.Exchange(ctx, server, q)
}

// tracedHandler records a span around every Handle.
type tracedHandler struct {
	inner netsim.Handler
	rec   *span.Recorder
	name  string
}

func (t tracedHandler) Handle(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	ctx, sp := t.rec.Start(ctx, t.name)
	defer sp.End()
	return t.inner.Handle(ctx, from, q)
}

// decorate returns the exchanger clients of net should use and a
// function wrapping a handler before it is registered: the traced
// decorators with a recorder, net and the handler themselves without.
func decorate(net *netsim.Network, rec *span.Recorder) (netsim.Exchanger, func(netsim.Handler, string) netsim.Handler) {
	if rec == nil {
		return net, func(h netsim.Handler, _ string) netsim.Handler { return h }
	}
	return tracedExchanger{inner: net, rec: rec}, func(h netsim.Handler, name string) netsim.Handler {
		return tracedHandler{inner: h, rec: rec, name: name}
	}
}

// wrapServers re-registers every authoritative server of a hierarchy
// behind wrap.
func wrapServers(net *netsim.Network, servers map[netip.AddrPort]*authserver.Server, wrap func(netsim.Handler, string) netsim.Handler) {
	for addr := range servers {
		if h, ok := net.Lookup(addr); ok {
			net.Register(addr, wrap(h, spanAuth))
		}
	}
}

func simNow() uint32 { return core.DefaultNow }

// surveyShape is the workload's survey size.
func surveyShape(o options) (registered, shards int) {
	sz := o.sizes()
	if o.workload == wSurveyOneWorld {
		return sz.oneWorldRegistered, 1
	}
	return sz.shardedRegistered, sz.shardedShards
}

// surveyShard is shard 0 of the workload's survey, deployed and ready
// to be scanned.
type surveyShard struct {
	domains []population.DomainSpec
	sc      *scanner.Scanner
}

// deploySurveyShard does what a survey does before its first query:
// generate shard 0, deploy it with lazy signing on a network of its
// own, install the shared scan resolver, construct the scanner. reg
// (nil ok) receives the resolver's counters.
func deploySurveyShard(ctx context.Context, o options, rec *span.Recorder, reg *obs.Registry) (*surveyShard, error) {
	registered, shards := surveyShape(o)
	_, sp := rec.Start(ctx, spanGenerate)
	cur, err := population.NewShardCursor(population.Config{Registered: registered, Seed: o.seed}, shards)
	if err != nil {
		return nil, err
	}
	shard, err := cur.Next()
	sp.End()
	if err != nil {
		return nil, err
	}

	_, sp = rec.Start(ctx, spanDeploy)
	defer sp.End()
	net := netsim.NewNetwork(o.seed)
	dep, err := population.Deploy(shard.Universe, net, core.DefaultInception, core.DefaultExpiration,
		population.WithSignCache(testbed.NewSignCache()), population.WithLazySigning())
	if err != nil {
		return nil, err
	}
	ex, wrap := decorate(net, rec)
	wrapServers(net, dep.Hierarchy.Servers, wrap)
	resolverAddr := netsim.Addr4(1, 1, 1, 1)
	net.Register(resolverAddr, wrap(resolver.New(resolver.Config{
		Roots: dep.Hierarchy.Roots, TrustAnchor: dep.Hierarchy.TrustAnchor, Exchanger: ex,
		Policy: respop.Cloudflare.Policy, Now: simNow, MaxCacheEntries: 1 << 16, Obs: reg,
	}), spanResolver))
	return &surveyShard{
		domains: shard.Universe.Domains,
		sc:      scanner.New(scanner.Config{Exchanger: ex, Resolver: resolverAddr, Workers: procs, Seed: o.seed + 1}),
	}, nil
}

// forEach runs fn(i) for i in [0,n) on procs workers, the closed loop
// every batch workload is, and returns how many calls reported failure.
func forEach(n int, fn func(i int) (ok bool)) (failed int64) {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				if !fn(int(i)) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return bad.Load()
}

// scan scans the shard's first n domains, each under its own request
// span. ScanAll gives no per-domain hook, so the worker loop is here:
// the same ScanDomain calls its workers make.
func (s *surveyShard) scan(ctx context.Context, rec *span.Recorder, n int) (ops, failed int64) {
	domains := s.domains[:min(n, len(s.domains))]
	ctx, sp := rec.Start(ctx, spanRequests)
	defer sp.End()
	failed = forEach(len(domains), func(i int) bool {
		dctx, d := rec.Start(span.WithReq(ctx, int64(i)+1), spanDomain)
		r := s.sc.ScanDomain(dctx, domains[i].Name)
		d.End()
		if r.Err == nil {
			compliance.Classify(r.Facts)
		}
		return r.Err == nil
	})
	return int64(len(domains)), failed
}

// resolverShard is shard 0 of the resolver study's fleet on a testbed
// world of its own, ready to be probed.
type resolverShard struct {
	ex    netsim.Exchanger
	fleet []respop.Assignment
}

// deployResolverShard does what the resolver study does before its
// first probe: build the lazily signed testbed world and deploy shard
// 0's validators on it. reg (nil ok) receives the resolvers' counters.
func deployResolverShard(ctx context.Context, o options, rec *span.Recorder, reg *obs.Registry) (*resolverShard, error) {
	sz := o.sizes()
	_, sp := rec.Start(ctx, spanWorld)
	h, err := core.BuildTestbedWorld(o.seed, testbed.WithLazySigning(), testbed.WithCache(testbed.NewSignCache()))
	if err != nil {
		return nil, err
	}
	ex, wrap := decorate(h.Net, rec)
	wrapServers(h.Net, h.Servers, wrap)
	sp.End()

	_, sp = rec.Start(ctx, spanFleet)
	defer sp.End()
	planner, err := respop.NewPlanner(respop.DeployConfig{
		Counts: respop.DefaultCounts(sz.resolverScaleDen), Seed: o.seed + 11, Now: simNow,
	})
	if err != nil {
		return nil, err
	}
	cur, err := planner.Cursor(planner.Plan(sz.resolverShards)[0])
	if err != nil {
		return nil, err
	}
	s := &resolverShard{ex: ex}
	for a, ok := cur.Next(); ok; a, ok = cur.Next() {
		h.Net.Register(a.Addr, wrap(resolver.New(resolver.Config{
			Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: ex,
			Policy: a.Profile.Policy, Now: simNow, Obs: reg,
		}), spanResolver))
		s.fleet = append(s.fleet, a)
	}
	return s, nil
}

// probe probes the shard's first n validators, open ones directly and
// closed ones through the Atlas platform, each under its own request
// span.
func (s *resolverShard) probe(ctx context.Context, rec *span.Recorder, n int) (ops, failed int64) {
	fleet := s.fleet[:min(n, len(s.fleet))]
	platform := &atlas.Platform{Exchanger: s.ex, MaxConcurrent: 1}
	ctx, sp := rec.Start(ctx, spanRequests)
	defer sp.End()
	failed = forEach(len(fleet), func(i int) bool {
		a := fleet[i]
		rctx := span.WithReq(ctx, int64(a.Index)+1)
		var tr *testbed.Transcript
		var err error
		if a.Quadrant == respop.OpenIPv4 || a.Quadrant == respop.OpenIPv6 {
			rctx, p := rec.Start(rctx, spanProbe)
			tr, err = testbed.ProbeResolver(rctx, s.ex, a.Addr, fmt.Sprintf("open-%d", a.Index))
			p.End()
		} else {
			rctx, p := rec.Start(rctx, spanAtlas)
			res := platform.Measure(rctx, []atlas.Probe{{
				ID: a.Index, Resolver: a.Addr, IPv6: a.Quadrant == respop.ClosedIPv6,
			}}, "closed")
			p.End()
			tr, err = res[0].Transcript, res[0].Err
		}
		if err != nil || tr == nil {
			return false
		}
		compliance.ClassifyResolver(tr)
		return true
	})
	return int64(len(fleet)), failed
}
