package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"slices"
	"time"

	"repro/bench/internal/load"
	"repro/bench/internal/span"
	"repro/bench/internal/stats"
	"repro/internal/authserver"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

// This file runs authd_hot and authd_unique: one client calling
// netsim.Network.Exchange against one authserver.Server that hosts one
// large NSEC3 zone with iterations 0 and no salt — the paper's "zeros".
// Exchange is the wire-in/wire-out entry both experiments use, so a
// later fast path inside it is measured without editing the benchmark.
// The loop is closed: the client sends its next query when the
// previous reply has arrived. An op is one query.

const verifyEvery = 1024 // every n-th NXDOMAIN has its NSEC3 proof re-verified

// authdWorld is the served zone and the way to reach it.
type authdWorld struct {
	net    *netsim.Network
	srv    *authserver.Server
	addr   netip.AddrPort
	apex   dnswire.Name
	labels []string
	signed *zone.Signed
	// signSeconds is the Zone.Sign share of the set-up.
	signSeconds float64
}

// buildAuthdWorld builds, signs and serves the zone, and returns once
// the server has answered its first query: the whole set-up a user of
// authd waits for.
func buildAuthdWorld(ctx context.Context, seed uint64, names int) (*authdWorld, error) {
	apex := dnswire.MustParseName("bench.example.")
	w := &authdWorld{
		net:    netsim.NewNetwork(seed),
		srv:    authserver.New(),
		addr:   netsim.Addr4(192, 0, 2, 53),
		apex:   apex,
		labels: load.HostLabels(seed, names),
	}
	z := zone.New(apex, 300)
	ns := apex.MustChild("ns")
	for _, rr := range []dnswire.RR{
		{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
			MName: ns, RName: apex.MustChild("hostmaster"),
			Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
		}},
		{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: ns}},
		{Name: ns, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.A{Addr: w.addr.Addr()}},
	} {
		if err := z.Add(rr); err != nil {
			return nil, err
		}
	}
	for _, l := range w.labels {
		err := z.Add(dnswire.RR{Name: apex.MustChild(l), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{"v=bench " + l}}})
		if err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	signed, err := z.Sign(zone.SignConfig{
		Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 0},
		Inception: core.DefaultInception, Expiration: core.DefaultExpiration,
	})
	if err != nil {
		return nil, err
	}
	w.signSeconds = time.Since(t0).Seconds()
	w.signed = signed
	w.srv.AddZone(signed)
	w.net.Register(w.addr, w.srv)
	resp, err := w.net.Exchange(ctx, w.addr, dnswire.NewQuery(1, apex, dnswire.TypeSOA, true))
	if err != nil {
		return nil, err
	}
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
		return nil, fmt.Errorf("first answer: rcode %s with %d answers", resp.Header.RCode, len(resp.Answers))
	}
	return w, nil
}

// stream returns the workload's query stream over this world's zone.
func (w *authdWorld) stream(workload string, seed uint64) load.Stream {
	if workload == wAuthdHot {
		return load.NewHot(seed, w.apex, w.labels)
	}
	return load.NewUnique(seed, w.apex, w.labels)
}

// checker verifies responses outside the timed span.
type checker struct {
	wrongRCode bool
	nx         int64
	verified   int64
}

// check returns an error describing why resp is not the answer q asks
// for, or nil.
func (c *checker) check(q load.Question, id uint16, resp *dnswire.Message) error {
	if resp.Header.ID != id || !resp.Header.Response {
		return fmt.Errorf("%s: response id %d for query %d", q.Name, resp.Header.ID, id)
	}
	want := dnswire.RCodeNoError
	if q.NX != c.wrongRCode {
		want = dnswire.RCodeNXDomain
	}
	if resp.Header.RCode != want {
		return fmt.Errorf("%s: rcode %s, want %s", q.Name, resp.Header.RCode, want)
	}
	if len(resp.Questions) != 1 || resp.Questions[0].Name != q.Name {
		return fmt.Errorf("%s: question not echoed", q.Name)
	}
	if !q.NX {
		var txt, sig bool
		for _, rr := range resp.Answers {
			switch rr.Type() {
			case dnswire.TypeTXT:
				txt = true
			case dnswire.TypeRRSIG:
				sig = true
			}
		}
		if !txt || !sig {
			return fmt.Errorf("%s: answer lacks TXT or its RRSIG", q.Name)
		}
		return nil
	}
	var soa, n3 bool
	for _, rr := range resp.Authority {
		switch rr.Type() {
		case dnswire.TypeSOA:
			soa = true
		case dnswire.TypeNSEC3:
			n3 = true
		}
	}
	if !soa || !n3 || len(resp.Answers) != 0 {
		return fmt.Errorf("%s: NXDOMAIN lacks SOA or NSEC3", q.Name)
	}
	c.nx++
	if c.nx%verifyEvery == 1 {
		set, err := nsec3.ExtractResponseSet(resp.Authority)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		if _, _, err := set.VerifyNXDOMAIN(q.Name); err != nil {
			return fmt.Errorf("%s: NSEC3 proof: %w", q.Name, err)
		}
		c.verified++
	}
	return nil
}

// The box's other tenants slow the server down by a quarter to a half
// in bursts of tens to hundreds of milliseconds, in some minutes for a
// tenth of the time and in others for half of it; what a mean over the
// run measures is the minute it ran in. So the measured stretch is cut
// into windows of authdWindow consecutive queries, about 25 ms, short
// enough that some always fall between bursts, and every timing is the
// fastWindows quantile over the windows: the rate and the latencies of
// the fastest tenth. That tenth also falls between garbage collections
// (a cycle about every 140 ms marks for about 45 ms and slows the loop
// by a fifth meanwhile), so the collector's cost does not show in the
// timings; it shows in allocs_per_op, alloc_kb_per_op and
// harness.gc_cpu_share.
const (
	authdWindow = 2048
	fastWindows = 0.10
)

// window is the timing of up to authdWindow consecutive queries.
type window struct {
	ops      int
	inCall   time.Duration // summed time inside Exchange
	p50, p99 int32         // per-call ns
}

// segment is one measured stretch of the query loop.
type segment struct {
	ops, failed int64
	inCall      time.Duration // summed time inside Exchange
	use         usage
	windows     []window
	// refCalls are the reference kernel's call times, ns, one call
	// after every window (reference.go).
	refCalls []float64
}

// pace is the box's speed during the segment as one of the segment's
// timings felt it (paceOf names which). The box's slow stretches are
// contention for the memory system, so they slow the calls that miss
// the cache, the slow ones, by more than the median call, and the
// reference kernel's calls show the same gradient. Each timing is
// therefore set against the part of the reference calls that moves as
// it does (README.md, "Steadiness", has the measurements the pairing
// rests on).
func (s segment) pace(of paceOf) float64 {
	if len(s.refCalls) == 0 {
		return 1
	}
	c := append([]float64(nil), s.refCalls...)
	slices.Sort(c)
	return c[int(of.quantile*float64(len(c)))] / of.nominalNS
}

// fast is the fastWindows quantile over the segment's windows of f.
func (s segment) fast(f func(window) float64) float64 {
	v := make([]float64, len(s.windows))
	for i, w := range s.windows {
		v[i] = f(w)
	}
	slices.Sort(v)
	return v[int(fastWindows*float64(len(v)))]
}

// throughput is queries per second of in-call time in the fast windows.
func (s segment) throughput() float64 {
	return 1e9 / s.fast(func(w window) float64 { return float64(w.inCall) / float64(w.ops) })
}

// p50 and p99 are the per-call latency quantiles of the fast windows, µs.
func (s segment) p50() float64 { return s.fast(func(w window) float64 { return float64(w.p50) }) / 1e3 }
func (s segment) p99() float64 { return s.fast(func(w window) float64 { return float64(w.p99) }) / 1e3 }

// loadgenShare is the part of the segment's own time (the reference
// kernel's aside) spent outside Exchange: generating the next question
// and checking the last answer.
func (s segment) loadgenShare() float64 {
	var ref float64
	for _, ns := range s.refCalls {
		ref += ns
	}
	return 1 - s.inCall.Seconds()/(s.use.wall.Seconds()-ref/1e9)
}

// querier sends the stream's questions one at a time.
type querier struct {
	ex     netsim.Exchanger
	addr   netip.AddrPort
	stream load.Stream
	check  *checker
	msg    *dnswire.Message
	id     uint16
	lat    []int32 // the current window's per-call ns
	ref    *reference
	log    io.Writer
	// traced marks each query's context with a request number, so the
	// spans a decorated Exchanger records can be told apart.
	traced bool
}

func newQuerier(w *authdWorld, ex netsim.Exchanger, ref *reference, o options, log io.Writer) *querier {
	return &querier{
		ref: ref,
		ex:  ex, addr: w.addr, stream: w.stream(o.workload, o.seed),
		check: &checker{wrongRCode: o.wrongRCode},
		// One query Message is reused; only its ID and question change,
		// so the generator allocates nothing but new names.
		msg: dnswire.NewQuery(0, w.apex, dnswire.TypeA, true),
		lat: make([]int32, 0, authdWindow),
		log: log,
	}
}

// run sends queries for d (or at most maxOps when positive). With
// measure it records the windows' timings and the process counters.
func (q *querier) run(ctx context.Context, d time.Duration, maxOps int64, measure bool) segment {
	var s segment
	q.lat = q.lat[:0]
	var before procSnap
	var win time.Duration
	if measure {
		s.windows = make([]window, 0, 1024)
		before = snap()
	}
	start := time.Now()
	for {
		qu := q.stream.Next()
		q.id++
		q.msg.Header.ID = q.id
		q.msg.Questions[0].Name, q.msg.Questions[0].Type = qu.Name, qu.Type
		cctx := ctx
		if q.traced {
			cctx = span.WithReq(ctx, s.ops+1)
		}
		t0 := time.Now()
		resp, err := q.ex.Exchange(cctx, q.addr, q.msg)
		t1 := time.Now()
		dt := t1.Sub(t0)
		s.inCall += dt
		s.ops++
		if measure {
			win += dt
			q.lat = append(q.lat, int32(min(dt, time.Duration(1<<31-1))))
		}
		done := (maxOps > 0 && s.ops >= maxOps) || (maxOps <= 0 && t1.Sub(start) >= d)
		// A window closes when it is full; the last one is kept short
		// only if there is no full one.
		if measure && (len(q.lat) == authdWindow || (done && len(s.windows) == 0)) {
			slices.Sort(q.lat)
			s.windows = append(s.windows, window{len(q.lat), win,
				stats.QuantileSorted(q.lat, 0.50), stats.QuantileSorted(q.lat, 0.99)})
			q.lat, win = q.lat[:0], 0
			s.refCalls = append(s.refCalls, float64(q.ref.call()))
		}
		if err == nil {
			err = q.check.check(qu, q.id, resp)
		}
		if err != nil {
			if s.failed < 3 {
				fmt.Fprintf(q.log, "bench: query failed: %v\n", err)
			}
			s.failed++
		}
		if done {
			break
		}
	}
	if measure {
		s.use = before.until(snap())
	}
	return s
}

// authdSetup sets the world up n times, timing each, and keeps the
// last one. Earlier worlds are dropped and collected before the next
// is built, so peak RSS stays that of one world. It returns the median
// time over the pace the reference kernel kept meanwhile.
func authdSetup(ctx context.Context, o options, ref *reference, n int) (*authdWorld, float64, error) {
	var w *authdWorld
	times := make([]float64, 0, n)
	pacer := ref.startPacer()
	defer pacer.pace() // stops the pacer on the error path
	for i := 0; i < n; i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = buildAuthdWorld(ctx, o.seed, o.sizes().zoneNames); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, stats.Median(times) / pacer.pace(), nil
}

func runAuthd(ctx context.Context, o options, log io.Writer) (*measured, error) {
	if o.trace {
		return traceAuthd(ctx, o, log)
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	w, setup, err := authdSetup(ctx, o, ref, o.sizes().authdSetups)
	if err != nil {
		return nil, err
	}
	q := newQuerier(w, w.net, ref, o, log)
	total := time.Duration(o.seconds * float64(time.Second))
	warm := min(time.Second, total/10)
	m := &measured{correct: true, values: make(map[string]float64)}
	ws := q.run(ctx, warm, 0, false)
	s := q.run(ctx, total-warm, 0, true)
	m.attempted, m.failed = ws.ops+s.ops, ws.failed+s.failed
	if q.check.nx > 0 && q.check.verified == 0 {
		m.correct = false
	}
	fmt.Fprintf(log, "bench: %d queries in %d windows of %d: %.0f q/s in-call over the whole stretch; in the fast windows %.0f q/s, p50 %.2fus, p99 %.2fus at paces %.3f, %.3f, %.3f; %d NXDOMAIN proofs re-verified\n",
		s.ops, len(s.windows), authdWindow, float64(s.ops)/s.inCall.Seconds(), s.throughput(), s.p50(), s.p99(),
		s.pace(paceOfRate), s.pace(paceOfMedianCall), s.pace(paceOfTailCall), q.check.verified)
	m.values["throughput_ops_s"] = s.throughput() * s.pace(paceOfRate)
	m.values["latency_p50_us"] = s.p50() / s.pace(paceOfMedianCall)
	m.values["latency_p99_us"] = s.p99() / s.pace(paceOfTailCall)
	m.values["allocs_per_op"] = float64(s.use.mallocs) / float64(s.ops)
	m.values["alloc_kb_per_op"] = float64(s.use.allocBytes) / 1024 / float64(s.ops)
	m.values["peak_rss_mb"] = peakRSSMB()
	m.values["setup_s"] = setup
	return m, nil
}
