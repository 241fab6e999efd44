package main

// This file is the harness's registry: the workloads, the end-to-end
// metrics with the bound by which each may worsen, and the per-layer
// metrics of the traced run. BENCHMARK.json at the repository root
// carries the same lists; TestManifestMatchesRegistry fails on drift.

// The harness measures a fixed machine shape: GOMAXPROCS and every
// Workers field are pinned to this, the core count of the reference box.
const procs = 2

// runSeconds is the default measuring time of one run, the manifest's
// run_seconds.
const runSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wSurveySharded  = "survey_sharded"
	wSurveyOneWorld = "survey_oneworld"
	wResolverStudy  = "resolverstudy"
	wAuthdHot       = "authd_hot"
	wAuthdUnique    = "authd_unique"
)

var workloads = []workloadDef{
	{wSurveySharded, "RunSurvey over 12000 domains in 4 small worlds: lazy signing, codec and validation carry the time; the shape where parallel shards and a shared sign cache must show"},
	{wSurveyOneWorld, "RunSurvey over 8000 domains in one world: per-query costs that grow with hosted zones and queries seen carry the time; a sharded win bought with per-world cost shows here as a loss"},
	{wResolverStudy, "RunResolverStudy, 255 cold validators x 50 unique probes: iterated NSEC3 hashing and validator policy dominate and answer caches are bypassed"},
	{wAuthdHot, "one client, 64 fixed questions cycling against a 20000-name iterations-0 NSEC3 zone through Network.Exchange: a qname-keyed answer cache hits on every query"},
	{wAuthdUnique, "same zone and loop, every query new (random existing TXT or never-repeated NXDOMAIN): bypasses a qname-keyed cache, so only per-query cost can move it"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the two experiments and of authd sees.
// Bounds are shares of the parent's median. failed_share is not a
// metric here because it is 0 on every workload and a bound on 0 is
// meaningless: it is reported through the result's attempted and
// failed counts, where any failure makes the run incorrect.
//
// The bounds are what the measured run-to-run spread allows (README.md,
// "Steadiness"): the shared 2-core box slows by a fifth to a third for
// minutes at a time; the time-based metrics are fast quantiles over a
// reference kernel's pace and spread by 2–7 % in a noisy half hour, but
// a worse one will come. The allocation counts differ by up to 2 %
// between seeds because the generated universes differ in their share
// of signed zones.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", higher, 0.25},
	{"latency_p50_us", "us", lower, 0.25},
	{"latency_p99_us", "us", lower, 0.25},
	{"allocs_per_op", "allocs/op", lower, 0.05},
	{"alloc_kb_per_op", "KB/op", lower, 0.07},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists the traced run's metrics, one block per layer. A span-
// or counter-derived metric reads 0 on a workload that does not cross
// its layer (scanner.* on authd_*, say).
var perLayer = []metricDef{
	// dnswire: four codec passes per Exchange.
	{"dnswire.unpack_ns.query", "ns", lower, 0},
	{"dnswire.unpack_ns.positive", "ns", lower, 0},
	{"dnswire.unpack_ns.nxdomain", "ns", lower, 0},
	{"dnswire.pack_ns.query", "ns", lower, 0},
	{"dnswire.pack_ns.positive", "ns", lower, 0},
	{"dnswire.pack_ns.nxdomain", "ns", lower, 0},
	{"dnswire.allocs.unpack_nxdomain", "allocs/op", lower, 0},
	{"dnswire.allocs.pack_nxdomain", "allocs/op", lower, 0},
	{"dnswire.wire_bytes.positive", "B", lower, 0},
	{"dnswire.wire_bytes.nxdomain", "B", lower, 0},
	// nsec3: the iterated hash and the proof search.
	{"nsec3.hash_ns.it0", "ns", lower, 0},
	{"nsec3.hash_ns.it100", "ns", lower, 0},
	{"nsec3.hash_ns.it2500", "ns", lower, 0},
	{"nsec3.prove_nxdomain_ns", "ns", lower, 0},
	{"nsec3.verify_nxdomain_ns.it0", "ns", lower, 0},
	{"nsec3.verify_nxdomain_ns.it150", "ns", lower, 0},
	// zone: answer synthesis and signing.
	{"zone.evaluate_ns.positive", "ns", lower, 0},
	{"zone.evaluate_ns.nxdomain", "ns", lower, 0},
	{"zone.evaluate_allocs.nxdomain", "allocs/op", lower, 0},
	{"zone.sign_us_per_name", "us", lower, 0},
	// dnssec: one RRset signature.
	{"dnssec.sign_us", "us", lower, 0},
	{"dnssec.verify_us", "us", lower, 0},
	// authserver: dispatch, routing, the query log, lazy signing.
	{"authserver.handle_ns.positive", "ns", lower, 0},
	{"authserver.handle_ns.nxdomain", "ns", lower, 0},
	{"authserver.handle_allocs.positive", "allocs/op", lower, 0},
	{"authserver.handle_allocs.nxdomain", "allocs/op", lower, 0},
	{"authserver.route_ns.zones1", "ns", lower, 0},
	{"authserver.route_ns.zones5000", "ns", lower, 0},
	{"authserver.querylog_record_ns.full", "ns", lower, 0},
	{"authserver.sign_wait_s", "s", lower, 0},
	// netsim: the simulated transport, and real UDP over loopback
	// (loopback, not a link; reported, never gated).
	{"netsim.exchange_overhead_ns", "ns", lower, 0},
	{"netsim.self_share", "share", lower, 0},
	{"netsim.udp_rtt_us_p50", "us", lower, 0},
	{"netsim.udp_rtt_us_p99", "us", lower, 0},
	{"netsim.udp_qps", "1/s", higher, 0},
	// resolver: iteration, validation, caches.
	{"resolver.resolve_cold_us", "us", lower, 0},
	{"resolver.resolve_warm_nx_us.it0", "us", lower, 0},
	{"resolver.resolve_warm_nx_us.it150", "us", lower, 0},
	{"resolver.resolve_cached_ns", "ns", lower, 0},
	{"resolver.self_us_per_query", "us", lower, 0},
	{"resolver.upstream_per_query", "count", lower, 0},
	{"resolver.nsec3_hash_work_per_probe", "count", lower, 0},
	{"resolver.aggressive_hit_ratio", "share", higher, 0},
	// scanner: dispatch is the per-core figure to set beside ZDNS.
	{"scanner.dispatch_us_per_domain", "us", lower, 0},
	{"scanner.self_us_per_domain", "us", lower, 0},
	{"scanner.queries_per_domain", "count", lower, 0},
	{"scanner.retry_ratio", "share", lower, 0},
	// population / testbed / respop / atlas: building the worlds.
	{"population.generate_us_per_domain", "us", lower, 0},
	{"population.deploy_ms_per_kdomain", "ms", lower, 0},
	{"testbed.build_world_ms", "ms", lower, 0},
	{"testbed.probe_resolver_ms", "ms", lower, 0},
	{"testbed.sign_reuse_ratio", "share", higher, 0},
	{"testbed.lazy_untouched_ratio", "share", higher, 0},
	{"respop.cursor_ns_per_resolver", "ns", lower, 0},
	{"atlas.measure_us_per_probe", "us", lower, 0},
	// core: the engines' own phase spans (obs.Tracer).
	{"core.generate_s", "s", lower, 0},
	{"core.deploy_s", "s", lower, 0},
	{"core.scan_s", "s", lower, 0},
	{"core.probe_s", "s", lower, 0},
	{"core.merge_s", "s", lower, 0},
	// compliance / analysis / distsurvey.
	{"compliance.classify_ns", "ns", lower, 0},
	{"compliance.classify_resolver_us", "us", lower, 0},
	{"analysis.cdf_merge_us", "us", lower, 0},
	{"distsurvey.checkpoint_write_ms", "ms", lower, 0},
	{"distsurvey.overhead_share", "share", lower, 0},
	// obs and the harness itself.
	{"obs.trace_overhead_share", "share", lower, 0},
	{"harness.cpu_util", "share", higher, 0},
	{"harness.gc_cpu_share", "share", lower, 0},
	{"harness.loadgen_share", "share", lower, 0},
	{"harness.rep_spread", "share", lower, 0},
	{"harness.pace", "ratio", lower, 0},
}

func workloadNamed(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
