// Package atlas simulates the RIPE Atlas measurement platform the
// paper used to reach closed resolvers (§4.2): a fleet of vantage-point
// probes, each with a local resolver unreachable from outside its
// network, a scheduler enforcing the platform's concurrency limits, and
// the platform's reporting quirk that Extended DNS Error data is not
// exposed to the experimenter ("We have not analyzed closed resolvers,
// since RIPE Atlas does not supply the EDE data", §5.2).
package atlas

import (
	"context"
	"fmt"
	"net/netip"

	"repro/internal/fanout"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// Probe is one vantage point with its configured local resolver.
type Probe struct {
	ID       int
	Resolver netip.AddrPort
	// IPv6 marks probes whose local resolver speaks IPv6.
	IPv6 bool
}

// Platform schedules measurements over vantage-point probes. It is
// stateless between calls: callers hand each Measure call the probe
// batch for the shard being executed, so the fleet never has to be
// accumulated in memory.
type Platform struct {
	// Exchanger carries probe→resolver traffic.
	Exchanger netsim.Exchanger
	// MaxConcurrent caps simultaneous probe measurements, as the real
	// platform does. Zero means 100.
	MaxConcurrent int
}

// MeasurementResult pairs a probe with its resolver's transcript.
type MeasurementResult struct {
	Probe      Probe
	Transcript *testbed.Transcript
	Err        error
}

// Measure runs the full rfc9276 probe sequence from each vantage point
// in probes against its local resolver, under the platform's
// concurrency limit. Results are returned in probe order; a probe
// still queued when ctx is done reports ctx.Err(). EDE options are
// stripped from every observation, mirroring the real platform's
// reporting.
func (p *Platform) Measure(ctx context.Context, probes []Probe, uniquePrefix string) []MeasurementResult {
	limit := p.MaxConcurrent
	if limit <= 0 {
		limit = 100
	}
	results := make([]MeasurementResult, len(probes))
	// f never fails: each probe's error is its result's.
	_ = fanout.Each(len(probes), limit, func(i int) error {
		r := &results[i]
		r.Probe = probes[i]
		if r.Err = ctx.Err(); r.Err != nil {
			return nil
		}
		r.Transcript, r.Err = testbed.ProbeResolver(ctx, p.Exchanger, r.Probe.Resolver, fmt.Sprintf("%s-atlas-%d", uniquePrefix, r.Probe.ID))
		if r.Transcript != nil {
			stripEDE(r.Transcript)
		}
		return nil
	})
	return results
}

// stripEDE removes Extended DNS Error data from a transcript, matching
// what the experimenter actually receives from the platform.
func stripEDE(tr *testbed.Transcript) {
	for i := range tr.Observations {
		tr.Observations[i].EDE = nil
	}
}
