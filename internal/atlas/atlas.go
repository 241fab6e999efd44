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
// concurrency limit. Results are returned in probe order. EDE options
// are stripped from every observation, mirroring the real platform's
// reporting.
func (p *Platform) Measure(ctx context.Context, probes []Probe, uniquePrefix string) []MeasurementResult {
	limit := p.MaxConcurrent
	if limit <= 0 {
		limit = 100
	}
	probed := testbed.ProbeResolvers(ctx, p.Exchanger, limit, len(probes), func(i int) (netip.AddrPort, string) {
		return probes[i].Resolver, fmt.Sprintf("%s-atlas-%d", uniquePrefix, probes[i].ID)
	})
	results := make([]MeasurementResult, len(probes))
	for i, r := range probed {
		if r.Transcript != nil {
			stripEDE(r.Transcript)
		}
		results[i] = MeasurementResult{Probe: probes[i], Transcript: r.Transcript, Err: r.Err}
	}
	return results
}

// stripEDE removes Extended DNS Error data from a transcript, matching
// what the experimenter actually receives from the platform.
func stripEDE(tr *testbed.Transcript) {
	for i := range tr.Observations {
		tr.Observations[i].EDE = nil
	}
}
