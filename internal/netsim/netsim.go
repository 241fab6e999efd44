// Package netsim provides the transport layer shared by every DNS
// component in this repository: an Exchanger interface for clients, a
// Handler interface for servers, an in-memory simulated Internet
// (deterministic, loss/latency injectable) for hermetic large-scale
// experiments, and a real UDP/TCP implementation for loopback
// integration tests and the cmd/ binaries.
//
// The paper ran over the real Internet; the simulation preserves the
// property that matters for the study — which bytes each resolver and
// authoritative server returns — while making a 15.5 M-domain-scale
// methodology runnable on one machine.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// Exchanger sends one DNS query to a server and returns its response.
// It is the client-side abstraction used by the resolver's iterative
// logic, the scanner, and the testbed prober.
type Exchanger interface {
	Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error)
}

// Handler answers DNS queries. Implementations must be safe for
// concurrent use.
type Handler interface {
	Handle(ctx context.Context, from netip.AddrPort, query *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, from netip.AddrPort, query *dnswire.Message) *dnswire.Message

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	return f(ctx, from, q)
}

// Errors surfaced by the simulated network.
var (
	ErrHostUnreachable = errors.New("netsim: no host at address")
	ErrPacketLost      = errors.New("netsim: packet lost")
)

// Network is an in-memory Internet: a registry of addressed hosts with
// optional latency and loss. The zero value is usable.
type Network struct {
	mu    sync.RWMutex
	hosts map[netip.AddrPort]Handler

	// Latency is the one-way delivery delay applied twice per exchange.
	Latency time.Duration
	// LossRate in [0,1) drops queries (and their retries) randomly.
	LossRate float64

	rngMu sync.Mutex
	rng   *rand.Rand

	// mLost / mLatency count fault injections (nil without Instrument).
	mLost    *obs.Counter
	mLatency *obs.Counter
}

// NewNetwork creates a lossless, zero-latency network with a seeded RNG
// for deterministic loss experiments.
func NewNetwork(seed uint64) *Network {
	return &Network{
		hosts: make(map[netip.AddrPort]Handler),
		rng:   rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15)),
	}
}

// Instrument attaches fault-injection counters from reg: every
// dropped packet and every injected latency delay is counted. A nil
// registry leaves the network uninstrumented.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.mLost = reg.Counter("netsim_packets_lost_total",
		"queries dropped by the simulated network's loss injection")
	n.mLatency = reg.Counter("netsim_latency_injections_total",
		"exchanges delayed by the simulated network's latency injection")
}

// Register attaches a handler at addr, replacing any previous one.
func (n *Network) Register(addr netip.AddrPort, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hosts == nil {
		n.hosts = make(map[netip.AddrPort]Handler)
	}
	n.hosts[addr] = h
}

// Unregister removes the handler at addr.
func (n *Network) Unregister(addr netip.AddrPort) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.hosts, addr)
}

// Lookup returns the handler at addr.
func (n *Network) Lookup(addr netip.AddrPort) (Handler, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.hosts[addr]
	return h, ok
}

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.hosts)
}

// wirePool holds the buffers Exchange renders messages into: one per
// exchange in flight, returned with whatever capacity it grew to.
var wirePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2*dnswire.DefaultUDPSize)
		return &b
	},
}

// Exchange implements Exchanger: the query round-trips through the wire
// codec (so size limits, truncation, and parse errors behave like real
// packets), honoring loss, latency, and context cancellation.
func (n *Network) Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	h, ok := n.Lookup(server)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrHostUnreachable, server)
	}
	if n.LossRate > 0 {
		n.rngMu.Lock()
		lost := n.rng.Float64() < n.LossRate
		n.rngMu.Unlock()
		if lost {
			n.mLost.Inc()
			return nil, fmt.Errorf("%w: to %s", ErrPacketLost, server)
		}
	}
	if n.Latency > 0 {
		n.mLatency.Inc()
		t := time.NewTimer(2 * n.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else if err := ctx.Err(); err != nil {
		return nil, err
	}
	wire := wirePool.Get().(*[]byte)
	out, err := roundTrip(ctx, h, server, query, wire)
	wirePool.Put(wire)
	return out, err
}

// roundTrip carries query to h and its response back through the wire
// codec. Every rendering — the query, the response, the response again
// when it has to go over "TCP" — is packed into *wire and decoded out of
// it before the next one overwrites it, which is safe because Unpack's
// Message owns its memory. *wire keeps the capacity it grew to.
func roundTrip(ctx context.Context, h Handler, server netip.AddrPort, query *dnswire.Message, wire *[]byte) (*dnswire.Message, error) {
	// pack renders m into the exchange's buffer.
	pack := func(m *dnswire.Message, maxSize int) ([]byte, error) {
		b, err := m.PackBuffer((*wire)[:0], maxSize, true)
		if err == nil {
			*wire = b
		}
		return b, err
	}
	// Serialize and reparse the query: the server must see exactly what
	// the wire would carry.
	qwire, err := pack(query, 0)
	if err != nil {
		return nil, fmt.Errorf("netsim: packing query: %w", err)
	}
	parsed, err := dnswire.Unpack(qwire)
	if err != nil {
		return nil, fmt.Errorf("netsim: query corrupt: %w", err)
	}
	// The "source address" of a simulated client is synthesized from
	// the query ID; servers use it only for logging.
	from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(query.Header.ID >> 8), byte(query.Header.ID)}), 53000)
	resp := h.Handle(ctx, from, parsed)
	if resp == nil {
		return nil, fmt.Errorf("%w: %s dropped query", ErrPacketLost, server)
	}
	// Round-trip the response too, honoring the client's UDP budget: 512
	// octets without EDNS, and with it never less — a requestor
	// advertising under 512 is treated as having asked for 512 (RFC 6891
	// §6.2.3), as Server.servePacket treats it.
	size := 512
	if opt, ok := parsed.OPT(); ok {
		size = max(int(opt.UDPSize), size)
	}
	rwire, err := pack(resp, size)
	if err != nil {
		return nil, fmt.Errorf("netsim: packing response: %w", err)
	}
	out, err := dnswire.Unpack(rwire)
	if err != nil {
		return nil, fmt.Errorf("netsim: response corrupt: %w", err)
	}
	if out.Header.Truncated {
		// Retry over simulated TCP: no size limit. PackBuffer set the
		// TC bit on the handler's message; clear it for the full copy.
		resp.Header.Truncated = false
		if rwire, err = pack(resp, 0); err != nil {
			return nil, err
		}
		if out, err = dnswire.Unpack(rwire); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Addr4 builds an IPv4 address:53 endpoint from four octets — a helper
// for assembling simulated topologies.
func Addr4(a, b, c, d byte) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{a, b, c, d}), 53)
}

// Addr6 builds an IPv6 endpoint in 2001:db8::/32 from a host suffix.
func Addr6(suffix uint32) netip.AddrPort {
	var a [16]byte
	a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
	a[12] = byte(suffix >> 24)
	a[13] = byte(suffix >> 16)
	a[14] = byte(suffix >> 8)
	a[15] = byte(suffix)
	return netip.AddrPortFrom(netip.AddrFrom16(a), 53)
}
