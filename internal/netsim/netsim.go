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
//
// Every transport — the simulation, the UDP read loop, a TCP
// connection — hands a query's octets to one function, serve, and
// carries away the octets it returns. A WireHandler answers from the
// octets; any other Handler is reached through serve's adapter, which
// decodes the query, calls Handle and renders the response.
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

// WireHandler is a Handler that answers a query from its octets. The
// transports prefer ServeWire to Handle, and the two must agree:
// ServeWire is Handle with the decoding and rendering around it, or a
// shortcut to the same octets.
type WireHandler interface {
	Handler
	// ServeWire appends the response to the wire-format query to dst
	// and returns the extended slice; nil drops the query. maxSize is
	// the datagram the response must fit — over it, records are dropped
	// and TC set as PackBuffer does — and 0 when it travels a stream.
	// query is valid during the call only and may be the octets dst
	// already holds.
	ServeWire(ctx context.Context, dst []byte, from netip.AddrPort, query []byte, maxSize int) []byte
}

// serve is the one serving path under the simulation, UDP and TCP: it
// appends h's response to query to dst, or returns nil when the query
// is dropped. udpSize is the server's own datagram ceiling, 0 when the
// response travels a stream. A datagram carries what the requestor can
// take: 512 octets without EDNS (RFC 1035 §4.2.1), with it what the
// OPT advertises, and one advertising less than 512 is treated as
// having asked for 512 (RFC 6891 §6.2.3).
func serve(ctx context.Context, h Handler, dst []byte, from netip.AddrPort, query []byte, udpSize int) []byte {
	maxSize := 0
	if udpSize > 0 {
		maxSize = max(min(dnswire.AdvertisedUDPSize(query), udpSize), 512)
	}
	if wh, ok := h.(WireHandler); ok {
		return wh.ServeWire(ctx, dst, from, query, maxSize)
	}
	q, err := dnswire.Unpack(query)
	if err != nil || len(q.Questions) == 0 || q.Header.Response {
		return nil // garbage: drop, like most servers
	}
	resp := h.Handle(ctx, from, q)
	if resp == nil {
		return nil
	}
	// Rendered in place behind dst when it has the room, moved in by the
	// append when it has not. A response that cannot be rendered is a
	// response never sent: the requestor's retry logic covers it.
	wire, err := resp.PackBuffer(dst[len(dst):], maxSize, true)
	if err != nil {
		return nil
	}
	return append(dst, wire...)
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
	return &Network{hosts: make(map[netip.AddrPort]Handler), rng: newLossRNG(seed)}
}

func newLossRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
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

// wirePool holds the buffers Exchange carries messages in: one per
// exchange in flight, returned with whatever capacity it grew to.
var wirePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2*dnswire.DefaultUDPSize)
		return &b
	},
}

// Exchange implements Exchanger: the query crosses as octets and so
// does the response (so what the codec refuses, a real packet would
// have been refused for), honoring loss, latency, and context
// cancellation.
func (n *Network) Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	h, ok := n.Lookup(server)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrHostUnreachable, server)
	}
	if n.LossRate > 0 {
		n.rngMu.Lock()
		if n.rng == nil { // the zero value draws what NewNetwork(0) draws
			n.rng = newLossRNG(0)
		}
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

// roundTrip carries query to h and its response back as octets. The
// response is rendered for a stream at once: a datagram that would
// arrive truncated is never observable here — it only triggers the
// retry over "TCP" — so the handler runs once and its response is
// rendered once. Both directions share *wire, the response behind the
// query, which keeps the capacity it grew to; Unpack's Message owns its
// memory, so the buffer is free again when roundTrip returns.
func roundTrip(ctx context.Context, h Handler, server netip.AddrPort, query *dnswire.Message, wire *[]byte) (*dnswire.Message, error) {
	qwire, err := query.PackBuffer((*wire)[:0], 0, true)
	if err != nil {
		return nil, fmt.Errorf("netsim: packing query: %w", err)
	}
	*wire = qwire
	// The "source address" of a simulated client is synthesized from
	// the query ID; servers use it only for logging.
	from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(query.Header.ID >> 8), byte(query.Header.ID)}), 53000)
	both := serve(ctx, h, qwire, from, qwire, 0)
	if both == nil {
		return nil, fmt.Errorf("%w: %s dropped query", ErrPacketLost, server)
	}
	*wire = both
	out, err := dnswire.Unpack(both[len(qwire):])
	if err != nil {
		return nil, fmt.Errorf("netsim: response corrupt: %w", err)
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
