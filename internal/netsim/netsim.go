// Package netsim provides the transport layer shared by every DNS
// component in this repository: an Exchanger interface for clients, a
// Handler interface for servers, an in-memory simulated Internet
// (deterministic, loss injectable) for hermetic large-scale
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
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"net/netip"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/mix"
	"repro/internal/obs"
)

// Exchanger sends one DNS query to a server and returns its response.
// It is the client-side abstraction used by the resolver's iterative
// logic, the scanner, and the testbed prober. The response is the
// caller's to read, not to write: an Exchanger may hand the same
// Message to every caller that receives the same octets, and its
// sections to every caller that receives them under another ID.
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
// optional loss. The zero value is usable.
type Network struct {
	mu    sync.RWMutex
	hosts map[netip.AddrPort]Handler

	// LossRate in [0,1) is the share of queries dropped. Whether one is
	// dropped is a pure function of the network's seed, the server and
	// the query's ID, name and type: the same query to the same server
	// meets the same fate whatever else is in flight, so a client's
	// retry is drawn afresh only under a new ID.
	LossRate float64

	seed uint64

	// memo shares the decoding of response octets the network carries
	// more than once.
	memo responseMemo

	// mLost counts dropped queries (nil without Instrument).
	mLost *obs.Counter
}

// NewNetwork creates a lossless network whose loss
// draws, once LossRate is set, derive from seed. The zero value draws
// what NewNetwork(0) draws.
func NewNetwork(seed uint64) *Network {
	return &Network{hosts: make(map[netip.AddrPort]Handler), seed: seed}
}

// lossPurpose keeps loss draws apart from any other draw on the seed.
const lossPurpose = 0x6C6F7373 // "loss"

// lost draws whether query, sent to server, is dropped.
func (n *Network) lost(server netip.AddrPort, query *dnswire.Message) bool {
	a := server.Addr().As16()
	k := mix.New(n.seed, lossPurpose).
		Uint64(binary.BigEndian.Uint64(a[:8])).
		Uint64(binary.BigEndian.Uint64(a[8:])).
		Uint64(uint64(server.Port())<<16 | uint64(query.Header.ID))
	for _, q := range query.Questions {
		k = k.String(string(q.Name)).Uint64(uint64(q.Type))
	}
	return float64(uint64(k)>>11)/(1<<53) < n.LossRate
}

// Instrument attaches the loss counter and the response memo's three
// outcome counters from reg: every dropped packet is counted, and every
// response decoded is a miss (Unpack ran), a hit under the ID its
// shared decoding carries, or a hit under a new ID. A nil registry
// leaves the network uninstrumented.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.mLost = reg.Counter("netsim_packets_lost_total",
		"queries dropped by the simulated network's loss injection")
	n.memo.mMiss = reg.Counter("netsim_response_memo_miss_total",
		"responses the network carried and decoded afresh")
	n.memo.mSameID = reg.Counter("netsim_response_memo_same_id_total",
		"responses handed a shared decoding under the ID it was decoded with")
	n.memo.mNewID = reg.Counter("netsim_response_memo_new_id_total",
		"responses handed a copy of a shared decoding under a new ID")
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
// have been refused for), honoring loss and context cancellation. It
// sends once: a lost query is the caller's to retry. Response octets
// the network has carried before, whatever their ID, may come back with
// the sections already decoded for them, shared with every earlier
// asker.
func (n *Network) Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	wire := wirePool.Get().(*[]byte)
	defer wirePool.Put(wire)
	resp, err := n.roundTrip(ctx, server, query, wire)
	if err != nil {
		return nil, err
	}
	out, err := n.memo.decode(resp)
	if err != nil {
		return nil, fmt.Errorf("netsim: response corrupt: %w", err)
	}
	return out, nil
}

// ExchangeStatus sends query to server through ex and returns the
// status of the reply: its header, extended RCODE and EDEs. On a
// *Network the reply is carried exactly as Exchange carries it — the
// same loss, unreachable host and dropped query — and its status is
// read off the octets by dnswire.ReadReplyStatus: no record is
// decoded, and the response memo never sees it. Any other Exchanger is
// asked through Exchange and the status read off the Message it
// returns.
func ExchangeStatus(ctx context.Context, ex Exchanger, server netip.AddrPort, query *dnswire.Message) (dnswire.ReplyStatus, error) {
	n, ok := ex.(*Network)
	if !ok {
		resp, err := ex.Exchange(ctx, server, query)
		if err != nil {
			return dnswire.ReplyStatus{}, err
		}
		return resp.ReplyStatus(), nil
	}
	wire := wirePool.Get().(*[]byte)
	defer wirePool.Put(wire)
	resp, err := n.roundTrip(ctx, server, query, wire)
	if err != nil {
		return dnswire.ReplyStatus{}, err
	}
	st, err := dnswire.ReadReplyStatus(resp)
	if err != nil {
		return dnswire.ReplyStatus{}, fmt.Errorf("netsim: response corrupt: %w", err)
	}
	return st, nil
}

// roundTrip carries query to server and returns the response octets,
// which live in *wire until it goes back to the pool. The response is
// rendered for a stream at once: a datagram that would arrive truncated
// is never observable here — it only triggers the fallback to "TCP" —
// so the handler runs once and its response is rendered once. Both
// directions share *wire, the response behind the query, which keeps
// the capacity it grew to; what the caller makes of the response must
// own its memory (Unpack's Message does, and the memo keeps its own
// copy of the octets it compares).
func (n *Network) roundTrip(ctx context.Context, server netip.AddrPort, query *dnswire.Message, wire *[]byte) ([]byte, error) {
	h, ok := n.Lookup(server)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrHostUnreachable, server)
	}
	if n.LossRate > 0 && n.lost(server, query) {
		n.mLost.Inc()
		return nil, fmt.Errorf("%w: to %s", ErrPacketLost, server)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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
	return both[len(qwire):], nil
}

// memoLimit bounds the response memo's two tables, each emptied whole
// when full (the idiom of authserver's answer memo). The resolver study
// sends every validator the same hundred or so DNSKEY and DS questions
// and a load generator may cycle through a few dozen, which fit many
// times over; a response whose question never repeats (a unique probe
// name) never hits, whatever the size.
const memoLimit = 1024

// responseMemo maps response octets after the two-octet ID to the
// Message decoded for them, as authserver's answer memo keys queries.
// It is read-only to everyone but decode: a Message in it is shared by
// every asker of the same octets, which is what the Exchanger contract
// allows, and an asker under another ID gets a copy of the Message
// value with its own ID and the same shared sections. A response is
// admitted on its second sight — most octets a network carries never
// repeat (a probe name is unique) and those cost eight octets in seen,
// not a stored decoding — and never when it is longer than
// dnswire.DefaultUDPSize (a zone transfer).
type responseMemo struct {
	mu sync.Mutex
	// decoded holds admitted responses under the 64-bit hash of their
	// octets after the ID; an entry answers only the octets it carries.
	decoded map[uint64]sharedResponse
	// seen holds the hashes of responses decoded once.
	seen map[uint64]struct{}

	// The outcome counters (nil without Instrument).
	mMiss, mSameID, mNewID *obs.Counter
}

// sharedResponse is a response's octets after the ID and its decoding.
type sharedResponse struct {
	body []byte
	msg  *dnswire.Message
}

var memoSeed = maphash.MakeSeed()

// decode returns the Message for response octets: the memo's when it
// holds one for the very same octets after the ID — itself under the
// ID it was decoded with, a one-allocation copy with wire's ID under
// any other — and Unpack's otherwise. A miss allocates nothing past
// Unpack's own.
func (m *responseMemo) decode(wire []byte) (*dnswire.Message, error) {
	if len(wire) < 2 || len(wire) > dnswire.DefaultUDPSize {
		m.mMiss.Inc()
		return dnswire.Unpack(wire)
	}
	id, body := binary.BigEndian.Uint16(wire), wire[2:]
	h := maphash.Bytes(memoSeed, body)
	m.mu.Lock()
	e := m.decoded[h]
	hit := e.msg != nil && bytes.Equal(e.body, body)
	again := !hit && m.sight(h)
	m.mu.Unlock()
	if hit {
		if e.msg.Header.ID == id {
			m.mSameID.Inc()
			return e.msg, nil
		}
		m.mNewID.Inc()
		msg := *e.msg
		msg.Header.ID = id
		return &msg, nil
	}
	m.mMiss.Inc()
	msg, err := dnswire.Unpack(wire)
	if err == nil && again {
		m.admit(h, body, msg)
	}
	return msg, err
}

// sight notes that a response hashing to h was decoded and reports
// whether one had been before. The caller holds m.mu.
func (m *responseMemo) sight(h uint64) (again bool) {
	if m.seen == nil {
		m.seen = make(map[uint64]struct{}, memoLimit)
	} else if len(m.seen) >= memoLimit {
		clear(m.seen)
	}
	n := len(m.seen)
	m.seen[h] = struct{}{}
	return len(m.seen) == n
}

// admit stores msg, decoded from octets whose body follows the ID, for
// every later asker of the same body.
func (m *responseMemo) admit(h uint64, body []byte, msg *dnswire.Message) {
	e := sharedResponse{body: bytes.Clone(body), msg: msg}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.decoded == nil {
		m.decoded = make(map[uint64]sharedResponse)
	} else if len(m.decoded) >= memoLimit {
		clear(m.decoded)
	}
	m.decoded[h] = e
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
