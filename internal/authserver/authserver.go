// Package authserver implements an authoritative DNS server over the
// netsim Handler contract: it owns a set of signed zones, routes each
// query to the deepest matching zone, evaluates it (positive answers,
// referrals, NSEC/NSEC3-proven negatives, wildcard expansion), and
// shapes the wire response (AA bit, EDNS echo, DO-conditional DNSSEC
// records). respond is the only answer path, behind two doors: Handle
// for a caller with a Message, and ServeWire (wire.go) for the
// transports — the query read off the wire, the response shaped in a
// pooled scratch and rendered, one allocation (the question's name) for
// a question never seen before — with a bounded memo of renderings keyed
// by the query's own octets in front of it for the questions a server
// is asked over and over.
//
// It plays the role the paper's own name servers played for
// rfc9276-in-the-wild.com, including the server-side query log used to
// identify forwarders (§4.2: "We enable server-side logging to track
// source IP addresses interacting with our name server").
package authserver

import (
	"context"
	"errors"
	"net/netip"
	"sort"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/zone"
)

// Server is an authoritative name server for one or more signed zones.
// Every hosted zone is one table entry keyed by its apex: AddZone
// installs it already signed, AddLazyZone installs a SignFunc that the
// first query runs under the entry's singleflight (lazy.go).
type Server struct {
	mu       sync.RWMutex
	zones    map[dnswire.Name]*hostedZone
	transfer map[dnswire.Name]zone.TransferPolicy
	memo     answerMemo // wire.go; its own lock

	// Instrumentation (nil without Instrument; obs types are nil-safe).
	mSignWait     *obs.Histogram
	mLazySigned   *obs.Counter
	mQueries      *obs.Counter
	mMemoHits     *obs.Counter
	mMemoAdmitted *obs.Counter
	mMemoFlushes  *obs.Counter

	// Log, when non-nil, records every query source (forwarder
	// detection in the resolver experiment).
	Log *QueryLog
}

// errNoZone reports a query for a name this server hosts no zone for
// (answered with REFUSED, unlike a signing failure's SERVFAIL).
var errNoZone = errors.New("authserver: no zone for qname")

// New creates an empty server.
func New() *Server {
	return &Server{
		zones:    make(map[dnswire.Name]*hostedZone),
		transfer: make(map[dnswire.Name]zone.TransferPolicy),
	}
}

// SetTransferPolicy opens or closes AXFR for a hosted zone (default:
// refused, like most of the DNS; the paper's ccTLD sources allowed it).
func (s *Server) SetTransferPolicy(apex dnswire.Name, p zone.TransferPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transfer[apex] = p
	s.invalidateMemo()
}

// signedDone is the done channel of every zone installed already
// signed: closed from birth, so such an entry is never awaited.
var signedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// AddZone installs a signed zone, replacing any zone — signed or still
// pending — with the same apex.
func (s *Server) AddZone(sz *zone.Signed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[sz.Zone.Apex] = &hostedZone{done: signedDone, sz: sz}
	s.invalidateMemo()
}

// apexFor finds the deepest hosted apex that is an ancestor of (or
// equal to) qname: the first hit walking qname toward the root, one map
// probe per label (Name.Parent is a substring, so the walk does not
// allocate). A nil entry means no hosted zone covers qname.
func (s *Server) apexFor(qname dnswire.Name) (dnswire.Name, *hostedZone) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for cur := qname; ; cur = cur.Parent() {
		if cur.IsRoot() {
			return dnswire.Root, s.zones[dnswire.Root]
		}
		if hz, ok := s.zones[cur]; ok {
			return cur, hz
		}
	}
}

// ZoneFor returns the deepest zone whose apex is an ancestor of (or
// equal to) qname, materializing it when lazily registered. A zone
// whose lazy signing failed reports false. ctx bounds the wait on an
// in-flight lazy signer.
func (s *Server) ZoneFor(ctx context.Context, qname dnswire.Name) (*zone.Signed, bool) {
	_, hz := s.apexFor(qname)
	if hz == nil {
		return nil, false
	}
	sz, err := s.signed(ctx, hz)
	return sz, err == nil
}

// zoneForQuery routes a query to the right zone. DS records live in the
// parent zone, so a DS query for a hosted apex must be answered by the
// parent zone when this server hosts both (RFC 4035 §3.1.4.1). The
// returned error is errNoZone (nothing hosted → REFUSED) or a lazy
// signing failure (→ SERVFAIL).
func (s *Server) zoneForQuery(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*zone.Signed, error) {
	apex, hz := s.apexFor(qname)
	if hz == nil {
		return nil, errNoZone
	}
	if qtype == dnswire.TypeDS && qname == apex && !qname.IsRoot() {
		if _, parent := s.apexFor(qname.Parent()); parent != nil {
			hz = parent
		}
	}
	return s.signed(ctx, hz)
}

// Zones returns the hosted zone apexes — queried or not — sorted
// canonically.
func (s *Server) Zones() []dnswire.Name {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]dnswire.Name, 0, len(s.zones))
	for apex := range s.zones {
		out = append(out, apex)
	}
	sort.Slice(out, func(i, j int) bool { return dnswire.CanonicalCompare(out[i], out[j]) < 0 })
	return out
}

// scratch is everything shaping one response needs that is not a record
// of a zone: the response Message, the array its one question sits in
// when the query was read off the wire, the reply OPT and the record
// that carries it, and the evaluated Answer, whose three sections keep
// their capacity from one query to the next. ServeWire's miss path
// borrows one from scratchPool for as long as it takes to render
// scratch.msg; Handle makes one per query, because its Message is the
// caller's to keep.
type scratch struct {
	msg      dnswire.Message
	question [1]dnswire.Question
	opt      dnswire.OPT
	optRR    [1]dnswire.RR
	ans      zone.Answer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Handle implements netsim.Handler: respond in a scratch of the
// response's own.
//
//repro:allocok one scratch — the response Message and what shapes it — per query is the Handler contract: the Message is the caller's to keep, so it cannot come from the pool ServeWire's miss path renders out of
func (s *Server) Handle(ctx context.Context, from netip.AddrPort, query *dnswire.Message) *dnswire.Message {
	opt, edns := query.OPT()
	return s.respond(ctx, from, new(scratch), query.Header, query.Questions, edns, edns && opt.DO)
}

// respond is the only answer path: validate, route to the deepest
// hosted zone, evaluate, shape the response in sc.msg. The query comes
// as what either door read of it — Handle from a Message, ServeWire's
// miss path off the wire: its header, its questions, whether it carried
// an OPT and that OPT's DO bit. The response echoes ID, opcode, RD and
// the questions, answers an OPT with an OPT (kept last in the
// additional section), and carries DNSSEC records only when do.
// Everything here runs once per query and none of it allocates: routing
// does not, the sections are sc.ans's, and what evaluation still may is
// waived where it happens.
func (s *Server) respond(ctx context.Context, from netip.AddrPort, sc *scratch, h dnswire.Header, questions []dnswire.Question, edns, do bool) *dnswire.Message {
	s.mQueries.Inc()
	resp := &sc.msg
	*resp = dnswire.Message{
		Header: dnswire.Header{
			ID:               h.ID,
			Response:         true,
			Opcode:           h.Opcode,
			RecursionDesired: h.RecursionDesired,
		},
		Questions: questions,
	}
	if edns {
		sc.opt = dnswire.OPT{UDPSize: dnswire.DefaultUDPSize, DO: do}
		sc.optRR[0] = sc.opt.AsRR()
		resp.Additional = sc.optRR[:]
	}
	if h.Opcode != dnswire.OpcodeQuery || len(questions) != 1 {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	q := questions[0]
	if q.Class != dnswire.ClassIN {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	if s.Log != nil {
		s.Log.Record(from, q.Name)
	}
	sz, err := s.zoneForQuery(ctx, q.Name, q.Type)
	if err != nil {
		if errors.Is(err, errNoZone) {
			resp.Header.RCode = dnswire.RCodeRefused
		} else {
			// Lazy signing failed: the zone exists but cannot be served.
			resp.Header.RCode = dnswire.RCodeServFail
		}
		return resp
	}
	if q.Type == dnswire.TypeAXFR {
		return s.handleAXFR(resp, sz, q.Name)
	}
	if err := sz.EvaluateInto(&sc.ans, q.Name, q.Type, do); err != nil {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Header.RCode = sc.ans.RCode
	resp.Header.Authoritative = sc.ans.Kind != zone.KindDelegation && sc.ans.Kind != zone.KindNotInZone
	resp.Answers = sc.ans.Answer
	resp.Authority = sc.ans.Authority
	if len(sc.ans.Additional) > 0 {
		// Glue goes in front of the OPT.
		sc.ans.Additional = append(sc.ans.Additional, resp.Additional...)
		resp.Additional = sc.ans.Additional
	}
	return resp
}

// handleAXFR answers a zone transfer request (RFC 5936): the complete
// signed zone between two copies of the apex SOA, or REFUSED when the
// zone's transfer policy (the default) forbids it.
//
//repro:allocok AXFR materializes the whole zone by definition; bulk transfer is not the per-packet serving path
func (s *Server) handleAXFR(resp *dnswire.Message, sz *zone.Signed, qname dnswire.Name) *dnswire.Message {
	if qname != sz.Zone.Apex {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	s.mu.RLock()
	pol := s.transfer[sz.Zone.Apex]
	s.mu.RUnlock()
	if pol != zone.TransferOpen {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	rrs, err := sz.AllRecords()
	if err != nil {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Header.Authoritative = true
	resp.Answers = rrs
	return resp
}

// QueryLog is a bounded, concurrency-safe log of query sources — the
// simulated equivalent of the paper's server-side logging. Once max
// entries are held it is a ring: entries[head] is the oldest, and Record
// overwrites it in place.
type QueryLog struct {
	mu      sync.Mutex
	max     int
	head    int
	entries []LogEntry
}

// LogEntry is one observed query.
type LogEntry struct {
	From  netip.AddrPort
	QName dnswire.Name
}

// NewQueryLog creates a log keeping at most max entries (oldest
// dropped); max <= 0 keeps everything.
func NewQueryLog(max int) *QueryLog {
	return &QueryLog{max: max}
}

// Record appends an entry.
func (l *QueryLog) Record(from netip.AddrPort, qname dnswire.Name) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := LogEntry{From: from, QName: qname}
	if l.max <= 0 || len(l.entries) < l.max {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.head] = e
	if l.head++; l.head == l.max {
		l.head = 0
	}
}

// Entries returns a snapshot of the log, oldest first.
func (l *QueryLog) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEntry, 0, len(l.entries))
	out = append(out, l.entries[l.head:]...)
	return append(out, l.entries[:l.head]...)
}

// SourcesFor returns the distinct source addresses that queried names
// containing the given label, in first-seen order — how the paper maps
// a per-resolver unique subdomain back to the addresses that actually
// hit the name server.
func (l *QueryLog) SourcesFor(match func(dnswire.Name) bool) []netip.AddrPort {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[netip.AddrPort]bool)
	var out []netip.AddrPort
	for i := range l.entries {
		e := l.entries[(l.head+i)%len(l.entries)]
		if match(e.QName) && !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	return out
}
