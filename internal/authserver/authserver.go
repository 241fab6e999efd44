// Package authserver implements an authoritative DNS server over the
// netsim Handler contract: it owns a set of signed zones, routes each
// query to the deepest matching zone, evaluates it (positive answers,
// referrals, NSEC/NSEC3-proven negatives, wildcard expansion), and
// shapes the wire response (AA bit, EDNS echo, DO-conditional DNSSEC
// records). Handle is the only answer path; ServeWire (wire.go) is the
// door the transports use, Handle between a decode and a rendering,
// with a bounded memo of renderings keyed by the query's own octets in
// front of it for the questions a server is asked over and over.
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

// newResponse builds the response skeleton for a query: header echo,
// question echo, and the EDNS OPT reply when the query carried one.
// It reports whether the query requested DNSSEC records (DO).
//
//repro:allocok one response Message per query is the Handler contract; the ROADMAP answer cache replaces this with precompiled wire images
func (s *Server) newResponse(query *dnswire.Message) (*dnswire.Message, bool) {
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:               query.Header.ID,
			Response:         true,
			Opcode:           query.Header.Opcode,
			RecursionDesired: query.Header.RecursionDesired,
		},
		Questions: query.Questions,
	}
	do := false
	if opt, ok := query.OPT(); ok {
		do = opt.DO
		resp.Additional = append(resp.Additional, (&dnswire.OPT{
			UDPSize: dnswire.DefaultUDPSize,
			DO:      do,
		}).AsRR())
	}
	return resp, do
}

// finishAnswer copies an evaluated zone answer into the response
// sections, keeping the OPT (already in resp.Additional) last. The
// section slices are handed over wholesale — the merge itself does not
// allocate; growth of ans.Additional is charged to the evaluator that
// built it.
func finishAnswer(resp *dnswire.Message, ans *zone.Answer) *dnswire.Message {
	resp.Header.RCode = ans.RCode
	resp.Header.Authoritative = ans.Kind != zone.KindDelegation && ans.Kind != zone.KindNotInZone
	resp.Answers = ans.Answer
	resp.Authority = ans.Authority
	resp.Additional = append(ans.Additional, resp.Additional...)
	return resp
}

// Handle implements netsim.Handler: validate, route to the deepest
// hosted zone, evaluate, shape the wire response. Everything on this
// path runs once per query, so routing itself must not allocate;
// answer assembly is explicitly waived pending the answer cache.
//
//repro:hotpath every authoritative answer — testbed surveys, resolver studies, authd — dispatches through here
func (s *Server) Handle(ctx context.Context, from netip.AddrPort, query *dnswire.Message) *dnswire.Message {
	s.mQueries.Inc()
	resp, do := s.newResponse(query)
	if query.Header.Opcode != dnswire.OpcodeQuery || len(query.Questions) != 1 {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	q := query.Questions[0]
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
	ans, err := sz.Evaluate(q.Name, q.Type, do)
	if err != nil {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	return finishAnswer(resp, ans)
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
