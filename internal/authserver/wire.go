package authserver

import (
	"bytes"
	"context"
	"hash/maphash"
	"net/netip"
	"sync"

	"repro/internal/dnswire"
)

// This file is the server's wire-level door (netsim.WireHandler) and
// the answer memo in front of it. The memo is not a second answer
// path: every response in it was shaped by respond and rendered by
// PackBuffer, for a query with the very octets — flags, question as
// spelled, OPT with its size and DO bit, everything but the ID — of the
// query it is now given to, and the table is emptied whenever what
// respond would say can change. A miss costs one visit to the memo, one
// read of the query off the wire, one evaluation into a pooled scratch
// and one rendering: a single allocation, the question's name.

// memoLimit bounds the answer memo and the table of queries seen once,
// each flushed whole when full (the idiom of resolver.ttlCache and
// dnssec.VerifyMemo). The paper's testbed server was asked the same few
// hundred infrastructure questions by every resolver; a hierarchy has
// ~1,500 servers, so the bound is small and both tables are maps that
// cost a server nothing until it is asked something.
const memoLimit = 1024

// answerMemo has a lock of its own, taken once per query for a map
// operation or two and never held across respond. Every query of every
// worker passes here and every miss writes (to seen): on Server.mu
// those writes stalled the routing reads of all the other queries (a
// 32-worker resolver study ran a fifth slower for it).
type answerMemo struct {
	mu sync.Mutex
	// epoch counts invalidations: a response rendered before one is not
	// admitted after it.
	epoch uint64
	// answers holds rendered responses under the 64-bit hash of their
	// query's octets after the ID; an entry answers only the query whose
	// octets it carries.
	answers map[uint64]memoEntry
	// seen holds the hashes of queries that missed, noted before they
	// are even decoded. A query's response is admitted on its second
	// sight: most questions a server is asked never repeat (a scan
	// resolver caches, a probe name is unique), and those cost eight
	// octets here, not a stored response.
	seen map[uint64]struct{}
}

// memoEntry is a query's octets after the ID and its response's.
type memoEntry struct{ query, response []byte }

var memoSeed = maphash.MakeSeed()

// invalidateMemo empties the memo: the zone table or a transfer policy
// changed. Callers hold s.mu, so no query routed by the new table can
// be answered from the old memo.
func (s *Server) invalidateMemo() {
	m := &s.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	if len(m.answers) > 0 || len(m.seen) > 0 {
		clear(m.answers)
		clear(m.seen)
		s.mMemoFlushes.Inc()
	}
}

// ServeWire implements netsim.WireHandler: the response to query's
// octets appended to dst, from the memo when it holds one that fits
// maxSize, through serveMiss otherwise — which, with one visit to the
// memo, is all a query it has not seen twice ever costs. Octets that do
// not decode, answer nothing (QR set) or ask nothing are dropped.
func (s *Server) ServeWire(ctx context.Context, dst []byte, from netip.AddrPort, query []byte, maxSize int) []byte {
	if len(query) < 2 {
		return nil
	}
	key := query[2:]
	h := maphash.Bytes(memoSeed, key)
	m := &s.memo
	m.mu.Lock()
	e, epoch := m.answers[h], m.epoch
	hit := e.response != nil && bytes.Equal(e.query, key)
	again := !hit && m.sight(h)
	m.mu.Unlock()
	if hit && (maxSize == 0 || 2+len(e.response) <= maxSize) {
		s.mQueries.Inc()
		s.mMemoHits.Inc()
		if s.Log != nil {
			// A stored query decoded once already; its name decodes again.
			if qname, err := dnswire.QuestionName(query); err == nil {
				s.Log.Record(from, qname)
			}
		}
		return append(append(dst, query[:2]...), e.response...)
	}
	out, keep := s.serveMiss(ctx, dst, from, query, maxSize)
	if again && keep {
		s.admit(epoch, h, key, out[len(dst)+2:])
	}
	return out
}

// serveMiss is a miss's whole cost past the memo, in a function of its
// own so that a hit's code stays what it was: the query read off the
// wire (dnswire.PlainQuery; a query of any other shape is decoded by
// Unpack, and what is dropped is what it was), the response shaped by
// respond in a scratch from the pool, and PackBuffer's rendering of it
// appended to dst. Nothing but the question's name is allocated, and
// nothing of the scratch outlives the call. keep reports a rendering
// the memo may hold; never a truncated one (the next asker may have
// room for all of it), anything past the default datagram (a zone
// transfer), or SERVFAIL — a cancelled wait on a lazy signer is not the
// zone's answer.
func (s *Server) serveMiss(ctx context.Context, dst []byte, from netip.AddrPort, query []byte, maxSize int) (out []byte, keep bool) {
	h, q, edns, do, plain := dnswire.PlainQuery(query)
	var questions []dnswire.Question
	if !plain {
		m, err := dnswire.Unpack(query)
		if err != nil || len(m.Questions) == 0 {
			return nil, false // garbage: drop, like most servers
		}
		opt, has := m.OPT()
		h, questions, edns, do = m.Header, m.Questions, has, has && opt.DO
	}
	if h.Response {
		return nil, false
	}
	sc := scratchPool.Get().(*scratch)
	if plain {
		sc.question[0] = q
		questions = sc.question[:]
	}
	resp := s.respond(ctx, from, sc, h, questions, edns, do)
	// Rendered in place behind dst when it has the room, moved in by the
	// append when it has not.
	out, err := resp.PackBuffer(dst[len(dst):], maxSize, true)
	keep = err == nil && !resp.Header.Truncated && len(out) <= dnswire.DefaultUDPSize && resp.Header.RCode != dnswire.RCodeServFail
	// Back it goes with its sections' capacity and without the records: a
	// transfer's Answers are a whole zone.
	sc.msg = dnswire.Message{}
	scratchPool.Put(sc)
	if err != nil {
		return nil, false
	}
	return append(dst, out...), keep
}

// sight notes that a query hashing to h missed and reports whether one
// had before. The caller holds m.mu.
func (m *answerMemo) sight(h uint64) (again bool) {
	if m.seen == nil {
		m.seen = make(map[uint64]struct{})
	} else if len(m.seen) >= memoLimit {
		clear(m.seen)
	}
	n := len(m.seen)
	m.seen[h] = struct{}{}
	return len(m.seen) == n
}

// admit stores the response rendered for a query on its second sight,
// unless the memo was invalidated while it was being rendered.
func (s *Server) admit(epoch, h uint64, key, response []byte) {
	m := &s.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch != m.epoch {
		return
	}
	if m.answers == nil {
		m.answers = make(map[uint64]memoEntry)
	} else if len(m.answers) >= memoLimit {
		clear(m.answers)
		s.mMemoFlushes.Inc()
	}
	// One allocation holds both: they live and die together.
	both := append(append(make([]byte, 0, len(key)+len(response)), key...), response...)
	m.answers[h] = memoEntry{query: both[:len(key):len(key)], response: both[len(key):]}
	s.mMemoAdmitted.Inc()
}
