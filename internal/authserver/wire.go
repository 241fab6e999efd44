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
// path: every response in it was rendered by Handle, for a query with
// the very octets — flags, question as spelled, OPT with its size and
// DO bit, everything but the ID — of the query it is now given to, and
// the table is emptied whenever what Handle would say can change.

// memoLimit bounds the answer memo and the table of queries seen once,
// each flushed whole when full (the idiom of resolver.ttlCache and
// dnssec.VerifyMemo). The paper's testbed server was asked the same few
// hundred infrastructure questions by every resolver; a hierarchy has
// ~1,500 servers, so the bound is small and both tables are maps that
// cost a server nothing until it is asked something.
const memoLimit = 1024

// answerMemo has a lock of its own, taken once per query for a map
// operation or two and never held across Handle. Every query of every
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
// maxSize, through Unpack → Handle → PackBuffer otherwise — which, with
// one visit to the memo, is all a query it has not seen twice ever
// costs. Octets that do not decode, answer nothing (QR set) or ask
// nothing are dropped.
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
	q, err := dnswire.Unpack(query)
	if err != nil || len(q.Questions) == 0 || q.Header.Response {
		return nil // garbage: drop, like most servers
	}
	resp := s.Handle(ctx, from, q)
	// Rendered in place behind dst when it has the room, moved in by the
	// append when it has not.
	out, err := resp.PackBuffer(dst[len(dst):], maxSize, true)
	if err != nil {
		return nil
	}
	// Never kept: a truncated rendering (the next asker may have room for
	// all of it), anything past the default datagram (a zone transfer),
	// and SERVFAIL — a cancelled wait on a lazy signer is not the zone's
	// answer.
	if again && !resp.Header.Truncated && len(out) <= dnswire.DefaultUDPSize && resp.Header.RCode != dnswire.RCodeServFail {
		s.admit(epoch, h, key, out[2:])
	}
	return append(dst, out...)
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
