// Package distsurvey runs a study — the §4.1 survey or the §4.2
// resolver study — as coordinator + worker processes over the
// plan/execute/merge engine in internal/core: the coordinator plans
// the study's jobs and leases them out, workers execute them through
// the exact same core.Runner path core.Run uses, and the coordinator
// merges the streamed-back outcomes and obs snapshots through the same
// core.Builder — so a distributed run's report is byte-identical to a
// single-process one. Everything here is generic over core.Study; the
// study kinds differ only in the spec a run is started with. A lease
// lives as long as the connection that holds it: a worker that dies,
// or stays silent (no heartbeat) for the lease TTL, loses its
// connection and with it its shard, which is leased again; crash-safe
// per-shard checkpoints (checkpoint.go) make a study resumable after
// coordinator or worker death without redoing completed shards.
package distsurvey

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/obs"
)

// ProtocolVersion is bumped on incompatible frame changes; the hello
// exchange refuses a mismatch. Version 2 carried both study kinds under
// the same job/outcome keys; version 3 drops lease epochs and result
// acceptance: a connection holds at most one lease, heartbeats carry no
// fields, and result_ok always means merged.
const ProtocolVersion = 3

// MaxFrame bounds one frame's payload: a shard outcome is aggregate
// histograms and counters, far below this even at full scale. The
// length word comes off the wire untrusted, so every decode checks it
// before allocating.
const MaxFrame = 64 << 20

// Frame types. The protocol is strictly worker-initiated
// request/response plus unsolicited worker heartbeats: hello→hello_ok,
// lease→job|done, result→result_ok; error terminates either direction.
// A connection asks for its next lease only after its result is
// answered.
const (
	TypeHello     = "hello"
	TypeHelloOK   = "hello_ok"
	TypeLease     = "lease"
	TypeJob       = "job"
	TypeDone      = "done"
	TypeHeartbeat = "heartbeat"
	TypeResult    = "result"
	TypeResultOK  = "result_ok"
	TypeError     = "error"
)

// Frame is one protocol message: a single NDJSON line, length-prefixed
// with a 4-byte big-endian count so a reader never scans an unbounded
// stream for the newline.
type Frame struct {
	Type string `json:"type"`
	// Version and ConfigHash identify the protocol and study (hello);
	// the coordinator refuses workers running different flags.
	Version    int    `json:"version,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`
	// Worker names the worker for the coordinator's logs (hello).
	Worker string `json:"worker,omitempty"`
	// HeartbeatMS tells the worker how often to heartbeat (hello_ok).
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
	// Job carries the leased shard as an encoded core.Job (job). The
	// study kind is not on the wire: the config hashes of the two kinds
	// have disjoint preimages, so a worker can never hold a lease of
	// the wrong kind past the hello exchange.
	Job json.RawMessage `json:"job,omitempty"`
	// Shard is the shard index (result, result_ok).
	Shard int `json:"shard,omitempty"`
	// Outcome and Obs carry the shard's encoded outcome and the worker's
	// per-shard metrics snapshot (result).
	Outcome json.RawMessage `json:"outcome,omitempty"`
	Obs     *obs.Snapshot   `json:"obs,omitempty"`
	// Err carries the peer's refusal (error).
	Err string `json:"err,omitempty"`
}

// HandshakeError is the typed rejection a worker gets when the
// coordinator refuses its hello (version or config-hash mismatch), or
// either side receives an error frame.
type HandshakeError struct {
	Reason string
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("distsurvey: handshake refused: %s", e.Reason)
}

// readFrame decodes one length-prefixed frame. The length word is
// untrusted wire input: it is bounds-checked before any allocation.
// Cancellation reaches the blocking reads through the conn itself —
// callers arm deadlines or close the conn from a context hook.
func readFrame(ctx context.Context, conn net.Conn) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("distsurvey: frame length %d outside (0, %d]", n, MaxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	f := &Frame{}
	if err := json.Unmarshal(buf, f); err != nil {
		return nil, fmt.Errorf("distsurvey: undecodable frame: %w", err)
	}
	if f.Type == "" {
		return nil, fmt.Errorf("distsurvey: frame without a type")
	}
	return f, nil
}

// writeFrame encodes f as one length-prefixed NDJSON line and writes
// it in a single conn.Write, so a frame is either fully queued or not
// sent at all from this side's perspective.
func writeFrame(ctx context.Context, conn net.Conn, f *Frame) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if len(payload) > MaxFrame {
		return fmt.Errorf("distsurvey: frame payload %d exceeds %d", len(payload), MaxFrame)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = conn.Write(buf)
	return err
}

// wireConn serializes frame writes on a shared conn: the worker's
// heartbeat goroutine and its main loop must never interleave frames.
type wireConn struct {
	conn net.Conn
	wmu  sync.Mutex
}

func (w *wireConn) write(ctx context.Context, f *Frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(ctx, w.conn, f)
}

func (w *wireConn) read(ctx context.Context) (*Frame, error) {
	return readFrame(ctx, w.conn)
}
