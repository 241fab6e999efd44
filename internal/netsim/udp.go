package netsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
)

// This file is the real-socket implementation of the same Exchanger /
// Handler contracts: a UDP+TCP DNS server and a UDP client with TCP
// fallback on truncation. The cmd/ binaries and the loopback
// integration tests run on it; everything else is transport-agnostic.

// Server serves a Handler over UDP and TCP on the same address.
type Server struct {
	Handler Handler
	// UDPSize caps UDP responses; TCP responses are unlimited.
	// Zero means dnswire.DefaultUDPSize.
	UDPSize int

	mu       sync.Mutex
	pc       net.PacketConn
	ln       net.Listener
	wg       sync.WaitGroup
	shutdown chan struct{}
	cancel   context.CancelFunc
}

// Listen binds UDP and TCP on addr ("127.0.0.1:0" for an ephemeral
// loopback port) and starts serving until Close or ctx cancellation.
// ctx is the root context of every handler invocation: cancelling it
// (or calling Close, which cancels the derived context) reaches
// in-flight handlers.
func (s *Server) Listen(ctx context.Context, addr string) (netip.AddrPort, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown != nil {
		return netip.AddrPort{}, errors.New("netsim: server already listening")
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	ln, err := net.Listen("tcp", bound.String())
	if err != nil {
		_ = pc.Close() // best-effort cleanup on the error path
		return netip.AddrPort{}, err
	}
	s.pc, s.ln = pc, ln
	s.shutdown = make(chan struct{})
	ctx, s.cancel = context.WithCancel(ctx)
	s.wg.Add(2)
	go s.serveUDP(ctx)
	go s.serveTCP(ctx)
	return bound, nil
}

// Close stops the server and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.shutdown == nil {
		s.mu.Unlock()
		return nil
	}
	close(s.shutdown)
	s.cancel()
	// Shutdown path: the goroutines below are unblocked by the close
	// itself; a close error has nothing left to abort.
	_ = s.pc.Close()
	_ = s.ln.Close() // same shutdown rationale as above
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.shutdown = nil
	s.mu.Unlock()
	return nil
}

func (s *Server) udpSize() int {
	if s.UDPSize > 0 {
		return s.UDPSize
	}
	return dnswire.DefaultUDPSize
}

// pktPool recycles 65535-octet packet buffers between UDP reads and
// response writes. Each datagram is read into a pooled buffer which is
// handed whole to the handling goroutine (ownership transfer, no copy)
// and returned to the pool the moment Unpack has materialized the query
// — dnswire.Unpack guarantees the Message aliases none of its input.
var pktPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65535)
		return &b
	},
}

// serveUDP is the datagram accept loop: read into a pooled buffer,
// hand it to a per-packet goroutine, repeat. Handlers may block on
// lazy zone signing or cross-server queries, so packets must not be
// handled serially here.
//
//repro:hotpath every real-socket UDP query is read, decoded, dispatched, and answered through this loop
func (s *Server) serveUDP(ctx context.Context) {
	defer s.wg.Done()
	for {
		bp := pktPool.Get().(*[]byte)
		n, from, err := s.pc.ReadFrom(*bp)
		if err != nil {
			pktPool.Put(bp)
			select {
			case <-s.shutdown:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go s.servePacket(ctx, bp, n, from)
	}
}

// servePacket decodes one datagram, dispatches it to the handler, and
// writes the response, recycling pooled buffers at both ends. It owns
// bp from the moment it is spawned and must Put it exactly once.
func (s *Server) servePacket(ctx context.Context, bp *[]byte, n int, from net.Addr) {
	defer s.wg.Done()
	query, err := dnswire.Unpack((*bp)[:n])
	// The Message owns all its memory (no aliasing into *bp), so the
	// read buffer can recycle before the handler runs.
	pktPool.Put(bp)
	if err != nil || len(query.Questions) == 0 || query.Header.Response {
		return // garbage: drop, like most servers
	}
	fromAP := from.(*net.UDPAddr).AddrPort()
	resp := s.Handler.Handle(ctx, fromAP, query)
	if resp == nil {
		return
	}
	size := s.udpSize()
	if opt, ok := query.OPT(); ok && int(opt.UDPSize) < size {
		size = int(opt.UDPSize)
	}
	if size < 512 {
		size = 512
	}
	wbp := pktPool.Get().(*[]byte)
	wire, err := resp.PackBuffer((*wbp)[:0], size, true)
	if err != nil {
		pktPool.Put(wbp)
		return
	}
	// A dropped response is indistinguishable from UDP loss;
	// the client's retry logic covers it. wire may alias *wbp, hence
	// the Put strictly after the write.
	_, _ = s.pc.WriteTo(wire, from)
	pktPool.Put(wbp)
}

func (s *Server) serveTCP(ctx context.Context) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.shutdown:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close() // response already sent; close error is moot
			// SetDeadline on a live TCP conn cannot fail; a stale conn
			// surfaces as a read error on the next loop iteration.
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			for {
				query, err := readTCPMessage(conn)
				if err != nil {
					return
				}
				from := conn.RemoteAddr().(*net.TCPAddr).AddrPort()
				resp := s.Handler.Handle(ctx, from, query)
				if resp == nil {
					return
				}
				if err := writeTCPMessage(conn, resp); err != nil {
					return
				}
			}
		}()
	}
}

// readTCPMessage reads one length-framed message into a pooled packet
// buffer and decodes it; the buffer recycles once Unpack has taken
// what it keeps.
//
//repro:ctxexempt framed reads are deadline-armed by every caller (serveTCP and exchangeTCP set conn deadlines before the first read)
func readTCPMessage(r io.Reader) (*dnswire.Message, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	bp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bp)
	buf := (*bp)[:binary.BigEndian.Uint16(lenBuf[:])] // a packet buffer holds any 16-bit length
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return dnswire.Unpack(buf)
}

// writeTCPMessage renders m into a pooled packet buffer behind the two
// length octets of its frame and writes the frame in one call.
func writeTCPMessage(w io.Writer, m *dnswire.Message) error {
	bp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bp) // strictly after the write: the frame aliases *bp
	frame := (*bp)[:2]
	wire, err := m.PackBuffer(frame[2:], 0, true)
	if err != nil {
		return err
	}
	if len(wire) > 65535 {
		return fmt.Errorf("netsim: message too large for TCP framing")
	}
	binary.BigEndian.PutUint16(frame, uint16(len(wire)))
	// wire was rendered in place behind the prefix, so this extends frame
	// over it (a copy onto itself) — unless a 65,534- or 65,535-octet
	// message outgrew the packet buffer, and then it moves it in.
	_, err = w.Write(append(frame, wire...))
	return err
}

// UDPExchanger is the real-socket client: UDP with retry and TCP
// fallback when the response arrives truncated.
type UDPExchanger struct {
	// Timeout per attempt; zero means 3s.
	Timeout time.Duration
	// Retries after the first attempt; default 1.
	Retries int
}

func (u *UDPExchanger) timeout() time.Duration {
	if u.Timeout > 0 {
		return u.Timeout
	}
	return 3 * time.Second
}

// Exchange implements Exchanger.
//
//repro:nondeterministic clock reads set real-socket I/O deadlines, not response content
func (u *UDPExchanger) Exchange(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	wire, err := query.Pack()
	if err != nil {
		return nil, err
	}
	attempts := 1 + u.Retries
	if u.Retries == 0 {
		attempts = 2
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := u.exchangeUDPOnce(ctx, server, query, wire)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Truncated {
			return u.exchangeTCP(ctx, server, query)
		}
		return resp, nil
	}
	return nil, lastErr
}

func (u *UDPExchanger) exchangeUDPOnce(ctx context.Context, server netip.AddrPort, query *dnswire.Message, wire []byte) (*dnswire.Message, error) {
	d := net.Dialer{Timeout: u.timeout()}
	conn, err := d.DialContext(ctx, "udp", server.String())
	if err != nil {
		return nil, err
	}
	// The exchange outcome is decided by the read; close errors on the
	// drained socket carry no signal.
	defer conn.Close()
	deadline := time.Now().Add(u.timeout())
	if ctxDL, ok := ctx.Deadline(); ok && ctxDL.Before(deadline) {
		deadline = ctxDL
	}
	// SetDeadline on a fresh conn cannot fail; a dead conn surfaces
	// as an error on the write below.
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	bp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bp)
	for {
		n, err := conn.Read(*bp)
		if err != nil {
			return nil, err
		}
		resp, err := dnswire.Unpack((*bp)[:n])
		if err != nil {
			continue // garbage datagram; keep waiting
		}
		if resp.Header.ID != query.Header.ID || !resp.Header.Response {
			continue // mismatched transaction
		}
		return resp, nil
	}
}

func (u *UDPExchanger) exchangeTCP(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	d := net.Dialer{Timeout: u.timeout()}
	conn, err := d.DialContext(ctx, "tcp", server.String())
	if err != nil {
		return nil, err
	}
	// The exchange outcome is decided by the read; close errors on the
	// drained socket carry no signal.
	defer conn.Close()
	deadline := time.Now().Add(u.timeout())
	if ctxDL, ok := ctx.Deadline(); ok && ctxDL.Before(deadline) {
		deadline = ctxDL
	}
	// SetDeadline on a fresh conn cannot fail; a dead conn surfaces
	// as an error on the write below.
	_ = conn.SetDeadline(deadline)
	if err := writeTCPMessage(conn, query); err != nil {
		return nil, err
	}
	return readTCPMessage(conn)
}
