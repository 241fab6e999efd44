package netsim

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
)

// This file is the real-socket implementation of the same Exchanger /
// Handler contracts: a UDP+TCP DNS server, whose two loops answer
// through serve, and a UDP client with TCP fallback on truncation. The
// cmd/ binaries and the loopback integration tests run on it;
// everything else is transport-agnostic.

// Server serves a Handler over UDP and TCP on the same address. A UDP
// response is capped at dnswire.DefaultUDPSize; a TCP one is not.
type Server struct {
	Handler Handler

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
	pc, ln, err := listenBoth(ctx, addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	s.pc, s.ln = pc, ln
	s.shutdown = make(chan struct{})
	ctx, s.cancel = context.WithCancel(ctx)
	s.wg.Add(2)
	go s.serveUDP(ctx)
	go s.serveTCP(ctx)
	return bound, nil
}

// listenBoth binds addr's UDP port and the TCP port of the same number.
// Asked for an ephemeral port, it takes the UDP port the kernel hands
// out, and when a TCP conversation somewhere on the host still holds
// that number it asks for another.
func listenBoth(ctx context.Context, addr string) (net.PacketConn, net.Listener, error) {
	_, port, _ := net.SplitHostPort(addr) // a malformed addr fails ListenPacket below
	var lc net.ListenConfig
	for try := 0; ; try++ {
		pc, err := lc.ListenPacket(ctx, "udp", addr)
		if err != nil {
			return nil, nil, err
		}
		ln, err := lc.Listen(ctx, "tcp", pc.LocalAddr().String())
		if err == nil {
			return pc, ln, nil
		}
		_ = pc.Close() // best-effort cleanup on the error path
		if port != "0" || try == 4 {
			return nil, nil, err
		}
	}
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

// pktPool recycles 65535-octet packet buffers, the size a read needs
// before the length of what arrives is known. Nothing decoded from one
// aliases it (dnswire.Unpack's Message owns its memory; a WireHandler
// may not keep its query), so it recycles as soon as its octets are
// decoded, copied out or answered.
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

// servePacket answers one datagram. It owns bp from the moment it is
// spawned and must Put it exactly once — at once: the query is copied
// into an exchange buffer, where the response is appended behind it,
// because a handler may block (lazy signing, a resolver's upstream
// queries) and must not hold 64 KB per query in flight while it does.
func (s *Server) servePacket(ctx context.Context, bp *[]byte, n int, from net.Addr) {
	defer s.wg.Done()
	wire := wirePool.Get().(*[]byte)
	refill(wire, (*bp)[:n])
	pktPool.Put(bp)
	query := *wire
	if both := serve(ctx, s.Handler, query, from.(*net.UDPAddr).AddrPort(), query, dnswire.DefaultUDPSize); both != nil {
		*wire = both
		// A dropped response is indistinguishable from UDP loss; the
		// client's retry logic covers it.
		_, _ = s.pc.WriteTo(both[n:], from)
	}
	wirePool.Put(wire)
}

// refill makes *buf hold octets and nothing else, in the memory it has
// when that is enough.
func refill(buf *[]byte, octets []byte) { *buf = append((*buf)[:0], octets...) }

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
			from := conn.RemoteAddr().(*net.TCPAddr).AddrPort()
			for s.serveFrame(ctx, conn, from) == nil {
			}
		}()
	}
}

// errDropped ends a connection whose query the handler dropped.
var errDropped = errors.New("netsim: query dropped")

// errFrameTooLarge reports a message the 16-bit length of a TCP frame
// cannot describe.
var errFrameTooLarge = errors.New("netsim: message too large for TCP framing")

// serveFrame answers one length-framed query from conn: the response
// is appended behind the query and its own two length octets in one
// pooled buffer, and the frame written in one call.
func (s *Server) serveFrame(ctx context.Context, conn net.Conn, from netip.AddrPort) error {
	n, err := readFrameLen(conn)
	if err != nil {
		return err
	}
	bp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bp) // strictly after the write: the frame lies in *bp
	query := (*bp)[:n]
	if _, err := io.ReadFull(conn, query); err != nil {
		return err
	}
	both := serve(ctx, s.Handler, append(query, 0, 0), from, query, 0)
	if both == nil {
		return errDropped
	}
	frame := both[n:]
	if len(frame)-2 > 65535 {
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
	_, err = conn.Write(frame)
	return err
}

// readFrameLen reads the two length octets of the next frame: any
// length they give, a packet buffer holds. It blocks until the peer
// sends, so callers take their buffer after it returns.
//
//repro:ctxexempt framed reads are deadline-armed by every caller (serveTCP and exchangeTCP set conn deadlines before the first read)
func readFrameLen(r io.Reader) (int, error) {
	var lenBuf [2]byte
	_, err := io.ReadFull(r, lenBuf[:])
	return int(binary.BigEndian.Uint16(lenBuf[:])), err
}

// readTCPMessage reads one length-framed message into a pooled packet
// buffer and decodes it; the buffer recycles once Unpack has taken
// what it keeps.
//
//repro:ctxexempt framed reads are deadline-armed by every caller (serveTCP and exchangeTCP set conn deadlines before the first read)
func readTCPMessage(r io.Reader) (*dnswire.Message, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	bp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bp)
	if _, err := io.ReadFull(r, (*bp)[:n]); err != nil {
		return nil, err
	}
	return dnswire.Unpack((*bp)[:n])
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
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint16(frame, uint16(len(wire)))
	// wire was rendered in place behind the prefix, so this extends frame
	// over it (a copy onto itself) — unless a 65,534- or 65,535-octet
	// message outgrew the packet buffer, and then it moves it in.
	_, err = w.Write(append(frame, wire...))
	return err
}

// UDPExchanger is the real-socket client: one UDP datagram, and TCP
// when the response arrives truncated. It does not retry: the resolver
// and the scanner above it each keep their own retry budget.
type UDPExchanger struct {
	// Timeout per exchange; zero means 3s.
	Timeout time.Duration
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
	resp, err := u.exchangeUDP(ctx, server, query)
	if err != nil {
		return nil, err
	}
	if resp.Header.Truncated {
		return u.exchangeTCP(ctx, server, query)
	}
	return resp, nil
}

func (u *UDPExchanger) exchangeUDP(ctx context.Context, server netip.AddrPort, query *dnswire.Message) (*dnswire.Message, error) {
	wire, err := query.Pack()
	if err != nil {
		return nil, err
	}
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
