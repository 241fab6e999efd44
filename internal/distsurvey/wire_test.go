package distsurvey

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestFrameRoundTrip: a frame crosses a real conn intact.
func TestFrameRoundTrip(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	ctx := context.Background()

	want := &Frame{
		Type:       TypeJob,
		Shard:      42,
		ConfigHash: "abc",
		Job:        json.RawMessage(`{"config_hash":"abc"}`),
	}
	errCh := make(chan error, 1)
	go func() { errCh <- writeFrame(ctx, cli, want) }()
	got, err := readFrame(ctx, srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("frame drifted: sent %+v, received %+v", want, got)
	}
}

// TestFrameRejectsHostileLengths: the length word is untrusted input;
// oversized and zero lengths are refused before any allocation, and a
// typeless frame is refused after decode.
func TestFrameRejectsHostileLengths(t *testing.T) {
	ctx := context.Background()
	send := func(hdr uint32, payload []byte) error {
		cli, srv := net.Pipe()
		defer cli.Close()
		defer srv.Close()
		go func() {
			buf := make([]byte, 4+len(payload))
			binary.BigEndian.PutUint32(buf, hdr)
			copy(buf[4:], payload)
			_, _ = cli.Write(buf) // the reader's verdict is the test's subject
		}()
		if err := srv.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		_, err := readFrame(ctx, srv)
		return err
	}
	if err := send(MaxFrame+1, nil); err == nil {
		t.Error("oversized frame length accepted")
	}
	if err := send(0, nil); err == nil {
		t.Error("zero frame length accepted")
	}
	if err := send(3, []byte("{}\n")); err == nil {
		t.Error("typeless frame accepted")
	}
	if err := send(9, []byte("not json\n")); err == nil {
		t.Error("undecodable frame accepted")
	}
}

// TestReadFrameHonorsCancelledContext: a dead context short-circuits
// before touching the conn.
func TestReadFrameHonorsCancelledContext(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := readFrame(ctx, srv); err == nil {
		t.Fatal("read with cancelled context succeeded")
	}
	if err := writeFrame(ctx, cli, &Frame{Type: TypeLease}); err == nil {
		t.Fatal("write with cancelled context succeeded")
	}
}
