package buffix

import "io"

// Drain refills its buffer through a plain io.Reader, not a socket:
// the sent alias races with the next Read all the same.
func Drain(r io.Reader, ch chan []byte) error {
	buf := make([]byte, 512)
	for {
		n, err := r.Read(buf)
		if err != nil {
			return err
		}
		ch <- buf[:n] // want `read buffer buf is refilled every iteration of this loop but is sent on a channel`
	}
}
