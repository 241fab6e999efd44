package netsim

import (
	"encoding/binary"

	"repro/internal/dnswire"
)

// SharedResponses calls f with every response n's memo holds: its
// octets, with the ID of the Message in front, and that Message, which
// every asker of the same octets under the same ID is handed.
func (n *Network) SharedResponses(f func(wire []byte, msg *dnswire.Message)) {
	n.memo.mu.Lock()
	defer n.memo.mu.Unlock()
	for _, e := range n.memo.decoded {
		f(append(binary.BigEndian.AppendUint16(nil, e.msg.Header.ID), e.body...), e.msg)
	}
}
