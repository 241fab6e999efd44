package netsim

import "repro/internal/dnswire"

// SharedResponses calls f with every response n's memo holds: its
// octets and the Message handed to every asker of them.
func (n *Network) SharedResponses(f func(wire []byte, msg *dnswire.Message)) {
	n.memo.mu.Lock()
	defer n.memo.mu.Unlock()
	for _, e := range n.memo.decoded {
		f(e.wire, e.msg)
	}
}
