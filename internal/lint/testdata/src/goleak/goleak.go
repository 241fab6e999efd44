// Package goleak is a golden-file fixture for the
// goroutine-termination analyzer (which scopes itself over the whole
// project, so the import path is irrelevant).
package goleak

import (
	"context"
	"os"
)

func work() {}

func tired() bool { return true }

// spinForever leaks: the spawned loop has no way out.
func spinForever() {
	go func() {
		for { // want `unconditional loop in goroutine spawned at`
			work()
		}
	}()
}

// loopWithSelectReturn is a near miss: the shutdown case returns (the
// netsim accept-loop shape).
func loopWithSelectReturn(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				work()
			}
		}
	}()
}

// bareSend leaks the goroutine when the receiver goes away.
func bareSend(ch chan int) {
	go func() {
		ch <- 1 // want `blocking channel send in goroutine spawned at`
	}()
}

// guardedSend is a near miss: the send has a cancellation case.
func guardedSend(ctx context.Context, ch chan int) {
	go func() {
		select {
		case ch <- 1:
		case <-ctx.Done():
		}
	}()
}

// spawnNamed spawns a declared function: the body is resolved through
// the call graph, not just literal syntax.
func spawnNamed(ch chan int) {
	go pump(ch)
}

// pump is flagged at its send because a goroutine runs it bare.
func pump(ch chan int) {
	ch <- 2 // want `blocking channel send in goroutine spawned at`
}

// sequentialSend is a near miss: pump's send is only a finding where a
// goroutine runs it; calling it synchronously reports nothing here.
func sequentialSend(ch chan int) {
	pump(ch)
}

// boundedLoop is a near miss: a loop condition is assumed reachable.
func boundedLoop() {
	go func() {
		for i := 0; i < 10; i++ {
			work()
		}
	}()
}

// exitingLoop is a near miss: os.Exit leaves the loop.
func exitingLoop() {
	go func() {
		for {
			if tired() {
				os.Exit(0)
			}
		}
	}()
}

// breakOut is a near miss: the unlabeled break targets this loop.
func breakOut() {
	go func() {
		for {
			if tired() {
				break
			}
		}
	}()
}

// nestedBreak still leaks: the break targets the switch, not the loop.
func nestedBreak() {
	go func() {
		for { // want `unconditional loop in goroutine spawned at`
			switch {
			case tired():
				break
			}
		}
	}()
}

// labeledBreakOut is a near miss: the labeled break targets the
// spawned loop itself from inside a nested switch.
func labeledBreakOut() {
	go func() {
	drain:
		for {
			switch {
			case tired():
				break drain
			}
		}
	}()
}

// flight models the lazy-signing singleflight (authserver): waiters
// block receiving from a channel the signer unconditionally closes.
type flight struct{ done chan struct{} }

// singleflightWaiters is a near miss: unlike a bare send, a bare
// receive on a singleflight channel completes — close(done) wakes
// every waiter at once, so the goroutines terminate.
func singleflightWaiters(fl *flight) {
	for i := 0; i < 4; i++ {
		go func() {
			<-fl.done
			work()
		}()
	}
}

// signer closes the flight after doing the work; waiters spawned by
// singleflightWaiters unblock here.
func signer(fl *flight) {
	work()
	close(fl.done)
}

// gotoSelf still leaks: a goto to the loop's own label restarts it.
func gotoSelf() {
	go func() {
	again:
		for { // want `unconditional loop in goroutine spawned at`
			if tired() {
				goto again
			}
		}
	}()
}
