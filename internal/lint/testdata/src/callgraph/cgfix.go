// Package cgfix exercises every edge kind the call-graph builder
// resolves; callgraph_test.go asserts the resulting edges.
package cgfix

func callee() {}

func plainCall() { callee() }

func spawn() { go callee() }

func deferred() { defer callee() }

func closure() int {
	f := func() int { return 1 }
	return f()
}

func immediate() {
	func() { callee() }()
}

func reference() func() { return callee }

// Doer is dispatched through below.
type Doer interface{ Do() }

// RealDoer is the one concrete implementation in the fixture.
type RealDoer struct{}

// Do implements Doer.
func (RealDoer) Do() {}

func dispatch(d Doer) { d.Do() }

// inner and outer give callee a caller two hops away that also calls it
// directly: the shape that tells a shortest chain from any chain. top
// reaches callee through inner only.
func inner() { callee() }

func top() { inner() }

func outer() {
	inner()
	callee()
}
