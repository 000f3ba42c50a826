// ok.go is the no-false-positive fixture: allocation-free hot code and
// the patterns the pass must not confuse with allocation.
package fixhot

import "fmt"

// valueComposite: a plain value literal stays on the stack — the
// non-escaping mirror of escapeComposite.
//
//t3d:hotpath
func valueComposite() int64 {
	e := event{at: 3}
	return e.at
}

// passPtr: a pointer is pointer-shaped, so boxing it into an interface
// word allocates nothing — the mirror of boxInt.
//
//t3d:hotpath
func passPtr(e *event) {
	sinkAny(e)
}

// hotHelper is a separately-audited segment of the hot path.
//
//t3d:hotpath
func hotHelper(e *event) int64 {
	return e.at + 1
}

// hotCaller: an annotated callee is an audit boundary, not an
// allocation — even though unannotated callers of allocating helpers
// are flagged.
//
//t3d:hotpath
func hotCaller(e *event) int64 {
	return hotHelper(e)
}

// arithOnly: index, arithmetic, and shifts are free.
//
//t3d:hotpath
func arithOnly(xs []uint64, i int) uint64 {
	return xs[i]<<1 + 7
}

// cleanHelper is unannotated and allocation-free; calling it from hot
// code is fine.
func cleanHelper(x uint64) uint64 {
	return x * 2654435761
}

//t3d:hotpath
func callsClean(x uint64) uint64 {
	return cleanHelper(x)
}

// coldAlloc allocates, but nothing annotated calls it: off the hot
// path, allocation is nobody's business.
func coldAlloc() []int {
	return []int{1, 2, 3}
}

// panicFormats: the argument of panic is cold. The formatting, the
// boxing of n and the &composite run only on the way to a crash.
//
//t3d:hotpath
func panicFormats(n int) {
	if n < 0 {
		panic(fmt.Sprintf("fixhot: negative %d", n))
	}
	if n > 1<<20 {
		panic(&event{at: int64(n)})
	}
}

// panicHelper is unannotated and allocates only in its panic argument,
// so its summary is clean and its hot callers stay silent.
func panicHelper(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("fixhot: negative %d", n))
	}
	return n
}

//t3d:hotpath
func callsPanicHelper(n int) int {
	return panicHelper(n)
}

// panicCallsAllocating: a module call inside the panic argument is
// cold too.
//
//t3d:hotpath
func panicCallsAllocating() {
	panic(allocHelper())
}
