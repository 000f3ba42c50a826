// Package fixhot holds hotalloc golden fixtures. bad.go carries one
// annotated function per allocation class; // want lines sit on the
// allocation sites.
package fixhot

import (
	"fmt"
	"strconv"
)

type event struct {
	at int64
}

//t3d:hotpath
func escapeComposite(sink **event) {
	*sink = &event{at: 1} // want `&composite literal in //t3d:hotpath function fixhot.escapeComposite`
}

//t3d:hotpath
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal in //t3d:hotpath function fixhot.sliceLit`
}

//t3d:hotpath
func mapLit() map[string]int {
	return map[string]int{"a": 1} // want `map literal in //t3d:hotpath function fixhot.mapLit`
}

//t3d:hotpath
func makeAlloc(n int) []byte {
	return make([]byte, n) // want `make in //t3d:hotpath function fixhot.makeAlloc`
}

//t3d:hotpath
func newAlloc() *event {
	return new(event) // want `new in //t3d:hotpath function fixhot.newAlloc`
}

//t3d:hotpath
func appendGrow(xs []int, v int) []int {
	return append(xs, v) // want `append \(may grow\) in //t3d:hotpath function fixhot.appendGrow`
}

//t3d:hotpath
func closureCapture(v int) func() int {
	f := func() int { return v } // want `closure capturing 1 variables in //t3d:hotpath function fixhot.closureCapture`
	return f
}

//t3d:hotpath
func stringConv(b []byte) string {
	return string(b) // want `string conversion copies in //t3d:hotpath function fixhot.stringConv`
}

//t3d:hotpath
func stringConcat(a, b string) string {
	return a + b // want `string concatenation in //t3d:hotpath function fixhot.stringConcat`
}

// sinkAny is an unannotated, allocation-free interface sink: the box
// happens at the caller's argument, the canonical hidden trace-call
// allocation.
func sinkAny(v any) {}

//t3d:hotpath
func boxInt(n int) {
	sinkAny(n) // want `int boxed into any in //t3d:hotpath function fixhot.boxInt`
}

// allocHelper is unannotated: its allocations surface at hot call
// sites via the bottom-up summary.
func allocHelper() *event {
	return &event{}
}

//t3d:hotpath
func callsAllocating() *event {
	return allocHelper() // want `//t3d:hotpath function fixhot.callsAllocating calls fixhot.allocHelper, which allocates`
}

// midHelper allocates only transitively, through allocHelper.
func midHelper() *event {
	return allocHelper()
}

//t3d:hotpath
func callsTransitively() *event {
	return midHelper() // want `//t3d:hotpath function fixhot.callsTransitively calls fixhot.midHelper, which allocates`
}

//t3d:hotpath
func formats(n int) string {
	return strconv.Itoa(n) // want `//t3d:hotpath function fixhot.formats calls strconv.Itoa, which allocates`
}

// panicAfterFormat builds the message in a statement of its own: only
// the argument of panic is cold, so the formatting is still flagged.
//
//t3d:hotpath
func panicAfterFormat(e *event) {
	msg := fmt.Sprintf("fixhot: bad event %p", e) // want `//t3d:hotpath function fixhot.panicAfterFormat calls fmt.Sprintf, which allocates`
	panic(msg)
}
