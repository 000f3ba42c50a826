package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by up
// to a factor of two over minutes as neighbours come and go, without
// any steal time to show for it. So a run times a fixed calibration
// loop between its passes (for serve, between the segments and chunks
// of its phases) and scales the CPU time of each stretch of work by
// calRef over the median of the samples around it: times read as on a
// host where the loop takes calRef. Single samples vary by a quarter,
// so no factor rests on fewer than three where a run has three. Times a
// run reports otherwise are scaled by calRef over the median of all its
// samples.
//
// The loop does what the simulator does on the host: it allocates
// dense blocks the size of a node's DRAM, schedules closures on a heap
// of events, allocates small objects, updates a map, chases pointers
// through a couple of megabytes, and runs a stretch of plain
// arithmetic. Each part alone tracked some workloads' drift and not
// others; together, in batches of ten runs per workload, they held the
// spread of all four to 4–12% where raw CPU times spread by 14–32%. It
// is the benchmark's own code, so a change to the simulator cannot move
// it.

// calRef is the calibration loop's CPU time on the reference host, the
// 2-vCPU machine of the README's baselines in a quiet period.
const calRef = 100 * time.Millisecond

// calibrator collects the calibration samples of one run.
type calibrator struct {
	samples []float64 // CPU seconds
}

// sample collects garbage, so that the loop starts from the same heap
// every time, and returns the loop's CPU time in seconds.
func (c *calibrator) sample() float64 {
	runtime.GC()
	t := cpuTime()
	calLoop()
	s := (cpuTime() - t).Seconds()
	c.samples = append(c.samples, s)
	return s
}

// scale is the factor that turns this run's times into reference-host
// times: calRef over the median sample.
func (c *calibrator) scale() float64 { return factor(c.samples) }

// factor is calRef over the median of samples.
func factor(samples []float64) float64 { return calRef.Seconds() / median(samples) }

// factorAt is the factor for the work between samples i and i+1 of a
// series taken at the boundaries of stretches of work: calRef over the
// median of samples i-1 to i+2.
func factorAt(series []float64, i int) float64 {
	return factor(series[max(i-1, 0):min(i+3, len(series))])
}

type calEvent struct {
	at int64
	fn func()
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type calNode struct {
	next *calNode
	val  uint64
	_    [6]uint64 // one node per 64-byte line
}

// calSink keeps the compiler from discarding the loop's work.
var calSink uint64

func calLoop() {
	// Two dense 16 MiB blocks, as every simulated 2-PE machine allocates
	// for its DRAM.
	for i := 0; i < 2; i++ {
		dram := make([]byte, 16<<20)
		dram[len(dram)-1] = 1
		calSink += uint64(dram[0])
	}
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calSink += x
	rng := rand.New(rand.NewSource(1))
	nodes := make([]calNode, 1<<15) // 2 MiB
	for i, j := range rng.Perm(len(nodes)) {
		nodes[i].next = &nodes[j]
	}
	m := map[int64]uint64{}
	h := &calHeap{}
	var acc uint64
	p := &nodes[0]
	for i := 0; i < 200_000; i++ {
		heap.Push(h, &calEvent{at: int64(rng.Intn(1000) + i), fn: func() { acc++ }})
		for j := 0; j < 4; j++ {
			p = p.next
			acc += p.val
			p.val++
		}
		m[int64(i&4095)] += acc
		if h.Len() > 64 {
			heap.Pop(h).(*calEvent).fn()
		}
	}
	calSink += acc + uint64(len(m))
}
