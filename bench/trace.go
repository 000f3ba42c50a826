package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxSpans bounds the spans kept for the trace file; later spans are
// counted as dropped.
const maxSpans = 200_000

// tracer records spans around the benchmark's calls into each layer and
// aggregated counters for per-access calls, which are too many to keep
// as spans. A nil *tracer records nothing, so untraced runs pay one
// branch per call site.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	nextID   int64
	spans    []span
	dropped  int
	counters map[string]*counter
}

type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Duration // since t0
}

// counter aggregates calls too frequent for spans: how many, and their
// total host time.
type counter struct {
	n, ns atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]*counter{}}
}

// spanCtx is an open span. It always carries its start time, so callers
// use it to time the call whether or not a tracer records it.
type spanCtx struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span named name under parent (0 for a root).
func (t *tracer) begin(name string, parent int64) spanCtx {
	s := spanCtx{t: t, parent: parent, name: name}
	if t != nil {
		t.mu.Lock()
		t.nextID++
		s.id = t.nextID
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration.
func (s spanCtx) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if t := s.t; t != nil {
		t.mu.Lock()
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Name: s.name,
				Start: s.start.Sub(t.t0), End: now.Sub(t.t0)})
		} else {
			t.dropped++
		}
		t.mu.Unlock()
	}
	return d
}

// counter returns the named aggregate counter, creating it on first use.
func (t *tracer) counter(name string) *counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &counter{}
		t.counters[name] = c
	}
	return c
}

// addSince counts one call that started at t.
func (c *counter) addSince(t time.Time) {
	c.n.Add(1)
	c.ns.Add(int64(time.Since(t)))
}

// meanNS is the counter's mean host nanoseconds per call.
func (c *counter) meanNS() float64 {
	if n := c.n.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n)
	}
	return 0
}

// writeChrome writes the spans and counters as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open. Each root span and its
// descendants share one track.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"` // µs
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		parent[s.ID] = s.Parent
	}
	root := func(id int64) int64 {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	events := make([]event, 0, len(t.spans)+len(t.counters))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: root(s.ID),
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	names := make([]string, 0, len(t.counters))
	for name := range t.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	end := float64(time.Since(t.t0)) / 1e3
	for _, name := range names {
		c := t.counters[name]
		events = append(events, event{
			Name: name, Ph: "C", PID: 1, TS: end,
			Args: map[string]any{"count": c.n.Load(), "total_ns": c.ns.Load()},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// heapAllocs returns the cumulative count and bytes of heap
// allocations. ReadMemStats stops the world and flushes every P's
// cache, so the counts are exact; only traced runs call it.
func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// liveHeapMiB is the live heap the garbage collector found in its most
// recent cycle.
func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuClock reads the runtime's estimate of CPU time spent in garbage
// collection and in total, for the GC's share of a window.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since is the GC and total CPU time from c to now.
func (c cpuClock) since() cpuClock {
	now := readCPU()
	return cpuClock{gc: now.gc - c.gc, total: now.total - c.total}
}

func (c cpuClock) add(d cpuClock) cpuClock {
	return cpuClock{gc: c.gc + d.gc, total: c.total + d.total}
}

// frac is the GC's share of the CPU time.
func (c cpuClock) frac() float64 {
	if c.total > 0 {
		return c.gc / c.total
	}
	return 0
}

// cpuTime is the CPU time this process has used, over all its threads.
// The kernel leaves out time the host stole from the virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
