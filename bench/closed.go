package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 101

// warmHeap takes three calibration samples before the set-ups. Their
// allocations leave the heap grown and collected, so the set-ups reuse
// memory the process already has: when they started from a fresh heap
// they faulted pages in, and apps' set-up time moved by a factor of two
// from run to run.
func warmHeap(c *calibrator) {
	for i := 0; i < 3; i++ {
		c.sample()
	}
}

// output is an operation's simulated result: what the warm-up pass,
// every later pass and the golden file must agree on.
type output struct {
	Points    []float64 `json:"points,omitempty"` // probe latencies, simulated ns
	Cycles    int64     `json:"cycles,omitempty"`
	Digest    string    `json:"digest,omitempty"`
	Validated bool      `json:"validated"`
}

func (o output) equal(p output) bool {
	return slices.Equal(o.Points, p.Points) && o.Cycles == p.Cycles &&
		o.Digest == p.Digest && o.Validated == p.Validated
}

// entry is one catalogue item of a closed-loop workload: an operation
// on fresh simulated machines whose simulated output is deterministic.
type entry struct {
	name  string
	units float64 // units of work in one operation, which cpu_ms is per
	// digestGroup, if set, names entries that compute the same result in
	// different ways, so their digests must agree.
	digestGroup string
	run         func(op *opCtx) (output, error)
}

// call runs the entry's operation, reporting a panic in the simulator
// as the operation's error.
func (e entry) call(op *opCtx) (out output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.run(op)
}

// opCtx is one operation in flight.
type opCtx struct {
	tr     *tracer // nil when this operation is not traced
	parent int64   // the operation's span
	events int64   // simulation events the operation processed
}

// closedLoop is a workload that runs its catalogue as a closed loop
// from one caller.
type closedLoop struct {
	name string
	unit string // what one unit of work is: point, edge or run
	// seedFree marks a catalogue whose outputs do not depend on the
	// seed, so the golden outputs are checked at every seed.
	seedFree bool
	// inputs generates the seeded catalogue.
	inputs func(seed int64) []entry
}

// opRecord is one operation of a pass.
type opRecord struct {
	entry         int
	out           output
	err           error
	wall, cpu     time.Duration
	events        int64
	allocs, bytes uint64   // traced operations only
	gc            cpuClock // traced operations only: CPU time in GC, and in all
}

// perEntry holds one series of per-unit samples for each entry.
type perEntry [][]float64

// median is the geometric mean over entries of each entry's median, and
// the number of samples behind it.
func (s perEntry) median() (float64, int) {
	meds := make([]float64, len(s))
	count := 0
	for i, xs := range s {
		meds[i] = median(xs)
		count += len(xs)
	}
	return geomean(meds), count
}

// run sets the catalogue up setupReps times (timed), runs one untimed
// warm-up pass whose outputs become the reference, then measures whole
// passes until the duration has passed, with a calibration sample at
// each pass boundary. An operation fails if it errors, or its output
// differs from the reference, or the reference is wrong: not
// validated, different from the golden file (default seed only) or
// disagreeing with its digest group. A traced run traces
// every other pass, so the ratio of traced to untraced CPU time is the
// tracing overhead. A mini run measures one traced pass, which is also
// its reference.
func (c closedLoop) run(p params) (*result, error) {
	res := newResult()
	var entries []entry
	var setups []float64
	warmHeap(p.cal)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		entries = c.inputs(p.seed)
		rand.New(rand.NewSource(p.seed)).Shuffle(len(entries), func(i, j int) {
			entries[i], entries[j] = entries[j], entries[i]
		})
		setups = append(setups, time.Since(t).Seconds())
	}
	res.e2e["setup_s"] = metric{value: median(setups), n: len(setups), note: "median set-up"}

	var heap []float64 // each measured pass's largest live heap
	pass := func(tr *tracer) []opRecord {
		ops := make([]opRecord, len(entries))
		peak := 0.0
		for i, e := range entries {
			var a0, b0 uint64
			var gc cpuClock
			if tr != nil {
				a0, b0 = heapAllocs()
				gc = readCPU()
			}
			c0 := cpuTime()
			sp := tr.begin(c.name+" "+e.name, 0)
			op := &opCtx{tr: tr, parent: sp.id}
			out, err := e.call(op)
			r := opRecord{entry: i, out: out, err: err, wall: sp.end(), cpu: cpuTime() - c0, events: op.events}
			if tr != nil {
				r.gc = gc.since()
				a1, b1 := heapAllocs()
				r.allocs, r.bytes = a1-a0, b1-b0
			}
			ops[i] = r
			peak = max(peak, liveHeapMiB())
		}
		heap = append(heap, peak)
		return ops
	}

	// Measure first, with a calibration sample at each pass boundary, and
	// check and scale afterwards.
	type passRecord struct {
		ops    []opRecord
		traced bool
	}
	var passes []passRecord
	var cals []float64
	var first []opRecord
	if p.mini {
		cals = append(cals, p.cal.sample())
		first = pass(p.tr)
		passes = append(passes, passRecord{first, true})
		cals = append(cals, p.cal.sample())
	} else {
		first = pass(nil)
		heap = heap[:0]
		cals = append(cals, p.cal.sample())
		deadline := time.Now().Add(p.duration)
		// A traced run needs a traced and an untraced pass for the overhead.
		minPasses := 1
		if p.tr != nil {
			minPasses = 2
		}
		for len(passes) < minPasses || time.Now().Before(deadline) {
			t := p.tr != nil && len(passes)%2 == 0
			var tr *tracer
			if t {
				tr = p.tr
			}
			passes = append(passes, passRecord{pass(tr), t})
			cals = append(cals, p.cal.sample())
		}
	}
	ref, bad := reference(entries, first, goldenOutputs(c.name, p.seed, c.seedFree))

	n := len(entries)
	cpuMS, wallMS := make(perEntry, n), make(perEntry, n)   // untraced
	tcpuMS, twallMS := make(perEntry, n), make(perEntry, n) // traced
	failedCPU, failedWall := make(perEntry, n), make(perEntry, n)
	var traced []opRecord
	for pi, ps := range passes {
		k := factorAt(cals, pi)
		for i, r := range ps.ops {
			e := entries[i]
			res.attempted++
			cpu, wall := k*r.cpu.Seconds()*1e3/e.units, r.wall.Seconds()*1e3/e.units
			why, isBad := bad[i]
			switch {
			case r.err != nil:
				why = r.err.Error()
			case isBad:
				why = "reference output is wrong: " + why
			case !r.out.equal(ref[i]):
				why = fmt.Sprintf("pass %d output differs from the warm-up pass", pi+1)
			}
			switch {
			case why != "":
				res.fail("%s %s: %s", c.name, e.name, why)
				failedCPU[i] = append(failedCPU[i], cpu)
				failedWall[i] = append(failedWall[i], wall)
			case ps.traced:
				tcpuMS[i] = append(tcpuMS[i], cpu)
				twallMS[i] = append(twallMS[i], wall)
				traced = append(traced, r)
			default:
				cpuMS[i] = append(cpuMS[i], cpu)
				wallMS[i] = append(wallMS[i], wall)
			}
		}
	}

	// Untraced samples make the metrics; a mini run has only traced
	// ones, and an entry whose every operation failed only failed ones.
	for i := 0; i < n; i++ {
		if len(cpuMS[i]) == 0 {
			cpuMS[i], wallMS[i] = tcpuMS[i], twallMS[i]
		}
		if len(cpuMS[i]) == 0 {
			cpuMS[i], wallMS[i] = failedCPU[i], failedWall[i]
		}
	}
	cpu, count := cpuMS.median()
	res.e2e["cpu_ms"] = metric{value: cpu, n: count, scaled: true,
		note: fmt.Sprintf("host CPU ms per %s: geometric mean over %d entries of each entry's median", c.unit, n)}
	res.e2e["peak_heap_mb"] = metric{value: median(heap), n: len(heap), note: "median over passes of the largest live heap after an operation"}
	wall, _ := wallMS.median()
	if p.tr == nil {
		return res, nil
	}

	var units, events, allocs, bytes, cpuNS float64
	var gc cpuClock
	for _, r := range traced {
		units += entries[r.entry].units
		events += float64(r.events)
		allocs += float64(r.allocs)
		bytes += float64(r.bytes)
		cpuNS += float64(r.cpu.Nanoseconds())
		gc = gc.add(r.gc)
	}
	k := len(traced)
	note := c.name + ": traced operations"
	l := res.layer
	l["host.wall_ms_per_"+c.unit] = metric{value: wall, n: count, note: c.name + ": host wall-clock ms per " + c.unit + ", summarised as cpu_ms"}
	l["sim.events_per_"+c.unit] = metric{value: events / units, n: k, note: note}
	l["host.allocs_per_"+c.unit] = metric{value: allocs / units, n: k, note: note}
	l["host.bytes_per_"+c.unit] = metric{value: bytes / units, n: k, note: note}
	l["sim.ns_per_event"] = metric{value: cpuNS / events, n: k, note: c.name + ": host CPU ns per event, traced operations"}
	l["host.gc_cpu_frac"] = metric{value: gc.frac(), n: k, note: c.name + ": share of CPU in GC, traced operations"}
	if !p.mini {
		t, _ := tcpuMS.median()
		l["trace.overhead"] = metric{value: t / cpu, n: k, note: c.name + ": traced ÷ untraced cpu_ms"}
	}
	return res, nil
}

// reference takes a pass's outputs as the reference and returns, by
// entry index, why a reference is wrong.
func reference(entries []entry, ops []opRecord, golden map[string]output) ([]output, map[int]string) {
	ref := make([]output, len(entries))
	bad := map[int]string{}
	for i, r := range ops {
		ref[i] = r.out
		want, ok := golden[entries[i].name]
		switch {
		case r.err != nil:
			bad[i] = r.err.Error()
		case !r.out.Validated:
			bad[i] = "simulated result failed validation"
		case golden != nil && !ok:
			bad[i] = "no golden output"
		case golden != nil && !want.equal(r.out):
			bad[i] = fmt.Sprintf("output %+v differs from golden %+v", r.out, want)
		}
	}
	first := map[string]int{} // digest group → its first entry
	for i, e := range entries {
		if e.digestGroup == "" {
			continue
		}
		j, ok := first[e.digestGroup]
		if !ok {
			first[e.digestGroup] = i
			continue
		}
		if _, isBad := bad[i]; !isBad && ref[i].Digest != ref[j].Digest {
			bad[i] = fmt.Sprintf("digest %s differs from %s's %s", ref[i].Digest, entries[j].name, ref[j].Digest)
		}
	}
	return ref, bad
}
