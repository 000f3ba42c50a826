package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The probes workload is a closed loop over 13 of the paper's gray-box
// probes (§2–§6): six sawtooth probes at two array sizes and the
// grouped-prefetch probe. Every probe point builds a fresh 2-PE machine
// with 16 MB of DRAM per PE, and one processor is active, so machine
// construction and the single-access paths through cpu, cache, mem,
// wbuf, shell and net carry the host time; splitc, am and serve are
// absent. The seed only orders the entries: the probes are the paper's.

var probeKinds = []struct {
	mk      func() core.Probe
	counter string // per-access counter a traced run keeps
}{
	{core.LocalRead, "cpu.local_load"},
	{core.LocalWrite, "cpu.local_store"},
	{core.RemoteReadUncached, "shell.remote_load"},
	{core.RemoteReadCached, "shell.remote_load"},
	{core.RemoteWriteBlocking, "shell.remote_store"},
	{core.RemoteWriteNonblocking, "shell.remote_store"},
}

var (
	probeSizes     = []int64{8 << 10, 64 << 10}
	prefetchGroups = []int{1, 2, 4, 8, 16}
)

const (
	probeMinAccesses = 256
	prefetchReps     = 32
	// prefetchWords is how many words one PrefetchProbe call prefetches:
	// every group once to warm up, then prefetchReps times.
	prefetchWords = (1 + 2 + 4 + 8 + 16) * (prefetchReps + 1)
)

// probeAcc collects the per-layer samples of traced probe operations.
type probeAcc struct {
	buildUS, buildKB []float64
	prefetchNS       []float64
}

// factory builds the fresh machine each probe point runs on. It times
// the builds of a traced operation, and once the next point starts or
// the probe returns it adds the machine's events to the operation.
type factory struct {
	op       *opCtx
	acc      *probeAcc
	last     *machine.T3D
	buildDur time.Duration
}

func (f *factory) build() *machine.T3D {
	f.harvest()
	var b0 uint64
	if f.op.tr != nil {
		_, b0 = heapAllocs()
	}
	sp := f.op.tr.begin("machine.New", f.op.parent)
	m := machine.New(machine.DefaultConfig(2))
	d := sp.end()
	f.buildDur += d
	if f.op.tr != nil {
		_, b1 := heapAllocs()
		f.acc.buildUS = append(f.acc.buildUS, float64(d.Nanoseconds())/1e3)
		f.acc.buildKB = append(f.acc.buildKB, float64(b1-b0)/1024)
	}
	f.last = m
	return m
}

// harvest counts the last machine's events and reaps it. The probes
// leave each machine's write-buffer procs parked when they return, and
// without Shutdown every point would leak its procs and its DRAM.
func (f *factory) harvest() {
	if f.last != nil {
		f.op.events += f.last.Eng.Events()
		f.last.Eng.Shutdown()
		f.last = nil
	}
}

// timedAccess wraps a probe's Access so each call adds its host time to
// c.
func timedAccess(c *counter, access func(*sim.Proc, *machine.Node, int64)) func(*sim.Proc, *machine.Node, int64) {
	return func(p *sim.Proc, n *machine.Node, off int64) {
		//lint:allow cycleaccount the benchmark measures host time here; it goes to a counter and never into the simulation
		defer c.addSince(time.Now())
		access(p, n, off)
	}
}

func probesLoop(acc *probeAcc) closedLoop {
	return closedLoop{name: "probes", unit: "point", seedFree: true, inputs: func(int64) []entry {
		var es []entry
		for _, k := range probeKinds {
			for _, size := range probeSizes {
				es = append(es, entry{
					name:  fmt.Sprintf("%s %dK", k.mk().Name, size>>10),
					units: float64(len(core.StridesFor(size))),
					run: func(op *opCtx) (output, error) {
						f := &factory{op: op, acc: acc}
						probe := k.mk()
						if op.tr != nil {
							probe.Access = timedAccess(op.tr.counter(k.counter), probe.Access)
						}
						prof := core.Sawtooth(f.build, probe, core.SawtoothConfig{
							Sizes: []int64{size}, MinAccesses: probeMinAccesses, WarmPasses: 1})
						f.harvest()
						var ns []float64
						for _, c := range prof.Curves {
							for _, pt := range c.Points {
								ns = append(ns, pt.AvgNS)
							}
						}
						return probeOutput(ns), nil
					},
				})
			}
		}
		es = append(es, entry{
			name:  "prefetch groups 1-16",
			units: float64(len(prefetchGroups)),
			run: func(op *opCtx) (output, error) {
				f := &factory{op: op, acc: acc}
				t := time.Now()
				pts := core.PrefetchProbe(f.build, prefetchGroups, prefetchReps)
				d := time.Since(t)
				f.harvest()
				if op.tr != nil {
					acc.prefetchNS = append(acc.prefetchNS, float64((d-f.buildDur).Nanoseconds())/prefetchWords)
				}
				var ns []float64
				for _, pt := range pts {
					ns = append(ns, pt.AvgNSPerOp)
				}
				return probeOutput(ns), nil
			},
		})
		return es
	}}
}

// probeOutput is a probe's simulated latencies; a probe validates when
// every latency is positive.
func probeOutput(ns []float64) output {
	out := output{Points: ns, Validated: len(ns) > 0}
	for _, v := range ns {
		if !(v > 0) {
			out.Validated = false
		}
	}
	return out
}

func runProbes(p params) (*result, error) {
	acc := &probeAcc{}
	res, err := probesLoop(acc).run(p)
	if err != nil || p.tr == nil {
		return res, err
	}
	l := res.layer
	l["machine.build_us"] = metric{value: median(acc.buildUS), n: len(acc.buildUS), note: "probes: median machine.New, 2 PEs × 16 MB"}
	l["machine.build_alloc_kb"] = metric{value: median(acc.buildKB), n: len(acc.buildKB), note: "probes: median heap bytes allocated by machine.New"}
	for _, name := range []string{"cpu.local_load", "cpu.local_store", "shell.remote_load", "shell.remote_store"} {
		c := p.tr.counter(name)
		l[name+"_ns"] = metric{value: c.meanNS(), n: int(c.n.Load()), note: "probes: mean host ns per Access call"}
	}
	l["shell.prefetch_ns"] = metric{value: median(acc.prefetchNS), n: len(acc.prefetchNS), note: "probes: median host ns per prefetched word"}
	return res, nil
}
