package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// The rung ladder times one public call of one layer in a loop, apart
// from any workload, so a change to that call shows without the noise
// of a whole run. Each rung builds what it needs untimed, then times
// calls calls; the metric is the median over rungReps repetitions of
// host time per call, and of heap allocations per call where the rung
// names an allocs metric.

const rungReps = 5

type rung struct {
	metric string  // host time per call
	scale  float64 // nanoseconds per unit of metric
	allocs string  // allocations per call, or "" for none
	calls  int
	// prepare builds what the loop needs; the loop makes calls calls
	// and cleanup, if not nil, releases what prepare built.
	prepare func(calls int) (loop func() error, cleanup func() error, err error)
}

var rungs = []rung{
	{"sim.at_pop_ns", 1, "sim.at_pop_allocs", 1 << 16, prepareAtPop},
	{"sim.proc_wait_ns", 1, "sim.proc_wait_allocs", 20000, prepareProcWait},
	{"sim.signal_wake_ns", 1, "sim.signal_wake_allocs", 10000, prepareSignalWake},
	{"splitc.read_ns", 1, "splitc.read_allocs", 4000, prepareSplitC(2, func(c *splitc.Ctx, g splitc.GlobalPtr, i int) { c.Read(g) })},
	{"splitc.put_sync_ns", 1, "splitc.put_sync_allocs", 4000, prepareSplitC(2, func(c *splitc.Ctx, g splitc.GlobalPtr, i int) {
		c.Put(g, uint64(i))
		c.Sync()
	})},
	{"splitc.barrier_ns", 1, "splitc.barrier_allocs", 1000, prepareBarrier},
	{"am.send_poll_ns", 1, "am.send_poll_allocs", 2000, prepareAMSend},
	{"shell.fetch_inc_ns", 1, "shell.fetch_inc_allocs", 4000, prepareFetchInc},
	{"journal.append_us", 1e3, "", 20, prepareJournal},
	{"serve.key_ns", 1, "", 100000, prepareKey},
	{"serve.cache_get_ns", 1, "", 100000, prepareCacheGet},
}

func runRungs() (map[string]metric, error) {
	out := map[string]metric{}
	for _, r := range rungs {
		var ns, allocs []float64
		for rep := 0; rep < rungReps; rep++ {
			loop, cleanup, err := r.prepare(r.calls)
			if err != nil {
				return nil, fmt.Errorf("rung %s: %w", r.metric, err)
			}
			a0, _ := heapAllocs()
			t := time.Now()
			err = loop()
			d := time.Since(t)
			a1, _ := heapAllocs()
			if cleanup != nil {
				err = errors.Join(err, cleanup())
			}
			if err != nil {
				return nil, fmt.Errorf("rung %s: %w", r.metric, err)
			}
			ns = append(ns, float64(d.Nanoseconds())/float64(r.calls))
			allocs = append(allocs, float64(a1-a0)/float64(r.calls))
		}
		note := fmt.Sprintf("rung: median of %d × %d calls", rungReps, r.calls)
		out[r.metric] = metric{value: median(ns) / r.scale, n: rungReps, note: note}
		if r.allocs != "" {
			out[r.allocs] = metric{value: median(allocs), n: rungReps, note: note}
		}
	}
	return out, nil
}

// prepareAtPop schedules events at 64 distinct times and runs them:
// one call is one Engine.At plus its pop.
func prepareAtPop(calls int) (func() error, func() error, error) {
	eng := sim.NewEngine()
	fn := func() {}
	return func() error {
		for i := 0; i < calls; i++ {
			eng.At(eng.Now()+sim.Time(i%64), fn)
		}
		eng.Run()
		return nil
	}, nil, nil
}

// prepareProcWait runs one proc that waits one cycle per call: a
// handoff from the proc to the engine and back.
func prepareProcWait(calls int) (func() error, func() error, error) {
	eng := sim.NewEngine()
	return func() error {
		eng.Spawn("wait", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				p.Wait(1)
			}
		})
		_, err := eng.RunErr()
		return err
	}, nil, nil
}

// prepareSignalWake ping-pongs two procs through two signals: one call
// is one signal fire and the wake of the proc blocked on it.
func prepareSignalWake(calls int) (func() error, func() error, error) {
	eng := sim.NewEngine()
	ping, pong := sim.NewSignal("ping"), sim.NewSignal("pong")
	var sent, echoed, i, j int
	pinged := func() bool { return sent > j }
	ponged := func() bool { return echoed >= i }
	return func() error {
		eng.Spawn("a", func(p *sim.Proc) {
			for i = 1; i <= calls/2; i++ {
				sent = i
				ping.Fire(eng)
				sim.Await(p, pong, ponged)
			}
		})
		eng.Spawn("b", func(p *sim.Proc) {
			for j = 0; j < calls/2; j++ {
				sim.Await(p, ping, pinged)
				echoed = j + 1
				pong.Fire(eng)
			}
		})
		_, err := eng.RunErr()
		return err
	}, nil, nil
}

// shutdown is the cleanup of a rung that built machine m.
func shutdown(m *machine.T3D) func() error {
	return func() error {
		m.Eng.Shutdown()
		return nil
	}
}

// prepareSplitC runs op on PE 0 against words on PE 1.
func prepareSplitC(pes int, op func(c *splitc.Ctx, g splitc.GlobalPtr, i int)) func(int) (func() error, func() error, error) {
	return func(calls int) (func() error, func() error, error) {
		m, err := newMachine(pes)
		if err != nil {
			return nil, nil, err
		}
		rt := splitc.NewRuntime(m, splitc.DefaultConfig())
		return func() error {
			rt.RunOn(0, func(c *splitc.Ctx) {
				for i := 0; i < calls; i++ {
					op(c, splitc.Global(1, rt.Cfg.HeapBase+int64(i%512)*8), i)
				}
			})
			return nil
		}, shutdown(m), nil
	}
}

// prepareBarrier runs barriers on all 8 PEs: one call is one barrier.
func prepareBarrier(calls int) (func() error, func() error, error) {
	m, err := newMachine(em3dPEs)
	if err != nil {
		return nil, nil, err
	}
	rt := splitc.NewRuntime(m, splitc.DefaultConfig())
	return func() error {
		_, err := rt.RunErr(func(c *splitc.Ctx) {
			for i := 0; i < calls; i++ {
				c.Barrier()
			}
		})
		return err
	}, shutdown(m), nil
}

// prepareAMSend has PE 1 send store messages that PE 0 polls for: one
// call is one message sent, delivered and handled.
func prepareAMSend(calls int) (func() error, func() error, error) {
	m, err := newMachine(2)
	if err != nil {
		return nil, nil, err
	}
	rt := splitc.NewRuntime(m, splitc.DefaultConfig())
	return func() error {
		_, err := rt.RunErr(func(c *splitc.Ctx) {
			ep := am.New(c, am.DefaultConfig())
			if c.MyPE() == 1 {
				for i := 0; i < calls; i++ {
					ep.Send(0, am.HStore, [4]uint64{uint64(rt.Cfg.HeapBase), uint64(i), 8, 0})
				}
				return
			}
			ep.PollUntil(func() bool { return ep.Received == int64(calls) })
		})
		return err
	}, shutdown(m), nil
}

// prepareFetchInc has PE 0 fetch-and-increment a register on PE 1.
func prepareFetchInc(calls int) (func() error, func() error, error) {
	m, err := newMachine(2)
	if err != nil {
		return nil, nil, err
	}
	return func() error {
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			for i := 0; i < calls; i++ {
				n.Shell.FetchInc(p, 1, 0)
			}
		})
		return nil
	}, shutdown(m), nil
}

// prepareJournal opens a journal in a temporary directory; one call is
// one durable (fsync'd) append of a submitted record.
func prepareJournal(calls int) (func() error, func() error, error) {
	dir, err := os.MkdirTemp("", "bench-journal-")
	if err != nil {
		return nil, nil, err
	}
	j, _, err := serve.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	spec := serve.JobSpec{App: serve.AppEM3D}
	cleanup := func() error {
		return errors.Join(j.Close(), os.RemoveAll(dir))
	}
	return func() error {
		for i := 0; i < calls; i++ {
			if err := j.Append(serve.Record{Type: "submitted", ID: fmt.Sprintf("j%08d", i), Spec: &spec}); err != nil {
				return err
			}
		}
		return nil
	}, cleanup, nil
}

// keySink keeps the compiler from discarding the keys the rung computes.
var keySink uint64

func prepareKey(calls int) (func() error, func() error, error) {
	spec := serve.JobSpec{App: serve.AppEM3D, Version: "Bulk", Seed: 7, CheckpointCycles: serveCkpt}
	return func() error {
		for i := 0; i < calls; i++ {
			keySink += serve.Key(spec)
		}
		return nil
	}, nil, nil
}

func prepareCacheGet(calls int) (func() error, func() error, error) {
	c := serve.NewCache(16)
	key := serve.Key(serve.JobSpec{})
	c.Put(key, serve.DefaultTenant, serve.JobResult{App: serve.AppEM3D, Digest: "0123456789abcdef", Cycles: 1, Validated: true})
	return func() error {
		for i := 0; i < calls; i++ {
			if _, ok := c.Get(key, serve.DefaultTenant); !ok {
				return fmt.Errorf("cache miss on a stored key")
			}
		}
		return nil
	}, nil, nil
}
