package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/em3d"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The em3d workload is a closed loop over the paper's six EM3D versions
// (§8) on two graphs, each run on a fresh 8-PE machine. Eight procs
// hand off through the event kernel with fine-grained reads and puts,
// barriers and bulk transfers, so the kernel and splitc carry the host
// time; machine construction is a small share and am is absent. The
// graphs differ in their remote-edge fraction and take their seeds from
// the run's seed.

const (
	em3dPEs      = 8
	em3dMemBytes = 2 << 20
)

var em3dRemoteFracs = []float64{0.1, 0.4}

// em3dAcc collects the per-layer samples of traced em3d operations.
type em3dAcc struct {
	runMS, iterMS []float64
}

// newMachine builds a machine of pes PEs with 2 MB of DRAM each.
func newMachine(pes int) (*machine.T3D, error) {
	cfg := machine.DefaultConfig(pes)
	cfg.MemBytes = em3dMemBytes
	return machine.NewChecked(cfg)
}

// newMachine8 builds the 8-PE machine em3d and apps run on.
func newMachine8(op *opCtx) (*machine.T3D, error) {
	sp := op.tr.begin("machine.NewChecked", op.parent)
	defer sp.end()
	return newMachine(em3dPEs)
}

func em3dLoop(acc *em3dAcc) closedLoop {
	return closedLoop{name: "em3d", unit: "edge", inputs: func(seed int64) []entry {
		rng := rand.New(rand.NewSource(seed))
		var es []entry
		for _, rf := range em3dRemoteFracs {
			cfg := em3d.Config{NodesPerPE: 120, Degree: 8, RemoteFrac: rf, Seed: rng.Int63(), Iters: 2}
			for _, v := range em3d.Versions {
				es = append(es, entry{
					name:        fmt.Sprintf("%v rf=%.1f", v, rf),
					digestGroup: fmt.Sprintf("rf=%.1f", rf),
					// Every iteration and the warm-up half-step visit every edge.
					units: float64(cfg.NodesPerPE * cfg.Degree * em3dPEs * (cfg.Iters + 1)),
					run: func(op *opCtx) (output, error) {
						m, err := newMachine8(op)
						if err != nil {
							return output{}, err
						}
						defer m.Eng.Shutdown()
						var hooks em3d.Hooks
						var iters []float64
						if op.tr != nil {
							var last time.Time
							hooks.Progress = func(int, sim.Time) {
								now := time.Now()
								if !last.IsZero() {
									iters = append(iters, now.Sub(last).Seconds()*1e3)
								}
								last = now
							}
						}
						sp := op.tr.begin("em3d.RunChecked", op.parent)
						res, err := em3d.RunChecked(m, cfg, v, em3d.DefaultKnobs(), hooks)
						d := sp.end()
						op.events += m.Eng.Events()
						if err != nil {
							return output{}, err
						}
						if op.tr != nil {
							acc.runMS = append(acc.runMS, d.Seconds()*1e3)
							acc.iterMS = append(acc.iterMS, iters...)
						}
						return output{Cycles: res.Cycles, Digest: fmt.Sprintf("%016x", res.Digest), Validated: res.Validated}, nil
					},
				})
			}
		}
		return es
	}}
}

func runEM3D(p params) (*result, error) {
	acc := &em3dAcc{}
	res, err := em3dLoop(acc).run(p)
	if err != nil || p.tr == nil {
		return res, err
	}
	res.layer["em3d.run_ms"] = metric{value: median(acc.runMS), n: len(acc.runMS), note: "em3d: median em3d.RunChecked"}
	res.layer["em3d.iter_ms"] = metric{value: median(acc.iterMS), n: len(acc.iterMS), note: "em3d: median host ms between Progress calls"}
	return res, nil
}
