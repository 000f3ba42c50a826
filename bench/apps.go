package main

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/splitc"
)

// The apps workload is a closed loop over four Split-C applications,
// each on a fresh 8-PE machine: sample sort, a histogram with active
// messages and with remote read-modify-write, and radix sort. It uses
// the kernel and shell as em3d does, but through messages, atomics and
// all-to-all bulk transfers instead of reads; it is the only simulator
// workload that exercises am. The keys come from the run's seed.

// appsAcc collects each application call's host milliseconds in traced
// operations, by per-layer metric name.
type appsAcc map[string][]float64

func appKeys(rng *rand.Rand, perPE int, mask uint64) [][]uint64 {
	keys := make([][]uint64, em3dPEs)
	for pe := range keys {
		keys[pe] = make([]uint64, perPE)
		for i := range keys[pe] {
			keys[pe][i] = rng.Uint64() & mask
		}
	}
	return keys
}

func appsLoop(acc appsAcc) closedLoop {
	return closedLoop{name: "apps", unit: "run", inputs: func(seed int64) []entry {
		rng := rand.New(rand.NewSource(seed))
		sortKeys := appKeys(rng, 512, ^uint64(0))
		histKeys := appKeys(rng, 256, ^uint64(0))
		radixKeys := appKeys(rng, 256, 1<<16-1)
		app := func(name, metric string, call func(rt *splitc.Runtime) (output, error)) entry {
			return entry{name: name, units: 1, run: func(op *opCtx) (output, error) {
				m, err := newMachine8(op)
				if err != nil {
					return output{}, err
				}
				defer m.Eng.Shutdown()
				sp := op.tr.begin("splitc.NewRuntime", op.parent)
				rt := splitc.NewRuntime(m, splitc.DefaultConfig())
				sp.end()
				sp = op.tr.begin("apps."+name, op.parent)
				out, err := call(rt)
				d := sp.end()
				op.events += m.Eng.Events()
				if op.tr != nil && err == nil {
					acc[metric] = append(acc[metric], d.Seconds()*1e3)
				}
				return out, err
			}}
		}
		histogram := func(method apps.HistogramMethod) func(rt *splitc.Runtime) (output, error) {
			return func(rt *splitc.Runtime) (output, error) {
				r := apps.Histogram(rt, histKeys, 64, method)
				return output{Cycles: r.Cycles, Validated: r.Validated}, nil
			}
		}
		return []entry{
			app("samplesort", "apps.samplesort_ms", func(rt *splitc.Runtime) (output, error) {
				r, err := apps.SampleSortChecked(rt, sortKeys)
				return output{Cycles: r.Cycles, Digest: fmt.Sprintf("%016x", r.Digest), Validated: r.Validated}, err
			}),
			app("histogram am", "apps.hist_am_ms", histogram(apps.HistAM)),
			app("histogram rmw", "apps.hist_rmw_ms", histogram(apps.HistRemoteRMW)),
			app("radixsort", "apps.radix_ms", func(rt *splitc.Runtime) (output, error) {
				r := apps.RadixSort(rt, radixKeys, 4, 16)
				return output{Cycles: r.Cycles, Validated: r.Validated}, nil
			}),
		}
	}}
}

func runApps(p params) (*result, error) {
	acc := appsAcc{}
	res, err := appsLoop(acc).run(p)
	if err != nil || p.tr == nil {
		return res, err
	}
	for _, name := range []string{"apps.samplesort_ms", "apps.hist_am_ms", "apps.hist_rmw_ms", "apps.radix_ms"} {
		res.layer[name] = metric{value: median(acc[name]), n: len(acc[name]), note: "apps: median application call"}
	}
	return res, nil
}
