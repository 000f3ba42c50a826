package apps

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/splitc"
)

// SampleSortRecoverable is SampleSort restructured for checkpoint/rollback
// recovery (splitc.Recovery): it survives permanent link faults (the
// fabric reroutes) and node hard-faults (rollback to the last checkpoint
// and replay), completing with results bit-identical to a fault-free run.
//
// The sort's four phases map onto four epochs, each followed by a global
// checkpoint:
//
//	epoch 0 — local sort of this PE's keys;
//	epoch 1 — sample gather, splitter selection, splitter broadcast;
//	epoch 2 — partition by splitter and all-to-all bulk exchange;
//	epoch 3 — local merge of the received runs.
//
// Every value that crosses an epoch boundary (sorted keys, splitters,
// received runs, per-source counts) lives in simulated memory, so a
// restored checkpoint is a complete phase boundary. The setup writes the
// initial keys from the immutable host slice, which makes even a rollback
// to the pre-run image replayable.
//
// in, if non-nil, has its crash handler wired to the recovery layer; pass
// the injector whose schedule carries HardNodeFaults.
func SampleSortRecoverable(rt *splitc.Runtime, rcfg splitc.RecoveryConfig, in *fault.Injector, keys [][]uint64) (SampleSortResult, splitc.RecoveryStats, error) {
	nproc := len(rt.M.Nodes)
	total := 0
	var want []uint64
	for _, ks := range keys {
		total += len(ks)
		want = append(want, ks...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	capPer := int64(total)/int64(nproc)*3 + 8
	//lint:allow sharedstate sized on the host before the run starts; frozen while the procs read it
	maxN := int64(0)
	for _, ks := range keys {
		if int64(len(ks)) > maxN {
			maxN = int64(len(ks))
		}
	}

	type outcome struct {
		start int64
		count int64
	}
	results := make([]outcome, nproc)

	rec := splitc.NewRecovery(rt, rcfg)
	if in != nil {
		in.OnNodeCrash = rec.CrashNode
	}
	end, stats, err := rec.Run(func(c *splitc.Ctx) splitc.EpochFunc {
		me := c.MyPE()
		n := int64(len(keys[me]))
		co := c.AllocCollectives(int64(nproc))
		keyBase := c.Alloc(maxN * 8)
		splitterBase := c.Alloc(int64(nproc) * 8)
		gathered := c.Alloc(int64(nproc) * 8)
		recvBase := c.Alloc(int64(nproc) * capPer * 8)
		countBase := c.Alloc(int64(nproc) * 8)
		outBase := c.Alloc(int64(nproc) * capPer * 8)

		// Initial data, written from the immutable host slice: part of
		// the pre-run image, rewritten identically if setup replays.
		for i, k := range keys[me] {
			c.Node.CPU.Store64(c.P, keyBase+int64(i)*8, k)
		}
		c.Node.CPU.MB(c.P)

		return func(epoch int) bool {
			switch epoch {
			case 0: // local sort
				local := loadWords(c, keyBase, n)
				c.Compute(sortCost(n))
				sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
				storeWords(c, keyBase, local)

			case 1: // splitter selection and broadcast
				sample := uint64(0)
				if n > 0 {
					sample = c.Node.CPU.Load64(c.P, keyBase+(n/2)*8)
				}
				co.Gather(0, sample, gathered)
				if me == 0 {
					samples := loadWords(c, gathered, int64(nproc))
					c.Compute(sortCost(int64(nproc)))
					sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
					storeWords(c, splitterBase, samples)
				}
				c.Barrier()
				co.Broadcast(0, splitterBase, splitterBase, int64(nproc))

			case 2: // partition and all-to-all exchange
				local := loadWords(c, keyBase, n)
				splitters := loadWords(c, splitterBase, int64(nproc))
				lo := int64(0)
				for dst := 0; dst < nproc; dst++ {
					hi := lo
					for hi < n {
						c.Compute(2)
						if dst < nproc-1 && local[hi] >= splitters[dst+1] {
							break
						}
						hi++
					}
					cnt := hi - lo
					if cnt > capPer {
						panic("apps: sample sort receive region overflow")
					}
					dstRegion := recvBase + int64(me)*capPer*8
					if cnt > 0 {
						c.BulkPut(splitc.Global(dst, dstRegion), keyBase+lo*8, cnt*8)
					}
					c.Put(splitc.Global(dst, countBase+int64(me)*8), uint64(cnt)+1)
					lo = hi
				}
				c.Sync()
				c.Barrier()

			case 3: // merge the received runs
				var runs [][]uint64
				for src := 0; src < nproc; src++ {
					cnt := int64(c.Node.CPU.Load64(c.P, countBase+int64(src)*8)) - 1
					if cnt < 0 {
						cnt = 0
					}
					runs = append(runs, loadWords(c, recvBase+int64(src)*capPer*8, cnt))
				}
				merged := mergeRuns(c, runs)
				storeWords(c, outBase, merged)
				results[me] = outcome{start: outBase, count: int64(len(merged))}
			}
			return epoch < 3
		}
	})
	if err != nil {
		return SampleSortResult{Keys: total}, stats, err
	}

	var got []uint64
	for pe := 0; pe < nproc; pe++ {
		d := rt.M.Nodes[pe].DRAM
		for i := int64(0); i < results[pe].count; i++ {
			got = append(got, d.Read64(results[pe].start+i*8))
		}
	}
	ok := len(got) == len(want)
	if ok {
		for i := range got {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	return SampleSortResult{
		Cycles:    int64(end),
		Keys:      total,
		Validated: ok,
		Digest:    sortDigest(got),
	}, stats, nil
}
