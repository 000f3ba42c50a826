// Package em3d reproduces the paper's §8 case study: EM3D, modeling
// electromagnetic wave propagation as a leapfrog computation on an
// irregular bipartite graph of E and H field nodes spread across the
// processors with global pointers.
//
// Six versions mirror the paper's optimization progression:
//
//	Simple — every edge value is fetched with a blocking global read.
//	Ghost  — remote values are fetched once per step into local ghost
//	         nodes; compute and communicate phases are separated.
//	Unroll — Ghost plus an unrolled, software-pipelined compute phase.
//	Get    — the fetch phase pipelines split-phase gets.
//	Put    — ownership is inverted: producers put values into consumers'
//	         ghost nodes (one-way traffic, cheaper than gets).
//	Bulk   — values are gathered into per-destination buffers and moved
//	         with bulk transfers, amortizing annex setup entirely.
//
// The graph generator matches the paper's synthetic kernel: a fixed
// number of nodes per processor, fixed degree, and a tunable fraction of
// edges whose endpoints live on different processors.
package em3d

import (
	"math/rand"
	"sort"
)

// Config describes one EM3D experiment.
type Config struct {
	NodesPerPE int     // E nodes (and H nodes) per processor
	Degree     int     // edges per E node
	RemoteFrac float64 // fraction of edges crossing processors
	Seed       int64   // graph-generation seed
	Iters      int     // measured leapfrog half-steps
	// Reliable runs the Split-C runtime with end-to-end write
	// verification, so the Put version completes correctly on a faulty
	// fabric (see package fault). Off for the paper's measurements.
	Reliable bool
	// Audit runs the Split-C runtime with end-to-end integrity audits on
	// bulk transfers, so memory bit flips surface as rollbacks instead of
	// corrupted physics. Off for the paper's measurements.
	Audit bool
}

// edge is one dependence of a local E node on an H node.
type edge struct {
	hPE    int // owner of the H value
	hIdx   int // index within the owner's H array
	weight float64
}

// peGraph is the portion of the graph owned by one processor.
type peGraph struct {
	// edges[e] lists the neighbors of local E node e.
	edges [][]edge

	// Ghost bookkeeping: the distinct remote (pe, idx) values this
	// processor consumes, grouped by source PE in sorted order.
	ghostBySrc [][]int        // ghostBySrc[src] = sorted distinct hIdx
	ghostSlot  map[[2]int]int // (src,hIdx) -> slot
	sendTo     map[int][]int  // dst -> sorted distinct local hIdx sent there
	putOrder   []putEntry     // producer-order pushes for the Put version
	fetchOrder []fetchEntry   // consumer-order ghost fills (Ghost/Get)
}

// graph is the whole machine's graph plus reference data.
type graph struct {
	nproc int
	cfg   Config
	pes   []*peGraph

	hInit func(pe, idx int) float64
}

// buildGraph deterministically generates the synthetic kernel graph.
func buildGraph(nproc int, cfg Config) *graph {
	g := &graph{
		nproc: nproc,
		cfg:   cfg,
		pes:   make([]*peGraph, nproc),
		hInit: func(pe, idx int) float64 {
			return float64(pe*131+idx%97) * 0.01
		},
	}
	// All randomness flows from this one seeded source (never the global
	// math/rand), and every map iteration below collects keys and sorts
	// before use — both checked by the determinism pass of t3dlint, so
	// the same Config reproduces the same graph bit-for-bit on every run.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for pe := 0; pe < nproc; pe++ {
		pg := &peGraph{
			edges:      make([][]edge, cfg.NodesPerPE),
			ghostSlot:  map[[2]int]int{},
			ghostBySrc: make([][]int, nproc),
			sendTo:     map[int][]int{},
		}
		for e := 0; e < cfg.NodesPerPE; e++ {
			for d := 0; d < cfg.Degree; d++ {
				target := pe
				if nproc > 1 && rng.Float64() < cfg.RemoteFrac {
					target = rng.Intn(nproc - 1)
					if target >= pe {
						target++
					}
				}
				pg.edges[e] = append(pg.edges[e], edge{
					hPE:    target,
					hIdx:   rng.Intn(cfg.NodesPerPE),
					weight: 0.5 + rng.Float64(),
				})
			}
		}
		g.pes[pe] = pg
	}
	// Ghost slots and send lists, in deterministic sorted order so the
	// producer (Put/Bulk) and consumer enumerate identically.
	for pe, pg := range g.pes {
		distinct := map[[2]int]bool{}
		for _, es := range pg.edges {
			for _, ed := range es {
				if ed.hPE != pe {
					distinct[[2]int{ed.hPE, ed.hIdx}] = true
				}
			}
		}
		for src := 0; src < g.nproc; src++ {
			var idxs []int
			for k := range distinct {
				if k[0] == src {
					idxs = append(idxs, k[1])
				}
			}
			sort.Ints(idxs)
			pg.ghostBySrc[src] = idxs
			for _, idx := range idxs {
				pg.ghostSlot[[2]int{src, idx}] = g.ghostCount(pe, src) - len(idxs) + indexOf(idxs, idx)
			}
		}
	}
	// Producers' send lists mirror consumers' ghost lists.
	for pe, pg := range g.pes {
		for dst := 0; dst < g.nproc; dst++ {
			if dst == pe {
				continue
			}
			if idxs := g.pes[dst].ghostBySrc[pe]; len(idxs) > 0 {
				pg.sendTo[dst] = idxs
			}
		}
		// The Put version pushes each value to its consumers as the
		// producer scans its own H array, so destinations interleave —
		// which is what makes the repeated annex setup that Bulk then
		// amortizes (§8: Bulk wins because "it avoids repeated Annex
		// set-up operations").
		for dst, idxs := range pg.sendTo {
			for j, idx := range idxs {
				pg.putOrder = append(pg.putOrder, putEntry{dst: dst, dstSlot: j, hIdx: idx})
			}
		}
		sort.Slice(pg.putOrder, func(a, b int) bool {
			pa, pb := pg.putOrder[a], pg.putOrder[b]
			if pa.hIdx != pb.hIdx {
				return pa.hIdx < pb.hIdx
			}
			return pa.dst < pb.dst
		})
		// The consumer's fetch traversal likewise follows graph order
		// (interleaved sources), not source-grouped order: each get or
		// ghost read generally pays annex setup, as the paper's Split-C
		// cost curves assume. Only Bulk's transfers are source-grouped.
		for src := 0; src < g.nproc; src++ {
			off := g.ghostOffset(pe, src)
			for j, idx := range pg.ghostBySrc[src] {
				pg.fetchOrder = append(pg.fetchOrder, fetchEntry{src: src, hIdx: idx, slot: off + j})
			}
		}
		sort.Slice(pg.fetchOrder, func(a, b int) bool {
			fa, fb := pg.fetchOrder[a], pg.fetchOrder[b]
			if fa.hIdx != fb.hIdx {
				return fa.hIdx < fb.hIdx
			}
			return fa.src < fb.src
		})
	}
	return g
}

// fetchEntry is one consumer-side ghost fill: (src, hIdx) into ghost slot.
type fetchEntry struct {
	src, hIdx, slot int
}

// putEntry is one producer-side push: local H value hIdx goes to slot
// dstSlot of dst's ghost region for this source.
type putEntry struct {
	dst, dstSlot, hIdx int
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	panic("em3d: index not found")
}

// ghostCount returns the number of ghost slots on pe for sources < src,
// plus src's own — i.e., the slot offset boundary after src.
func (g *graph) ghostCount(pe, src int) int {
	n := 0
	for s := 0; s <= src; s++ {
		n += len(g.pes[pe].ghostBySrc[s])
	}
	return n
}

// ghostOffset returns the first ghost slot on pe belonging to src.
func (g *graph) ghostOffset(pe, src int) int {
	n := 0
	for s := 0; s < src; s++ {
		n += len(g.pes[pe].ghostBySrc[s])
	}
	return n
}

// totalGhosts returns pe's ghost count.
func (g *graph) totalGhosts(pe int) int { return g.ghostCount(pe, g.nproc-1) }

// edgeCount returns the per-PE edge count.
func (g *graph) edgeCount() int64 {
	return int64(g.cfg.NodesPerPE) * int64(g.cfg.Degree)
}

// reference computes the expected E values after one half-step, in plain
// Go, for validating the simulated runs.
func (g *graph) reference(h [][]float64) [][]float64 {
	out := make([][]float64, g.nproc)
	for pe, pg := range g.pes {
		out[pe] = make([]float64, g.cfg.NodesPerPE)
		for e, es := range pg.edges {
			sum := 0.0
			for _, ed := range es {
				sum += ed.weight * h[ed.hPE][ed.hIdx]
			}
			out[pe][e] = sum
		}
	}
	return out
}

// initialH materializes the H field values.
func (g *graph) initialH() [][]float64 {
	h := make([][]float64, g.nproc)
	for pe := range h {
		h[pe] = make([]float64, g.cfg.NodesPerPE)
		for i := range h[pe] {
			h[pe][i] = g.hInit(pe, i)
		}
	}
	return h
}
