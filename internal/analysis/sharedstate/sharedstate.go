// Package sharedstate inventories the mutable state visible to more
// than one simulated proc — the machine-checked prerequisite for the
// parallel-DES refactor (a parked ROADMAP item). Under the sequential
// kernel, cross-proc shared state is deterministic because only one
// proc runs at a time; under a sharded event heap it becomes a data
// race. This pass finds every such variable now, so new sharing cannot
// sneak in between the inventory and the parallel kernel.
//
// A variable is in scope when it is package-level and mutable (written
// somewhere in the module), or a function-local captured by a function
// literal. The pass walks the module call graph from every proc root —
// a function or literal handed to Runtime.Run, T3D.Run/RunOn/Spawn,
// Engine.Spawn/SpawnDaemon, Recovery.Run (Run-style spawns replicate
// the body across every PE, so one Run root already counts as two
// procs) — and collects which roots reach each variable's accessing
// functions. A variable reached from fewer than two procs is private
// and ignored.
//
// Shared variables are classified:
//
//   - shared-guarded: the sharing is disciplined — every proc-reachable
//     write lands in a PE-private slot (an index expression involving
//     MyPE()/the proc's pe) or is dominated by a PE-identity check (a
//     single designated writer), or all writes happen outside proc
//     context entirely (setup-time initialization, read-only during
//     the run). Safe to shard, but listed: the refactor must keep the
//     discipline true.
//   - shared-mutable: raw cross-proc mutation with no visible
//     discipline. Each one either gets restructured or carries a
//     //lint:allow sharedstate comment arguing why the sharing is
//     benign; the allow inventory is exactly the worklist the sharded
//     heap refactor has to revisit.
//
// Writes in a function that also fires a *sim.Signal or sends on a
// channel are treated as mediated and not reported: write-then-Fire is
// the sanctioned cross-proc publication idiom — readers order against
// the write through the event kernel, and that ordering survives
// sharding.
//
// Soundness caveats (DESIGN.md §16): struct fields are not tracked (a
// shared *Machine's field graph is the kernel's own plumbing — auditing
// it is the refactor itself, not a lint); reachability uses the
// conservative call graph, so function values laundered through
// containers may hide an access path; mediation is judged per function,
// not per path; locals of proc-called functions are treated as
// per-invocation frame state, so a closure over such a frame that
// escapes to another proc is not tracked.
package sharedstate

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the sharedstate pass.
var Analyzer = &analysis.Analyzer{
	Name:      "sharedstate",
	Doc:       "package-level and captured mutable state reachable from more than one proc body must be mediated, guarded, or explicitly allowed",
	RunModule: runModule,
}

const simPath = "repro/internal/sim"

// An access is one read or write of a tracked variable inside one
// function.
type access struct {
	node  *analysis.FuncNode
	write bool
	// guarded marks a write into a PE-private slot or under a
	// PE-identity check.
	guarded bool
}

type varInfo struct {
	v        *types.Var
	captured bool // closure-captured local (vs package-level)
	accesses []*access
	written  bool
}

type procRoot struct {
	n      *analysis.FuncNode
	weight int
}

func runModule(mp *analysis.ModulePass) error {
	m := mp.Module

	// Captured locals: vars used by a literal node they were not
	// declared in. Package-level vars are tracked unconditionally.
	capturedVars := map[*types.Var]bool{}
	for _, n := range m.Graph.Nodes {
		if n.Lit == nil {
			continue
		}
		forOwnIdents(n, func(id *ast.Ident, v *types.Var) {
			if !packageLevel(v) && !declaredWithin(v, n) {
				capturedVars[v] = true
			}
		})
	}

	vars := map[*types.Var]*varInfo{}
	for _, n := range m.Graph.Nodes {
		collectAccesses(n, capturedVars, vars)
	}

	// Proc roots and forward reachability over call+flow edges.
	var roots []procRoot
	for _, n := range m.Graph.Nodes {
		switch {
		case n.SpawnAll:
			roots = append(roots, procRoot{n, 2}) // replicated across every PE
		case n.SpawnOne:
			roots = append(roots, procRoot{n, 1})
		}
	}
	rootNodes := map[*analysis.FuncNode]bool{}
	for _, r := range roots {
		rootNodes[r.n] = true
	}
	reachedBy := map[*analysis.FuncNode][]int{}
	for ri, r := range roots {
		seen := map[*analysis.FuncNode]bool{}
		stack := []*analysis.FuncNode{r.n}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			reachedBy[n] = append(reachedBy[n], ri)
			for _, e := range n.Out {
				// Invocation edges only. EdgeFlow says "this value escaped
				// and someone may call it" — following it merges every
				// event callback ever handed to Engine.At into every proc
				// that schedules anything, flattening per-transaction
				// closure state into global state. Laundered closures are
				// an accepted blind spot (doc caveat).
				if e.Kind != analysis.EdgeCall {
					continue
				}
				// Another root is its own proc boundary: the runtime's
				// internal dispatcher (spawned) invoking a program body
				// (spawn-shaped by argument position) is ONE proc, already
				// represented by the program's own root — traversing into
				// it would double-count every RunOn body as two procs.
				if rootNodes[e.Callee] && e.Callee != r.n {
					continue
				}
				stack = append(stack, e.Callee)
			}
		}
	}

	ordered := make([]*varInfo, 0, len(vars))
	for _, vi := range vars {
		ordered = append(ordered, vi)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].v.Pos() < ordered[j].v.Pos() })
	for _, vi := range ordered {
		judge(mp, vi, roots, reachedBy)
	}
	return nil
}

func judge(mp *analysis.ModulePass, vi *varInfo, roots []procRoot, reachedBy map[*analysis.FuncNode][]int) {
	if !vi.written {
		return // immutable (error sentinels, lookup tables never reassigned)
	}
	m := mp.Module
	if vi.v.Pkg() == nil {
		return
	}
	if len(m.Targets) > 0 && !m.Targets[vi.v.Pkg().Path()] {
		return
	}

	// Which proc roots reach an access, with Run-replication weighting.
	rootSet := map[int]bool{}
	procAccess := false
	var procWrites []*access
	for _, a := range vi.accesses {
		rs := reachedBy[a.node]
		if len(rs) == 0 {
			continue
		}
		procAccess = true
		for _, ri := range rs {
			rootSet[ri] = true
		}
		if a.write {
			procWrites = append(procWrites, a)
		}
	}
	if !procAccess {
		return
	}
	weight := 0
	for ri := range rootSet {
		weight += roots[ri].weight
	}
	if weight < 2 {
		return // private to one proc
	}

	// Mediated writes (write-then-Fire / channel publication) are the
	// sanctioned idiom; if every proc-reachable write is mediated the
	// variable is not a finding at all.
	unmediated := procWrites[:0:0]
	for _, a := range procWrites {
		if !nodeMediates(a.node) {
			unmediated = append(unmediated, a)
		}
	}

	// A captured local whose declaring function is itself reached from
	// proc context is frame state, not shared state: every proc-side
	// invocation creates a fresh instance of the variable (checksum
	// accumulators, per-transaction transfer descriptors), so no two
	// procs ever see the same binding. Only a host-side frame — created
	// once, captured by proc roots — can be genuinely shared. The blind
	// spot (doc caveat): a closure over such a frame that escapes to a
	// proc spawned elsewhere shares the instance and is not tracked.
	if vi.captured {
		if fn := frameNode(m, vi.v); fn != nil && len(reachedBy[fn]) > 0 {
			return
		}
	}

	kind := "package-level var"
	if vi.captured {
		kind = "captured var"
	}
	switch {
	case len(procWrites) == 0:
		mp.ReportClassf(vi.v.Pos(), "shared-guarded",
			"%s %s is read from %d procs and mutated only outside proc context (setup-time) — shared-guarded; the parallel-DES refactor must keep it frozen during the run, or argue the case in a //lint:allow", kind, vi.v.Name(), weight)
	case len(unmediated) == 0:
		return // all cross-proc writes are signal/channel-mediated
	case allGuarded(unmediated):
		mp.ReportClassf(vi.v.Pos(), "shared-guarded",
			"%s %s is written from %d procs through PE-private slots or a PE-identity guard — shared-guarded; the parallel-DES refactor must preserve the slotting, or argue the case in a //lint:allow", kind, vi.v.Name(), weight)
	default:
		mp.ReportClassf(vi.v.Pos(), "shared-mutable",
			"%s %s is mutated from %d procs with no mediating signal/channel and no PE slotting — shared-mutable; this is a data race under the parked parallel-DES kernel (ROADMAP): restructure, mediate, or argue the case in a //lint:allow", kind, vi.v.Name(), weight)
	}
}

func allGuarded(writes []*access) bool {
	for _, a := range writes {
		if !a.guarded {
			return false
		}
	}
	return true
}

// frameNode returns the innermost function node whose source range
// contains v's declaration — the function whose stack frame holds the
// variable.
func frameNode(m *analysis.Module, v *types.Var) *analysis.FuncNode {
	var best *analysis.FuncNode
	var bestSpan token.Pos
	for _, n := range m.Graph.Nodes {
		if n.Pkg.Types != v.Pkg() {
			continue
		}
		var lo, hi token.Pos
		if n.Lit != nil {
			lo, hi = n.Lit.Pos(), n.Lit.End()
		} else {
			lo, hi = n.Decl.Pos(), n.Decl.End()
		}
		if lo <= v.Pos() && v.Pos() < hi {
			if best == nil || hi-lo < bestSpan {
				best, bestSpan = n, hi-lo
			}
		}
	}
	return best
}

// packageLevel reports whether v is declared at package scope.
func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// declaredWithin reports whether v's declaration lies inside node n's
// own source range.
func declaredWithin(v *types.Var, n *analysis.FuncNode) bool {
	var lo, hi token.Pos
	if n.Lit != nil {
		lo, hi = n.Lit.Pos(), n.Lit.End()
	} else {
		lo, hi = n.Decl.Pos(), n.Decl.End()
	}
	return lo <= v.Pos() && v.Pos() < hi
}

// forOwnIdents visits every identifier in n's own body — excluding
// nested literals, which are their own nodes — that resolves to a
// non-field *types.Var.
func forOwnIdents(n *analysis.FuncNode, fn func(*ast.Ident, *types.Var)) {
	info := n.Pkg.Info
	ast.Inspect(n.Body(), func(nn ast.Node) bool {
		if lit, ok := nn.(*ast.FuncLit); ok && (n.Lit == nil || lit != n.Lit) {
			return false
		}
		if id, ok := nn.(*ast.Ident); ok {
			if v, ok := info.ObjectOf(id).(*types.Var); ok && v != nil && !v.IsField() {
				fn(id, v)
			}
		}
		return true
	})
}

// collectAccesses records n's reads and writes of tracked variables:
// package-level vars on any use, locals only when closure-captured.
func collectAccesses(n *analysis.FuncNode, capturedVars map[*types.Var]bool, vars map[*types.Var]*varInfo) {
	info := n.Pkg.Info

	// Write positions: base identifiers of assignment LHS, IncDec
	// operands, and address-taken operands (conservative: &x escapes).
	writes := map[*ast.Ident]bool{}
	guarded := map[*ast.Ident]bool{}
	var markWrite func(e ast.Expr, g bool)
	markWrite = func(e ast.Expr, g bool) {
		if idx, ok := ast.Unparen(e).(*ast.IndexExpr); ok && peExpr(info, idx.Index) {
			g = true // write into a PE-private slot
		}
		if id := baseIdent(e); id != nil {
			writes[id] = true
			if g {
				guarded[id] = true
			}
		}
	}
	// peDepth > 0 while inside an if whose condition tests PE identity.
	var walk func(nn ast.Node, peGuard bool)
	walk = func(nn ast.Node, peGuard bool) {
		ast.Inspect(nn, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if n.Lit == nil || x != n.Lit {
					return false
				}
			case *ast.IfStmt:
				if peExpr(info, x.Cond) {
					walk(x.Body, true)
					if x.Else != nil {
						walk(x.Else, peGuard)
					}
					if x.Init != nil {
						walk(x.Init, peGuard)
					}
					return false
				}
			case *ast.SwitchStmt:
				// switch c.MyPE() { case 0: ... } designates one writer
				// per arm — the switch form of the PE-identity guard. A
				// tagless switch guards only the arms whose case
				// expression tests PE identity.
				if x.Tag != nil && peExpr(info, x.Tag) {
					walk(x.Body, true)
					if x.Init != nil {
						walk(x.Init, peGuard)
					}
					return false
				}
				if x.Tag == nil {
					for _, cl := range x.Body.List {
						cc := cl.(*ast.CaseClause)
						g := peGuard
						for _, e := range cc.List {
							if peExpr(info, e) {
								g = true
							}
						}
						for _, st := range cc.Body {
							walk(st, g)
						}
					}
					if x.Init != nil {
						walk(x.Init, peGuard)
					}
					return false
				}
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, lhs := range x.Lhs {
						markWrite(lhs, peGuard)
					}
				}
			case *ast.IncDecStmt:
				markWrite(x.X, peGuard)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markWrite(x.X, peGuard)
				}
			}
			return true
		})
	}
	walk(n.Body(), false)

	forOwnIdents(n, func(id *ast.Ident, v *types.Var) {
		if !packageLevel(v) && !capturedVars[v] {
			return
		}
		vi := vars[v]
		if vi == nil {
			vi = &varInfo{v: v, captured: !packageLevel(v)}
			vars[v] = vi
		}
		a := &access{node: n, write: writes[id], guarded: guarded[id]}
		vi.accesses = append(vi.accesses, a)
		if a.write {
			vi.written = true
		}
	})
}

// baseIdent unwraps parens, indexing, and dereference to the leftmost
// identifier of an assignable expression. It deliberately stops at a
// selector: s.field = x mutates the struct behind s, not the variable
// binding — struct-field tracking is out of scope (the doc's soundness
// caveat), and counting it as a write to s drowned the inventory in
// every captured receiver pointer.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// peExpr reports whether e mentions the proc's PE identity: a call to a
// method named MyPE, a selector .PE, or an identifier named pe/me.
func peExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(nn.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "MyPE" {
				found = true
			}
		case *ast.SelectorExpr:
			if nn.Sel.Name == "PE" || nn.Sel.Name == "Pe" {
				found = true
			}
		case *ast.Ident:
			if nn.Name == "pe" || nn.Name == "me" {
				found = true
			}
		}
		return !found
	})
	return found
}

// nodeMediates reports whether n's body fires a sim signal or sends on
// a channel — the write-then-publish idiom that orders readers through
// the event kernel.
func nodeMediates(n *analysis.FuncNode) bool {
	info := n.Pkg.Info
	found := false
	ast.Inspect(n.Body(), func(nn ast.Node) bool {
		if found {
			return false
		}
		switch nn := nn.(type) {
		case *ast.FuncLit:
			if n.Lit == nil || nn != n.Lit {
				return false
			}
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if fn := analysis.CalleeIn(info, nn); fn != nil {
				if pkg, tn := analysis.ReceiverNamed(fn); pkg == simPath && tn == "Signal" && fn.Name() == "Fire" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
