// Package splitphase enforces the Split-C sync-counter discipline from
// the paper, statically: every split-phase operation a function issues
// (Ctx.Get, Put, BulkGet, BulkPut) must be settled by a dominating
// Sync, AllStoreSync, or Barrier before the operation can
// escape the program — and the destination of a Get must not be read
// locally while the get is still in flight.
//
// The paper's Split-C compiler implements split-phase assignments by
// incrementing a per-processor sync counter at issue and spinning on it
// at the sync point; code motion between the two is what buys the
// latency tolerance, and reading the landing zone before the counter
// drains is the canonical miscompilation. This pass is the static
// shadow of that counter — and since the counter is per-processor, not
// per-function, the shadow is interprocedural: a helper that issues a
// Get and a caller that performs the dominating Sync are analyzed
// together through the module call graph, instead of the helper
// carrying a whole-function exemption.
//
// Mechanically, each function is summarized bottom-up over the call
// graph's SCCs with two facts:
//
//   - alwaysSyncs: every reachable path through the body executes at
//     least one sync (a deferred sync counts, as does a call to a
//     callee that alwaysSyncs). A call to such a function settles the
//     caller's earlier pending operations — the runtime counter does
//     not care which frame spins on it.
//   - exitOrigins: the issue sites (own, or inherited from callees)
//     that may still be unsettled when the function returns.
//
// A caller that invokes a function with exitOrigins inherits those
// obligations into its own path state; a later sync settles them. An
// origin is reported — at its own issue site, exactly where the
// intraprocedural pass reported it — only when some function carrying
// it in its summary escapes analysis unresolved: it has no in-module
// caller, it is spawned as a proc body (Run/RunOn/Spawn: the runtime
// will not sync for it), or it is invoked from inside the exempt
// splitc runtime.
//
// Approximations, chosen to match how the tree actually writes Split-C
// (see internal/analysis/testdata/src/repro/internal/fixsplit/ok.go for
// the blessed patterns):
//
//   - Any sync operation settles every pending operation (the runtime
//     distinguishes get/put/store counters; the lint does not).
//   - Calls within one SCC (recursion) are treated as no-ops; mutual
//     recursion that launders sync obligations is a documented blind
//     spot (DESIGN.md §16).
//   - A "local read" is a call to a method named Load64, Load32, Load8,
//     ReadWord, or ReadLocal — the CPU/memory local-access surface.
//     The in-flight-destination check stays intraprocedural: a Get
//     destination handed to another function is not tracked.
//   - Functions whose in-flight exits are intentional and settled
//     nowhere the graph can see (an interpreter dispatching one
//     instruction per call, settled by a *program-level* sync opcode)
//     carry a //lint:allow splitphase comment stating whose sync
//     settles them.
//
// Package repro/internal/splitc itself is exempt: the runtime that
// implements Sync cannot be a client of its own discipline.
package splitphase

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the splitphase pass.
var Analyzer = &analysis.Analyzer{
	Name:      "splitphase",
	Doc:       "split-phase Get/Put must be settled by a dominating sync, own or a caller's; Get destinations must not be read before the sync",
	RunModule: runModule,
}

// passName duplicates Analyzer.Name for use inside run functions (a
// direct reference would be an initialization cycle).
const passName = "splitphase"

const splitcPath = "repro/internal/splitc"

var issueOps = map[string]bool{"Get": true, "Put": true, "BulkGet": true, "BulkPut": true}
var syncOps = map[string]bool{"Sync": true, "AllStoreSync": true, "Barrier": true}
var localReadNames = map[string]bool{
	"Load64": true, "Load32": true, "Load8": true, "ReadWord": true, "ReadLocal": true,
}

// An origin is one split-phase issue site: the unit of blame. Whether
// it is reported depends on the whole module; where is fixed here.
type origin struct {
	node *analysis.FuncNode
	call *ast.CallExpr
	op   string
}

// A fact is one function's bottom-up summary.
type fact struct {
	alwaysSyncs bool
	exitOrigins []*origin
}

func runModule(mp *analysis.ModulePass) error {
	m := mp.Module
	sp := &splitPass{
		mp:         mp,
		unresolved: map[*origin]bool{},
		reported:   map[ast.Node]bool{},
	}

	// Bottom-up over SCCs: callee facts exist before callers need them.
	for _, comp := range m.Graph.SCCs() {
		for _, n := range comp {
			if n.Pkg.Path == splitcPath {
				continue
			}
			sp.summarize(n)
		}
	}

	// Resolution: an origin escapes when some function carrying it in
	// its exit summary has nobody left to sync for it.
	var escaped []*origin
	for _, n := range m.Graph.Nodes {
		f, _ := m.Facts.Get(passName, n).(*fact)
		if f == nil || len(f.exitOrigins) == 0 {
			continue
		}
		if !sp.unresolvedAtExit(n) {
			continue
		}
		for _, o := range f.exitOrigins {
			if !sp.unresolved[o] {
				sp.unresolved[o] = true
				escaped = append(escaped, o)
			}
		}
	}
	sort.Slice(escaped, func(i, j int) bool { return escaped[i].call.Pos() < escaped[j].call.Pos() })
	for _, o := range escaped {
		if !m.Target(o.node.Pkg) || sp.reported[o.call] {
			continue
		}
		sp.reported[o.call] = true
		mp.ReportClassf(o.call.Pos(), "unsettled",
			"split-phase %s is not settled by a dominating Sync/AllStoreSync/Barrier on some path to function exit (Split-C sync-counter discipline)", o.op)
	}
	return nil
}

type splitPass struct {
	mp         *analysis.ModulePass
	unresolved map[*origin]bool
	reported   map[ast.Node]bool
}

// unresolvedAtExit reports whether n's pending-at-exit summary escapes
// the analysis: no in-module caller will (or can) sync for it.
func (sp *splitPass) unresolvedAtExit(n *analysis.FuncNode) bool {
	// A spawned proc body returns to the scheduler, which does not sync
	// on its behalf.
	if n.SpawnAll || n.SpawnOne {
		return true
	}
	sites := n.CallSites()
	if len(sites) == 0 {
		// Called from nowhere the graph can see (tests, reflection,
		// stored function values): conservative, same as the old
		// intraprocedural verdict.
		return true
	}
	for _, e := range sites {
		if e.Caller.Pkg.Path == splitcPath {
			// Invoked by the exempt runtime (program(c) inside Run):
			// the runtime is not a client of the discipline and its
			// callbacks must settle their own operations.
			return true
		}
	}
	return false
}

// summarize runs the path-sensitive walker over one function body and
// stores its fact.
func (sp *splitPass) summarize(n *analysis.FuncNode) {
	siteCallees := map[*ast.CallExpr][]*analysis.FuncNode{}
	for _, e := range n.Out {
		if e.Kind == analysis.EdgeCall && e.Site != nil {
			siteCallees[e.Site] = append(siteCallees[e.Site], e.Callee)
		}
	}
	fc := &funcCtx{
		sp:          sp,
		node:        n,
		info:        n.Pkg.Info,
		siteCallees: siteCallees,
	}
	out := fc.stmt(n.Body(), state{})
	f := &fact{}
	exits := fc.exits
	if !out.unreachable {
		exits = append(exits, out)
	}
	f.alwaysSyncs = fc.deferSync || len(exits) > 0
	seen := map[*origin]bool{}
	for _, ex := range exits {
		if !ex.synced && !fc.deferSync {
			f.alwaysSyncs = false
		}
		if fc.deferSync {
			continue // the deferred sync settles everything at exit
		}
		for _, p := range ex.pending {
			for _, o := range p.origins {
				if !seen[o] {
					seen[o] = true
					f.exitOrigins = append(f.exitOrigins, o)
				}
			}
		}
	}
	sp.mp.Module.Facts.Set(passName, n, f)
}

// calleeFact returns the stored summary for a callee, or nil for
// unwalked (splitc), same-SCC, or out-of-module functions.
func (sp *splitPass) calleeFact(caller, callee *analysis.FuncNode) *fact {
	if callee.SCC() == caller.SCC() {
		return nil
	}
	f, _ := sp.mp.Module.Facts.Get(passName, callee).(*fact)
	return f
}

// A pendingOp is one issued, not-yet-settled split-phase operation (own
// or inherited from a callee's summary).
type pendingOp struct {
	origins []*origin
	dst     types.Object // root variable of a Get/BulkGet destination (own ops only)
	op      string
}

// state is the may-be-unsettled set along one control-flow path.
type state struct {
	pending     []*pendingOp
	synced      bool // a sync has executed on this path
	unreachable bool
}

func (s state) clone() state {
	return state{pending: append([]*pendingOp(nil), s.pending...), synced: s.synced, unreachable: s.unreachable}
}

// merge joins path states: an operation is settled — and a sync has
// happened — only if that holds on every reachable incoming path.
func merge(states ...state) state {
	out := state{unreachable: true, synced: true}
	seen := map[*pendingOp]bool{}
	for _, s := range states {
		if s.unreachable {
			continue
		}
		out.unreachable = false
		out.synced = out.synced && s.synced
		for _, p := range s.pending {
			if !seen[p] {
				seen[p] = true
				out.pending = append(out.pending, p)
			}
		}
	}
	if out.unreachable {
		out.synced = false
	}
	return out
}

type funcCtx struct {
	sp          *splitPass
	node        *analysis.FuncNode
	info        *types.Info
	siteCallees map[*ast.CallExpr][]*analysis.FuncNode
	deferSync   bool
	// exits collects the path states at every return statement; the
	// fall-off state is appended by summarize.
	exits []state
	// breaks collects the states flowing into the exit of the
	// innermost breakable statement (loop, switch, select).
	breaks []*[]state
}

func (fc *funcCtx) calleeFunc(call *ast.CallExpr) *types.Func {
	return analysis.CalleeIn(fc.info, call)
}

func (fc *funcCtx) stmt(s ast.Stmt, in state) state {
	if s == nil {
		return in
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			in = fc.stmt(st, in)
		}
		return in
	case *ast.ExprStmt:
		fc.expr(s.X, &in)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && fc.terminates(call) {
			in.unreachable = true
		}
		return in
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			fc.expr(e, &in)
		}
		for _, e := range s.Lhs {
			fc.expr(e, &in)
		}
		return in
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fc.expr(v, &in)
					}
				}
			}
		}
		return in
	case *ast.IncDecStmt:
		fc.expr(s.X, &in)
		return in
	case *ast.SendStmt:
		fc.expr(s.Chan, &in)
		fc.expr(s.Value, &in)
		return in
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			fc.expr(a, &in)
		}
		fc.expr(s.Call.Fun, &in)
		return in
	case *ast.DeferStmt:
		if fn := fc.calleeFunc(s.Call); fn != nil && isCtxMethod(fn) && syncOps[fn.Name()] {
			fc.deferSync = true
		}
		for _, a := range s.Call.Args {
			fc.expr(a, &in)
		}
		return in
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			fc.expr(e, &in)
		}
		if !in.unreachable {
			fc.exits = append(fc.exits, in.clone())
		}
		in.unreachable = true
		return in
	case *ast.IfStmt:
		in = fc.stmt(s.Init, in)
		fc.expr(s.Cond, &in)
		then := fc.stmt(s.Body, in.clone())
		if s.Else != nil {
			els := fc.stmt(s.Else, in.clone())
			return merge(then, els)
		}
		return merge(then, in)
	case *ast.ForStmt:
		in = fc.stmt(s.Init, in)
		fc.expr(s.Cond, &in)
		exits := fc.pushBreaks()
		body := fc.stmt(s.Body, in.clone())
		body = fc.stmt(s.Post, body)
		fc.popBreaks()
		if s.Cond == nil {
			// `for {}` only exits through break.
			return merge(*exits...)
		}
		return merge(append(*exits, in, body)...)
	case *ast.RangeStmt:
		fc.expr(s.X, &in)
		exits := fc.pushBreaks()
		body := fc.stmt(s.Body, in.clone())
		fc.popBreaks()
		return merge(append(*exits, in, body)...)
	case *ast.SwitchStmt:
		in = fc.stmt(s.Init, in)
		fc.expr(s.Tag, &in)
		return fc.clauses(s.Body, in)
	case *ast.TypeSwitchStmt:
		in = fc.stmt(s.Init, in)
		in = fc.stmt(s.Assign, in)
		return fc.clauses(s.Body, in)
	case *ast.SelectStmt:
		return fc.clauses(s.Body, in)
	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			if n := len(fc.breaks); n > 0 {
				t := fc.breaks[n-1]
				*t = append(*t, in.clone())
			}
		case "goto":
			// Conservative blind spot: goto paths are not tracked.
		}
		in.unreachable = true
		return in
	case *ast.LabeledStmt:
		return fc.stmt(s.Stmt, in)
	default:
		return in
	}
}

// clauses merges the bodies of switch/select clauses. Without a default
// (or in a select), the zero-clause path also flows through.
func (fc *funcCtx) clauses(body *ast.BlockStmt, in state) state {
	exits := fc.pushBreaks()
	outs := []state{}
	hasDefault := false
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			for _, e := range cs.List {
				fc.expr(e, &in)
			}
			stmts = cs.Body
		case *ast.CommClause:
			if cs.Comm == nil {
				hasDefault = true
			}
			stmts = cs.Body
		}
		st := in.clone()
		for _, s := range stmts {
			st = fc.stmt(s, st)
		}
		outs = append(outs, st)
	}
	fc.popBreaks()
	if !hasDefault {
		outs = append(outs, in)
	}
	return merge(append(*exits, outs...)...)
}

func (fc *funcCtx) pushBreaks() *[]state {
	t := &[]state{}
	fc.breaks = append(fc.breaks, t)
	return t
}

func (fc *funcCtx) popBreaks() { fc.breaks = fc.breaks[:len(fc.breaks)-1] }

// expr walks an expression, applying call effects in evaluation order.
// Function literals are their own call-graph nodes, summarized
// separately — their bodies are not descended into here.
func (fc *funcCtx) expr(e ast.Expr, st *state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				fc.expr(sel.X, st)
			}
			for _, a := range n.Args {
				fc.expr(a, st)
			}
			fc.applyCall(n, st)
			return false
		}
		return true
	})
}

// settle marks every pending operation settled on this path.
func settle(st *state) {
	st.pending = nil
	st.synced = true
}

func (fc *funcCtx) applyCall(call *ast.CallExpr, st *state) {
	fn := fc.calleeFunc(call)
	if fn != nil && isCtxMethod(fn) {
		name := fn.Name()
		switch {
		case issueOps[name]:
			o := &origin{node: fc.node, call: call, op: name}
			p := &pendingOp{origins: []*origin{o}, op: name}
			if (name == "Get" || name == "BulkGet") && len(call.Args) > 0 {
				p.dst = rootVarOf(fc.info, call.Args[0])
			}
			st.pending = append(st.pending, p)
			return
		case syncOps[name]:
			settle(st)
			return
		}
	}
	// Local reads of an in-flight Get destination (own ops only: the
	// summary does not carry destinations across frames).
	if fn != nil {
		if _, tn := analysis.ReceiverNamed(fn); tn != "" && localReadNames[fn.Name()] {
			for _, a := range call.Args {
				obj := rootVarOf(fc.info, a)
				if obj == nil {
					continue
				}
				for _, p := range st.pending {
					if p.dst != nil && p.dst == obj && !fc.sp.reported[call] {
						fc.sp.reported[call] = true
						if fc.sp.mp.Module.Target(fc.node.Pkg) {
							fc.sp.mp.ReportClassf(call.Pos(), "early-read",
								"local read of %s, the destination of an un-synced %s — the transfer may not have landed; Sync first", obj.Name(), p.op)
						}
					}
				}
			}
		}
	}
	// Module callees, by summary: a callee that always syncs settles
	// the caller's counter; a callee that may exit pending hands its
	// obligations to this frame.
	callees := fc.siteCallees[call]
	if len(callees) == 0 {
		return
	}
	allSync := true
	var inherited []*origin
	for _, cn := range callees {
		f := fc.sp.calleeFact(fc.node, cn)
		if f == nil {
			allSync = false
			continue
		}
		if !f.alwaysSyncs {
			allSync = false
		}
		inherited = append(inherited, f.exitOrigins...)
	}
	if allSync {
		settle(st)
		return
	}
	if len(inherited) > 0 {
		st.pending = append(st.pending, &pendingOp{origins: inherited, op: "call"})
	}
}

// terminates reports whether call never returns (panic, os.Exit).
func (fc *funcCtx) terminates(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := fc.info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := fc.calleeFunc(call)
	return analysis.IsPkgFunc(fn, "os", "Exit") ||
		analysis.IsPkgFunc(fn, "log", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln")
}

func isCtxMethod(fn *types.Func) bool {
	pkg, tn := analysis.ReceiverNamed(fn)
	return pkg == splitcPath && tn == "Ctx"
}

// rootVarOf returns the first variable mentioned in e — the "base" of a
// destination expression like dst+int64(i)*8.
func rootVarOf(info *types.Info, e ast.Expr) types.Object {
	var obj types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				obj = v
				return false
			}
		}
		return true
	})
	return obj
}
