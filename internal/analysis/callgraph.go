// Whole-module call graph: the interprocedural substrate under the
// sharedstate, hotalloc, and (upgraded) splitphase passes.
//
// Every function declaration and every function literal in the loaded
// packages becomes a FuncNode. Edges are resolved three ways:
//
//   - EdgeCall, static: the callee expression names a *types.Func
//     declared in the module (plain call, method call, immediately
//     invoked literal);
//   - EdgeCall, flow-resolved: the callee expression names a variable
//     (a func-typed parameter or local) and a function value was seen
//     flowing into that variable — a literal assigned to it, or passed
//     as the corresponding argument at some call site of the enclosing
//     function. This is one-level value flow, not a points-to analysis:
//     a func value laundered through a struct field, slice, channel, or
//     a second variable hop is not resolved (see the EdgeFlow fallback);
//   - EdgeFlow, conservative: a function value used in any non-call
//     position (passed to a call, assigned, stored, returned) gets a
//     may-invoke edge from the function whose body mentions it. EdgeFlow
//     says "this value can run if control passes through here", which is
//     what reachability consumers (sharedstate) need, and deliberately
//     does not say at which call expression — precision consumers
//     (splitphase discharge) use only EdgeCall.
//
// The builder also records the two annotations the interprocedural
// passes key on: //t3d:hotpath markers on function declarations
// (hotalloc's audit roots; literals inherit hotness from the enclosing
// function), and the spawn shape of proc-body literals — a literal
// handed to a method named Run executes once per PE (replicated), one
// handed to RunOn/Spawn/SpawnDaemon executes as a single proc.
//
// Soundness caveats are documented in DESIGN.md §16; in short the graph
// is neither sound nor complete under reflection, laundered function
// values, or dynamic dispatch through interfaces, and the passes that
// ride on it are tuned to how this tree actually writes Go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotMarker is the comment that marks a function as a measured hot
// path: hotalloc requires the function (and everything it calls, up to
// the next annotated boundary) to be allocation-free.
const HotMarker = "//t3d:hotpath"

// EdgeKind discriminates how a call edge was resolved.
type EdgeKind int

const (
	// EdgeCall is an invocation at a specific call expression, either
	// statically resolved or through one-level value flow into the
	// callee variable.
	EdgeCall EdgeKind = iota
	// EdgeFlow is a conservative may-invoke edge: the callee's value
	// escapes into the caller's body (passed, assigned, stored) and may
	// run when the caller does, but at no identified call expression.
	EdgeFlow
)

// An Edge is one resolved caller→callee relationship.
type Edge struct {
	Caller *FuncNode
	Callee *FuncNode
	// Site is the call expression for EdgeCall edges; nil for EdgeFlow.
	Site *ast.CallExpr
	Kind EdgeKind
}

// A FuncNode is one function in the module: a declaration or a literal.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Obj  *types.Func   // nil for literals
	Sig  *types.Signature
	// Parent is the innermost enclosing function for literals.
	Parent *FuncNode
	// Name is a diagnostic label: "pkg.Func", "pkg.(T).Method", or
	// "pkg.Func.func" for literals.
	Name string
	// Hot marks a //t3d:hotpath function; literals inherit it from
	// their enclosing function (the closure runs on the same path).
	Hot bool
	// SpawnAll / SpawnOne record that this node's value is handed to a
	// proc-spawning method: Run (one body replicated across every PE)
	// or RunOn/Spawn/SpawnDaemon (a single proc).
	SpawnAll bool
	SpawnOne bool

	Out []*Edge
	In  []*Edge

	scc int // SCC index; callees have smaller or equal indices
}

// Body returns the node's function body.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// SCC returns the node's strongly-connected-component index in the
// graph's bottom-up order: every EdgeCall/EdgeFlow target outside the
// node's own component has a strictly smaller index.
func (n *FuncNode) SCC() int { return n.scc }

// A CallGraph is the module-wide function graph plus its bottom-up SCC
// ordering.
type CallGraph struct {
	// Nodes lists every function in deterministic order (package path,
	// then file position).
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// sccs[i] is one strongly connected component; components are in
	// bottom-up (callees-first) topological order.
	sccs [][]*FuncNode
}

// NodeFor returns the graph node for a declared function, or nil.
func (g *CallGraph) NodeFor(fn *types.Func) *FuncNode { return g.byObj[fn] }

// NodeForLit returns the graph node for a function literal, or nil.
func (g *CallGraph) NodeForLit(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// SCCs returns the strongly connected components in bottom-up order:
// by the time component i is visited, every function it calls outside
// itself lives in some component j < i.
func (g *CallGraph) SCCs() [][]*FuncNode { return g.sccs }

// BuildGraph constructs the call graph over the given packages. The
// package list is sorted by path internally, so the node order — and
// everything derived from it — is deterministic.
func BuildGraph(pkgs []*Package) *CallGraph {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	g := &CallGraph{
		byObj: map[*types.Func]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
	}
	b := &graphBuilder{g: g, flows: map[*types.Var][]*FuncNode{}}

	// Pass 1: create nodes for every declaration and literal.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b.addDecl(pkg, fd)
			}
		}
	}

	// Pass 2: resolve value flow (function values into variables and
	// parameters), spawn shapes, and conservative EdgeFlow edges.
	for _, n := range g.Nodes {
		if n.Decl != nil {
			b.collectFlows(n)
		}
	}

	// Pass 3: add call edges, including flow-resolved variable calls.
	for _, n := range g.Nodes {
		if n.Decl != nil {
			b.addCallEdges(n)
		}
	}

	g.computeSCCs()
	return g
}

type graphBuilder struct {
	g *CallGraph
	// flows maps a func-typed variable (parameter or local) to the
	// function values observed flowing into it.
	flows map[*types.Var][]*FuncNode
}

// addDecl creates the node for fd and, recursively, nodes for every
// literal in its body (parented to the innermost enclosing function).
func (b *graphBuilder) addDecl(pkg *Package, fd *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	n := &FuncNode{
		Pkg:  pkg,
		Decl: fd,
		Obj:  obj,
		Name: declName(pkg, fd),
		Hot:  hasHotMarker(fd.Doc),
	}
	if obj != nil {
		n.Sig, _ = obj.Type().(*types.Signature)
		b.g.byObj[obj] = n
	}
	b.g.Nodes = append(b.g.Nodes, n)
	b.addLits(pkg, n, fd.Body)
}

// addLits creates nodes for literals directly inside parent's body,
// then recurses into each literal for deeper nesting.
func (b *graphBuilder) addLits(pkg *Package, parent *FuncNode, body *ast.BlockStmt) {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(nn ast.Node) bool {
		if lit, ok := nn.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false // nested literals handled by recursion
		}
		return true
	})
	for i, lit := range lits {
		ln := &FuncNode{
			Pkg:    pkg,
			Lit:    lit,
			Parent: parent,
			Name:   fmt.Sprintf("%s.func%d", parent.Name, i+1),
			Hot:    parent.Hot, // a closure on a hot path is hot
		}
		if sig, ok := pkg.Info.TypeOf(lit).(*types.Signature); ok {
			ln.Sig = sig
		}
		b.g.byLit[lit] = ln
		b.g.Nodes = append(b.g.Nodes, ln)
		b.addLits(pkg, ln, lit.Body)
	}
}

// funcValue resolves an expression that denotes a function value — a
// literal or a (possibly selector-qualified) reference to a module
// function — to its node, or nil.
func (b *graphBuilder) funcValue(pkg *Package, e ast.Expr) *FuncNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return b.g.byLit[e]
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return b.g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return b.g.byObj[fn] // method value: conservative may-invoke
		}
	}
	return nil
}

// enclosing returns the node whose body most tightly contains pos.
func (b *graphBuilder) enclosing(root *FuncNode, pos token.Pos) *FuncNode {
	best := root
	for _, n := range b.g.Nodes {
		if n.Pkg == root.Pkg && n.Lit != nil && n.Lit.Pos() <= pos && pos < n.Lit.End() {
			if best.Lit == nil || (best.Lit.Pos() <= n.Lit.Pos() && n.Lit.End() <= best.Lit.End()) {
				best = n
			}
		}
	}
	return best
}

// spawnAllNames are methods that replicate a proc body across every PE
// (splitc Runtime.Run/RunErr, machine T3D.Run/RunErr, Recovery.Run);
// spawnOneNames start a single proc. The distinction feeds
// sharedstate's root weighting: one literal handed to Run is already
// "more than one proc body" for anything it captures. Engine.Run/RunErr
// take no function argument, so listing the names is harmless there.
var spawnAllNames = map[string]bool{"Run": true, "RunErr": true}
var spawnOneNames = map[string]bool{"RunOn": true, "Spawn": true, "SpawnDaemon": true}

// collectFlows walks one declaration (literals included — flow facts
// attach to variables, which don't care about nesting) recording:
// function values assigned to variables, function values passed as
// arguments (into the callee's parameter when the callee is a module
// function), spawn shapes, and conservative EdgeFlow edges for any
// function value escaping in non-call position.
func (b *graphBuilder) collectFlows(root *FuncNode) {
	pkg := root.Pkg
	ast.Inspect(root.Decl, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				if i >= len(nn.Lhs) {
					break
				}
				fn := b.funcValue(pkg, rhs)
				if fn == nil {
					continue
				}
				if id, ok := ast.Unparen(nn.Lhs[i]).(*ast.Ident); ok {
					if v, ok := pkg.Info.ObjectOf(id).(*types.Var); ok {
						b.flows[v] = append(b.flows[v], fn)
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range nn.Values {
				fn := b.funcValue(pkg, rhs)
				if fn == nil || i >= len(nn.Names) {
					continue
				}
				if v, ok := pkg.Info.Defs[nn.Names[i]].(*types.Var); ok {
					b.flows[v] = append(b.flows[v], fn)
				}
			}
		case *ast.CallExpr:
			callee := CalleeIn(pkg.Info, nn)
			calleeNode := b.g.byObj[callee]
			for i, arg := range nn.Args {
				fn := b.funcValue(pkg, arg)
				if fn == nil {
					continue
				}
				// Spawn shape: a proc body handed to Run executes once
				// per PE; RunOn/Spawn run it as a single proc.
				if callee != nil {
					if spawnAllNames[callee.Name()] {
						fn.SpawnAll = true
					} else if spawnOneNames[callee.Name()] {
						fn.SpawnOne = true
					}
				}
				// Flow into the callee's parameter object, so calls
				// through that parameter resolve to fn.
				if calleeNode != nil && calleeNode.Sig != nil {
					params := calleeNode.Sig.Params()
					if i < params.Len() {
						b.flows[params.At(i)] = append(b.flows[params.At(i)], fn)
					} else if calleeNode.Sig.Variadic() && params.Len() > 0 {
						b.flows[params.At(params.Len()-1)] = append(b.flows[params.At(params.Len()-1)], fn)
					}
				}
			}
		}
		return true
	})

	// Conservative EdgeFlow: any function value mentioned outside a
	// call's callee position may run when its mentioning function does.
	ast.Inspect(root.Decl, func(nn ast.Node) bool {
		switch e := nn.(type) {
		case *ast.FuncLit:
			ln := b.g.byLit[e]
			if ln != nil && ln.Parent != nil {
				b.addEdge(ln.Parent, ln, nil, EdgeFlow)
			}
			return true
		case *ast.CallExpr:
			for _, arg := range e.Args {
				if fn := b.funcValue(pkg, arg); fn != nil && fn.Decl != nil {
					from := b.enclosing(root, e.Pos())
					b.addEdge(from, fn, nil, EdgeFlow)
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range e.Rhs {
				if fn := b.funcValue(pkg, rhs); fn != nil && fn.Decl != nil {
					from := b.enclosing(root, e.Pos())
					b.addEdge(from, fn, nil, EdgeFlow)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if fn := b.funcValue(pkg, r); fn != nil {
					from := b.enclosing(root, e.Pos())
					b.addEdge(from, fn, nil, EdgeFlow)
				}
			}
		}
		return true
	})
}

// addCallEdges resolves every call expression under root (nested
// literals included; the edge's caller is the innermost enclosing
// function) to EdgeCall edges.
func (b *graphBuilder) addCallEdges(root *FuncNode) {
	pkg := root.Pkg
	ast.Inspect(root.Decl, func(nn ast.Node) bool {
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		caller := b.enclosing(root, call.Pos())
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			if ln := b.g.byLit[fun]; ln != nil {
				b.addEdge(caller, ln, call, EdgeCall)
			}
			return true
		case *ast.Ident:
			switch obj := pkg.Info.Uses[fun].(type) {
			case *types.Func:
				if cn := b.g.byObj[obj]; cn != nil {
					b.addEdge(caller, cn, call, EdgeCall)
				}
			case *types.Var:
				for _, fn := range b.flows[obj] {
					b.addEdge(caller, fn, call, EdgeCall)
				}
			}
		case *ast.SelectorExpr:
			if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				if cn := b.g.byObj[obj]; cn != nil {
					b.addEdge(caller, cn, call, EdgeCall)
				}
			}
		}
		return true
	})
}

func (b *graphBuilder) addEdge(caller, callee *FuncNode, site *ast.CallExpr, kind EdgeKind) {
	if caller == nil || callee == nil {
		return
	}
	for _, e := range caller.Out {
		if e.Callee == callee && e.Site == site && e.Kind == kind {
			return
		}
	}
	e := &Edge{Caller: caller, Callee: callee, Site: site, Kind: kind}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// CallSites returns the EdgeCall edges targeting n — the places the
// graph can name where n is invoked. EdgeFlow edges are excluded: they
// say n may run, not where.
func (n *FuncNode) CallSites() []*Edge {
	var out []*Edge
	for _, e := range n.In {
		if e.Kind == EdgeCall {
			out = append(out, e)
		}
	}
	return out
}

// computeSCCs runs Tarjan's algorithm (iterative) over the graph and
// stores components in bottom-up topological order.
func (g *CallGraph) computeSCCs() {
	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	next := 0

	type frame struct {
		n  *FuncNode
		ei int
	}
	var visit func(root *FuncNode)
	visit = func(root *FuncNode) {
		frames := []frame{{n: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(f.n.Out) {
				w := f.n.Out[f.ei].Callee
				f.ei++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{n: w})
				} else if onStack[w] {
					if index[w] < low[f.n] {
						low[f.n] = index[w]
					}
				}
				continue
			}
			// f.n finished.
			if low[f.n] == index[f.n] {
				var comp []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.n {
						break
					}
				}
				for _, w := range comp {
					w.scc = len(g.sccs)
				}
				g.sccs = append(g.sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].n
				if low[f.n] < low[p] {
					low[p] = low[f.n]
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — which for a call graph is exactly bottom-up
	// (callees before callers). Keep it.
}

// declName renders a package-qualified function name for diagnostics.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	base := pkg.Types.Name()
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return fmt.Sprintf("%s.(%s).%s", base, id.Name, fd.Name.Name)
		}
		if idx, ok := t.(*ast.IndexExpr); ok {
			if id, ok := idx.X.(*ast.Ident); ok {
				return fmt.Sprintf("%s.(%s).%s", base, id.Name, fd.Name.Name)
			}
		}
	}
	return base + "." + fd.Name.Name
}

func hasHotMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == HotMarker || strings.HasPrefix(text, HotMarker+" ") {
			return true
		}
	}
	return false
}

// CalleeIn resolves the *types.Func a call expression invokes using the
// given type info, or nil for calls through function-typed variables,
// builtins, and conversions.
func CalleeIn(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}
