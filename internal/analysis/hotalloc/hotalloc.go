// Package hotalloc keeps the measured hot paths allocation-free.
//
// The benchmark (bench/) measures allocs/op on the hot paths — the
// sim.at_pop_*, splitc.*, am.send_poll_* and shell.fetch_inc_* rungs
// and the per-workload host.allocs_per_* — and the allocation work
// (ROADMAP item 1(c), closure-free shell transactions) dies by a
// thousand heap cuts: one escaping composite per event, one interface
// box per formatted argument, one closure per wait. A function on such
// a path carries a //t3d:hotpath annotation in its doc comment, and
// this pass enforces the contract the annotation declares: nothing in
// the function's body — nor in any helper it calls, up to the next
// annotated boundary — may allocate.
//
// Flagged in an annotated function (function literals inside one
// inherit the annotation — a closure runs on the same path):
//
//   - escape-composite: &T{...} (heap-allocated unless escape analysis
//     rescues it), and slice/map composite literals;
//   - make / new: explicit allocation;
//   - append: may grow; amortized-growth appends (a route cache, the
//     event heap's own backing array) carry a //lint:allow hotalloc
//     comment arguing the amortization;
//   - closure: a function literal capturing variables (the closure
//     header and its captures are heap-allocated);
//   - string-conv: string<->[]byte/[]rune conversions and string
//     concatenation;
//   - iface-box: a concrete non-pointer-shaped value (int, struct,
//     string, slice) passed where an interface is expected — the
//     canonical hidden allocation of a ...any formatting call;
//   - calls-allocating: a call to an unannotated module function whose
//     bottom-up summary contains any of the above (reported at the
//     call site, naming the callee and a representative allocation),
//     or to a standard-library function known to allocate (fmt,
//     errors, strings, non-Append strconv, sort.Slice).
//
// The argument of the builtin panic is cold: building a panic's value
// runs only on the way to a crash or a recovered failure, never on the
// steady-state path, so nothing inside it is flagged — not its own
// sites, not the summaries of module calls in it, not the standard
// library scan. Only the argument expression is exempt: a value built
// in an earlier statement and then handed to panic (msg :=
// fmt.Sprintf(...); panic(msg)) is still flagged where it is built.
//
// Facts make the check interprocedural: every module function gets an
// allocation summary computed bottom-up over the call graph's SCCs, so
// a hot function calling a cold helper three packages away is caught at
// the call site. Annotated functions are audit boundaries: their own
// findings are reported inside them, and callers do not re-inherit
// them — annotating a helper is the sanctioned way to split a long hot
// path into separately-audited segments.
//
// Soundness caveats (DESIGN.md §16): the pass flags potential
// allocations — escape analysis may keep a flagged &T{} on the stack
// (carry an allow arguing that, ideally with a benchmark); recursion
// within an SCC is not summarized; calls through laundered function
// values are invisible.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "//t3d:hotpath functions must be allocation-free, through calls, up to the next annotated boundary",
	RunModule: runModule,
}

// A site is one potential allocation, for summaries and messages.
type site struct {
	pos   token.Pos
	class string
	what  string
}

// A fact is a function's allocation summary: a bounded sample of the
// allocation sites a call to it may execute.
type fact struct {
	sites []site
}

// passName duplicates Analyzer.Name for use inside run functions (a
// direct reference would be an initialization cycle).
const passName = "hotalloc"

const maxFactSites = 8

func runModule(mp *analysis.ModulePass) error {
	m := mp.Module
	h := &hotPass{mp: mp}
	for _, comp := range m.Graph.SCCs() {
		for _, n := range comp {
			h.summarize(n)
		}
	}
	for _, n := range m.Graph.Nodes {
		if n.Hot && m.Target(n.Pkg) {
			h.report(n)
		}
	}
	return nil
}

type hotPass struct {
	mp *analysis.ModulePass
}

// intrinsics returns the allocation sites written directly in n's own
// body (nested literals excluded — each literal is its own node, and
// only its creation is n's allocation).
func (h *hotPass) intrinsics(n *analysis.FuncNode) []site {
	info := n.Pkg.Info
	var sites []site
	add := func(pos token.Pos, class, what string) {
		sites = append(sites, site{pos, class, what})
	}
	ast.Inspect(n.Body(), func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.FuncLit:
			if caps := captures(n.Pkg, x); caps > 0 {
				add(x.Pos(), "closure", fmt.Sprintf("closure capturing %d variables", caps))
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "escape-composite", "&composite literal")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				add(x.Pos(), "escape-composite", "slice literal")
			case *types.Map:
				add(x.Pos(), "escape-composite", "map literal")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) {
				add(x.Pos(), "string-conv", "string concatenation")
			}
		case *ast.CallExpr:
			if isPanic(info, x) {
				return false
			}
			h.callSites(n, x, add)
		}
		return true
	})
	return sites
}

// isPanic reports whether call is the builtin panic.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// coldCalls returns the call expressions in n's own body (nested
// literals excluded) that build a panic's argument: their callees'
// summaries and standard-library allocations are not n's.
func coldCalls(n *analysis.FuncNode) map[*ast.CallExpr]bool {
	cold := map[*ast.CallExpr]bool{}
	ast.Inspect(n.Body(), func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if !isPanic(n.Pkg.Info, x) {
				return true
			}
			for _, a := range x.Args {
				ast.Inspect(a, func(an ast.Node) bool {
					if c, ok := an.(*ast.CallExpr); ok {
						cold[c] = true
					}
					_, lit := an.(*ast.FuncLit)
					return !lit
				})
			}
			return false
		}
		return true
	})
	return cold
}

// callSites classifies one call expression's own allocations: builtins,
// conversions, and interface boxing of arguments. Callee summaries are
// handled separately (they depend on facts).
func (h *hotPass) callSites(n *analysis.FuncNode, call *ast.CallExpr, add func(token.Pos, string, string)) {
	info := n.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				add(call.Pos(), "make", "make")
			case "new":
				add(call.Pos(), "new", "new")
			case "append":
				add(call.Pos(), "append", "append (may grow)")
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from)) {
			add(call.Pos(), "string-conv", "string conversion copies")
		}
		return
	}
	// Interface boxing at argument positions.
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case call.Ellipsis.IsValid() && i == len(call.Args)-1:
			// f(xs...): the slice is passed through, nothing boxes here.
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok && sig.Variadic() {
				pt = sl.Elem()
			} else {
				pt = last
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(at) || pointerShaped(at) {
			continue
		}
		add(arg.Pos(), "iface-box", fmt.Sprintf("%s boxed into %s", at, pt))
	}
}

// summarize computes n's allocation summary: its intrinsic sites plus
// those inherited from unannotated module callees. Annotated callees
// are boundaries — separately audited, never re-inherited.
func (h *hotPass) summarize(n *analysis.FuncNode) {
	f := &fact{}
	if !n.Hot {
		f.sites = h.intrinsics(n)
		cold := coldCalls(n)
		for _, e := range n.Out {
			if e.Kind != analysis.EdgeCall || e.Site == nil || cold[e.Site] || len(f.sites) >= maxFactSites {
				continue
			}
			if cs := h.calleeAllocs(n, e); len(cs) > 0 {
				f.sites = append(f.sites, site{e.Site.Pos(), "calls-allocating",
					fmt.Sprintf("call to %s (%s)", e.Callee.Name, cs[0].what)})
			}
		}
		if len(f.sites) > maxFactSites {
			f.sites = f.sites[:maxFactSites]
		}
	}
	h.mp.Module.Facts.Set(passName, n, f)
}

// calleeAllocs returns the callee's summary sites for an edge, or nil
// for annotated callees, same-SCC recursion, and clean callees.
func (h *hotPass) calleeAllocs(n *analysis.FuncNode, e *analysis.Edge) []site {
	if e.Callee.Hot {
		return nil
	}
	if e.Callee.SCC() == n.SCC() {
		return nil
	}
	f, _ := h.mp.Module.Facts.Get(passName, e.Callee).(*fact)
	if f == nil {
		return nil
	}
	return f.sites
}

// report emits findings inside one annotated function: its intrinsic
// sites, plus call sites whose callees allocate.
func (h *hotPass) report(n *analysis.FuncNode) {
	for _, s := range h.intrinsics(n) {
		h.mp.ReportClassf(s.pos, s.class,
			"%s in //t3d:hotpath function %s — hot paths must be allocation-free (bench allocs/op gate, ROADMAP item 1(c)); hoist it, pool it, or argue the case in a //lint:allow", s.what, n.Name)
	}
	seen := coldCalls(n) // panic arguments: cold, never reported
	for _, e := range n.Out {
		if e.Kind != analysis.EdgeCall || e.Site == nil || seen[e.Site] {
			continue
		}
		if cs := h.calleeAllocs(n, e); len(cs) > 0 {
			seen[e.Site] = true
			rep := cs[0]
			h.mp.ReportClassf(e.Site.Pos(), "calls-allocating",
				"//t3d:hotpath function %s calls %s, which allocates (%s at %s) — annotate the callee to audit it separately, make it allocation-free, or argue the case in a //lint:allow",
				n.Name, e.Callee.Name, rep.what, h.mp.Fset.Position(rep.pos))
		}
	}
	// Known-allocating standard-library calls.
	info := n.Pkg.Info
	ast.Inspect(n.Body(), func(nn ast.Node) bool {
		if _, ok := nn.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nn.(*ast.CallExpr)
		if !ok || seen[call] {
			return true
		}
		fn := analysis.CalleeIn(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if name := allocatingStdlib(fn); name != "" {
			seen[call] = true
			h.mp.ReportClassf(call.Pos(), "calls-allocating",
				"//t3d:hotpath function %s calls %s, which allocates — hot paths must not format, concatenate, or sort; move it off the fast path or argue the case in a //lint:allow", n.Name, name)
		}
		return true
	})
}

// allocatingStdlib names standard-library callees known to allocate on
// every call; everything else in std is assumed clean (the pass is a
// hot-path gate, not an escape analysis).
func allocatingStdlib(fn *types.Func) string {
	pkg := fn.Pkg().Path()
	name := fn.Name()
	switch pkg {
	case "fmt", "errors", "strings":
		return pkg + "." + name
	case "strconv":
		if strings.HasPrefix(name, "Append") {
			return "" // appends into a caller-owned buffer
		}
		return pkg + "." + name
	case "sort":
		if name == "Slice" || name == "SliceStable" || name == "Sort" {
			return pkg + "." + name
		}
	}
	return ""
}

func captures(pkg *analysis.Package, lit *ast.FuncLit) int {
	info := pkg.Info
	seen := map[*types.Var]bool{}
	count := 0
	ast.Inspect(lit.Body, func(nn ast.Node) bool {
		id, ok := nn.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			seen[v] = true
			count++
		}
		return true
	})
	return count
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether boxing t into an interface stores the
// value directly in the interface word, with no allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
