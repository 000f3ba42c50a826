// Package determinism enforces bit-identical replay in simulator code:
// every experiment, chaos soak, and recovery replay in this tree
// assumes that the same seed produces the same execution, cycle for
// cycle, digest for digest. Four things silently break that contract
// in Go, and this pass forbids all of them in repro/internal/...
// non-test code:
//
//   - wall-clock reads (time.Now, time.Since, time.Until): simulated
//     time is sim.Time; the host clock must never leak into results;
//   - the global math/rand source (rand.Intn, rand.Float64, ...):
//     process-seeded and shared; every draw must come from an
//     explicitly seeded rand.New(rand.NewSource(seed)) instance;
//   - raw go statements outside repro/internal/sim: the event kernel
//     owns goroutine creation and runs its procs as coroutines, one at
//     a time; a stray goroutine races the simulation;
//   - iteration over a map with order-sensitive effects: Go randomizes
//     map order per process, so a map-range loop may only accumulate
//     commutatively. Recognized as order-safe, and therefore allowed:
//     commutative compound assignments (+=, |=, x++, ...), writes
//     indexed by the range key (m2[k] = v), assignments to variables
//     declared inside the loop, and the collect-then-sort idiom where
//     the statement immediately after the loop sorts what was
//     appended. Anything else — a plain assignment to outer state, an
//     output call — is flagged; genuinely order-insensitive loops
//     (choosing a unique minimum, marking every match) carry a
//     //lint:allow determinism comment arguing the case.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global math/rand, raw goroutines, and order-sensitive map iteration in internal/ simulator code",
	Run:  run,
}

const simPath = "repro/internal/sim"

// hostPkgs are internal packages that live on the HOST side of the
// host/simulation boundary and are exempt from the pass wholesale.
// internal/serve is the t3dserve service layer: worker pools, wall-clock
// deadlines, and HTTP handlers are its job, and none of its host-time
// reads or goroutines can reach simulated state — every simulation it
// runs goes through runSpec, which builds a fresh seeded machine and
// only touches the engine via the sanctioned SetCancelPoll seam.
var hostPkgs = map[string]bool{
	"repro/internal/serve": true,
	// internal/hostfs is the host-storage VFS under the journal: real
	// files, injected faults, and crash-point recording. Its seeded
	// fault stream uses the sanctioned internal/fault core, and nothing
	// in it can reach simulated state.
	"repro/internal/hostfs": true,
	// internal/ckpt is the durable-checkpoint store on that same VFS:
	// host files, host timestamps for /statusz freshness, nothing that
	// can reach simulated state — the snapshots it stores are inert
	// bytes between a barrier and a resume.
	"repro/internal/ckpt": true,
}

// randConstructors are the package-level math/rand functions that do
// not touch the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Path, "repro/internal/") || hostPkgs[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if pass.Path != simPath {
					pass.ReportClassf(n.Pos(), "raw-go",
						"raw go statement outside the internal/sim scheduler — the event kernel owns goroutine creation; a stray goroutine races the simulation")
				}
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
		// The map-range rule needs each statement's successor (for the
		// collect-then-sort idiom), so it walks statement lists.
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walkStmtLists(fd.Body, func(list []ast.Stmt) {
					for i, s := range list {
						if rng, ok := s.(*ast.RangeStmt); ok {
							var next ast.Stmt
							if i+1 < len(list) {
								next = list[i+1]
							}
							checkMapRange(pass, rng, next)
						}
					}
				})
			}
		}
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return
	}
	if analysis.IsPkgFunc(fn, "time", "Now", "Since", "Until") {
		pass.ReportClassf(call.Pos(), "wall-clock",
			"wall-clock %s.%s in simulator code — host time is nondeterministic across runs; use sim.Time from the event kernel", fn.Pkg().Name(), fn.Name())
		return
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if (pkg == "math/rand" || pkg == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil &&
		!randConstructors[fn.Name()] {
		pass.ReportClassf(call.Pos(), "global-rand",
			"global math/rand %s draws from the process-seeded shared source — replay is not bit-identical; use rand.New(rand.NewSource(seed))", fn.Name())
	}
}

// walkStmtLists invokes fn on every statement list under root,
// including nested blocks and switch/select clause bodies.
func walkStmtLists(root ast.Node, fn func([]ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, next ast.Stmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	keyObj := rangeVarObj(pass, rng.Key)

	// Collect-then-sort: assignments to a target that the immediately
	// following sort statement mentions are order-safe.
	sortedTargets := sortCallTargets(pass, next)

	var offender string
	flag := func(what string) {
		if offender == "" {
			offender = what
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if offender != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's effects happen when it runs, which this
			// loop-local analysis cannot see; judged at its call site.
			return false
		case *ast.CallExpr:
			if fn := pass.CalleeFunc(n); fn != nil {
				if analysis.IsPkgFunc(fn, "fmt") && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
					flag("emits output (" + fn.Name() + ")")
				} else if analysis.IsPkgFunc(fn, "log") {
					flag("emits output (log." + fn.Name() + ")")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			if n.Tok != token.ASSIGN && n.Tok != token.REM_ASSIGN {
				return true // commutative accumulator (+=, |=, ...)
			}
			for _, lhs := range n.Lhs {
				if describeOrderSensitiveLHS(pass, lhs, rng, keyObj, sortedTargets) {
					flag("assigns " + types.ExprString(lhs) + " outside the loop")
				}
			}
		}
		return true
	})
	if offender != "" {
		pass.ReportClassf(rng.Pos(), "map-order",
			"iteration over map %s %s — Go randomizes map order per process, breaking bit-identical replay; iterate a sorted key list, restructure, or argue order-independence in a //lint:allow", types.ExprString(rng.X), offender)
	}
}

// describeOrderSensitiveLHS reports whether a plain assignment to lhs
// inside rng's body is order-sensitive.
func describeOrderSensitiveLHS(pass *analysis.Pass, lhs ast.Expr, rng *ast.RangeStmt, keyObj types.Object, sortedTargets string) bool {
	lhs = ast.Unparen(lhs)
	// Blank assignment never carries state.
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return false
	}
	// Per-key writes (m2[k] = v) are order-independent.
	if idx, ok := lhs.(*ast.IndexExpr); ok && keyObj != nil {
		if id, ok := ast.Unparen(idx.Index).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == keyObj {
			return false
		}
	}
	// Assignments to variables declared inside the loop are local.
	if id, ok := lhs.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil &&
			obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
			return false
		}
	}
	// Collect-then-sort: the sort right after the loop re-establishes a
	// canonical order for everything appended here.
	if sortedTargets != "" && strings.Contains(sortedTargets, types.ExprString(lhs)) {
		return false
	}
	return true
}

// sortCallTargets renders the argument list of a sort.*/slices.* call
// statement, or "" when next is not one.
func sortCallTargets(pass *analysis.Pass, next ast.Stmt) string {
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
		return ""
	}
	parts := make([]string, 0, len(call.Args))
	for _, a := range call.Args {
		parts = append(parts, types.ExprString(a))
	}
	return strings.Join(parts, ", ")
}

func rangeVarObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}
