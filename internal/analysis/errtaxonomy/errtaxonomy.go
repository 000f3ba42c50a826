// Package errtaxonomy enforces the error taxonomy the robustness
// extensions introduced. The simulator has two verdicts:
// net.ErrPartitioned (the torus is disconnected, the access can never
// complete) and mem.ErrPoisoned (an uncorrectable memory error reached
// a consumer). The job service adds its own: serve.ErrShed,
// ErrQuotaExceeded and ErrJournalDegraded (come back later) and
// ErrJobDeadline (the job's cycle or wall budget ran out). Each demands
// a different response — fail fast, roll back, back off, resubmit with
// a larger budget — so callers of the fallible shell/splitc/am/mem/serve
// APIs must keep the verdicts distinguishable all the way up the stack.
// Concretely the pass flags:
//
//   - comparing an error against a taxonomy sentinel with == or !=
//     (wrapped errors — PartitionError, PoisonError, ShedError,
//     JobDeadlineError — make the comparison silently false; use
//     errors.Is);
//   - discriminating errors by text: err.Error() compared against a
//     string, or fed to strings.Contains and friends (messages are not
//     API; the sentinels are);
//   - discarding the error result of a fallible shell/splitc/am/mem
//     call outright (as a statement, or assigned to _): the discarded
//     value may be a poison verdict;
//   - an `if err != nil` branch that never mentions err again: the
//     verdict is observed and then dropped on the floor, which turns a
//     poisoned read into a silent failure. Propagating (return err,
//     fmt.Errorf("...: %w", err)) or embedding it in a panic message
//     both count as keeping the verdict.
package errtaxonomy

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the errtaxonomy pass.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc:  "partition/poison/service verdicts must be discriminated with errors.Is and never discarded or string-matched",
	Run:  run,
}

// sentinels are the taxonomy roots, keyed by defining package path.
var sentinels = map[string]map[string]bool{
	"repro/internal/net":   {"ErrPartitioned": true},
	"repro/internal/mem":   {"ErrPoisoned": true},
	"repro/internal/serve": {"ErrShed": true, "ErrJobDeadline": true, "ErrJournalDegraded": true, "ErrQuotaExceeded": true},
}

// falliblePkgs are the packages whose error returns carry taxonomy
// verdicts; discarding one is always a bug or a documented waiver.
var falliblePkgs = map[string]bool{
	"repro/internal/shell":  true,
	"repro/internal/splitc": true,
	"repro/internal/am":     true,
	"repro/internal/mem":    true,
	"repro/internal/serve":  true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.CallExpr:
				checkStringMatch(pass, n)
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					checkDiscard(pass, call, n)
				}
			case *ast.AssignStmt:
				checkBlankError(pass, n)
			case *ast.IfStmt:
				checkSwallow(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkComparison flags ==/!= against a taxonomy sentinel.
func checkComparison(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		if name, pkg := sentinelUse(pass, side); name != "" {
			pass.ReportClassf(b.Pos(), "sentinel-compare",
				"%s compared with %s — wrapped %s values make this silently false; use errors.Is(err, %s.%s)", name, b.Op, name, pkg, name)
			return
		}
	}
	// err.Error() == "..." — taxonomy by message text.
	for _, side := range []ast.Expr{b.X, b.Y} {
		if isErrorTextCall(pass, side) {
			pass.ReportClassf(b.Pos(), "msg-compare",
				"error discriminated by message text — messages are not API; use errors.Is against net.ErrPartitioned/mem.ErrPoisoned or the serve sentinels")
			return
		}
	}
}

// checkStringMatch flags strings.* matching over err.Error().
func checkStringMatch(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if !analysis.IsPkgFunc(fn, "strings", "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index", "Count") {
		return
	}
	for _, a := range call.Args {
		if isErrorTextCall(pass, a) {
			pass.ReportClassf(call.Pos(), "msg-compare",
				"strings.%s over err.Error() — error messages are not API; discriminate with errors.Is against the taxonomy sentinels", fn.Name())
			return
		}
	}
}

// checkDiscard flags a fallible call whose results are thrown away as a
// bare statement.
func checkDiscard(pass *analysis.Pass, call *ast.CallExpr, stmt *ast.ExprStmt) {
	if fn := fallibleCallee(pass, call); fn != nil {
		pass.ReportClassf(stmt.Pos(), "err-discard",
			"error result of %s.%s discarded — it may carry a partition/poison/shed/deadline verdict; handle or propagate it", fn.Pkg().Name(), fn.Name())
	}
}

// checkBlankError flags assigning a fallible call's error to the blank
// identifier.
func checkBlankError(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := fallibleCallee(pass, call)
	if fn == nil {
		return
	}
	// The error is the last result; its LHS slot is the last one.
	last := as.Lhs[len(as.Lhs)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "_" {
		pass.ReportClassf(as.Pos(), "err-discard",
			"error result of %s.%s assigned to _ — it may carry a partition/poison/shed/deadline verdict; handle or propagate it", fn.Pkg().Name(), fn.Name())
	}
}

// checkSwallow flags `if err != nil { ... }` bodies that never mention
// err: the verdict is tested and then dropped.
func checkSwallow(pass *analysis.Pass, s *ast.IfStmt) {
	cond, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ {
		return
	}
	var errIdent *ast.Ident
	for _, side := range [2][2]ast.Expr{{cond.X, cond.Y}, {cond.Y, cond.X}} {
		x, y := side[0], side[1]
		id, ok := ast.Unparen(x).(*ast.Ident)
		if !ok {
			continue
		}
		if nilID, ok := ast.Unparen(y).(*ast.Ident); !ok || nilID.Name != "nil" {
			continue
		}
		if analysis.IsErrorType(pass.TypesInfo.TypeOf(id)) {
			errIdent = id
		}
	}
	if errIdent == nil {
		return
	}
	obj := pass.TypesInfo.ObjectOf(errIdent)
	if obj == nil {
		return
	}
	used := false
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			used = true
		}
		return !used
	})
	if !used {
		pass.ReportClassf(s.Pos(), "verdict-drop",
			"%s is checked non-nil but its verdict is dropped — a poisoned read would fail silently; discriminate with errors.Is or propagate the error", errIdent.Name)
	}
}

// fallibleCallee returns the callee when call targets a fallible
// shell/splitc/am/mem function whose last result is an error.
func fallibleCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !falliblePkgs[fn.Pkg().Path()] {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	if !analysis.IsErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return nil
	}
	return fn
}

// sentinelUse resolves e to a taxonomy sentinel, returning its name and
// defining package name ("", "" otherwise).
func sentinelUse(pass *analysis.Pass, e ast.Expr) (name, pkgName string) {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return "", ""
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", ""
	}
	if names, ok := sentinels[v.Pkg().Path()]; ok && names[v.Name()] {
		return v.Name(), v.Pkg().Name()
	}
	return "", ""
}

// isErrorTextCall reports whether e is a call of Error() on an error
// value.
func isErrorTextCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	return analysis.IsErrorType(pass.TypesInfo.TypeOf(sel.X))
}
