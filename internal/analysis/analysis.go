// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: named analyzers run over
// type-checked packages and report position-tagged diagnostics.
//
// The simulator's correctness contracts — the Split-C sync-counter
// discipline, bit-identical replay, the deadline/partition/poison error
// taxonomy, simulated-time-only accounting — are invariants a compiler
// would enforce, and this package enforces them the same way: as static
// passes over the AST with full type information. It deliberately
// depends only on the standard library (go/ast, go/parser, go/types),
// so the linter builds with the bare toolchain, no module downloads.
//
// The four shipped passes live in subpackages (splitphase, determinism,
// errtaxonomy, cycleaccount) and are driven by cmd/t3dlint; see
// DESIGN.md §11 for the pass catalog and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in output and in //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run executes the pass over one package, reporting findings
	// through pass.ReportClassf. Nil for module-level analyzers.
	Run func(pass *Pass) error
	// RunModule, when set, executes the pass once over the whole
	// module: the call graph and fact store let it compute summaries
	// bottom-up over SCCs and report findings across package
	// boundaries. An analyzer sets exactly one of Run / RunModule.
	RunModule func(pass *ModulePass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files. Test files are
	// never loaded: the invariants govern the simulator, and tests
	// legitimately do what the passes forbid (wall-clock timeouts,
	// reading a Get destination early to prove staleness).
	Files []*ast.File
	// Path is the package's import path (e.g. "repro/internal/em3d").
	// Passes use it for scope decisions such as exempting the
	// internal/sim scheduler from the raw-goroutine rule.
	Path      string
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, resolved to a file position. The JSON
// shape is a contract with CI tooling — see cmd/t3dlint's decode test.
type Diagnostic struct {
	Pass string         `json:"pass"`
	Pos  token.Position `json:"-"`
	File string         `json:"file"`
	Line int            `json:"line"`
	Col  int            `json:"col"`
	// Class is a stable machine-readable violation label within the
	// pass (e.g. "shared-mutable", "iface-box"); empty for passes that
	// predate classification.
	Class   string `json:"class,omitempty"`
	Message string `json:"message"`
	// Suppressed marks findings waived by a //lint:allow comment;
	// SuppressReason carries the allow's written-down argument. The
	// -json output includes suppressed findings (they are the audit
	// inventory); exit codes count only active ones.
	Suppressed     bool   `json:"suppressed"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Message)
}

// ReportClassf records a finding at pos tagged with a violation class.
func (p *Pass) ReportClassf(pos token.Pos, class, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pass:    p.Analyzer.Name,
		Class:   class,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function-typed variables, builtins, and conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is a package-level function or a method
// declared in the package with import path pkg and has one of the given
// names. An empty names list matches any name.
func IsPkgFunc(fn *types.Func, pkg string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkg {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// ReceiverNamed returns the defining package path and type name of fn's
// receiver base type ("", "" for package-level functions).
func ReceiverNamed(fn *types.Func) (pkgPath, typeName string) {
	if fn == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// IsErrorType reports whether t is the built-in error interface type.
func IsErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
