// Module-level analysis: the whole-program view under interprocedural
// passes. A Module bundles every loaded package, the call graph over
// them, and a fact store where passes record per-function summaries
// computed bottom-up over the graph's SCCs and queried across package
// boundaries.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Module is the whole-program view: every package the loader has
// resolved (the analysis targets plus their module-local dependencies,
// so cross-package call edges resolve), the call graph over them, and
// the shared fact store.
type Module struct {
	Loader *Loader
	Fset   *token.FileSet
	// Pkgs lists every loaded module-local package, sorted by import
	// path for deterministic iteration.
	Pkgs  []*Package
	Graph *CallGraph
	Facts *FactStore

	// Targets holds the import paths the user asked to lint; findings
	// are only reported in target packages, but facts are computed over
	// everything loaded so a target's helpers summarize correctly.
	Targets map[string]bool
}

// NewModule builds the module view over a loader's full package set.
func NewModule(l *Loader, targets []string) *Module {
	pkgs := l.Loaded()
	m := &Module{
		Loader:  l,
		Fset:    l.Fset,
		Pkgs:    pkgs,
		Graph:   BuildGraph(pkgs),
		Facts:   NewFactStore(),
		Targets: map[string]bool{},
	}
	for _, t := range targets {
		m.Targets[t] = true
	}
	return m
}

// Target reports whether findings in pkg should be reported.
func (m *Module) Target(pkg *Package) bool {
	return len(m.Targets) == 0 || m.Targets[pkg.Path]
}

// A ModulePass carries one interprocedural analyzer's view of the whole
// module.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// ReportClassf records a finding at pos tagged with a violation class
// (a stable machine-readable label like "shared-mutable" or
// "iface-box" that survives message rewording).
func (p *ModulePass) ReportClassf(pos token.Pos, class, format string, args ...any) {
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

// A FactStore holds per-function facts keyed by (analyzer, node), so
// one pass's bottom-up summaries are queryable by later passes and at
// call sites in other packages.
type FactStore struct {
	facts map[factKey]any
}

type factKey struct {
	analyzer string
	node     *FuncNode
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{facts: map[factKey]any{}} }

// Set records a fact for node under the analyzer's namespace.
func (s *FactStore) Set(analyzer string, node *FuncNode, fact any) {
	s.facts[factKey{analyzer, node}] = fact
}

// Get returns the fact recorded for node by analyzer, or nil.
func (s *FactStore) Get(analyzer string, node *FuncNode) any {
	return s.facts[factKey{analyzer, node}]
}

// Loaded returns every package this loader has resolved so far —
// the requested packages plus module-local imports pulled in to
// type-check them — sorted by import path.
func (l *Loader) Loaded() []*Package {
	pkgs := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs
}
