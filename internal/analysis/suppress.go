package analysis

import (
	"go/token"
	"strings"
)

// Suppression policy: a finding may be waived, line by line, with
//
//	//lint:allow <pass> <reason>
//
// placed either on the flagged line or as a standalone comment on the
// line directly above it. The reason is mandatory — a suppression is a
// reviewed, written-down argument for why the invariant holds anyway
// (e.g. "use-sequence values are unique, so the min is order-independent"),
// never a mute button. Malformed suppressions (missing pass, missing
// reason, unknown pass name) and suppressions that no longer match any
// finding are themselves reported, so stale waivers cannot accumulate:
// deleting the code a suppression covered makes the lint fail until the
// comment goes too.

const allowPrefix = "//lint:allow"

// An Allow is one parsed //lint:allow comment.
type Allow struct {
	Pos    token.Position
	Pass   string
	Reason string
	used   bool
}

// CollectAllows scans a package's comments for //lint:allow markers.
// knownPasses maps valid pass names; malformed markers are returned as
// diagnostics from the synthetic "suppress" pass.
func CollectAllows(fset *token.FileSet, pkg *Package, knownPasses map[string]bool) ([]*Allow, []Diagnostic) {
	var allows []*Allow
	var bad []Diagnostic
	report := func(pos token.Position, class, msg string) {
		bad = append(bad, Diagnostic{
			Pass: "suppress", Class: class, Pos: pos,
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(pos, "malformed", "malformed //lint:allow: missing pass name and reason")
					continue
				}
				pass := fields[0]
				if !knownPasses[pass] {
					report(pos, "unknown-pass", "//lint:allow names unknown pass "+pass)
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), pass))
				if reason == "" {
					report(pos, "missing-reason", "//lint:allow "+pass+" has no reason — suppressions must say why the invariant holds")
					continue
				}
				allows = append(allows, &Allow{Pos: pos, Pass: pass, Reason: reason})
			}
		}
	}
	return allows, bad
}

// MarkSuppressions matches diags against allows: a diagnostic is
// suppressed when an allow for its pass sits on the same line or on the
// line directly above. Nothing is dropped: waived findings come back
// with Suppressed set and the allow's reason attached, so the full set
// remains available as an audit inventory (-json emits it; exit codes
// count active findings only). One "suppress" diagnostic is appended
// per allow that matched nothing.
func MarkSuppressions(diags []Diagnostic, allows []*Allow) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		for _, a := range allows {
			if a.Pass == d.Pass && a.Pos.Filename == d.File &&
				(a.Pos.Line == d.Line || a.Pos.Line == d.Line-1) {
				a.used = true
				d.Suppressed = true
				d.SuppressReason = a.Reason
			}
		}
		out = append(out, d)
	}
	for _, a := range allows {
		if !a.used {
			out = append(out, Diagnostic{
				Pass: "suppress", Class: "unused-allow", Pos: a.Pos,
				File: a.Pos.Filename, Line: a.Pos.Line, Col: a.Pos.Column,
				Message: "unused //lint:allow " + a.Pass + " — no finding here; delete the stale suppression",
			})
		}
	}
	return out
}
