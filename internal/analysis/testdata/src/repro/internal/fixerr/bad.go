// Package fixerr holds errtaxonomy golden fixtures. bad.go carries one
// function per violation kind; each // want line is the expected
// diagnostic.
package fixerr

import (
	"strings"

	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/serve"
	"repro/internal/shell"
	"repro/internal/splitc"
)

// comparePartition tests identity against a sentinel: wrapped values
// compare false.
func comparePartition(err error) bool {
	return err != net.ErrPartitioned // want `ErrPartitioned compared with !=`
}

// comparePoison covers the third sentinel.
func comparePoison(err error) bool {
	return err == mem.ErrPoisoned // want `ErrPoisoned compared with ==`
}

// compareShed covers the service-layer sentinels: *ShedError wraps
// ErrShed, so identity comparison is silently false.
func compareShed(err error) bool {
	return err == serve.ErrShed // want `ErrShed compared with ==`
}

// compareJobDeadline: same for the per-job budget sentinel.
func compareJobDeadline(err error) bool {
	return err != serve.ErrJobDeadline // want `ErrJobDeadline compared with !=`
}

// compareDegraded: the brownout sentinel is wrapped by *DegradedError,
// so identity comparison is silently false.
func compareDegraded(err error) bool {
	return err == serve.ErrJournalDegraded // want `ErrJournalDegraded compared with ==`
}

// compareQuota: the tenant-quota sentinel is wrapped by *QuotaError,
// so identity comparison is silently false.
func compareQuota(err error) bool {
	return err == serve.ErrQuotaExceeded // want `ErrQuotaExceeded compared with ==`
}

// discardSubmit drops an admission verdict: the caller never learns the
// job was shed.
func discardSubmit(s *serve.Server) {
	s.Submit(7) // want `error result of serve.Submit discarded`
}

// textMatch discriminates by message text, twice over.
func textMatch(err error) bool {
	if err.Error() == "mem: poisoned word" { // want `error discriminated by message text`
		return true
	}
	return strings.Contains(err.Error(), "poisoned") // want `strings.Contains over err.Error\(\)`
}

// discard throws a verdict-bearing error away as a bare statement.
func discard(rt *splitc.Runtime, prog func(c *splitc.Ctx)) {
	rt.RunErr(prog) // want `error result of splitc.RunErr discarded`
}

// discardShell: package-level fallible calls count too.
func discardShell() {
	shell.Wait(100) // want `error result of shell.Wait discarded`
}

// blankError ships the value and drops the verdict.
func blankError(rt *splitc.Runtime, prog func(c *splitc.Ctx)) int64 {
	t, _ := rt.RunErr(prog) // want `error result of splitc.RunErr assigned to _`
	return t
}

// swallow tests the error and then ignores which error it was.
func swallow(rt *splitc.Runtime, prog func(c *splitc.Ctx)) {
	_, err := rt.RunErr(prog)
	if err != nil { // want `err is checked non-nil but its verdict is dropped`
		return
	}
}
