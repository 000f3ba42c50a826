// ok.go is the no-false-positive fixture: every function mirrors the
// blessed error-handling patterns from the real tree and must produce
// zero errtaxonomy diagnostics.
package fixerr

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/serve"
	"repro/internal/splitc"
)

// discriminate mirrors the hard-fault experiments: every verdict is
// tested with errors.Is and the unknown case propagates.
func discriminate(rt *splitc.Runtime, prog func(c *splitc.Ctx)) (int64, error) {
	t, err := rt.RunErr(prog)
	switch {
	case err == nil:
		return t, nil
	case errors.Is(err, net.ErrPartitioned):
		return 0, fmt.Errorf("fixerr: target unreachable: %w", err)
	case errors.Is(err, mem.ErrPoisoned):
		return 0, fmt.Errorf("fixerr: data lost: %w", err)
	}
	return 0, err
}

// propagate hands the verdict up unexamined — legal: the caller
// discriminates.
func propagate(rt *splitc.Runtime, prog func(c *splitc.Ctx)) error {
	_, err := rt.RunErr(prog)
	return err
}

// wrapAndPanic uses the error inside the non-nil branch.
func wrapAndPanic(rt *splitc.Runtime, prog func(c *splitc.Ctx)) int64 {
	t, err := rt.RunErr(prog)
	if err != nil {
		panic(fmt.Sprintf("fixerr: unrecoverable: %v", err))
	}
	return t
}

// submitWithBackoff mirrors a well-behaved t3dserve client: shed and
// deadline verdicts are discriminated with errors.Is; everything else
// propagates.
func submitWithBackoff(s *serve.Server, spec int) (string, error) {
	id, err := s.Submit(spec)
	switch {
	case err == nil:
		return id, nil
	case errors.Is(err, serve.ErrShed):
		return "", fmt.Errorf("fixerr: overloaded, retry later: %w", err)
	case errors.Is(err, serve.ErrJobDeadline):
		return "", fmt.Errorf("fixerr: budget exhausted: %w", err)
	case errors.Is(err, serve.ErrJournalDegraded):
		return "", fmt.Errorf("fixerr: journal brownout, retry later: %w", err)
	case errors.Is(err, serve.ErrQuotaExceeded):
		return "", fmt.Errorf("fixerr: tenant quota, retry later: %w", err)
	}
	return "", err
}

// checkedBank: fallible calls outside the taxonomy packages' blessed
// callers still count when handled properly.
func checkedBank(b *mem.Bank) (uint64, error) {
	v, err := b.ReadChecked(0x40)
	if err != nil {
		return 0, fmt.Errorf("fixerr: bank read: %w", err)
	}
	return v, nil
}
