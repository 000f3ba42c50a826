package splitc

// Spread is a Split-C spread array: elements distributed cyclically over
// the processors, element i living on processor i mod nproc (§1.1, §3.1).
// All threads must perform the same allocation sequence (SPMD single code
// image), which guarantees the local base offset matches machine-wide.
type Spread struct {
	base     int64
	elemSize int64
	n        int64
	nproc    int
}

// AllocSpread allocates a spread array of n elements of elemSize bytes
// (rounded up to 8). Every thread must call it at the same point.
func (c *Ctx) AllocSpread(n, elemSize int64) Spread {
	elemSize = (elemSize + 7) &^ 7
	perPE := (n + int64(c.NProc()) - 1) / int64(c.NProc())
	base := c.Alloc(perPE * elemSize)
	return Spread{base: base, elemSize: elemSize, n: n, nproc: c.NProc()}
}

// Len returns the element count.
func (s Spread) Len() int64 { return s.n }

// Ptr returns a global pointer to element i.
func (s Spread) Ptr(i int64) GlobalPtr {
	if i < 0 || i >= s.n {
		panic("splitc: spread index out of range")
	}
	pe := int(i % int64(s.nproc))
	row := i / int64(s.nproc)
	return Global(pe, s.base+row*s.elemSize)
}

// LocalCount returns how many elements live on processor pe.
func (s Spread) LocalCount(pe int) int64 {
	full := s.n / int64(s.nproc)
	if int64(pe) < s.n%int64(s.nproc) {
		return full + 1
	}
	return full
}

// LocalAddr returns the local address of the k-th element owned by pe.
func (s Spread) LocalAddr(k int64) int64 { return s.base + k*s.elemSize }
