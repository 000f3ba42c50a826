// Package mem models the local DRAM system of a CRAY-T3D node (and, with
// different parameters, a workstation's main memory).
//
// The model captures the two structural features that drive the paper's
// local-memory results (§2): page-mode (open-row) DRAM, which makes an
// access to the currently open row of a bank cheaper than one that must
// precharge and activate a new row, and bank interleaving, which lets
// accesses to different banks proceed without waiting out a bank's full
// cycle time. Banks rotate every RowSize bytes, so addresses within one
// RowSize-aligned chunk share both a bank and a row.
//
// The DRAM also stores real data: loads and stores through the simulated
// machine move actual bytes, which is what lets the repository reproduce
// the paper's correctness hazards (stale reads past the write buffer,
// incoherent cached remote data) and not just its timing curves. The
// bytes live in 4 KiB pages allocated on first write; a page never
// written reads as zero, and the page table grows only to the highest
// page written, so a machine costs host memory, and a snapshot of it
// costs copying, only for what its programs touch. Timing never looks
// at the data.
package mem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
)

// Config holds the structural and timing parameters of a DRAM system.
// All times are in processor cycles.
type Config struct {
	Size    int64 // total bytes; must be a multiple of RowSize*Banks
	Banks   int   // number of interleaved banks
	RowSize int64 // bytes per row; also the bank-interleave granularity

	// Read timing: latency to return data for an access hitting the open
	// row, the bank occupancy of such an access (the CAS-to-CAS interval,
	// shorter than the latency, so independent page-mode reads pipeline),
	// latency for a row miss, and how long a row miss occupies the bank
	// (precharge + activate + access + restore).
	ReadRowHit   sim.Time
	ReadHitOcc   sim.Time
	ReadRowMiss  sim.Time
	ReadMissBusy sim.Time

	// Write timing: the analogous parameters. A row-hit write is cheap
	// (CAS-only page-mode write); a row-miss write pays the full access.
	WriteRowHit   sim.Time
	WriteRowMiss  sim.Time
	WriteMissBusy sim.Time

	// ECCPenalty is the extra latency a read pays per word the SECDED
	// pipe corrects: the data must make a second trip through the
	// correction network before it can be forwarded. Charged only when
	// a correction actually fires, so fault-free runs are unaffected.
	ECCPenalty sim.Time
}

// T3DNodeConfig returns the memory parameters of a T3D node as measured in
// §2 of the paper: no L2 cache, 4 banks, 16 KB DRAM pages, a 22-cycle
// (145 ns) full access, +9 cycles off-page, and a 40-cycle bank cycle time
// (the 264 ns worst case at 64 KB strides).
func T3DNodeConfig(size int64) Config {
	return Config{
		Size:    size,
		Banks:   4,
		RowSize: 16 << 10,

		ReadRowHit:   22,
		ReadHitOcc:   5,
		ReadRowMiss:  31,
		ReadMissBusy: 40,

		WriteRowHit:   5,
		WriteRowMiss:  31,
		WriteMissBusy: 40,

		ECCPenalty: 7,
	}
}

// WorkstationConfig returns main-memory parameters for the DEC Alpha
// workstation of Figure 1: a 300 ns (45-cycle) access behind the L2 cache.
func WorkstationConfig(size int64) Config {
	return Config{
		Size:    size,
		Banks:   2,
		RowSize: 8 << 10,

		ReadRowHit:   45,
		ReadHitOcc:   20,
		ReadRowMiss:  52,
		ReadMissBusy: 60,

		WriteRowHit:   12,
		WriteRowMiss:  52,
		WriteMissBusy: 60,

		ECCPenalty: 10,
	}
}

// PageSize is the granularity of the host-side store: the unit a first
// write allocates and an Image carries. It has nothing to do with the
// DRAM rows of Config.
const (
	pageShift = 12
	PageSize  = 1 << pageShift
	pageMask  = PageSize - 1
)

type page [PageSize]byte

// DRAM is a banked page-mode memory holding real data.
type DRAM struct {
	cfg Config
	// pages holds one slot per PageSize bytes up to the highest page
	// written; a nil slot, or a page past the end, reads as zero.
	pages []*page
	banks []bank

	// SECDED state (ecc.go): the fault table maps word-aligned offsets
	// to their flipped-bit masks; ecc arms correction/detection.
	ecc    bool
	faults map[int64]*wordFault
	integ  IntegrityStats
}

type bank struct {
	openRow   int64    // row id currently open; -1 initially
	freeAt    sim.Time // when the open row can accept another CAS access
	cycleDone sim.Time // when a new row activation (row miss) may begin
}

// New returns a DRAM with the given configuration. All bytes are zero and
// all rows closed.
func New(cfg Config) *DRAM {
	if cfg.Size <= 0 || cfg.Banks <= 0 || cfg.RowSize <= 0 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	if cfg.Size%(cfg.RowSize*int64(cfg.Banks)) != 0 {
		panic(fmt.Sprintf("mem: size %d not a multiple of RowSize*Banks", cfg.Size))
	}
	d := &DRAM{cfg: cfg, banks: make([]bank, cfg.Banks)}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	return d
}

// Image is a DRAM's data as the set of pages present in it: Pages
// lists their numbers in ascending order and Data holds their bytes
// back to back, PageSize per page. A page it does not list reads as
// zero. Size is the byte size of the DRAM the image belongs to.
type Image struct {
	Size  int64
	Pages []int
	Data  []byte
}

// Validate reports why img is not an image of a Size-byte DRAM, or nil:
// its data must hold exactly one page per listed page number, and the
// numbers must ascend without repeats and stay inside the memory.
func (img *Image) Validate() error {
	if want := len(img.Pages) * PageSize; len(img.Data) != want {
		return fmt.Errorf("mem: image lists %d pages but holds %d bytes, want %d", len(img.Pages), len(img.Data), want)
	}
	limit := (img.Size + pageMask) >> pageShift
	prev := -1
	for _, pg := range img.Pages {
		switch {
		case pg < 0 || int64(pg) >= limit:
			return fmt.Errorf("mem: image page %d outside a %d-byte memory", pg, img.Size)
		case pg == prev:
			return fmt.Errorf("mem: image repeats page %d", pg)
		case pg < prev:
			return fmt.Errorf("mem: image page %d out of order after page %d", pg, prev)
		}
		prev = pg
	}
	return nil
}

// Snapshot copies the pages present in memory into img, reusing its
// buffers — the checkpoint primitive for rollback recovery. Only data
// is captured; bank timing state is transient and reconverges within
// one access.
func (d *DRAM) Snapshot(img *Image) {
	img.Size = d.cfg.Size
	img.Pages, img.Data = img.Pages[:0], img.Data[:0]
	for i, pg := range d.pages {
		if pg != nil {
			img.Pages = append(img.Pages, i)
			img.Data = append(img.Data, pg[:]...)
		}
	}
}

// Restore makes memory hold exactly img: its pages are copied in, into
// the pages memory already holds where it can, and every page it does
// not list goes back to unallocated. Every latent fault is overwritten
// with it — the property that lets a rollback clear poison the same way
// it clears any other corruption.
func (d *DRAM) Restore(img *Image) {
	if img.Size != d.cfg.Size {
		panic(fmt.Sprintf("mem: Restore image of a %d-byte memory into %d bytes", img.Size, d.cfg.Size))
	}
	if err := img.Validate(); err != nil {
		panic(err)
	}
	next := 0
	for i := range d.pages {
		if next < len(img.Pages) && img.Pages[next] == i {
			next++
		} else {
			d.pages[i] = nil
		}
	}
	for k, pg := range img.Pages {
		copy(d.pageAt(int64(pg) * PageSize)[:], img.Data[k*PageSize:])
	}
	d.clearAllFaults()
}

// Zero clears all memory — the fail-stop model of a node whose volatile
// state is lost in a crash. Latent faults are lost with it.
func (d *DRAM) Zero() {
	clear(d.pages)
	d.clearAllFaults()
}

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

// Size returns the memory size in bytes.
func (d *DRAM) Size() int64 { return d.cfg.Size }

// rowOf returns the globally unique row id for addr. Rows rotate across
// banks, so row id modulo Banks identifies the bank.
func (d *DRAM) rowOf(addr int64) int64 { return addr / d.cfg.RowSize }

// BankOf returns the bank index serving addr.
func (d *DRAM) BankOf(addr int64) int { return int(d.rowOf(addr) % int64(d.cfg.Banks)) }

func (d *DRAM) access(start sim.Time, addr int64, hitLat, hitOcc, missLat, missBusy sim.Time) (serviceStart, complete sim.Time, rowHit bool) {
	if addr < 0 || addr >= d.cfg.Size {
		panic(fmt.Sprintf("mem: access to %#x outside %d-byte memory", addr, d.cfg.Size))
	}
	row := d.rowOf(addr)
	b := &d.banks[row%int64(d.cfg.Banks)]
	if row == b.openRow {
		s := start
		if b.freeAt > s {
			s = b.freeAt
		}
		complete = s + hitLat
		b.freeAt = s + hitOcc
		if complete > b.cycleDone {
			b.cycleDone = complete
		}
		return s, complete, true
	}
	// Row miss: must wait for the previous full bank cycle (precharge)
	// before activating the new row.
	s := start
	if b.cycleDone > s {
		s = b.cycleDone
	}
	complete = s + missLat
	b.freeAt = complete
	b.cycleDone = s + missBusy
	b.openRow = row
	return s, complete, false
}

// ReadAccess models the timing of one read transaction (of any size up to
// a cache line) starting no earlier than start. It returns the completion
// time and whether the access hit the bank's open row.
func (d *DRAM) ReadAccess(start sim.Time, addr int64) (complete sim.Time, rowHit bool) {
	_, complete, rowHit = d.access(start, addr, d.cfg.ReadRowHit, d.cfg.ReadHitOcc, d.cfg.ReadRowMiss, d.cfg.ReadMissBusy)
	return complete, rowHit
}

// ReadAccessTimes is ReadAccess exposing also the bank service-start time:
// the instant the array is actually sampled, which is when readers must
// latch data to order correctly against concurrent writes.
func (d *DRAM) ReadAccessTimes(start sim.Time, addr int64) (serviceStart, complete sim.Time, rowHit bool) {
	return d.access(start, addr, d.cfg.ReadRowHit, d.cfg.ReadHitOcc, d.cfg.ReadRowMiss, d.cfg.ReadMissBusy)
}

// WriteAccess models the timing of one write transaction (a drained write
// buffer entry, up to a cache line wide).
func (d *DRAM) WriteAccess(start sim.Time, addr int64) (complete sim.Time, rowHit bool) {
	_, complete, rowHit = d.access(start, addr, d.cfg.WriteRowHit, d.cfg.WriteRowHit, d.cfg.WriteRowMiss, d.cfg.WriteMissBusy)
	return complete, rowHit
}

// Read copies len(p) bytes starting at addr into p. This is the raw
// host-window path: with ECC armed it still repairs single-bit faults
// in passing (the array read goes through the correction network), but
// it cannot signal poison — an uncorrectable word read here counts as a
// silent read. Simulated-machine paths use ReadChecked instead.
func (d *DRAM) Read(addr int64, p []byte) {
	d.checkRange(addr, len(p))
	if len(d.faults) > 0 {
		d.sweepRange(addr, int64(len(p)), false)
	}
	d.copyOut(addr, p)
}

// Write copies p into memory starting at addr.
func (d *DRAM) Write(addr int64, p []byte) {
	d.checkRange(addr, len(p))
	d.clearOnWrite(addr, int64(len(p)))
	d.copyIn(addr, p)
}

// Read64 returns the little-endian 64-bit word at addr (raw host
// window; see Read).
func (d *DRAM) Read64(addr int64) uint64 {
	d.checkRange(addr, 8)
	if len(d.faults) > 0 {
		d.sweepRange(addr, 8, false)
	}
	return d.load64(addr)
}

// Write64 stores v as a little-endian 64-bit word at addr.
func (d *DRAM) Write64(addr int64, v uint64) {
	d.checkRange(addr, 8)
	d.clearOnWrite(addr, 8)
	d.store64(addr, v)
}

// Read32 returns the little-endian 32-bit word at addr (raw host
// window; see Read).
func (d *DRAM) Read32(addr int64) uint32 {
	var b [4]byte
	d.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores v as a little-endian 32-bit word at addr.
func (d *DRAM) Write32(addr int64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.Write(addr, b[:])
}

func (d *DRAM) checkRange(addr int64, n int) {
	if addr < 0 || addr+int64(n) > d.cfg.Size {
		panic(fmt.Sprintf("mem: data access [%#x,%#x) outside %d-byte memory", addr, addr+int64(n), d.cfg.Size))
	}
}

// pageAt returns the page holding addr, allocating it on first touch
// and growing the table to reach it. Only write paths call it.
func (d *DRAM) pageAt(addr int64) *page {
	i := int(addr >> pageShift)
	if i >= len(d.pages) {
		d.pages = append(d.pages, make([]*page, i+1-len(d.pages))...)
	}
	pg := d.pages[i]
	if pg == nil {
		pg = new(page)
		d.pages[i] = pg
	}
	return pg
}

// present returns the page holding addr, or nil if it is missing. Read
// paths call it, so a read never allocates or grows the table.
func (d *DRAM) present(addr int64) *page {
	if i := addr >> pageShift; i < int64(len(d.pages)) {
		return d.pages[i]
	}
	return nil
}

// copyOut copies memory starting at addr into p, page by page; a
// missing page reads as zeros and stays missing.
func (d *DRAM) copyOut(addr int64, p []byte) {
	for len(p) > 0 {
		off := addr & pageMask
		var n int
		if pg := d.present(addr); pg != nil {
			n = copy(p, pg[off:])
		} else {
			n = min(len(p), int(PageSize-off))
			clear(p[:n])
		}
		p = p[n:]
		addr += int64(n)
	}
}

// copyIn copies p into memory starting at addr, page by page.
func (d *DRAM) copyIn(addr int64, p []byte) {
	for len(p) > 0 {
		n := copy(d.pageAt(addr)[addr&pageMask:], p)
		p = p[n:]
		addr += int64(n)
	}
}

// load64 and store64 move one little-endian word. A word inside one
// page takes the direct path; one straddling two pages (an unaligned
// address) goes through a byte copy.
func (d *DRAM) load64(addr int64) uint64 {
	if off := addr & pageMask; off <= PageSize-8 {
		if pg := d.present(addr); pg != nil {
			return binary.LittleEndian.Uint64(pg[off:])
		}
		return 0
	}
	var b [8]byte
	d.copyOut(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *DRAM) store64(addr int64, v uint64) {
	if off := addr & pageMask; off <= PageSize-8 {
		binary.LittleEndian.PutUint64(d.pageAt(addr)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.copyIn(addr, b[:])
}
