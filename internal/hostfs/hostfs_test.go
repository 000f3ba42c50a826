package hostfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip: the passthrough FS behaves like the os package for
// the journal's op set.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	path := filepath.Join(dir, "a.txt")
	if err := WriteFile(fsys, path, []byte("hello\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(fsys, path)
	if err != nil || string(got) != "hello\n" {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	if err := fsys.Rename(path, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil || len(names) != 1 || names[0] != "b.txt" {
		t.Fatalf("ReadDir: %v, %v", names, err)
	}
	if err := fsys.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

// faultScript runs a fixed op sequence against a fresh Fault FS and
// returns which write indices failed (and how).
func faultScript(t *testing.T, cfg FaultConfig) (failures []string, stats FaultStats) {
	t.Helper()
	dir := t.TempDir()
	fsys := NewFault(OS(), cfg)
	f, err := fsys.OpenFile(filepath.Join(dir, "w"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	buf := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 200; i++ {
		if _, err := f.Write(buf); err != nil {
			failures = append(failures, "w"+errKind(err))
		} else {
			failures = append(failures, "ok")
		}
		if err := f.Sync(); err != nil {
			failures = append(failures, "s"+errKind(err))
		}
	}
	return failures, fsys.Stats()
}

func errKind(err error) string {
	switch {
	case errors.Is(err, ErrNoSpace):
		return "nospace"
	case errors.Is(err, ErrInjectedIO):
		return "eio"
	}
	return "other"
}

// TestFaultDeterminism: the same seed replays the identical fault
// sequence — the extF/extI discipline applied to the disk.
func TestFaultDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 0xfeed, WriteErrRate: 0.1, ShortWriteRate: 0.05, SyncErrRate: 0.08}
	a, astats := faultScript(t, cfg)
	b, bstats := faultScript(t, cfg)
	if len(a) != len(b) {
		t.Fatalf("fault sequences diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at op %d: %q vs %q", i, a[i], b[i])
		}
	}
	if astats != bstats {
		t.Fatalf("fault stats diverge: %+v vs %+v", astats, bstats)
	}
	if astats.WriteErrs == 0 || astats.ShortWrites == 0 || astats.SyncErrs == 0 {
		t.Fatalf("expected every configured fault kind to fire over 200 ops: %+v", astats)
	}

	other, _ := faultScript(t, FaultConfig{Seed: 0xbeef, WriteErrRate: 0.1, ShortWriteRate: 0.05, SyncErrRate: 0.08})
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestFaultWriteBudget: the crossing write lands only the remaining
// prefix and fails ErrNoSpace; Heal lifts the budget.
func TestFaultWriteBudget(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFault(OS(), FaultConfig{WriteBudget: 10})
	path := filepath.Join(dir, "w")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("crossing write err = %v, want ErrNoSpace", err)
	}
	if n != 2 {
		t.Fatalf("crossing write landed %d bytes, want 2", n)
	}
	if _, err := f.Write([]byte("z")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("post-budget write err = %v, want ErrNoSpace", err)
	}
	fsys.Heal()
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
	f.Close()
	got, err := ReadFile(fsys, path)
	if err != nil || string(got) != "12345678abz" {
		t.Fatalf("file contents %q, %v; want torn prefix then healed write", got, err)
	}
}

// TestFaultBrokenModes: BrokenEIO kills writes, syncs, and metadata
// ops; BrokenENOSPC kills writes only; SetBroken(Healthy) restores.
func TestFaultBrokenModes(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFault(OS(), FaultConfig{})
	path := filepath.Join(dir, "w")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fsys.SetBroken(BrokenEIO)
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("broken-eio write err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("broken-eio sync err = %v", err)
	}
	if err := fsys.Rename(path, path+"2"); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("broken-eio rename err = %v", err)
	}

	fsys.SetBroken(BrokenENOSPC)
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("broken-enospc write err = %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("broken-enospc sync err = %v, want nil", err)
	}

	fsys.SetBroken(Healthy)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("healed write err = %v", err)
	}
}

// TestRecorderReplay: the mutation log replays to the exact byte state
// at every prefix, including torn writes and rename/remove effects.
func TestRecorderReplay(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(OS())
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")

	f, err := rec.OpenFile(a, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite := func(s string) {
		t.Helper()
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("hello ")
	mustWrite("world")
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := rec.Rename(a, b); err != nil {
		t.Fatal(err)
	}

	ops := rec.Ops()
	// Full replay matches the real file.
	files, err := Replay(ops, len(ops), -1)
	if err != nil {
		t.Fatal(err)
	}
	real, _ := os.ReadFile(b)
	if !bytes.Equal(files[b], real) {
		t.Fatalf("full replay %q != on-disk %q", files[b], real)
	}
	if _, alive := files[a]; alive {
		t.Fatal("renamed-away path still alive after full replay")
	}

	// Tear the second write after 3 bytes: open, write1, sync1 applied,
	// then "wor".
	files, err = Replay(ops, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(files[a]); got != "hello wor" {
		t.Fatalf("torn replay = %q, want %q", got, "hello wor")
	}

	// Materialize into a fresh dir.
	dir2 := t.TempDir()
	remap := func(p string) string { return filepath.Join(dir2, filepath.Base(p)) }
	if err := Materialize(OS(), files, remap); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir2, "a"))
	if string(got) != "hello wor" {
		t.Fatalf("materialized %q, want %q", got, "hello wor")
	}
}
