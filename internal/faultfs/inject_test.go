package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// Injected reports how many operations have had a fault injected.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

func openWrite(t *testing.T, fs FS, path string, data []byte) (int, error) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	return f.Write(data)
}

// TestNthOpFault: a rule with After/Count fires on exactly the scripted
// window of matching operations and passes everything else through.
func TestNthOpFault(t *testing.T) {
	dir := t.TempDir()
	in := New(Disk, 1)
	in.Arm(Rule{Op: OpWrite, After: 2, Count: 2, Err: syscall.ENOSPC})
	path := filepath.Join(dir, "f")
	for i := 0; i < 6; i++ {
		_, err := openWrite(t, in, path, []byte("x"))
		wantFault := i == 2 || i == 3
		if wantFault && !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d: got %v, want ENOSPC", i, err)
		}
		if !wantFault && err != nil {
			t.Fatalf("write %d: unexpected error %v", i, err)
		}
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "xxxx" {
		t.Fatalf("file holds %q, want the 4 successful writes", data)
	}
}

// TestPathAndOpMatching: rules only hit operations whose op and path match.
func TestPathAndOpMatching(t *testing.T) {
	dir := t.TempDir()
	in := New(Disk, 1)
	in.Arm(Rule{Op: OpSync, Path: "wal-", Err: syscall.EIO})
	wal := filepath.Join(dir, "wal-0001.log")
	snap := filepath.Join(dir, "snap-0001.snap")
	for _, tc := range []struct {
		path    string
		wantEIO bool
	}{{wal, true}, {snap, false}} {
		f, err := in.OpenFile(tc.path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		err = f.Sync()
		f.Close()
		if tc.wantEIO != errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %s: err=%v, wantEIO=%v", tc.path, err, tc.wantEIO)
		}
	}
}

// TestTornWrite: Short passes a prefix to the disk then fails, leaving the
// partial frame a real crash would.
func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := New(Disk, 1)
	in.Arm(Rule{Op: OpWrite, Short: 3, Err: syscall.EIO})
	path := filepath.Join(dir, "f")
	n, err := openWrite(t, in, path, []byte("abcdef"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error = %v, want EIO", err)
	}
	if n != 3 {
		t.Fatalf("torn write reported %d bytes, want 3", n)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "abc" {
		t.Fatalf("file holds %q, want the torn prefix \"abc\"", data)
	}
}

// TestClearHeals: after Clear, every operation passes again — the fault has
// "cleared" and the healing path can make progress.
func TestClearHeals(t *testing.T) {
	dir := t.TempDir()
	in := New(Disk, 1)
	in.Arm(Rule{Op: OpAny, Err: syscall.ENOSPC})
	if _, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("armed any-op rule let an open through: %v", err)
	}
	in.Clear()
	if _, err := openWrite(t, in, filepath.Join(dir, "f"), []byte("x")); err != nil {
		t.Fatalf("cleared injector still failing: %v", err)
	}
}

// TestSeededProbDeterminism: the probabilistic stream is a pure function of
// the seed and the operation sequence.
func TestSeededProbDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		dir := t.TempDir()
		in := New(Disk, seed)
		in.Arm(Rule{Op: OpWrite, Prob: 0.5, Err: syscall.EIO})
		var fired []bool
		for i := 0; i < 32; i++ {
			_, err := openWrite(t, in, filepath.Join(dir, "f"), []byte("x"))
			fired = append(fired, err != nil)
		}
		return fired
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault streams")
	}
}

// TestRenameRemoveFaults cover the two non-file ops.
func TestRenameRemoveFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New(Disk, 1)
	in.Arm(Rule{Op: OpRename, Err: syscall.EIO}, Rule{Op: OpRemove, Err: syscall.ENOSPC})
	if err := in.Rename(path, filepath.Join(dir, "b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename err = %v, want EIO", err)
	}
	if err := in.Remove(path); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("remove err = %v, want ENOSPC", err)
	}
	in.Clear()
	if err := in.Remove(path); err != nil {
		t.Fatalf("remove after clear: %v", err)
	}
}

// TestParseScript round-trips the DSL and rejects malformed scripts.
func TestParseScript(t *testing.T) {
	rules, err := ParseScript("op=sync,err=enospc,after=10,count=5;op=write,path=wal-,err=eio,short=8,prob=0.25,delay=15ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	r0, r1 := rules[0], rules[1]
	if r0.Op != OpSync || !errors.Is(r0.Err, syscall.ENOSPC) || r0.After != 10 || r0.Count != 5 {
		t.Fatalf("rule 0 = %+v", r0)
	}
	if r1.Op != OpWrite || r1.Path != "wal-" || !errors.Is(r1.Err, syscall.EIO) ||
		r1.Short != 8 || r1.Prob != 0.25 || r1.Delay != 15*time.Millisecond {
		t.Fatalf("rule 1 = %+v", r1)
	}
	for _, bad := range []string{"", "op=sync err=eio", "op=flush", "err=eperm", "prob=1.5", "frequency=2"} {
		if _, err := ParseScript(bad); err == nil {
			t.Fatalf("script %q parsed without error", bad)
		}
	}
}

// TestDelayOnly: err=none rules add latency without failing the op.
func TestDelayOnly(t *testing.T) {
	dir := t.TempDir()
	in := New(Disk, 1)
	in.Arm(Rule{Op: OpWrite, Delay: 30 * time.Millisecond})
	start := time.Now()
	if _, err := openWrite(t, in, filepath.Join(dir, "f"), []byte("x")); err != nil {
		t.Fatalf("delay-only rule failed the op: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delay rule added only %v", elapsed)
	}
}
