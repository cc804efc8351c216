package store

// Fault-injection tests for the health state machine and the self-healing
// loop: the store must degrade (not wedge forever, not ack-and-lose) under
// disk faults, keep serving reads from memory, and converge back to healthy
// once the fault clears — with the recovered on-disk state byte-identical to
// the durable prefix.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/faultfs"
	"github.com/rankregret/rankregret/internal/obs/obstest"
)

// waitHealthy polls until the healer brings the store back, or fails the
// test after a generous deadline.
func waitHealthy(t *testing.T, st *Store) Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h := st.Status().Health; h.State == HealthHealthy {
			return h
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("store did not heal: %+v", st.Status().Health)
	return Health{}
}

// TestDegradeServeHeal walks the full state machine: a one-shot fsync fault
// degrades the store, reads keep working throughout, mutations are rejected
// with ErrDegraded, and once the fault clears the healer restores healthy —
// after which mutations commit and a crash-copy recovers everything acked.
func TestDegradeServeHeal(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.Disk, 1)
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1, FS: inj, HealBackoff: 2 * time.Millisecond})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 3, 6, 0.2), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2, 0.3}}, 4); err != nil {
		t.Fatal(err)
	}
	want := digest(st)

	// One fsync fails — a transient device hiccup — then the disk is fine.
	inj.Arm(faultfs.Rule{Op: faultfs.OpSync, Path: segPrefix, Count: 1, Err: syscall.ENOSPC})
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.4, 0.5, 0.6}}, 4); err == nil {
		t.Fatal("append through a failing fsync was acked")
	}

	// Degraded: reads serve from memory, mutations bounce with ErrDegraded.
	if h := st.Status().Health; h.State != HealthDegraded || h.Reason != ReasonWALFailed || h.Since.IsZero() {
		t.Fatalf("health after fsync fault = %+v", h)
	}
	if got := digest(st); got != want {
		t.Fatalf("degraded store changed observable state:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.7, 0.8, 0.9}}, 4); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded mutation error = %v, want ErrDegraded", err)
	}

	h := waitHealthy(t, st)
	if h.HealSuccesses < 1 || h.HealAttempts < h.HealSuccesses {
		t.Fatalf("heal counters after recovery = %+v", h)
	}
	if s := st.Summary(); s.State != HealthHealthy || s.Reason != "" {
		t.Fatalf("summary after heal = %+v", s)
	}

	// Healed: mutations commit again, and everything acked — before the
	// fault and after the heal — survives a crash.
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{1.0, 1.1, 1.2}}, 4); err != nil {
		t.Fatalf("mutation after heal: %v", err)
	}
	want = digest(st)
	back := openTest(t, copyDir(t, dir), Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("recovery after heal diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if rec := back.Recovery(); rec.TornTail || rec.SegmentGap {
		t.Fatalf("heal left damage visible to recovery: %+v", rec)
	}
}

// TestSnapshotENOSPCDegradesAndHeals is the background-snapshot fault path:
// ENOSPC while persisting an automatic snapshot must surface as
// snapshot_error and degrade the store, and the healer must retry on its
// backoff schedule — not wait for a record threshold a mutation-rejecting
// store can never reach. Recovery leaves no tmp debris and no goroutines.
func TestSnapshotENOSPCDegradesAndHeals(t *testing.T) {
	obstest.ExpectNoGoroutineLeak(t, 3)
	dir := t.TempDir()
	inj := faultfs.New(faultfs.Disk, 1)
	// The first two snapshot persists hit ENOSPC (the automatic one and the
	// healer's first re-sync attempt); the third lands.
	inj.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: snapPrefix, Count: 2, Err: syscall.ENOSPC})
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: 3, FS: inj, HealBackoff: 2 * time.Millisecond})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 5, 0.3), 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1 * float64(i), 0.2}}, 4); err != nil {
			// The threshold snapshot runs in the background; a mutation racing
			// the degrade may already see ErrDegraded. Both are in-contract.
			if !errors.Is(err, ErrDegraded) {
				t.Fatal(err)
			}
			break
		}
	}

	// Wait for a completed degrade->heal cycle, not just a healthy reading —
	// the automatic snapshot fails in the background, so the store may still
	// be healthy for a moment after the last ack.
	var h Health
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h = st.Status().Health; h.State == HealthHealthy && h.HealSuccesses >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Two failed persists (ENOSPC) force at least a second heal attempt —
	// proof the retry comes from the backoff loop, not the next threshold.
	if h.State != HealthHealthy || h.HealAttempts < 2 || h.HealSuccesses < 1 {
		t.Fatalf("heal counters = %+v, want healthy with >=2 attempts via backoff", h)
	}
	if s := st.Summary(); s.SnapshotError != "" {
		t.Fatalf("snapshot_error still set after heal: %q", s.SnapshotError)
	}

	// The failed persists must not leak tmp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), snapTmpSuffix) {
			t.Fatalf("stale snapshot tmp left behind: %s", e.Name())
		}
	}

	if err := st.Close(); err != nil {
		t.Fatalf("close after heal: %v", err)
	}
	// The obstest leak check registered at the top verifies (after cleanups)
	// that no goroutine survived the degrade/heal/close cycle.
}

// TestTornWriteHeals: a torn append (prefix reaches the disk, then the
// device fails) leaves a partial frame mid-segment. The heal must make later
// acks durable despite replay stopping at the tear — via the re-sync
// snapshot past the damaged segment.
func TestTornWriteHeals(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.Disk, 1)
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1, FS: inj, HealBackoff: 2 * time.Millisecond})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.4), 4); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: segPrefix, Count: 1, Short: 5, Err: syscall.EIO})
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}}, 4); err == nil {
		t.Fatal("torn append was acked")
	}
	waitHealthy(t, st)
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.3, 0.4}}, 4); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	want := digest(st)
	back := openTest(t, copyDir(t, dir), Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("post-heal ack lost across crash:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCompactCutFailureDegrades: a forced snapshot whose cut cannot open
// the next segment leaves the WAL writer without a segment. The store must
// degrade (wal_failed) and reject mutations with ErrDegraded rather than
// stay healthy over a closed file, and the healer must restore it once the
// fault clears, with everything acked recoverable.
func TestCompactCutFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.Disk, 1)
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1, FS: inj, HealBackoff: 2 * time.Millisecond})
	mutateSome(t, st, 4)
	want := digest(st)

	// Segment opens fail until the fault clears: the cut's rotation first,
	// then every heal attempt, so the degraded state holds still for the
	// checks below.
	inj.Arm(faultfs.Rule{Op: faultfs.OpOpen, Path: segPrefix, Err: syscall.ENOSPC})
	if err := st.Compact(); err == nil {
		t.Fatal("Compact over a failing segment open succeeded")
	}
	if h := st.Status().Health; h.State != HealthDegraded || h.Reason != ReasonWALFailed {
		t.Fatalf("health after a failed forced cut = %+v, want degraded/%s", h, ReasonWALFailed)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "alpha", [][]float64{{0.7, 0.8, 0.9}}, 4); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after a failed forced cut = %v, want ErrDegraded", err)
	}
	if got := digest(st); got != want {
		t.Fatalf("failed cut changed observable state:\ngot:\n%s\nwant:\n%s", got, want)
	}

	inj.Clear()
	waitHealthy(t, st)
	if _, err := st.AppendRowsCtx(t.Context(), "alpha", [][]float64{{0.7, 0.8, 0.9}}, 4); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	want = digest(st)
	back := openTest(t, copyDir(t, dir), Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("recovery after a healed forced cut diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBootSnapshotCutFailureDegrades: an optional boot snapshot (a long
// clean replay) whose cut fails opens the store degraded (wal_failed), not
// healthy over a closed segment; the healer restores it once the fault
// clears.
func TestBootSnapshotCutFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1})
	mutateSome(t, st, 4)
	want := digest(st)
	img := copyDir(t, dir) // never closed: recovery replays the whole WAL

	inj := faultfs.New(faultfs.Disk, 1)
	// The boot's fresh segment opens; the boot snapshot's cut and every heal
	// attempt fail until the fault clears.
	inj.Arm(faultfs.Rule{Op: faultfs.OpOpen, Path: segPrefix, After: 1, Err: syscall.ENOSPC})
	back := openTest(t, img, Options{Sync: SyncAlways, Retain: 4, SnapshotEvery: 2, FS: inj, HealBackoff: 2 * time.Millisecond})
	if h := back.Status().Health; h.State != HealthDegraded || h.Reason != ReasonWALFailed {
		t.Fatalf("health after a failed boot cut = %+v, want degraded/%s", h, ReasonWALFailed)
	}
	if got := digest(back); got != want {
		t.Fatalf("recovery diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}

	inj.Clear()
	waitHealthy(t, back)
	if _, err := back.AppendRowsCtx(t.Context(), "alpha", [][]float64{{0.7, 0.8, 0.9}}, 4); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	want = digest(back)
	again := openTest(t, copyDir(t, img), Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(again); got != want {
		t.Fatalf("recovery after a healed boot cut diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSweepStaleSnapshotTmp: Open removes crash debris matching the
// snapshot tmp naming scheme and leaves foreign files alone.
func TestSweepStaleSnapshotTmp(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, snapshotName(42)+snapTmpSuffix)
	foreign := filepath.Join(dir, "notes.tmp")
	for _, p := range []string{stale, foreign} {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openTest(t, dir, Options{Sync: SyncNever})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot tmp not swept (err=%v)", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign .tmp file touched by sweep: %v", err)
	}
}
