package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/faultfs"
)

// copyDir clones the store files of src into a fresh temp dir, skipping
// files that vanish mid-copy (concurrent pruning).
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// buildCorpus drives a deterministic event sequence against a single-segment
// store and records, after every event, the registry digest and the
// segment's byte length — the durable-prefix boundary a crash at any later
// byte must recover to.
func buildCorpus(t *testing.T) (segPath string, boundaries []int64, digests []string) {
	t.Helper()
	dir := t.TempDir()
	// One huge segment, no automatic snapshots: every crash point replays
	// from the log alone, which is the path under test.
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1, SegmentBytes: 1 << 30})
	segPath = filepath.Join(dir, segmentName(st.Status().SegmentSeq))

	record := func() {
		info, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, info.Size())
		digests = append(digests, digest(st))
	}
	record() // state 0: empty registry, bare segment header

	step := 0
	apply := func(f func() error) {
		t.Helper()
		step++
		if err := f(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		record()
	}
	ctx := t.Context()
	apply(func() error { return st.RegisterCtx(ctx, "a", makeDS(t, 2, 5, 0.1), 4) })
	apply(func() error { _, err := st.AppendRowsCtx(ctx, "a", [][]float64{{0.3, 0.7}}, 4); return err })
	apply(func() error { _, err := st.AppendRowsCtx(ctx, "a", [][]float64{{0.9, 0.1}, {0.2, 0.8}}, 4); return err })
	apply(func() error { return st.RegisterCtx(ctx, "b", makeDS(t, 3, 4, 0.6), 4) })
	apply(func() error { _, err := st.DeleteRowsCtx(ctx, "a", []int{1, 3}, 4); return err })
	apply(func() error { _, err := st.AppendRowsCtx(ctx, "b", [][]float64{{0.1, 0.2, 0.3}}, 4); return err })
	apply(func() error { return st.DropCtx(ctx, "b") })
	apply(func() error { _, err := st.DeleteRowsCtx(ctx, "a", []int{0}, 4); return err })
	// No Close: the segment must stay exactly as the workload left it.
	return segPath, boundaries, digests
}

// expectedAt returns the digest of the longest durable prefix visible in a
// segment truncated (or first-corrupted) at off.
func expectedAt(boundaries []int64, digests []string, off int64) string {
	want := digests[0]
	for i, b := range boundaries {
		if b <= off {
			want = digests[i]
		}
	}
	return want
}

// TestWALTruncationCorpus is the satellite crash corpus: the WAL cut at
// EVERY byte boundary of the log must recover exactly to the last record
// that fully fits — never panic, never half-apply, never report torn state
// for a clean cut at a record boundary as data loss beyond that record.
func TestWALTruncationCorpus(t *testing.T) {
	segPath, boundaries, digests := buildCorpus(t)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(data))
	if total != boundaries[len(boundaries)-1] {
		t.Fatalf("corpus out of sync: file %d bytes, last boundary %d", total, boundaries[len(boundaries)-1])
	}
	// Every byte from the first post-header position through the full file.
	for cut := int64(len(segMagic)); cut <= total; cut++ {
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(segPath)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: crash, Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		want := expectedAt(boundaries, digests, cut)
		got := digest(st)
		rec := st.Recovery()
		st.Close()
		if got != want {
			t.Fatalf("cut %d of %d: recovered\n%s\nwant\n%s", cut, total, got, want)
		}
		// A cut exactly on a record boundary looks like a clean shorter log;
		// anything else must be reported torn.
		onBoundary := false
		for _, b := range boundaries {
			if b == cut {
				onBoundary = true
			}
		}
		if !onBoundary && !rec.TornTail {
			t.Fatalf("cut %d: mid-record truncation not reported torn (%+v)", cut, rec)
		}
		if rec.RecordsSkipped != 0 {
			t.Fatalf("cut %d: %d records skipped; truncation must never skip", cut, rec.RecordsSkipped)
		}
	}
}

// TestWALCorruptionCorpus flips every byte of the final record in turn: the
// checksum must catch each one and recovery must land on the prefix before
// that record.
func TestWALCorruptionCorpus(t *testing.T) {
	segPath, boundaries, digests := buildCorpus(t)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := boundaries[len(boundaries)-2]
	want := digests[len(digests)-2]
	for off := lastStart; off < int64(len(data)); off++ {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x5a
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(segPath)), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: crash, Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("corrupt byte %d: open: %v", off, err)
		}
		got := digest(st)
		rec := st.Recovery()
		st.Close()
		// A length-field corruption can make the final record look longer
		// than the file (torn) or shorter with a failing CRC — either way
		// the durable prefix before it must survive untouched.
		if got != want {
			t.Fatalf("corrupt byte %d: recovered\n%s\nwant\n%s", off, got, want)
		}
		if !rec.TornTail {
			t.Fatalf("corrupt byte %d: corruption not reported (%+v)", off, rec)
		}
	}
}

// TestWALWedgesAfterWriteFailure is the durability-contract guard: once an
// append fails, the segment may hold a partial frame, so the writer must
// refuse every later append — a record written after garbage would be acked
// and then silently discarded by replay. The store surfaces that as the
// degraded state; while the fault persists (heal attempts keep failing too),
// mutations stay rejected and state already durable stays recoverable.
func TestWALWedgesAfterWriteFailure(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.Disk, 1)
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1, FS: inj, HealBackoff: 2 * time.Millisecond})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}}, 4); err != nil {
		t.Fatal(err)
	}
	want := digest(st)
	// The disk goes away and stays away: every WAL write fails from here on,
	// including the heal loop's attempts to open a fresh segment.
	inj.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: segPrefix, Err: syscall.EIO})
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.3, 0.4}}, 4); err == nil {
		t.Fatal("append with a broken WAL succeeded")
	}
	// Wedged and degraded: later mutations must keep failing rather than
	// append after whatever the failed write left behind.
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.5, 0.6}}, 4); err == nil ||
		!errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "refusing further writes") {
		t.Fatalf("writer not wedged after failure: %v", err)
	}
	if h := st.Status().Health; h.State != HealthDegraded || h.Reason != ReasonWALFailed {
		t.Fatalf("health = %+v, want degraded/%s", h, ReasonWALFailed)
	}
	// The failed mutations were never published...
	if got := digest(st); got != want {
		t.Fatalf("failed mutations changed live state:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// ...and everything acked before the failure recovers. The copy races
	// heal attempts that create-and-remove husk segments, which copyDir
	// tolerates; an occasionally caught magicless husk is exactly a torn
	// tail, which recovery already handles.
	back := openTest(t, copyDir(t, dir), Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("recovery after wedge diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSegmentGapStopsReplay: the writer produces contiguous segment
// sequences, so a missing one means lost files; replaying past it would
// apply events against the wrong base state. Recovery must stop at the gap
// and say so.
func TestSegmentGapStopsReplay(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 forces one record per segment: record i lives in
	// segment i exactly.
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1, SegmentBytes: 1})
	var digests []string
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 8); err != nil {
		t.Fatal(err)
	}
	digests = append(digests, digest(st))
	for i := 0; i < 4; i++ {
		if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{float64(i) / 4, 0.5}}, 8); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digest(st))
	}
	// Lose record 3's segment.
	crash := copyDir(t, dir)
	if err := os.Remove(filepath.Join(crash, segmentName(3))); err != nil {
		t.Fatal(err)
	}
	back := openTest(t, crash, Options{Sync: SyncNever, Retain: 8, SnapshotEvery: -1})
	rec := back.Recovery()
	if !rec.SegmentGap {
		t.Fatalf("segment gap not reported: %+v", rec)
	}
	if got, want := digest(back), digests[1]; got != want {
		t.Fatalf("replay crossed the gap:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAcksDurableAcrossSecondRestart guards the double-crash case: after a
// torn-tail recovery, mutations acked into the fresh segment must survive
// ANOTHER crash. Without the mandatory boot snapshot, the second replay
// would stop at the same torn record and never reach the new segment.
func TestAcksDurableAcrossSecondRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	// Crash #1 tears the live segment's tail.
	seg := filepath.Join(dir, segmentName(st.Status().SegmentSeq))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01, 0x02, 0x03})
	f.Close()

	// Recovery #1, then a durably-acked mutation; SnapshotEvery is disabled
	// so only the mandatory torn-tail boot snapshot can save it.
	mid := openTest(t, dir, Options{Sync: SyncAlways, Retain: 4, SnapshotEvery: -1})
	if !mid.Recovery().TornTail {
		t.Fatalf("expected torn recovery: %+v", mid.Recovery())
	}
	if _, err := mid.AppendRowsCtx(t.Context(), "a", [][]float64{{0.9, 0.1}}, 4); err != nil {
		t.Fatal(err)
	}
	want := digest(mid)

	// Crash #2: no Close, just reopen.
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("acked mutation lost across second restart:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// appendRecords frames each event as a well-checksummed WAL record, the way
// the writer would, and appends it to the segment file at path. The payload
// encoder does not validate, so a test can plant records the live write
// path never produces.
func appendRecords(t *testing.T, path string, evs ...Event) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, ev := range evs {
		payload, err := ev.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		if _, err := f.Write(append(hdr[:], payload...)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayHaltsAtUnappliableRecord: a record that frames and checksums
// correctly but cannot be applied (format skew) must HALT replay — events
// after it were minted against a state that includes it, and applying them
// to the prefix would silently diverge.
func TestReplayHaltsAtUnappliableRecord(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1, SegmentBytes: 1 << 30})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}}, 4); err != nil {
		t.Fatal(err)
	}
	want := digest(st)
	seg := filepath.Join(dir, segmentName(st.Status().SegmentSeq))

	// Hand-frame two well-checksummed records: one unappliable (append to a
	// name that does not exist), then one that WOULD apply — it must not.
	appendRecords(t, seg,
		Event{Kind: EventAppend, Name: "ghost", Rows: [][]float64{{1, 2}}},
		Event{Kind: EventAppend, Name: "a", Rows: [][]float64{{0.9, 0.9}}})

	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	rec := back.Recovery()
	if rec.RecordsSkipped != 1 {
		t.Fatalf("replay did not halt at the unappliable record: %+v", rec)
	}
	if got := digest(back); got != want {
		t.Fatalf("replay continued past the unappliable record:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALCorruptedSegmentHeader checks a segment whose header was destroyed
// stops replay without taking the process down.
func TestWALCorruptedSegmentHeader(t *testing.T) {
	segPath, _, digests := buildCorpus(t)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	crash := t.TempDir()
	if err := os.WriteFile(filepath.Join(crash, filepath.Base(segPath)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: crash, Sync: SyncNever, Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := digest(st); got != digests[0] {
		t.Fatalf("recovered %q from a headerless segment", got)
	}
	if !st.Recovery().TornTail {
		t.Fatal("header corruption not reported")
	}
}

// TestRotationAcrossSegments checks multi-segment logs replay in order and
// that a torn tail in the FINAL segment does not disturb earlier ones.
func TestRotationAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation roughly every record.
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1, SegmentBytes: 64})
	mutateSome(t, st, 4)
	want := digest(st)
	status := st.Status()
	if len(status.Segments) < 3 {
		t.Fatalf("expected several segments, got %+v", status.Segments)
	}
	// Tear the live (= last) segment's tail.
	last := status.Segments[len(status.Segments)-1]
	f, err := os.OpenFile(filepath.Join(dir, segmentName(last.Seq)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, "torn!")
	f.Close()
	crash := copyDir(t, dir)
	back := openTest(t, crash, Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("multi-segment recovery diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if rec := back.Recovery(); !rec.TornTail || rec.SegmentsReplayed < 3 {
		t.Fatalf("unexpected recovery shape: %+v", rec)
	}
}
