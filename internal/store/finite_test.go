package store

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/faultfs"
)

// TestNonFiniteSnapshotFallsBack plants a newest snapshot whose dataset holds
// a NaN: recovery must reject it and load the older, finite one instead.
func TestNonFiniteSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}}, 0); err != nil {
		t.Fatal(err)
	}
	want := digest(st)
	vv, _ := st.Get("a")
	bad := vv.Current().Snapshot()
	bad.Append([]float64{math.NaN(), 0.5}) // Append itself does not check
	if err := st.Close(); err != nil {     // writes the final, finite snapshot
		t.Fatal(err)
	}
	seqs, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no snapshot after close: %v %v", seqs, err)
	}
	good := seqs[len(seqs)-1]
	payload := encodeRegistry(map[string][]*dataset.Dataset{"a": {bad}})
	if err := writeSnapshot(faultfs.Disk, dir, good+1, payload); err != nil {
		t.Fatal(err)
	}

	back := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1})
	if rec := back.Recovery(); rec.SnapshotSeq != good {
		t.Fatalf("recovery loaded snapshot %d, want the finite fallback %d: %+v", rec.SnapshotSeq, good, rec)
	}
	if got := digest(back); got != want {
		t.Fatalf("recovered registry diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestNonFiniteWALRecordHaltsReplay plants a well-checksummed append record
// carrying a NaN, followed by a valid one: replay must halt at the NaN
// record (it is undecodable, not applied), and the boot snapshot must move
// the replay start past it so the next recovery never meets it again.
func TestNonFiniteWALRecordHaltsReplay(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1, SegmentBytes: 1 << 30})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}}, 0); err != nil {
		t.Fatal(err)
	}
	want := digest(st)
	damaged := st.Status().SegmentSeq
	appendRecords(t, filepath.Join(dir, segmentName(damaged)),
		Event{Kind: EventAppend, Name: "a", Rows: [][]float64{{0.3, math.Inf(1)}}},
		Event{Kind: EventAppend, Name: "a", Rows: [][]float64{{0.9, 0.9}}})

	// Reopen from a crash image: a clean Close would snapshot past the
	// planted records before recovery ever read them.
	img := copyDir(t, dir)
	back := openTest(t, img, Options{Sync: SyncNever, SnapshotEvery: -1})
	rec := back.Recovery()
	if rec.RecordsSkipped != 1 {
		t.Fatalf("replay did not halt at the non-finite record: %+v", rec)
	}
	if got := digest(back); got != want {
		t.Fatalf("replay applied past the non-finite record:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if seq := back.Status().SnapshotSeq; seq <= damaged {
		t.Fatalf("boot snapshot %d does not supersede damaged segment %d", seq, damaged)
	}

	again := openTest(t, copyDir(t, img), Options{Sync: SyncNever, SnapshotEvery: -1})
	if rec := again.Recovery(); rec.RecordsSkipped != 0 {
		t.Fatalf("second recovery met the non-finite record again: %+v", rec)
	}
	if got := digest(again); got != want {
		t.Fatalf("second recovery diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDecodeEventRejectsNonFinite: an append record carrying NaN or ±Inf is
// an encoding error that also names the offending value.
func TestDecodeEventRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		payload, err := Event{Kind: EventAppend, Name: "a", Rows: [][]float64{{0.5, 0.5}, {0.5, v}}}.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeEvent(payload)
		var nf *dataset.NonFiniteError
		if !errors.Is(err, ErrEventEncoding) || !errors.As(err, &nf) || nf.Row != 1 || nf.Col != 1 {
			t.Errorf("decoding an append with %v = %v, want ErrEventEncoding naming row 1 attribute 1", v, err)
		}
	}
}

// TestAppendNonFiniteRejected: the live path accepts exactly what replay
// accepts. An append carrying NaN or ±Inf is rejected with the offending
// row and attribute and never reaches the WAL, so a good append after it
// survives a crash and replay halts nowhere.
func TestAppendNonFiniteRejected(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}, {0.3, v}}, 0)
		var nf *dataset.NonFiniteError
		if !errors.As(err, &nf) || nf.Row != 1 || nf.Col != 1 {
			t.Fatalf("append with %v: err %v, want a NonFiniteError at row 1 attribute 1", v, err)
		}
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.1, 0.2}}, 0); err != nil {
		t.Fatalf("finite rows rejected: %v", err)
	}
	want := digest(st)

	// A crash image, not a clean Close: recovery must replay the WAL.
	back := openTest(t, copyDir(t, dir), Options{Sync: SyncNever, SnapshotEvery: -1})
	if rec := back.Recovery(); rec.RecordsSkipped != 0 || rec.TornTail {
		t.Fatalf("replay met a record the live path accepted: %+v", rec)
	}
	if got := digest(back); got != want {
		t.Fatalf("acked append lost across crash:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
