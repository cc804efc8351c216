package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
)

// makeDS builds a registrable dataset (version > 0) with deterministic
// content derived from seed.
func makeDS(t *testing.T, d, n int, seed float64) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(d)
	attrs := make([]string, d)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("a%d", j)
	}
	if err := ds.SetAttrs(attrs); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = seed + float64(i*d+j)/float64(n*d)
		}
		ds.Append(row)
	}
	return ds
}

// digest captures the registry's full observable identity: every name's
// retained versions with their version numbers, lineages, and fingerprints.
// Two stores with equal digests are byte-identical for every consumer.
func digest(st *Store) string {
	var b strings.Builder
	for _, name := range st.Names() {
		vv, _ := st.Get(name)
		fmt.Fprintf(&b, "%s:", name)
		for _, ds := range vv.List() {
			fmt.Fprintf(&b, " v%d/l%d/%016x/n%d", ds.Version(), ds.Lineage(), ds.Fingerprint(), ds.N())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// mutateSome drives a deterministic mixed workload against st.
func mutateSome(t *testing.T, st *Store, retain int) {
	t.Helper()
	if err := st.RegisterCtx(t.Context(), "alpha", makeDS(t, 3, 8, 0.1), retain); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterCtx(t.Context(), "beta", makeDS(t, 2, 5, 0.7), retain); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.AppendRowsCtx(t.Context(), "alpha", [][]float64{{0.1 * float64(i), 0.2, 0.3}}, retain); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.DeleteRowsCtx(t.Context(), "alpha", []int{0, 2}, retain); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "beta", [][]float64{{0.5, 0.5}, {0.25, 0.75}}, retain); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterCtx(t.Context(), "gamma", makeDS(t, 2, 4, 0.3), retain); err != nil {
		t.Fatal(err)
	}
	if err := st.DropCtx(t.Context(), "gamma"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever})
	mutateSome(t, st, 4)
	want := digest(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4})
	if got := digest(back); got != want {
		t.Fatalf("recovered registry diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// A clean close snapshots, so recovery replays nothing.
	if rec := back.Recovery(); rec.RecordsReplayed != 0 || rec.SnapshotSeq == 0 || rec.TornTail {
		t.Fatalf("clean-close recovery should be replay-free: %+v", rec)
	}
	if got := back.Names(); !equalStrings(got, []string{"alpha", "beta"}) {
		t.Fatalf("recovered names %v", got)
	}
}

func TestRecoverWithoutCloseReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncAlways, SnapshotEvery: -1})
	mutateSome(t, st, 4)
	want := digest(st)
	// No Close: simulate a crash by abandoning the store and re-opening the
	// directory (the file handle stays open; Linux is fine with that).
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("crash recovery diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	rec := back.Recovery()
	if rec.RecordsReplayed == 0 || rec.TornTail || rec.RecordsSkipped != 0 {
		t.Fatalf("crash recovery should replay the whole WAL cleanly: %+v", rec)
	}
}

// TestRecoveredDeltaLogContinues checks the property the engine's delta-aware
// cache depends on: a version recovered from disk still answers delta
// windows against its recovered predecessors, and post-recovery mutations
// extend the same log.
func TestRecoveredDeltaLogContinues(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 6, 0.2), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.9, 0.1}}, 4); err != nil {
		t.Fatal(err)
	}
	vv, _ := st.Get("a")
	liveOld := vv.List()[0]
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4})
	bv, ok := back.Get("a")
	if !ok {
		t.Fatal("dataset lost")
	}
	versions := bv.List()
	if len(versions) != 2 {
		t.Fatalf("recovered %d versions, want 2", len(versions))
	}
	old, cur := versions[0], versions[1]
	if old.Lineage() != liveOld.Lineage() || old.Lineage() != cur.Lineage() {
		t.Fatal("recovered versions lost their shared lineage")
	}
	deltas, ok := cur.Deltas(old.Version())
	if !ok || len(deltas) != 1 || deltas[0].Kind != dataset.DeltaAppend {
		t.Fatalf("recovered delta window broken: %+v ok=%v", deltas, ok)
	}
	next, err := back.AppendRowsCtx(t.Context(), "a", [][]float64{{0.4, 0.6}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if deltas, ok := next.Deltas(old.Version()); !ok || len(deltas) == 0 {
		t.Fatalf("post-recovery mutation broke the delta chain: %+v ok=%v", deltas, ok)
	}
}

func TestRetainWindowRecovered(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, Retain: 3})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{float64(i) / 7, 0.5}}, 3); err != nil {
			t.Fatal(err)
		}
	}
	want := digest(st)
	vv, _ := st.Get("a")
	if n := len(vv.List()); n != 3 {
		t.Fatalf("live retain window is %d, want 3", n)
	}
	st.Close()
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 3})
	if got := digest(back); got != want {
		t.Fatalf("retained window diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotEveryBoundsReplayAndPrunes(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: 5, SegmentBytes: 512})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 4, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{float64(i) / 23, 0.5}}, 4); err != nil {
			t.Fatal(err)
		}
	}
	// Automatic snapshots persist in the background; a synchronous snapshot
	// waits for any in-flight one, so the counters below are deterministic.
	if err := st.snapshot(); err != nil {
		t.Fatal(err)
	}
	status := st.Status()
	if status.Snapshots < 2 {
		t.Fatalf("no automatic snapshots after 24 records: %+v", status)
	}
	if status.SnapshotLag != 0 {
		t.Fatalf("snapshot lag %d after a forced snapshot", status.SnapshotLag)
	}
	// Pruning keeps at most the current snapshot and its predecessor.
	snaps, err := listSeqs(dir, "snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Fatalf("%d snapshots retained, want <= 2", len(snaps))
	}
	want := digest(st)
	st.Close()
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4, SnapshotEvery: 5})
	if got := digest(back); got != want {
		t.Fatalf("recovered registry diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCompactLeavesMinimalFootprint(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1})
	mutateSome(t, st, 4)
	want := digest(st)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSeqs(dir, "snap-", ".snap")
	segs, _ := listSeqs(dir, "wal-", ".log")
	if len(snaps) != 1 || len(segs) != 1 {
		t.Fatalf("after compact: %d snapshots, %d segments, want 1 and 1", len(snaps), len(segs))
	}
	st.Close()
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4})
	if got := digest(back); got != want {
		t.Fatalf("compacted registry diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTornTailDiscardedCleanly(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1})
	mutateSome(t, st, 4)
	want := digest(st)
	status := st.Status()
	seg := filepath.Join(dir, segmentName(status.SegmentSeq))
	// Crash mid-append: garbage lands after the last complete record.
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x10, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
	if got := digest(back); got != want {
		t.Fatalf("recovery with torn tail diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if rec := back.Recovery(); !rec.TornTail {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
}

func TestEphemeralStore(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mutateSome(t, st, 4)
	if st.Len() != 2 {
		t.Fatalf("len = %d, want 2", st.Len())
	}
	status := st.Status()
	if status.Enabled || status.Records != 0 {
		t.Fatalf("ephemeral store claims durability: %+v", status)
	}
	if n := st.Recovery().Datasets; n != 0 {
		t.Fatalf("ephemeral store recovered %d datasets", n)
	}
}

func TestMutationErrors(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 2, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "nosuch", [][]float64{{1, 2}}, 4); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("append to unknown: %v", err)
	}
	if _, err := st.DeleteRowsCtx(t.Context(), "a", []int{0, 1}, 4); !errors.Is(err, ErrWouldEmpty) {
		t.Errorf("delete-all: %v", err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{1}}, 4); err == nil {
		t.Error("ragged append accepted")
	}
	if _, err := st.DeleteRowsCtx(t.Context(), "a", []int{5}, 4); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if err := st.DropCtx(t.Context(), "nosuch"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("drop unknown: %v", err)
	}
	if err := st.RegisterCtx(t.Context(), "", makeDS(t, 2, 2, 0.5), 4); err == nil {
		t.Error("empty name accepted")
	}
	vv, _ := st.Get("a")
	if n := vv.Current().N(); n != 2 {
		t.Fatalf("failed mutations changed the dataset: n=%d", n)
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 2, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{1, 2}}, 4); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
	if err := st.RegisterCtx(t.Context(), "b", makeDS(t, 2, 2, 0.5), 4); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncInterval, SyncInterval: 5 * time.Millisecond})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 3, 0.5), 4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Status().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in     string
		policy SyncPolicy
		iv     time.Duration
		ok     bool
	}{
		{"always", SyncAlways, 0, true},
		{"", SyncAlways, 0, true},
		{"never", SyncNever, 0, true},
		{"100ms", SyncInterval, 100 * time.Millisecond, true},
		{"2s", SyncInterval, 2 * time.Second, true},
		{"-5ms", 0, 0, false},
		{"banana", 0, 0, false},
	}
	for _, c := range cases {
		p, iv, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) || (c.ok && (p != c.policy || iv != c.iv)) {
			t.Errorf("ParseSyncPolicy(%q) = %v,%v,%v want %v,%v ok=%v", c.in, p, iv, err, c.policy, c.iv, c.ok)
		}
	}
}

// TestRegisterReplaces checks re-registering a name drops the old history
// durably.
func TestRegisterReplaces(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever})
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 2, 3, 0.1), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRowsCtx(t.Context(), "a", [][]float64{{0.5, 0.5}}, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterCtx(t.Context(), "a", makeDS(t, 3, 2, 0.9), 4); err != nil {
		t.Fatal(err)
	}
	want := digest(st)
	vv, _ := st.Get("a")
	if len(vv.List()) != 1 || vv.Current().Dim() != 3 {
		t.Fatalf("re-register did not replace: %v", vv.List())
	}
	st.Close()
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4})
	if got := digest(back); got != want {
		t.Fatalf("replacement not durable:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
