package dataset

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDatasetMutate drives an arbitrary append/delete program against a
// dataset and a shadow row list, checking the mutation layer's invariants:
// content matches the shadow after every program, the version counter is
// strictly monotone, the fingerprint equals that of a fresh dataset built
// from the same content (no mutation-path dependence), and the delta log
// composes back to an exact old-row -> new-row mapping from any mid-program
// checkpoint. Basis is read after every step and must equal a fresh
// column scan, so a mutation that leaves the memo stale fails.
func FuzzDatasetMutate(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0x03})
	f.Add([]byte{0xff, 0xfe, 0x80, 0x80, 0x11, 0x22, 0x33})
	f.Add([]byte{0x90})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const d = 2
		ds := MustFromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}, {1, 0}})
		shadow := [][]float64{{0.5, 0.5}, {0.25, 0.75}, {1, 0}}

		var (
			ckptRows []([]float64)
			ckptV    uint64
			haveCkpt bool
		)
		prevV := ds.Version()
		for i, op := range ops {
			switch {
			case op < 0x80: // append a row derived from the opcode
				row := []float64{float64(op) / 128, float64(i%7) / 7}
				ds.Append(row)
				shadow = append(shadow, row)
			case op < 0xf0: // delete op-derived ids
				if len(shadow) == 0 {
					continue
				}
				ids := []int{int(op) % len(shadow)}
				if op%3 == 0 {
					ids = append(ids, int(op/3)%len(shadow), int(op)%len(shadow))
				}
				if err := ds.Delete(ids); err != nil {
					t.Fatalf("op %d: delete %v rejected: %v", i, ids, err)
				}
				drop := map[int]bool{}
				for _, id := range ids {
					drop[id] = true
				}
				kept := shadow[:0]
				for j, r := range shadow {
					if !drop[j] {
						kept = append(kept, r)
					}
				}
				shadow = kept
			default: // set the compose checkpoint (first occurrence wins)
				if !haveCkpt {
					haveCkpt = true
					ckptV = ds.Version()
					ckptRows = append([][]float64(nil), shadow...)
				}
			}
			requireBasis(t, ds, fmt.Sprintf("op %d (%#x)", i, op))
			if v := ds.Version(); v < prevV {
				t.Fatalf("op %d: version went backwards: %d -> %d", i, prevV, v)
			} else {
				prevV = v
			}
		}

		if ds.N() != len(shadow) {
			t.Fatalf("n=%d, shadow=%d", ds.N(), len(shadow))
		}
		for i := range shadow {
			for j := 0; j < d; j++ {
				if ds.Value(i, j) != shadow[i][j] {
					t.Fatalf("content diverged at (%d,%d)", i, j)
				}
			}
		}
		if len(shadow) > 0 {
			fresh := MustFromRows(shadow)
			if fresh.Fingerprint() != ds.Fingerprint() {
				t.Fatal("fingerprint depends on mutation path")
			}
		}

		if !haveCkpt {
			return
		}
		deltas, ok := ds.Deltas(ckptV)
		if !ok {
			return // log truncated: legitimately unanswerable
		}
		oldToNew, newIDs, newN, ok := ComposeDeltas(len(ckptRows), deltas)
		if !ok {
			t.Fatalf("append/delete-only history failed to compose: %+v", deltas)
		}
		if newN != ds.N() {
			t.Fatalf("composed n=%d, dataset n=%d", newN, ds.N())
		}
		seen := map[int]bool{}
		for old, now := range oldToNew {
			if now < 0 {
				continue
			}
			if seen[now] {
				t.Fatalf("two old rows map to new row %d", now)
			}
			seen[now] = true
			for j := 0; j < d; j++ {
				if ds.Value(now, j) != ckptRows[old][j] {
					t.Fatalf("mapped row %d->%d changed value", old, now)
				}
			}
		}
		for _, id := range newIDs {
			if seen[id] {
				t.Fatalf("new row %d also claimed by the mapping", id)
			}
			seen[id] = true
		}
		if len(seen) != newN {
			t.Fatalf("mapping + new rows cover %d of %d rows", len(seen), newN)
		}
	})
}

// FuzzFingerprintStability checks the fingerprint is a pure function of
// content for snapshot chains as well: a chain of snapshot+mutate steps and
// a directly-constructed dataset with the same final rows always agree, and
// mutating a snapshot never disturbs its source.
func FuzzFingerprintStability(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0x81})
	f.Add([]byte{9}, []byte{0x01, 0x85, 0x02})
	f.Fuzz(func(t *testing.T, initial, ops []byte) {
		if len(initial) == 0 {
			return
		}
		rows := make([][]float64, 0, len(initial))
		for i, b := range initial {
			rows = append(rows, []float64{float64(b) / 255, float64(i) / 16})
		}
		cur := MustFromRows(rows)
		base := cur
		baseFP := base.Fingerprint()
		for i, op := range ops {
			next := cur.Snapshot()
			if op < 0x80 {
				row := []float64{float64(op) / 128, float64(i) / 8}
				next.Append(row)
				rows = append(rows, row)
			} else {
				if len(rows) <= 1 {
					continue
				}
				id := int(op) % len(rows)
				if err := next.Delete([]int{id}); err != nil {
					t.Fatal(err)
				}
				rows = append(rows[:id], rows[id+1:]...)
			}
			cur = next
		}
		if base.Fingerprint() != baseFP || base.N() != len(initial) {
			t.Fatal("mutating snapshots disturbed their source")
		}
		if len(rows) == 0 {
			return
		}
		if got, want := cur.Fingerprint(), MustFromRows(rows).Fingerprint(); got != want {
			t.Fatalf("snapshot-chain fingerprint %016x != direct-build %016x", got, want)
		}
	})
}

// FuzzDecodeBinary checks the durable decoder never panics (or allocates
// past its input) on arbitrary bytes, that every accepted input holds only
// finite values, and that it re-encodes to a stable form: decode -> encode
// -> decode reproduces the same fingerprint and versioning state.
func FuzzDecodeBinary(f *testing.F) {
	seed := New(2)
	seed.Append([]float64{0.5, 1})
	seed.Append([]float64{0.25, 0})
	_ = seed.Delete([]int{0})
	f.Add(seed.AppendBinary(nil))
	f.Add(MustFromRows([][]float64{{1, 2, 3}}).AppendBinary(nil))
	f.Add([]byte{0xD5, 0x01})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, n, err := DecodeBinary(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for i := 0; i < ds.N(); i++ {
			if err := CheckFinite(i, ds.Row(i)); err != nil {
				t.Fatalf("accepted a non-finite value: %v", err)
			}
		}
		enc := ds.AppendBinary(nil)
		back, m, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoding rejected: %v", err)
		}
		if m != len(enc) {
			t.Fatalf("re-encoding consumed %d of %d bytes", m, len(enc))
		}
		if back.Fingerprint() != ds.Fingerprint() ||
			back.Lineage() != ds.Lineage() ||
			back.Version() != ds.Version() ||
			!reflect.DeepEqual(back.log, ds.log) {
			t.Fatal("decode -> encode -> decode is not a fixed point")
		}
		// The ascending-unique invariant of every decoded delete list is
		// what the gap encoder and the engine's delta repair rely on.
		for _, d := range ds.log {
			for k := 1; k < len(d.Deleted); k++ {
				if d.Deleted[k] <= d.Deleted[k-1] {
					t.Fatalf("accepted non-ascending deleted ids %v", d.Deleted)
				}
			}
		}
	})
}

// FuzzReadCSV checks the CSV reader never panics and that every accepted
// input round-trips through WriteCSV back to an equal dataset.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n", true)
	f.Add("1,2\n3,4\n", false)
	f.Add("", false)
	f.Add("x\n", true)
	f.Add("1,2\n3\n", false)
	f.Add("nan,inf\n-inf,0\n", false)
	f.Add("1e308,1e-308\n-1e308,5\n", false)
	f.Add("h1,h2,h3\n0.1,0.2,0.3\n", true)
	f.Fuzz(func(t *testing.T, in string, header bool) {
		ds, err := ReadCSV(strings.NewReader(in), header)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if ds.N() == 0 || ds.Dim() == 0 {
			t.Fatalf("accepted dataset with shape %dx%d", ds.N(), ds.Dim())
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf, true); err != nil {
			t.Fatalf("WriteCSV failed on accepted data: %v", err)
		}
		back, err := ReadCSV(&buf, true)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.N() != ds.N() || back.Dim() != ds.Dim() {
			t.Fatalf("round trip changed shape %dx%d -> %dx%d", ds.N(), ds.Dim(), back.N(), back.Dim())
		}
		for i := 0; i < ds.N(); i++ {
			for j := 0; j < ds.Dim(); j++ {
				a, b := ds.Value(i, j), back.Value(i, j)
				// NaN != NaN; everything else must match exactly after
				// FormatFloat('g', -1) round-tripping.
				if a != b && !(a != a && b != b) {
					t.Fatalf("value (%d,%d) changed: %v -> %v", i, j, a, b)
				}
			}
		}
	})
}

// FuzzUtilitiesBatch checks the batch-scoring kernel against per-vector
// Utilities on fuzzer-chosen shapes and values: the first two bytes pick d
// in [1, 10] and the batch size, and every further byte becomes a value or a
// weight in [-8, 8) on a 1/16 grid (so zeros, ties and negative terms are
// common). Scores must agree bit for bit (up to the sign of a zero sum at
// d = 2, see sameScore).
func FuzzUtilitiesBatch(f *testing.F) {
	f.Add([]byte{3, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add([]byte{4, 2, 0x80, 0x7f, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 0, 1, 1, 1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{2, 3, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := int(data[0])%10 + 1
		nb := int(data[1])%4 + 1
		vals := data[2:]
		if len(vals) < nb*d+d {
			return
		}
		val := func(b byte) float64 {
			if b == 0x80 {
				return math.Copysign(0, -1)
			}
			return float64(int8(b)) / 16
		}
		us := make([][]float64, nb)
		for b := range us {
			us[b] = make([]float64, d)
			for j := range us[b] {
				us[b][j] = val(vals[b*d+j])
			}
		}
		vals = vals[nb*d:]
		// Repeat the row bytes so n can cross a tuple tile.
		n := len(vals) / d * (1 + int(data[1])/4)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = val(vals[(i*d+j)%(len(vals)/d*d)])
			}
		}
		ds := MustFromRows(rows)
		got := ds.UtilitiesBatch(us, nil)
		for b, u := range us {
			want := ds.Utilities(u, nil)
			for i := range want {
				if !sameScore(got[b][i], want[i], d) {
					t.Fatalf("d=%d vector %d tuple %d: batch %v, Utilities %v", d, b, i, got[b][i], want[i])
				}
			}
		}
	})
}
