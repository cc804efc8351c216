package dataset

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// mutatedDataset builds a dataset with a non-trivial history: appends,
// deletes, and (optionally) a rewrite, so the encoding must carry a delta
// log with every kind.
func mutatedDataset(t *testing.T, rewrite bool) *Dataset {
	t.Helper()
	ds := New(3)
	if err := ds.SetAttrs([]string{"alpha", "", "γ"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ds.Append([]float64{float64(i) / 12, math.Sqrt(float64(i + 1)), -float64(i)})
	}
	if err := ds.Delete([]int{0, 3, 7}); err != nil {
		t.Fatal(err)
	}
	ds.Append([]float64{0.5, math.MaxFloat64, math.Copysign(0, -1)})
	if rewrite {
		ds.Shift([]float64{0.25, 0, -1})
	}
	return ds
}

func assertDatasetEqual(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint %016x != %016x", got.Fingerprint(), want.Fingerprint())
	}
	if got.Lineage() != want.Lineage() || got.Version() != want.Version() || got.floor != want.floor {
		t.Fatalf("versioning state (%d,%d,%d) != (%d,%d,%d)",
			got.Lineage(), got.Version(), got.floor,
			want.Lineage(), want.Version(), want.floor)
	}
	if !reflect.DeepEqual(got.Attrs(), want.Attrs()) {
		t.Fatalf("attrs %v != %v", got.Attrs(), want.Attrs())
	}
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("delta log %+v != %+v", got.log, want.log)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, rewrite := range []bool{false, true} {
		ds := mutatedDataset(t, rewrite)
		enc := ds.AppendBinary(nil)
		back, n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("rewrite=%v: decode: %v", rewrite, err)
		}
		if n != len(enc) {
			t.Fatalf("rewrite=%v: consumed %d of %d bytes", rewrite, n, len(enc))
		}
		// The fingerprint (over raw bits) proves the matrices identical.
		assertDatasetEqual(t, back, ds)

		// The decoded dataset must answer delta windows like the original.
		since := ds.Version() - 2
		wantDeltas, wantOK := ds.Deltas(since)
		gotDeltas, gotOK := back.Deltas(since)
		if wantOK != gotOK || !reflect.DeepEqual(wantDeltas, gotDeltas) {
			t.Fatalf("rewrite=%v: Deltas(%d) diverged: (%v,%v) != (%v,%v)",
				rewrite, since, gotDeltas, gotOK, wantDeltas, wantOK)
		}
	}
}

// TestBinaryRoundTripSequence checks sequential decoding: DecodeBinary
// reports exact consumption, so concatenated encodings (the snapshot layout)
// decode one after another.
func TestBinaryRoundTripSequence(t *testing.T) {
	a := mutatedDataset(t, false)
	b := a.Snapshot()
	b.Append([]float64{1, 2, 3})
	var enc []byte
	enc = a.AppendBinary(enc)
	enc = b.AppendBinary(enc)
	backA, n, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	backB, m, err := DecodeBinary(enc[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+m != len(enc) {
		t.Fatalf("consumed %d+%d of %d bytes", n, m, len(enc))
	}
	assertDatasetEqual(t, backA, a)
	assertDatasetEqual(t, backB, b)
	if backA.Lineage() != backB.Lineage() {
		t.Fatal("snapshot pair lost its shared lineage")
	}
}

// TestDecodeBumpsLineageSeq checks that datasets constructed after a decode
// never reuse a recovered lineage: the whole point of restoring lineage is
// that the engine's identity index can pair pre- and post-restart versions,
// which a collision with an unrelated dataset would silently degrade.
func TestDecodeBumpsLineageSeq(t *testing.T) {
	ds := New(2)
	ds.Append([]float64{1, 2})
	enc := ds.AppendBinary(nil)
	// Simulate a recovered lineage far above anything assigned so far.
	high := lineageSeq.Load() + 1000
	ds.lineage = high
	enc = ds.AppendBinary(enc[:0])
	back, _, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lineage() != high {
		t.Fatalf("decoded lineage %d, want %d", back.Lineage(), high)
	}
	if fresh := New(2); fresh.Lineage() <= high {
		t.Fatalf("post-decode lineage %d collides with recovered range (<= %d)", fresh.Lineage(), high)
	}
}

// TestDecodeRejectsNonFinite: an encoding whose value matrix holds NaN or
// ±Inf (Append itself does not check) fails to decode, with an error that
// wraps both ErrEncoding and the *NonFiniteError naming the value.
func TestDecodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds := New(2)
		ds.Append([]float64{0.5, 0.5})
		ds.Append([]float64{0.25, v})
		_, _, err := DecodeBinary(ds.AppendBinary(nil))
		var nf *NonFiniteError
		if !errors.Is(err, ErrEncoding) || !errors.As(err, &nf) || nf.Row != 1 || nf.Col != 1 {
			t.Errorf("decoding a dataset holding %v = %v, want ErrEncoding naming row 1 attribute 1", v, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	ds := mutatedDataset(t, false)
	enc := ds.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   {0x00, 0x01},
		"bad version": {encMagic, 0xfe},
		"truncated":   enc[:len(enc)-5],
		"huge n":      {encMagic, encVersion, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, data := range cases {
		if _, _, err := DecodeBinary(data); !errors.Is(err, ErrEncoding) {
			t.Errorf("%s: err = %v, want ErrEncoding", name, err)
		}
	}
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
		}
	}
}
