package store

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
)

func fuzzSeedEvents(t testing.TB) []Event {
	ds := dataset.New(2)
	if err := ds.SetAttrs([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	ds.Append([]float64{0.25, 0.75})
	ds.Append([]float64{1, 0})
	return []Event{
		{Kind: EventRegister, Name: "cars", Dataset: ds},
		{Kind: EventAppend, Name: "cars", Rows: [][]float64{{0.5, 0.5}, {0.125, 0.875}}},
		{Kind: EventDelete, Name: "cars", IDs: []int{0, 2}},
		{Kind: EventDrop, Name: "cars"},
	}
}

// FuzzEventDecode checks the WAL record decoder never panics on arbitrary
// bytes, that accepted inputs hold only finite values, and that they
// re-encode to a decodable fixed point.
func FuzzEventDecode(f *testing.F) {
	for _, ev := range fuzzSeedEvents(f) {
		enc, err := ev.appendTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{byte(EventDrop)})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := decodeEvent(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for i, row := range ev.Rows {
			if err := dataset.CheckFinite(i, row); err != nil {
				t.Fatalf("accepted a non-finite append: %v", err)
			}
		}
		if ev.Dataset != nil {
			for i := 0; i < ev.Dataset.N(); i++ {
				if err := dataset.CheckFinite(i, ev.Dataset.Row(i)); err != nil {
					t.Fatalf("accepted a non-finite register: %v", err)
				}
			}
		}
		enc, err := ev.appendTo(nil)
		if err != nil {
			t.Fatalf("accepted event does not re-encode: %v", err)
		}
		back, err := decodeEvent(enc)
		if err != nil {
			t.Fatalf("re-encoding rejected: %v", err)
		}
		if back.Kind != ev.Kind || back.Name != ev.Name ||
			!rowsBitEqual(back.Rows, ev.Rows) || !reflect.DeepEqual(back.IDs, ev.IDs) {
			t.Fatal("decode -> encode -> decode is not a fixed point")
		}
		if (ev.Dataset == nil) != (back.Dataset == nil) {
			t.Fatal("register payload appeared or vanished across the round trip")
		}
		if ev.Dataset != nil && (back.Dataset.Fingerprint() != ev.Dataset.Fingerprint() ||
			back.Dataset.Version() != ev.Dataset.Version()) {
			t.Fatal("register dataset changed across the round trip")
		}
	})
}

// rowsBitEqual compares row matrices by raw float bits, so -0 and +0 stay
// distinct rather than comparing equal under IEEE ==.
func rowsBitEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzSnapshotDecode checks the snapshot registry decoder never panics on
// arbitrary bytes and round-trips valid encodings.
func FuzzSnapshotDecode(f *testing.F) {
	reg := map[string]*Versions{}
	ds := dataset.New(3)
	ds.Append([]float64{1, 2, 3})
	snap := ds.Snapshot()
	snap.Append([]float64{4, 5, 6})
	reg["weather"] = &Versions{list: []*dataset.Dataset{ds, snap}}
	other := dataset.New(2)
	other.Append([]float64{0.5, 0.5})
	reg["nba"] = &Versions{list: []*dataset.Dataset{other}}
	f.Add(encodeRegistry(registryView(reg)))
	f.Add(encodeRegistry(nil))
	f.Add([]byte{0x01})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := decodeRegistry(data)
		if err != nil {
			return
		}
		enc := encodeRegistry(registryView(reg))
		back, err := decodeRegistry(enc)
		if err != nil {
			t.Fatalf("re-encoding rejected: %v", err)
		}
		if len(back) != len(reg) {
			t.Fatalf("round trip changed dataset count %d -> %d", len(reg), len(back))
		}
		if !bytes.Equal(encodeRegistry(registryView(back)), enc) {
			t.Fatal("encode(decode(encode)) is not a fixed point")
		}
		for name, vv := range reg {
			bv, ok := back[name]
			if !ok || len(bv.list) != len(vv.list) {
				t.Fatalf("round trip lost versions of %q", name)
			}
			for i := range vv.list {
				if bv.list[i].Fingerprint() != vv.list[i].Fingerprint() {
					t.Fatalf("round trip changed %q version %d", name, i)
				}
			}
		}
	})
}
