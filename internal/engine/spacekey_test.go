package engine_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/cliutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/xrand"
)

// TestParsedSpacesShareCacheEntry: the solution-cache key is derived from
// the space value itself, so two separately parsed equal specs share one
// entry and a different spec gets its own. (An external test package:
// cliutil imports the facade, which imports engine.)
func TestParsedSpacesShareCacheEntry(t *testing.T) {
	ds := dataset.SimNBA(xrand.New(7), 300)
	e := engine.New(0)
	solve := func(spec string) *engine.Solution {
		t.Helper()
		sp, err := cliutil.ParseSpace(spec, ds.Dim())
		if err != nil {
			t.Fatal(err)
		}
		sol, err := e.Solve(context.Background(), ds, 6, "hdrrm", engine.Options{Space: sp, Seed: 1, MaxSamples: 500})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	first := solve("weak:2")
	if st := e.CacheStats(); st.Hits != 0 || st.Misses != 1 || st.Len != 1 {
		t.Fatalf("after first weak:2 solve: %+v, want 0 hits / 1 miss / 1 entry", st)
	}
	second := solve("weak:2")
	if st := e.CacheStats(); st.Hits != 1 || st.Len != 1 {
		t.Fatalf("second weak:2 solve missed the cache: %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached weak:2 solution %+v, want %+v", second, first)
	}
	solve("weak:1")
	if st := e.CacheStats(); st.Hits != 1 || st.Misses != 2 || st.Len != 2 {
		t.Errorf("weak:1 solve: %+v, want its own entry (1 hit / 2 misses / 2 entries)", st)
	}
}
