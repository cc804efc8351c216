package algo2d

import (
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/xrand"
)

func randomLines(seed int64, nn int) []line {
	n := nn
	if n < 0 {
		n = -n
	}
	n = n%30 + 2
	rng := xrand.New(seed)
	lines := make([]line, n)
	for i := range lines {
		lines[i] = dualLine(rng.Float64(), rng.Float64())
	}
	return lines
}

// Property: initialRanks is a permutation of 1..n consistent with the
// y-order at c0 (strictly higher line = strictly better rank).
func TestQuickInitialRanksPermutation(t *testing.T) {
	f := func(seed int64, nn int) bool {
		lines := randomLines(seed, nn)
		ranks := initialRanks(lines, 0)
		seen := make([]bool, len(lines)+1)
		for _, r := range ranks {
			if r < 1 || r > len(lines) || seen[r] {
				return false
			}
			seen[r] = true
		}
		for i := range lines {
			for j := range lines {
				if lines[i].eval(0) > lines[j].eval(0) && ranks[i] > ranks[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: neighborSweep visits every crossing pair in (0,1] exactly once
// and in non-decreasing x order.
func TestQuickNeighborSweepCompleteOrdered(t *testing.T) {
	f := func(seed int64, nn int) bool {
		lines := randomLines(seed, nn)
		want := map[[2]int]bool{}
		for i := range lines {
			for j := i + 1; j < len(lines); j++ {
				if x, ok := intersectX(lines[i], lines[j]); ok && x > 0 && x <= 1 {
					want[[2]int{i, j}] = true
				}
			}
		}
		got := map[[2]int]bool{}
		lastX := 0.0
		okOrder := true
		neighborSweep(lines, initialOrder(lines, 0), 0, 1, func(e event, _ int) {
			x, up, down := e.x, int(e.up), int(e.down)
			if x < lastX {
				okOrder = false
			}
			lastX = x
			a, b := up, down
			if a > b {
				a, b = b, a
			}
			if got[[2]int{a, b}] {
				okOrder = false // duplicate visit
			}
			got[[2]int{a, b}] = true
		})
		if !okOrder || len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the list L that neighborSweep swaps in place holds each
// crossing's pair at the visited position, swapped, and ends in the exact
// sorted order at x = 1 (the arrangement is fully inverted pair-by-pair as
// crossings demand).
func TestQuickNeighborSweepFinalOrder(t *testing.T) {
	f := func(seed int64, nn int) bool {
		lines := randomLines(seed, nn)
		n := len(lines)
		order := initialOrder(lines, 0)
		swapped := true
		neighborSweep(lines, order, 0, 1, func(e event, p int) {
			if order[p] != int(e.down) || order[p+1] != int(e.up) {
				swapped = false
			}
		})
		if !swapped {
			return false
		}
		// At x=1 the list must be sorted by eval(1) descending.
		for p := 1; p < n; p++ {
			if lines[order[p-1]].eval(1) < lines[order[p]].eval(1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
