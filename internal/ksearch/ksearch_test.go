package ksearch

import (
	"errors"
	"reflect"
	"testing"
)

// TestSmallestFindsThreshold checks every threshold of a monotone probe is
// found, that the result returned is the one computed at that threshold,
// and that the probe sequence is doubling then bisection.
func TestSmallestFindsThreshold(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for want := 1; want <= n; want++ {
			var probes []int
			res, k, err := Smallest(n, func(k int) (int, bool, error) {
				probes = append(probes, k)
				return 100 + k, k >= want, nil
			})
			if err != nil || k != want || res != 100+want {
				t.Fatalf("n=%d want=%d: got (%d, %d, %v)", n, want, res, k, err)
			}
			if len(probes) > 2*bitLen(n)+1 {
				t.Errorf("n=%d want=%d: %d probes %v", n, want, len(probes), probes)
			}
		}
	}
	var probes []int
	Smallest(20, func(k int) (int, bool, error) {
		probes = append(probes, k)
		return k, k >= 11, nil
	})
	if want := []int{1, 2, 4, 8, 16, 12, 10, 11}; !reflect.DeepEqual(probes, want) {
		t.Errorf("probe order %v, want %v", probes, want)
	}
}

// TestSmallestNeverFits keeps the k = n result when nothing fits.
func TestSmallestNeverFits(t *testing.T) {
	res, k, err := Smallest(10, func(k int) (int, bool, error) { return k, false, nil })
	if err != nil || res != 10 || k != 10 {
		t.Errorf("got (%d, %d, %v), want (10, 10, nil)", res, k, err)
	}
}

// TestSmallestError stops at the first probe error.
func TestSmallestError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, _, err := Smallest(100, func(k int) (int, bool, error) {
		calls++
		if k == 4 {
			return 0, false, boom
		}
		return k, false, nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Errorf("err %v after %d calls, want boom after 3", err, calls)
	}
}

func bitLen(n int) int {
	b := 0
	for ; n > 0; n >>= 1 {
		b++
	}
	return b
}
