// Package ksearch is the paper's improved binary search on the rank
// threshold (Section V.B.2), shared by every solver that turns a
// threshold-k subproblem into a size-r one: HDRRM, the k-set baselines and
// the 2DRRR baseline.
package ksearch

// Smallest finds the smallest threshold k in [1, n] whose probe fits. It
// doubles k from 1 (capped at n) until the probe fits or k = n, then binary
// searches (k/2, k], keeping the last result that fits. It returns that
// result and its threshold. Fitting must be monotone in k; if even k = n
// does not fit, the k = n result stands unless a smaller probe fits.
func Smallest[T any](n int, probe func(k int) (T, bool, error)) (T, int, error) {
	var fit, zero T
	k := 1
	for {
		res, ok, err := probe(k)
		if err != nil {
			return zero, 0, err
		}
		if ok || k >= n {
			fit = res
			break
		}
		k = min(2*k, n)
	}
	best := k
	for low, high := k/2+1, k; low < high; {
		mid := (low + high) / 2
		res, ok, err := probe(mid)
		if err != nil {
			return zero, 0, err
		}
		if ok {
			fit, best, high = res, mid, mid
		} else {
			low = mid + 1
		}
	}
	return fit, best, nil
}
