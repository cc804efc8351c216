// Package dataset provides the tuple-set substrate every algorithm in this
// repository operates on: a compact row-major float64 matrix with attribute
// names, min-max normalization (the paper assumes each attribute's range is
// normalized to [0,1]), value shifting (for the shift-invariance theorems),
// direction flipping for smaller-is-better attributes, boundary/basis tuples,
// CSV input/output, the Borzsony-style synthetic workload generators, the
// adversarial lower-bound construction of Theorem 2, and seeded simulators
// standing in for the paper's three real datasets (Island, NBA, Weather).
package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Dataset is an n x d matrix of tuples. Larger attribute values are
// preferred; callers with smaller-is-better attributes should Negate them
// first (the paper's convention). The zero value is an empty dataset of
// dimension 0; use New or FromRows to construct a usable one.
//
// Datasets are versioned: every mutation bumps Version and is recorded in a
// bounded delta log readable via Deltas, and Snapshot takes a cheap
// same-lineage copy for version pinning. See delta.go.
type Dataset struct {
	d     int
	vals  []float64 // row-major, length n*d
	attrs []string  // length d, may contain empty names

	// Versioning state; see delta.go.
	lineage uint64
	version uint64
	floor   uint64 // earliest version Deltas can answer from
	log     []Delta

	// fp memoizes Fingerprint (0 = not yet computed). Mutating methods
	// reset it; the atomic makes concurrent readers of a settled dataset
	// race-free.
	fp atomic.Uint64

	// cols memoizes the column-major mirror behind UtilitiesBatch (nil =
	// not yet built). Whole-matrix mutations reset it; Append keeps the
	// stale mirror so ColumnMajor can repair it with straight copies
	// instead of a strided re-transpose. The atomic makes concurrent
	// readers of a settled dataset race-free.
	cols atomic.Pointer[colMirror]

	// basis memoizes Basis (nil = not yet computed). Every mutator resets
	// it, Append included; the memoized slice is never handed out, so
	// callers may sort their copy.
	basis atomic.Pointer[[]int]
}

// colMirror is a column-major copy of the value matrix together with the row
// count it was built at, so an append-stale mirror can be recognized and
// repaired. The vals slice is read-only once published.
type colMirror struct {
	vals []float64 // attribute j of tuple i at j*rows+i
	rows int
}

// lineageSeq hands out process-unique dataset identities.
var lineageSeq atomic.Uint64

// New returns an empty dataset with dimension d.
func New(d int) *Dataset {
	if d < 1 {
		panic(fmt.Sprintf("dataset: dimension %d < 1", d))
	}
	return &Dataset{d: d, attrs: make([]string, d), lineage: lineageSeq.Add(1)}
}

// NonFiniteError reports a NaN or ±Inf attribute value offered to a
// dataset: ranks, dominance and dual-line crossings are undefined over them.
type NonFiniteError struct {
	Row, Col int // 0-based data row and attribute
	Value    float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("dataset: row %d attribute %d is %v, want a finite value", e.Row, e.Col, e.Value)
}

// CheckFinite returns a *NonFiniteError for the first NaN or ±Inf in row,
// which is reported as data row i; nil if every value is finite.
func CheckFinite(i int, row []float64) error {
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NonFiniteError{Row: i, Col: j, Value: v}
		}
	}
	return nil
}

// FromRows builds a dataset from a slice of rows, copying the values.
// All rows must have the same non-zero length and only finite values (a
// non-finite one fails with a *NonFiniteError).
func FromRows(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: FromRows needs at least one row")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, fmt.Errorf("dataset: rows must have at least one attribute")
	}
	ds := New(d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("dataset: row %d has %d attributes, want %d", i, len(r), d)
		}
		if err := CheckFinite(i, r); err != nil {
			return nil, err
		}
		ds.Append(r)
	}
	return ds, nil
}

// MustFromRows is FromRows for static tables in tests and examples.
func MustFromRows(rows [][]float64) *Dataset {
	ds, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return ds
}

// N returns the number of tuples.
func (ds *Dataset) N() int {
	if ds.d == 0 {
		return 0
	}
	return len(ds.vals) / ds.d
}

// Dim returns the number of attributes.
func (ds *Dataset) Dim() int { return ds.d }

// Row returns tuple i as a slice view into the dataset's storage. Callers
// must not modify it; copy first if mutation is needed.
func (ds *Dataset) Row(i int) []float64 {
	return ds.vals[i*ds.d : (i+1)*ds.d : (i+1)*ds.d]
}

// Value returns attribute j of tuple i.
func (ds *Dataset) Value(i, j int) float64 { return ds.vals[i*ds.d+j] }

// Append copies row onto the end of the dataset.
func (ds *Dataset) Append(row []float64) {
	if len(row) != ds.d {
		panic(fmt.Sprintf("dataset: Append row of length %d to dimension-%d dataset", len(row), ds.d))
	}
	ds.vals = append(ds.vals, row...)
	ds.record(Delta{Kind: DeltaAppend, From: ds.version, To: ds.version + 1, Start: ds.N() - 1, Count: 1})
	ds.fp.Store(0) // the mirror stays: ColumnMajor repairs it in place
	ds.basis.Store(nil)
}

// Delete removes the rows at the given indices, compacting the ids above
// them downward (relative order of survivors is preserved). Indices may be
// unsorted and contain duplicates; an out-of-range index fails the whole
// call with no mutation. Deleting zero rows is a no-op that records nothing.
func (ds *Dataset) Delete(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	n, d := ds.N(), ds.d
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	uniq := sorted[:0]
	for i, id := range sorted {
		if id < 0 || id >= n {
			return fmt.Errorf("dataset: Delete index %d out of range [0, %d)", id, n)
		}
		if i > 0 && id == sorted[i-1] {
			continue
		}
		uniq = append(uniq, id)
	}
	w, di := 0, 0
	for i := 0; i < n; i++ {
		if di < len(uniq) && uniq[di] == i {
			di++
			continue
		}
		if w != i {
			copy(ds.vals[w*d:(w+1)*d], ds.vals[i*d:(i+1)*d])
		}
		w++
	}
	ds.vals = ds.vals[:w*d]
	ds.record(Delta{Kind: DeltaDelete, From: ds.version, To: ds.version + 1, Deleted: uniq})
	ds.dirty()
	return nil
}

// SetAttrs names the attributes; the slice is copied. Length must match Dim.
func (ds *Dataset) SetAttrs(names []string) error {
	if len(names) != ds.d {
		return fmt.Errorf("dataset: %d attribute names for dimension %d", len(names), ds.d)
	}
	copy(ds.attrs, names)
	ds.rewrite()
	return nil
}

// Attrs returns a copy of the attribute names.
func (ds *Dataset) Attrs() []string {
	out := make([]string, ds.d)
	copy(out, ds.attrs)
	return out
}

// Clone returns a deep copy with a fresh lineage and an empty mutation
// history: the copy is a new logical dataset whose initial state is this
// one's current content. Use Snapshot to take a same-lineage copy that
// preserves version identity.
func (ds *Dataset) Clone() *Dataset {
	out := New(ds.d)
	out.vals = append([]float64(nil), ds.vals...)
	copy(out.attrs, ds.attrs)
	return out
}

// Subset returns a new dataset containing the given rows (copied) in order.
func (ds *Dataset) Subset(ids []int) *Dataset {
	out := New(ds.d)
	copy(out.attrs, ds.attrs)
	for _, i := range ids {
		out.Append(ds.Row(i))
	}
	return out
}

// Head returns a copy containing the first n rows (or all rows if n exceeds N).
func (ds *Dataset) Head(n int) *Dataset {
	if n > ds.N() {
		n = ds.N()
	}
	out := New(ds.d)
	copy(out.attrs, ds.attrs)
	out.vals = append([]float64(nil), ds.vals[:n*ds.d]...)
	return out
}

// Project returns a copy restricted to the given attribute columns, in the
// given order.
func (ds *Dataset) Project(cols []int) (*Dataset, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: Project needs at least one column")
	}
	out := New(len(cols))
	names := make([]string, len(cols))
	for k, c := range cols {
		if c < 0 || c >= ds.d {
			return nil, fmt.Errorf("dataset: Project column %d out of range [0,%d)", c, ds.d)
		}
		names[k] = ds.attrs[c]
	}
	copy(out.attrs, names)
	row := make([]float64, len(cols))
	for i := 0; i < ds.N(); i++ {
		src := ds.Row(i)
		for k, c := range cols {
			row[k] = src[c]
		}
		out.Append(row)
	}
	return out, nil
}

// Utility returns the linear utility w(u, t_i) = sum_j u[j]*t_i[j].
func (ds *Dataset) Utility(u []float64, i int) float64 {
	row := ds.Row(i)
	var s float64
	for j, w := range u {
		s += w * row[j]
	}
	return s
}

// Utilities fills dst (length N) with the utility of every tuple under u and
// returns it. If dst is nil or too short a new slice is allocated.
func (ds *Dataset) Utilities(u []float64, dst []float64) []float64 {
	n := ds.N()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	d := ds.d
	switch d {
	case 2:
		// Unrolled hot path: 2D sweeps evaluate utilities in tight loops.
		u0, u1 := u[0], u[1]
		for i := 0; i < n; i++ {
			dst[i] = u0*ds.vals[i*2] + u1*ds.vals[i*2+1]
		}
	default:
		for i := 0; i < n; i++ {
			row := ds.vals[i*d : (i+1)*d]
			var s float64
			for j := 0; j < d; j++ {
				s += u[j] * row[j]
			}
			dst[i] = s
		}
	}
	return dst
}

// ColumnMajor returns a cached column-major mirror of the value matrix:
// attribute j of tuple i is at index j*N()+i. The mirror is built on first
// use; callers must treat it as read-only. It is the substrate of
// UtilitiesBatch: scoring many utility vectors walks each column contiguously
// instead of striding through rows.
//
// Whole-matrix mutations and deletes invalidate the mirror; appends keep it,
// and the next call repairs it with one contiguous copy per column (old
// column block + the appended tail) instead of re-transposing the matrix.
// Published mirrors are never mutated, so a slice returned before the append
// stays valid for the rows it covers.
func (ds *Dataset) ColumnMajor() []float64 {
	n, d := ds.N(), ds.d
	old := ds.cols.Load()
	if old != nil && old.rows == n {
		return old.vals
	}
	cols := make([]float64, n*d)
	if old != nil && old.rows < n {
		// Append repair: each column's settled prefix moves with one copy;
		// only the appended tail is gathered from the row-major values.
		n0 := old.rows
		for j := 0; j < d; j++ {
			copy(cols[j*n:j*n+n0], old.vals[j*n0:(j+1)*n0])
			for i := n0; i < n; i++ {
				cols[j*n+i] = ds.vals[i*d+j]
			}
		}
	} else {
		for i := 0; i < n; i++ {
			row := ds.vals[i*d : (i+1)*d]
			for j, v := range row {
				cols[j*n+i] = v
			}
		}
	}
	ds.cols.Store(&colMirror{vals: cols, rows: n})
	return cols
}

// utilitiesTupleTile is the tuple-block width of the batch-scoring kernel:
// one column strip of this many float64s (8 KB) stays L1-resident while
// every vector of the tile accumulates against it.
const utilitiesTupleTile = 1024

// UtilitiesBatch fills dst[b] (each length N) with the utility of every
// tuple under us[b] and returns dst. If dst is nil, too short, or holds
// under-sized rows, the needed slices are (re)allocated. Scores are
// bit-identical to per-vector Utilities calls: every tuple's sum starts at 0
// and adds the terms w_j*v_j in ascending j with the same expression form,
// so the bits agree even where a target fuses multiply-adds. The kernel runs
// over the cached column-major mirror in tuple tiles: each tile's column
// strips stay L1-resident while every vector of the batch scores against
// them, and for d = 4 and 5 a tuple's sum lives in a register across its
// columns and is stored once.
func (ds *Dataset) UtilitiesBatch(us [][]float64, dst [][]float64) [][]float64 {
	n, d := ds.N(), ds.d
	if cap(dst) < len(us) {
		dst = make([][]float64, len(us))
	}
	dst = dst[:len(us)]
	for b := range dst {
		if cap(dst[b]) < n {
			dst[b] = make([]float64, n)
		}
		dst[b] = dst[b][:n]
	}
	if n == 0 {
		return dst
	}
	cols := ds.ColumnMajor()
	for i0 := 0; i0 < n; i0 += utilitiesTupleTile {
		i1 := min(i0+utilitiesTupleTile, n)
		for b, u := range us {
			acc := dst[b][i0:i1]
			switch d {
			case 4:
				scoreTile4(acc, u, cols, n, i0)
			case 5:
				scoreTile5(acc, u, cols, n, i0)
			default:
				for i := range acc {
					acc[i] = 0
				}
				for j := 0; j < d; j++ {
					w := u[j]
					col := cols[j*n+i0 : j*n+i0+len(acc)]
					for i, v := range col {
						acc[i] += w * v
					}
				}
			}
		}
	}
	return dst
}

// scoreTile4 scores the tuples i0 .. i0+len(acc)-1 of a 4-attribute
// column-major mirror with n rows under u, summing each in a register.
func scoreTile4(acc, u, cols []float64, n, i0 int) {
	m := len(acc)
	w0, w1, w2, w3 := u[0], u[1], u[2], u[3]
	c0 := cols[i0:][:m]
	c1 := cols[n+i0:][:m]
	c2 := cols[2*n+i0:][:m]
	c3 := cols[3*n+i0:][:m]
	for i := range acc {
		s := 0.0
		s += w0 * c0[i]
		s += w1 * c1[i]
		s += w2 * c2[i]
		s += w3 * c3[i]
		acc[i] = s
	}
}

// scoreTile5 is scoreTile4 for 5 attributes.
func scoreTile5(acc, u, cols []float64, n, i0 int) {
	m := len(acc)
	w0, w1, w2, w3, w4 := u[0], u[1], u[2], u[3], u[4]
	c0 := cols[i0:][:m]
	c1 := cols[n+i0:][:m]
	c2 := cols[2*n+i0:][:m]
	c3 := cols[3*n+i0:][:m]
	c4 := cols[4*n+i0:][:m]
	for i := range acc {
		s := 0.0
		s += w0 * c0[i]
		s += w1 * c1[i]
		s += w2 * c2[i]
		s += w3 * c3[i]
		s += w4 * c4[i]
		acc[i] = s
	}
}

// Normalize min-max scales every attribute to [0,1] in place, matching the
// paper's preprocessing. Constant attributes become all-zero. It returns the
// per-attribute (min, max) pairs used, so callers can map results back to
// original units.
func (ds *Dataset) Normalize() (mins, maxs []float64) {
	n := ds.N()
	mins = make([]float64, ds.d)
	maxs = make([]float64, ds.d)
	for j := 0; j < ds.d; j++ {
		mins[j] = math.Inf(1)
		maxs[j] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		row := ds.Row(i)
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	for i := 0; i < n; i++ {
		row := ds.Row(i)
		for j := range row {
			span := maxs[j] - mins[j]
			if span == 0 {
				row[j] = 0
			} else {
				row[j] = (row[j] - mins[j]) / span
			}
		}
	}
	ds.rewrite()
	return mins, maxs
}

// Shift adds delta[j] to every value of attribute j, in place. Theorem 1
// proves RRM/RRRM solutions are invariant under this operation; tests rely
// on it.
func (ds *Dataset) Shift(delta []float64) {
	if len(delta) != ds.d {
		panic(fmt.Sprintf("dataset: Shift with %d deltas on dimension %d", len(delta), ds.d))
	}
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		for j := range row {
			row[j] += delta[j]
		}
	}
	ds.rewrite()
}

// Negate flips attribute j (v -> -v), in place, converting a
// smaller-is-better attribute to the larger-is-better convention. Follow
// with Normalize to restore the [0,1] range.
func (ds *Dataset) Negate(j int) {
	if j < 0 || j >= ds.d {
		panic(fmt.Sprintf("dataset: Negate attribute %d out of range [0,%d)", j, ds.d))
	}
	for i := 0; i < ds.N(); i++ {
		ds.Row(i)[j] = -ds.Row(i)[j]
	}
	ds.rewrite()
}

// Basis returns one boundary-tuple index per attribute: the tuple with the
// maximum value on that attribute (ties broken by lower index). After
// Normalize these are the paper's basis B (tuples with t[i] = 1). Duplicate
// indices are possible when one tuple dominates several attributes; the
// returned slice always has length Dim and is the caller's own. The basis
// is memoized, so repeated calls on a settled dataset cost one copy.
func (ds *Dataset) Basis() []int {
	if b := ds.basis.Load(); b != nil {
		return slices.Clone(*b)
	}
	n := ds.N()
	out := make([]int, ds.d)
	for j := 0; j < ds.d; j++ {
		best, bestV := 0, math.Inf(-1)
		for i := 0; i < n; i++ {
			if v := ds.Value(i, j); v > bestV {
				best, bestV = i, v
			}
		}
		out[j] = best
	}
	memo := slices.Clone(out)
	ds.basis.Store(&memo)
	return out
}

// Fingerprint returns a 64-bit FNV-1a hash over the dataset's shape,
// attribute names, and raw value bits. Two datasets with equal fingerprints
// are, for caching purposes, the same dataset; mutation (Negate, Normalize,
// Shift, Append) changes the fingerprint. The hash is memoized, so repeated
// calls on a settled dataset — the cache-hit hot path — are O(1); only the
// first call after construction or mutation pays the full pass.
func (ds *Dataset) Fingerprint() uint64 {
	if fp := ds.fp.Load(); fp != 0 {
		return fp
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(ds.d))
	put(uint64(ds.N()))
	for _, a := range ds.attrs {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	for _, v := range ds.vals {
		put(math.Float64bits(v))
	}
	fp := h.Sum64()
	// A true hash of 0 (1-in-2^64) is just never memoized.
	ds.fp.Store(fp)
	return fp
}

// dirty invalidates the memoized fingerprint, basis and column-major
// mirror. Append does not use it — an append-stale mirror is repairable —
// but every other mutator does.
func (ds *Dataset) dirty() {
	ds.fp.Store(0)
	ds.basis.Store(nil)
	ds.cols.Store(nil)
}

// rewrite records a whole-matrix mutation: derived structure cannot be
// repaired across it, only rebuilt.
func (ds *Dataset) rewrite() {
	ds.record(Delta{Kind: DeltaRewrite, From: ds.version, To: ds.version + 1})
	ds.dirty()
}

// String summarizes the dataset for logs.
func (ds *Dataset) String() string {
	return fmt.Sprintf("Dataset(n=%d, d=%d)", ds.N(), ds.d)
}
