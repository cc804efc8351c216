package dataset

// Durable binary encoding of a Dataset, the substrate of the store
// subsystem's WAL register events and snapshots. The encoding is complete:
// it carries the value matrix, attribute names, and the whole versioning
// state (lineage, version, delta-log floor, and the delta log itself), so a
// decoded dataset is indistinguishable from the original to every consumer —
// fingerprints match bit for bit, Deltas answers the same windows, and the
// engine's delta-aware VecSet cache can repair across versions recovered
// from disk exactly as it does across live mutations.
//
// The format is a compact tag-free sequence: a two-byte magic + format
// version, uvarint-encoded shape and versioning fields, and the raw IEEE-754
// bits of the value matrix. Integrity is the caller's concern (the store
// wraps every encoding in a CRC32-checked record); DecodeBinary's own
// validation exists so that arbitrary bytes never panic or allocate
// unboundedly, which the fuzz targets assert.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoding header: magic byte + format version. Bump the version when the
// layout changes; DecodeBinary rejects versions it does not know.
const (
	encMagic   = 0xD5
	encVersion = 1
)

// ErrEncoding is wrapped by every DecodeBinary failure.
var ErrEncoding = errors.New("dataset: invalid binary encoding")

func encErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrEncoding, fmt.Sprintf(format, args...))
}

// AppendUvarint appends v's unsigned-varint encoding to buf and returns the
// extended slice — the one varint-append helper every encoder in the
// durability stack (dataset encodings, WAL events, snapshot registries)
// shares.
func AppendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// AppendBinary appends the dataset's durable binary encoding to buf and
// returns the extended slice. The encoding includes the versioning state;
// DecodeBinary restores a dataset with the same fingerprint, lineage,
// version, and replayable delta history.
func (ds *Dataset) AppendBinary(buf []byte) []byte {
	putUvarint := func(v uint64) { buf = AppendUvarint(buf, v) }
	n := ds.N()
	buf = append(buf, encMagic, encVersion)
	putUvarint(uint64(ds.d))
	putUvarint(uint64(n))
	for _, a := range ds.attrs {
		putUvarint(uint64(len(a)))
		buf = append(buf, a...)
	}
	putUvarint(ds.lineage)
	putUvarint(ds.version)
	putUvarint(ds.floor)
	putUvarint(uint64(len(ds.log)))
	for _, d := range ds.log {
		buf = append(buf, byte(d.Kind))
		putUvarint(d.From)
		putUvarint(d.To)
		putUvarint(uint64(d.Start))
		putUvarint(uint64(d.Count))
		putUvarint(uint64(len(d.Deleted)))
		// Deleted ids are ascending and unique; gap encoding keeps dense
		// delete bursts to roughly one byte per id.
		prev := 0
		for i, id := range d.Deleted {
			if i == 0 {
				putUvarint(uint64(id))
			} else {
				putUvarint(uint64(id - prev))
			}
			prev = id
		}
	}
	off := len(buf)
	buf = append(buf, make([]byte, n*ds.d*8)...)
	for _, v := range ds.vals {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf
}

// decoder is a bounds-checked cursor over an encoding.
type decoder struct {
	data []byte
	off  int
}

func (dec *decoder) remaining() int { return len(dec.data) - dec.off }

func (dec *decoder) byte() (byte, error) {
	if dec.off >= len(dec.data) {
		return 0, encErr("truncated at offset %d", dec.off)
	}
	b := dec.data[dec.off]
	dec.off++
	return b, nil
}

func (dec *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(dec.data[dec.off:])
	if n <= 0 {
		return 0, encErr("bad uvarint at offset %d", dec.off)
	}
	dec.off += n
	return v, nil
}

// length decodes a uvarint that counts items of at least minBytes encoded
// bytes each, rejecting values the remaining input cannot possibly hold —
// the guard that keeps arbitrary inputs from triggering huge allocations.
func (dec *decoder) length(minBytes int, what string) (int, error) {
	v, err := dec.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(dec.remaining()/minBytes) {
		return 0, encErr("%s count %d exceeds remaining input", what, v)
	}
	return int(v), nil
}

// intField decodes a non-negative integer that is not a count of encoded
// items, rejecting only values that cannot round-trip through int.
func (dec *decoder) intField(what string) (int, error) {
	v, err := dec.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(math.MaxInt64/2) {
		return 0, encErr("%s %d out of range", what, v)
	}
	return int(v), nil
}

func (dec *decoder) bytes(n int) ([]byte, error) {
	if n > dec.remaining() {
		return nil, encErr("truncated at offset %d (need %d bytes)", dec.off, n)
	}
	b := dec.data[dec.off : dec.off+n]
	dec.off += n
	return b, nil
}

// DecodeBinary decodes one dataset encoding from the front of data,
// returning the dataset and the number of bytes consumed. The decoded
// dataset carries the encoded lineage, version, and delta log; the
// process-wide lineage sequence is advanced past the decoded lineage so
// datasets constructed later never collide with recovered identities.
// Arbitrary input returns an error wrapping ErrEncoding; it never panics.
func DecodeBinary(data []byte) (*Dataset, int, error) {
	dec := &decoder{data: data}
	magic, err := dec.byte()
	if err != nil {
		return nil, 0, err
	}
	if magic != encMagic {
		return nil, 0, encErr("bad magic 0x%02x", magic)
	}
	ver, err := dec.byte()
	if err != nil {
		return nil, 0, err
	}
	if ver != encVersion {
		return nil, 0, encErr("unknown format version %d", ver)
	}
	d, err := dec.length(0, "dimension")
	if err != nil {
		return nil, 0, err
	}
	if d < 1 {
		return nil, 0, encErr("dimension %d < 1", d)
	}
	n, err := dec.length(0, "row")
	if err != nil {
		return nil, 0, err
	}
	attrs := make([]string, d)
	for j := range attrs {
		alen, err := dec.length(1, "attribute name byte")
		if err != nil {
			return nil, 0, err
		}
		ab, err := dec.bytes(alen)
		if err != nil {
			return nil, 0, err
		}
		attrs[j] = string(ab)
	}
	lineage, err := dec.uvarint()
	if err != nil {
		return nil, 0, err
	}
	version, err := dec.uvarint()
	if err != nil {
		return nil, 0, err
	}
	floor, err := dec.uvarint()
	if err != nil {
		return nil, 0, err
	}
	nlog, err := dec.length(6, "delta")
	if err != nil {
		return nil, 0, err
	}
	var log []Delta
	if nlog > 0 {
		log = make([]Delta, nlog)
	}
	for i := range log {
		kind, err := dec.byte()
		if err != nil {
			return nil, 0, err
		}
		if DeltaKind(kind) < DeltaAppend || DeltaKind(kind) > DeltaRewrite {
			return nil, 0, encErr("delta %d has unknown kind %d", i, kind)
		}
		from, err := dec.uvarint()
		if err != nil {
			return nil, 0, err
		}
		to, err := dec.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if to <= from {
			return nil, 0, encErr("delta %d has non-increasing range [%d, %d]", i, from, to)
		}
		// Start and Count are historical row positions, not sizes of encoded
		// payload (a delta can reference rows long since deleted), so they
		// get a plain integer-range check rather than a remaining-bytes one.
		start, err := dec.intField("delta start")
		if err != nil {
			return nil, 0, err
		}
		count, err := dec.intField("delta count")
		if err != nil {
			return nil, 0, err
		}
		ndel, err := dec.length(1, "deleted id")
		if err != nil {
			return nil, 0, err
		}
		var deleted []int
		if ndel > 0 {
			deleted = make([]int, ndel)
			prev := uint64(0)
			for k := range deleted {
				v, err := dec.uvarint()
				if err != nil {
					return nil, 0, err
				}
				// Bound the raw component BEFORE accumulating: prev and v
				// each <= MaxInt64/2, so the sum cannot wrap uint64 — a
				// crafted near-2^64 gap must not alias to a small id and
				// sneak past the strictly-ascending check.
				if v > uint64(math.MaxInt64/2) {
					return nil, 0, encErr("delta %d deleted id gap %d out of range", i, v)
				}
				if k > 0 {
					if v == 0 {
						return nil, 0, encErr("delta %d deleted ids not strictly ascending", i)
					}
					v += prev
				}
				if v > uint64(math.MaxInt64/2) {
					return nil, 0, encErr("delta %d deleted id %d out of range", i, v)
				}
				deleted[k] = int(v)
				prev = v
			}
		}
		log[i] = Delta{Kind: DeltaKind(kind), From: from, To: to, Start: start, Count: count, Deleted: deleted}
	}
	if n > dec.remaining()/(8*d) {
		return nil, 0, encErr("value matrix %dx%d exceeds remaining input", n, d)
	}
	vb, err := dec.bytes(n * d * 8)
	if err != nil {
		return nil, 0, err
	}
	vals := make([]float64, n*d)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(vb[i*8:]))
	}
	// A snapshot or WAL record is a boundary like a CSV upload: a NaN or
	// ±Inf decoded from disk must not reach a solver either.
	for i := 0; i < n; i++ {
		if err := CheckFinite(i, vals[i*d:(i+1)*d]); err != nil {
			return nil, 0, fmt.Errorf("%w: %w", ErrEncoding, err)
		}
	}
	ds := &Dataset{
		d:       d,
		vals:    vals,
		attrs:   attrs,
		lineage: lineage,
		version: version,
		floor:   floor,
		log:     log,
	}
	bumpLineageFloor(lineage)
	return ds, dec.off, nil
}

// bumpLineageFloor advances the process-wide lineage sequence to at least l,
// so lineages restored from disk can never collide with ones assigned to
// datasets constructed afterwards in this process.
func bumpLineageFloor(l uint64) {
	for {
		cur := lineageSeq.Load()
		if cur >= l || lineageSeq.CompareAndSwap(cur, l) {
			return
		}
	}
}
