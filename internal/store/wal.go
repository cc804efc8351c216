package store

// The write-ahead log: an ordered sequence of segment files, each holding
// length-prefixed CRC32-checksummed records. Segments are append-only and
// single-writer; rotation starts a fresh file, and recovery replays segments
// in sequence order, stopping cleanly at the first record that fails its
// frame or checksum (a torn tail from a crash mid-write).
//
// On-disk layout of a segment:
//
//	8 bytes  magic "rrwalsg1"
//	records: 4 bytes LE payload length
//	         4 bytes LE CRC32 (IEEE) of the payload
//	         payload
//
// A record is durable once its bytes and the preceding ones are fsynced;
// the SyncPolicy decides when that happens relative to the append.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rankregret/rankregret/internal/faultfs"
)

const (
	segMagic = "rrwalsg1"
	// recordHeader is the framing overhead per record: length + CRC32.
	recordHeader = 8
	// maxRecordBytes rejects absurd lengths before allocation; a register
	// event of the largest plausible dataset stays far below it.
	maxRecordBytes = 1 << 30
)

// SyncPolicy decides when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every record: a mutation is durable before it
	// is acknowledged. The safest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker: a crash loses at most the
	// last interval's acknowledged mutations, recovered state is still a
	// clean prefix.
	SyncInterval
	// SyncNever leaves flushing to the OS: fastest, loses the most on a
	// machine crash. A clean process exit still syncs everything.
	SyncNever
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses the -fsync flag: "always", "never", or an fsync
// interval duration such as "100ms".
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "always", "":
		return SyncAlways, 0, nil
	case "never":
		return SyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("store: bad fsync policy %q (want always, never, or a positive duration)", s)
	}
	return SyncInterval, d, nil
}

// On-disk file-name scheme, shared by the name builders, the directory
// listers, and the pruner so the format lives in exactly one place.
const (
	segPrefix, segSuffix   = "wal-", ".log"
	snapPrefix, snapSuffix = "snap-", ".snap"
)

func seqName(prefix, suffix string, seq uint64) string {
	return fmt.Sprintf("%s%016x%s", prefix, seq, suffix)
}

func segmentName(seq uint64) string  { return seqName(segPrefix, segSuffix, seq) }
func snapshotName(seq uint64) string { return seqName(snapPrefix, snapSuffix, seq) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name with the given prefix/suffix, or returns false.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSeqs returns the sorted sequence numbers of the dir's files matching
// prefix/suffix.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Filesystems that do not support directory fsync are silently tolerated.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// walWriter is the appending half of the WAL: the current segment file plus
// the lifetime counters. Appends, rotations, and closes are serialized by
// the Store's write lock; the writer's own mu exists so the SyncInterval
// flusher can fsync concurrently with nothing but the file operations —
// never stalling the Store's readers behind a disk flush.
type walWriter struct {
	mu    sync.Mutex
	dir   string
	fs    faultfs.FS // write-side filesystem seam (faultfs.Disk in production)
	seq   uint64     // current segment
	f     faultfs.File
	size  int64 // bytes written to the current segment
	dirty bool  // bytes appended since the last sync

	// failed wedges the writer after a write or fsync error: a partial
	// frame may sit mid-segment, and anything appended after it would be
	// unrecoverable (replay stops at the first invalid frame), so no later
	// record may ever be acknowledged as durable. Cleared only by reopening
	// the store, which always starts a fresh segment.
	failed error

	records uint64
	bytes   uint64
	// syncs is atomic: it is bumped by the flusher goroutine under w.mu
	// alone and read by Status/Summary under the store's read lock.
	syncs atomic.Uint64
}

// openWALWriter starts a fresh segment with the given sequence number.
// Recovery always rotates to a new segment rather than appending after a
// possibly-torn tail, so a segment only ever has one writing process.
func openWALWriter(fs faultfs.FS, dir string, seq uint64) (*walWriter, error) {
	w := &walWriter{dir: dir, fs: fs, seq: seq}
	if err := w.openSegment(seq); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *walWriter) openSegment(seq uint64) error {
	path := filepath.Join(w.dir, segmentName(seq))
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating WAL segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		// Remove the magicless husk: replay treats a header-less segment as
		// torn and stops there, so leaving it behind would make every later
		// segment unreachable (and its O_EXCL name would block a retried
		// open at the same sequence).
		_ = w.fs.Remove(path)
		return fmt.Errorf("store: writing WAL segment header: %w", err)
	}
	syncDir(w.dir)
	w.f, w.seq, w.size, w.dirty = f, seq, int64(len(segMagic)), true
	return nil
}

// wedge records a write/sync failure and returns the wrapped error all
// subsequent appends will report.
func (w *walWriter) wedge(err error) error {
	w.failed = fmt.Errorf("%w, refusing further writes until reopen: %v", ErrWALFailed, err)
	return w.failed
}

// append frames payload as one record and writes it to the current segment.
// Durability is the caller's concern (sync, per policy). Any write error
// wedges the writer: the segment may now hold a partial frame, and a record
// appended after it would be silently lost at replay.
func (w *walWriter) append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("store: WAL record of %d bytes exceeds the %d limit", len(payload), maxRecordBytes)
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return w.wedge(err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return w.wedge(err)
	}
	w.size += int64(recordHeader + len(payload))
	w.records++
	w.bytes += uint64(recordHeader + len(payload))
	w.dirty = true
	return nil
}

// sync flushes the current segment to stable storage. A failed fsync also
// wedges: the kernel may have dropped the dirty pages, so nothing past the
// last successful sync can be promised to be durable anymore.
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *walWriter) syncLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return w.wedge(err)
	}
	w.dirty = false
	w.syncs.Add(1)
	return nil
}

// rotate syncs and closes the current segment and starts segment newSeq.
// A failure after the close leaves no segment to write to, so it wedges the
// writer like a failed append.
func (w *walWriter) rotate(newSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.syncLocked(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return w.wedge(fmt.Errorf("store: closing WAL segment: %w", err))
	}
	if err := w.openSegment(newSeq); err != nil {
		return w.wedge(err)
	}
	return nil
}

// close syncs and closes the current segment.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayStats reports what a WAL replay saw.
type replayStats struct {
	segments int
	records  int
	// torn is true when replay stopped at an invalid record (truncated
	// frame, bad CRC, or a segment missing its header) instead of the clean
	// end of the last segment.
	torn bool
	// tornSeq/tornOff locate the first invalid byte when torn.
	tornSeq uint64
	tornOff int64
	// gap is true when a segment sequence number was missing: the writer
	// always produces contiguous sequences, so a hole means lost files
	// (partial restore, manual deletion), and events after it would apply
	// against the wrong base state. Replay stops at the gap.
	gap bool
}

// replaySegments streams every valid record of the dir's segments with
// sequence >= fromSeq, in order, to fn. It stops at the first invalid
// record — a crash can only tear the tail of the final segment — and at the
// first sequence gap, because anything after a hole cannot be trusted: the
// replayed prefix is exactly the durable prefix. fn errors abort the
// replay.
func replaySegments(dir string, fromSeq uint64, fn func(payload []byte) error) (replayStats, error) {
	var st replayStats
	seqs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		return st, err
	}
	// The writer rotates to seq+1 and recovery opens maxSeq+1, so on-disk
	// sequences form one contiguous range; with a snapshot baseline the
	// range must start at fromSeq (the segment created at the snapshot
	// cut). Without a baseline (fromSeq 0, snapshots lost) replay starts at
	// whatever prefix pruning left.
	expected := fromSeq
	for _, seq := range seqs {
		if seq < fromSeq {
			continue
		}
		if fromSeq == 0 && expected == 0 {
			expected = seq
		}
		if seq != expected {
			st.gap = true
			st.tornSeq = seq
			return st, nil
		}
		expected = seq + 1
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return st, fmt.Errorf("store: reading WAL segment %d: %w", seq, err)
		}
		st.segments++
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			st.torn, st.tornSeq, st.tornOff = true, seq, 0
			return st, nil
		}
		off := int64(len(segMagic))
		for off < int64(len(data)) {
			if off+recordHeader > int64(len(data)) {
				st.torn, st.tornSeq, st.tornOff = true, seq, off
				return st, nil
			}
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			sum := binary.LittleEndian.Uint32(data[off+4:])
			if n > maxRecordBytes || off+recordHeader+n > int64(len(data)) {
				st.torn, st.tornSeq, st.tornOff = true, seq, off
				return st, nil
			}
			payload := data[off+recordHeader : off+recordHeader+n]
			if crc32.ChecksumIEEE(payload) != sum {
				st.torn, st.tornSeq, st.tornOff = true, seq, off
				return st, nil
			}
			if err := fn(payload); err != nil {
				return st, err
			}
			st.records++
			off += recordHeader + n
		}
	}
	return st, nil
}

// removeBelow deletes the dir's prefix/suffix files with sequence < below,
// returning how many were removed and their total size. Used by snapshot
// pruning; removal failures are reported but non-fatal to the caller.
func removeBelow(fs faultfs.FS, dir, prefix, suffix string, below uint64) (int, int64, error) {
	seqs, err := listSeqs(dir, prefix, suffix)
	if err != nil {
		return 0, 0, err
	}
	removed, bytes := 0, int64(0)
	var firstErr error
	for _, seq := range seqs {
		if seq >= below {
			break
		}
		path := filepath.Join(dir, seqName(prefix, suffix, seq))
		var size int64
		if info, err := os.Stat(path); err == nil {
			size = info.Size()
		}
		if err := fs.Remove(path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed++
		bytes += size
	}
	return removed, bytes, firstErr
}

// segmentsOnDisk lists dir's WAL segments, ascending, and their total size:
// the scan behind Status and behind the in-memory total Summary serves.
func segmentsOnDisk(dir string) ([]SegmentInfo, int64) {
	seqs, _ := listSeqs(dir, segPrefix, segSuffix)
	var segs []SegmentInfo
	var total int64
	for _, seq := range seqs {
		info, err := os.Stat(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			continue
		}
		segs = append(segs, SegmentInfo{Seq: seq, Bytes: info.Size()})
		total += info.Size()
	}
	return segs, total
}

// Durability-fault sentinels, exported so serving layers can classify a
// rejected mutation as a server-side fault (5xx) rather than a bad request.
var (
	// ErrWALFailed marks mutations rejected because the WAL could not be
	// written or synced; the writer stays wedged until the store reopens.
	ErrWALFailed = errors.New("store: WAL write failed")
	// ErrClosed marks mutations attempted after Close.
	ErrClosed = errors.New("store: closed")
)
