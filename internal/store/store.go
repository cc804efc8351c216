// Package store is the durability layer of the serving stack: a versioned
// named-dataset registry whose every lifecycle mutation (register, append,
// delete, drop) is appended to a checksummed write-ahead log before it is
// published, with periodic full snapshots bounding replay cost. A Store
// reopened over the same directory recovers the exact pre-crash registry —
// retained version windows, fingerprints, lineages, and delta logs are
// byte-identical — tolerating a torn WAL tail from a crash mid-write by
// recovering the longest durable prefix.
//
// The live mutation API and crash replay share one validation step
// (appendNext/deleteNext, which also reject non-finite values) and one apply
// step (Versions.publish), so the WAL never holds a record replay would
// reject and the recovered state cannot drift from what a process that
// never crashed would hold. Every live mutation commits through one path
// (commit), and every snapshot is a cut followed by a persist (cutLocked,
// then persistLocked or the background writer), so a failed cut degrades
// the store however the snapshot was started. A Store with no directory is
// ephemeral: the same API, durability off — which lets serving layers use
// one code path unconditionally.
package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/faultfs"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Defaults for Options zero values.
const (
	// DefaultRetain is the retained-version window used when Options.Retain
	// is unset.
	DefaultRetain = 8
	// DefaultSegmentBytes is the WAL rotation threshold.
	DefaultSegmentBytes = 8 << 20
	// DefaultSnapshotEvery is how many WAL records separate automatic
	// snapshots.
	DefaultSnapshotEvery = 1024
)

// Store errors surfaced to serving layers.
var (
	// ErrUnknownDataset is wrapped by mutations naming an unregistered
	// dataset.
	ErrUnknownDataset = errors.New("store: unknown dataset")
	// ErrWouldEmpty rejects deletes that would leave a dataset with no rows
	// (the registry never serves an empty dataset).
	ErrWouldEmpty = errors.New("store: refusing to delete every row")
	// ErrDegraded is wrapped by mutations rejected while the store is in the
	// degraded state: durability cannot currently be promised, so mutations
	// are refused while reads keep serving from memory. The self-healing
	// loop clears the state once the underlying fault passes; serving layers
	// should map this to 503 + Retry-After.
	ErrDegraded = errors.New("store: degraded, mutations temporarily rejected")
)

// HealthState is the store's position in the health state machine:
//
//	healthy --(WAL write/sync failure, snapshot failure)--> degraded
//	degraded --(self-heal: fresh segment + re-sync snapshot)--> healthy
//	healthy|degraded --(Close)--> closed
//
// In degraded, reads (lookups, solves over registered datasets) keep
// working from memory; mutations fail fast with ErrDegraded.
type HealthState string

const (
	HealthHealthy  HealthState = "healthy"
	HealthDegraded HealthState = "degraded"
	HealthClosed   HealthState = "closed"
)

// Degradation reasons, machine-readable for /healthz and alerting.
const (
	// ReasonWALFailed: a WAL write, fsync or segment rotation (including a
	// snapshot cut's) failed; the writer is wedged until the healer replaces
	// it.
	ReasonWALFailed = "wal_failed"
	// ReasonSnapshotError: a snapshot cut or persist failed; replay cost is
	// unbounded (and the disk is likely full) until a snapshot lands.
	ReasonSnapshotError = "snapshot_error"
)

// Health is the machine-readable health report behind /healthz and
// GET /v1/store/status.
type Health struct {
	State  HealthState `json:"state"`
	Reason string      `json:"reason,omitempty"`
	Detail string      `json:"detail,omitempty"`
	// Since is when the current degraded episode began (zero when healthy).
	Since time.Time `json:"since,omitzero"`
	// HealAttempts / HealSuccesses count self-healing tries and completed
	// recoveries over the store's lifetime.
	HealAttempts  uint64 `json:"heal_attempts"`
	HealSuccesses uint64 `json:"heal_successes"`
}

// Options configures Open.
type Options struct {
	// Dir is the data directory. Empty means ephemeral: the full registry
	// API with durability disabled.
	Dir string
	// Retain caps each dataset's version history (0 = DefaultRetain). It
	// is the window replay trims to, and the one live mutations trim to
	// unless they pass their own positive retain.
	Retain int
	// SegmentBytes rotates the WAL segment when it would exceed this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// SnapshotEvery writes an automatic snapshot after this many WAL
	// records (0 = DefaultSnapshotEvery, negative = only on Close/Compact).
	SnapshotEvery int
	// Sync is the WAL durability policy.
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (0 = 100ms).
	SyncInterval time.Duration
	// FS is the write-side filesystem seam (nil = the real disk). Tests and
	// the chaos harness pass a faultfs.Injector here; reads always go to the
	// OS directly (see faultfs).
	FS faultfs.FS
	// HealBackoff is the self-healing loop's initial retry delay after a
	// failed heal attempt (0 = 100ms); it doubles with jitter up to
	// HealMaxBackoff (0 = 5s).
	HealBackoff    time.Duration
	HealMaxBackoff time.Duration
	// Logger, when set, receives recovery, degradation, and pruning
	// diagnostics as structured records (nil = discard).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Retain < 1 {
		o.Retain = DefaultRetain
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = faultfs.Disk
	}
	if o.HealBackoff <= 0 {
		o.HealBackoff = 100 * time.Millisecond
	}
	if o.HealMaxBackoff <= 0 {
		o.HealMaxBackoff = 5 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Versions is one registry entry: the retained version history of a logical
// dataset, oldest first. Every listed version is immutable once published;
// mutations snapshot the newest version, apply, and publish, so solves
// pinned to any retained version stay consistent. Safe for concurrent use.
type Versions struct {
	mu   sync.Mutex
	list []*dataset.Dataset

	// mutateMu serializes store mutations of this dataset end to end
	// (successor build -> WAL -> publish), so the expensive value-matrix
	// copy runs outside the store's global lock without two concurrent
	// mutations snapshotting the same base and losing one of the updates.
	mutateMu sync.Mutex
}

// Current returns the newest version.
func (v *Versions) Current() *dataset.Dataset {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.list[len(v.list)-1]
}

// At resolves a pinned version (0 = current).
func (v *Versions) At(version uint64) (*dataset.Dataset, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if version == 0 {
		return v.list[len(v.list)-1], true
	}
	for _, ds := range v.list {
		if ds.Version() == version {
			return ds, true
		}
	}
	return nil, false
}

// List returns the retained versions, oldest first.
func (v *Versions) List() []*dataset.Dataset {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]*dataset.Dataset(nil), v.list...)
}

// publish appends next as the new current version, trimming history past
// retain (>= 1).
func (v *Versions) publish(next *dataset.Dataset, retain int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.list = append(v.list, next)
	if len(v.list) > retain {
		v.list = append([]*dataset.Dataset(nil), v.list[len(v.list)-retain:]...)
	}
}

// RecoveryInfo reports what Open reconstructed from the data directory.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence of the snapshot recovery loaded (0 =
	// started empty).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotDatasets counts the datasets the snapshot held.
	SnapshotDatasets int `json:"snapshot_datasets"`
	// SegmentsReplayed / RecordsReplayed measure the WAL suffix replayed on
	// top of the snapshot.
	SegmentsReplayed int `json:"segments_replayed"`
	RecordsReplayed  int `json:"records_replayed"`
	// RecordsSkipped is non-zero when replay HALTED at a checksummed record
	// that failed to decode or apply (format skew; never an ordinary torn
	// tail): events after it would apply against the wrong base, so
	// recovery keeps the prefix and stops there.
	RecordsSkipped int `json:"records_skipped"`
	// TornTail reports that replay stopped at an invalid record — the
	// expected shape of a crash mid-append — and recovered the prefix.
	TornTail bool `json:"torn_tail"`
	// SegmentGap reports that a WAL segment sequence was missing (lost
	// files); replay stopped at the gap rather than apply events against
	// the wrong base state.
	SegmentGap bool `json:"segment_gap"`
	// Datasets counts registry entries after recovery.
	Datasets int `json:"datasets"`
}

// SegmentInfo describes one on-disk WAL segment.
type SegmentInfo struct {
	Seq   uint64 `json:"seq"`
	Bytes int64  `json:"bytes"`
}

// Status is the machine-readable store health behind rrmd's
// GET /v1/store/status.
type Status struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Sync    string `json:"fsync,omitempty"`
	// Segments lists the on-disk WAL segments, ascending; WALBytes is
	// their total size.
	Segments   []SegmentInfo `json:"segments,omitempty"`
	WALBytes   int64         `json:"wal_bytes"`
	SegmentSeq uint64        `json:"segment_seq,omitempty"`
	// Records and Syncs count appends and fsyncs since open.
	Records uint64 `json:"records_appended"`
	Syncs   uint64 `json:"syncs"`
	// SnapshotSeq names the newest snapshot; SnapshotLag is how many WAL
	// records a crash right now would have to replay past it.
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	Snapshots   uint64 `json:"snapshots_written"`
	SnapshotLag int    `json:"snapshot_lag"`
	// SnapshotError carries the last snapshot failure, cut or persist, on
	// any path (empty once one succeeds); a failure also degrades the store
	// until healed.
	SnapshotError string       `json:"snapshot_error,omitempty"`
	Datasets      int          `json:"datasets"`
	Recovery      RecoveryInfo `json:"recovery"`
	Health        Health       `json:"health"`
}

// Summary is the cheap durability digest for hot paths (metrics, health
// probes, batch responses): all in-memory counters, no filesystem access.
// The authoritative per-segment picture is Status.
type Summary struct {
	Enabled       bool   `json:"enabled"`
	Records       uint64 `json:"records_appended"`
	SnapshotLag   int    `json:"snapshot_lag"`
	WALBytes      int64  `json:"wal_bytes"`
	SnapshotError string `json:"snapshot_error,omitempty"`
	// Syncs and Snapshots count completed fsyncs and persisted snapshots
	// since open (carried across heals), so scrapers get lifetime counters
	// without the directory scan Status performs.
	Syncs     uint64 `json:"syncs"`
	Snapshots uint64 `json:"snapshots"`
	// State/Reason mirror Health for metrics scrapers; HealAttempts and
	// HealSuccesses count self-healing activity since open.
	State         HealthState `json:"state"`
	Reason        string      `json:"reason,omitempty"`
	HealAttempts  uint64      `json:"heal_attempts"`
	HealSuccesses uint64      `json:"heal_successes"`
	// Retain is the retained-version window (Options.Retain).
	Retain int `json:"retain"`
}

// Store is the durable registry. All methods are safe for concurrent use;
// mutations are serialized so WAL order equals publish order.
type Store struct {
	opts Options

	// mu is a write lock for mutations (which hold it across the WAL
	// append + fsync) and a read lock for lookups, so solves and health
	// probes never wait behind each other — only behind the current
	// mutation. Snapshot encoding and writing run OFF this lock entirely
	// (see cutLocked/persistCut): a mutation only takes the cheap cut.
	mu        sync.RWMutex
	reg       map[string]*Versions
	wal       *walWriter // nil when ephemeral
	snapSeq   uint64
	sinceSnap int
	snapshots uint64
	snapErr   error // last snapshot failure (nil once one succeeds)
	// snapDone is non-nil while a claimed cut is being persisted, and is
	// closed when that persist finishes.
	snapDone chan struct{}
	walBytes int64 // on-disk WAL total, tracked so Summary never stats
	closed   bool

	// Health state machine (see HealthState). Mutations check health under
	// the same lock they hold for the WAL append, so a degraded store can
	// never ack a record replay would lose.
	health         HealthState
	degradedReason string
	degradedDetail string
	degradedSince  time.Time
	healAttempts   uint64
	healSuccesses  uint64

	recovery RecoveryInfo

	stopSync chan struct{}
	syncDone chan struct{}

	// healKick wakes the healLoop when the store degrades (buffered so
	// enterDegradedLocked never blocks under the lock).
	healKick chan struct{}
	stopHeal chan struct{}
	healDone chan struct{}

	// obsv is the latency instrumentation (see Instrument), swapped in
	// atomically because the sync/heal loops run before metrics are wired.
	obsv atomic.Pointer[storeObs]

	// healthCB is the health-transition hook (see OnHealthChange), swapped
	// in atomically for the same late-wiring reason as obsv.
	healthCB atomic.Pointer[func(HealthState)]
}

// OnHealthChange installs fn to be called on every health transition
// (healthy -> degraded and back). Like Instrument, it is wired after Open —
// the serving layer's flight recorder does not exist yet when the store
// opens. fn runs on its own goroutine, never under store locks, so it may
// freely call back into the store (e.g. to snapshot Health for an incident
// bundle). Transitions are rare (fault and heal), so ordering between a
// degrade and an immediately following heal is preserved only by the
// timestamps fn observes, not by delivery order.
func (st *Store) OnHealthChange(fn func(HealthState)) {
	st.healthCB.Store(&fn)
}

// notifyHealth fires the health hook, if installed. Safe under st.mu.
func (st *Store) notifyHealth(state HealthState) {
	if cb := st.healthCB.Load(); cb != nil {
		go (*cb)(state)
	}
}

// Open recovers (or initializes) a store over opts.Dir: load the newest
// valid snapshot, replay the WAL suffix — tolerating a torn tail — and
// start a fresh segment for this process's appends. An empty Dir returns an
// ephemeral store.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	st := &Store{opts: opts, reg: make(map[string]*Versions), health: HealthHealthy}
	if opts.Dir == "" {
		return st, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	if n := sweepSnapshotTmp(opts.FS, opts.Dir, opts.Logger); n > 0 {
		opts.Logger.Info("store: swept stale snapshot tmp files", "count", n)
	}
	startSeq, err := st.loadLatestSnapshot()
	if err != nil {
		return nil, err
	}
	maxSeq, err := st.replayWAL(startSeq)
	if err != nil {
		return nil, err
	}
	st.recovery.Datasets = len(st.reg)
	if st.wal, err = openWALWriter(opts.FS, opts.Dir, maxSeq+1); err != nil {
		return nil, err
	}
	// The heal channels exist before the boot snapshot so a boot-snapshot
	// failure's degrade can kick the (not yet started) loop.
	st.healKick = make(chan struct{}, 1)
	st.stopHeal = make(chan struct{})
	st.healDone = make(chan struct{})
	_, st.walBytes = segmentsOnDisk(opts.Dir)
	st.sinceSnap = st.recovery.RecordsReplayed
	// A boot snapshot is mandatory after a torn or gapped replay: the next
	// recovery's replay would stop at the same damaged record, so anything
	// acked into the fresh segment beyond it would be silently lost — the
	// snapshot moves the replay start past the damage. It is also written
	// after a long clean replay, purely to bound repeated-crash restart
	// cost. Open is single-threaded; the lock is taken only because the
	// persist drops and retakes it.
	mustSnap := st.recovery.TornTail || st.recovery.SegmentGap || st.recovery.RecordsSkipped > 0
	if mustSnap || (opts.SnapshotEvery > 0 && st.sinceSnap >= opts.SnapshotEvery) {
		st.mu.Lock()
		err := st.snapshotLocked()
		st.mu.Unlock()
		if err != nil {
			if mustSnap {
				// A damaged suffix without a superseding snapshot would lose
				// every mutation acked after this recovery at the NEXT one;
				// a store that cannot promise that must not accept writes.
				st.wal.close()
				return nil, fmt.Errorf("store: boot snapshot: %w", err)
			}
			// The replayed WAL is complete and intact; the snapshot was a
			// replay-cost optimization. The failed cut or persist has
			// already degraded the store; the healer retries once it starts
			// below.
			st.opts.Logger.Warn("store: boot snapshot failed, opening degraded", "err", err)
		}
	}
	if opts.Sync == SyncInterval {
		st.stopSync = make(chan struct{})
		st.syncDone = make(chan struct{})
		go st.syncLoop()
	}
	go st.healLoop()
	return st, nil
}

// loadLatestSnapshot loads the newest snapshot that validates, falling back
// to older ones, and returns the WAL sequence replay must continue from.
func (st *Store) loadLatestSnapshot() (uint64, error) {
	seqs, err := listSeqs(st.opts.Dir, snapPrefix, snapSuffix)
	if err != nil {
		return 0, fmt.Errorf("store: listing snapshots: %w", err)
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		payload, err := readSnapshot(st.opts.Dir, seq)
		if err != nil {
			st.opts.Logger.Warn("store: snapshot unusable, falling back", "seq", seq, "err", err)
			continue
		}
		reg, err := decodeRegistry(payload)
		if err != nil {
			st.opts.Logger.Warn("store: snapshot undecodable, falling back", "seq", seq, "err", err)
			continue
		}
		st.reg = reg
		st.snapSeq = seq
		st.recovery.SnapshotSeq = seq
		st.recovery.SnapshotDatasets = len(reg)
		return seq, nil
	}
	return 0, nil
}

// errHaltReplay aborts a replay at a record that framed and checksummed
// correctly but could not be decoded or applied (format skew): later events
// were minted against a state that includes it, so applying them to the
// prefix would silently diverge — the same wrong-base hazard as a segment
// gap. Recovery keeps the prefix and stops.
var errHaltReplay = errors.New("store: replay halted")

// replayWAL applies the durable WAL suffix and returns the highest segment
// sequence present on disk (startSeq when none are).
func (st *Store) replayWAL(startSeq uint64) (uint64, error) {
	stats, err := replaySegments(st.opts.Dir, startSeq, func(payload []byte) error {
		ev, err := decodeEvent(payload)
		if err != nil {
			st.recovery.RecordsSkipped++
			st.opts.Logger.Warn("store: replay halted at undecodable WAL record", "err", err)
			return errHaltReplay
		}
		if _, err := st.applyEvent(ev, st.opts.Retain); err != nil {
			st.recovery.RecordsSkipped++
			st.opts.Logger.Warn("store: replay halted at unappliable WAL record",
				"kind", ev.Kind, "dataset", ev.Name, "err", err)
			return errHaltReplay
		}
		return nil
	})
	if errors.Is(err, errHaltReplay) {
		err = nil // prefix recovery; the boot snapshot supersedes the bad suffix
	}
	if err != nil {
		return 0, err
	}
	st.recovery.SegmentsReplayed = stats.segments
	st.recovery.RecordsReplayed = stats.records
	st.recovery.TornTail = stats.torn
	st.recovery.SegmentGap = stats.gap
	if stats.torn {
		st.opts.Logger.Warn("store: discarded torn WAL tail", "segment", stats.tornSeq, "offset", stats.tornOff)
	}
	if stats.gap {
		st.opts.Logger.Warn("store: WAL segment sequence gap; later segments ignored", "segment", stats.tornSeq)
	}
	maxSeq := startSeq
	if seqs, err := listSeqs(st.opts.Dir, segPrefix, segSuffix); err == nil && len(seqs) > 0 {
		if last := seqs[len(seqs)-1]; last > maxSeq {
			maxSeq = last
		}
	}
	return maxSeq, nil
}

// applyEvent mutates the registry per ev. It is the single apply path shared
// by live mutations and replay, which is what makes recovery byte-identical.
// Called with st.mu held.
func (st *Store) applyEvent(ev Event, retain int) (*dataset.Dataset, error) {
	switch ev.Kind {
	case EventRegister:
		st.reg[ev.Name] = &Versions{list: []*dataset.Dataset{ev.Dataset}}
		return ev.Dataset, nil
	case EventDrop:
		if _, ok := st.reg[ev.Name]; !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownDataset, ev.Name)
		}
		delete(st.reg, ev.Name)
		return nil, nil
	case EventAppend:
		vv, ok := st.reg[ev.Name]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownDataset, ev.Name)
		}
		next, err := appendNext(vv.Current(), ev.Rows)
		if err != nil {
			return nil, err
		}
		vv.publish(next, retain)
		return next, nil
	case EventDelete:
		vv, ok := st.reg[ev.Name]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownDataset, ev.Name)
		}
		next, err := deleteNext(vv.Current(), ev.IDs)
		if err != nil {
			return nil, err
		}
		vv.publish(next, retain)
		return next, nil
	default:
		return nil, fmt.Errorf("store: unknown event kind %d", ev.Kind)
	}
}

// appendNext validates rows against cur — each must have cur's dimension
// and only finite values, exactly what replay's decodeEvent accepts — and
// builds the appended successor version without publishing it. Validation
// runs before the value-matrix copy, so malformed rows cost nothing.
func appendNext(cur *dataset.Dataset, rows [][]float64) (*dataset.Dataset, error) {
	if len(rows) == 0 {
		return nil, errors.New("store: append of zero rows")
	}
	for i, row := range rows {
		if len(row) != cur.Dim() {
			return nil, fmt.Errorf("store: row %d has %d attributes, want %d", i, len(row), cur.Dim())
		}
		if err := dataset.CheckFinite(i, row); err != nil {
			return nil, err
		}
	}
	next := cur.Snapshot()
	for _, row := range rows {
		next.Append(row)
	}
	return next, nil
}

// deleteNext validates ids against cur and builds the compacted successor
// version without publishing it.
func deleteNext(cur *dataset.Dataset, ids []int) (*dataset.Dataset, error) {
	if len(ids) == 0 {
		return nil, errors.New("store: delete of zero rows")
	}
	for _, id := range ids {
		if id < 0 || id >= cur.N() {
			return nil, fmt.Errorf("store: delete index %d out of range [0, %d)", id, cur.N())
		}
	}
	next := cur.Snapshot()
	if err := next.Delete(ids); err != nil {
		return nil, err
	}
	if next.N() == 0 {
		return nil, ErrWouldEmpty
	}
	return next, nil
}

// logPayload makes a pre-encoded event durable per the sync policy,
// rotating the segment when it would overflow. Called with st.mu
// write-held, before the event is published. Any failure wedges the writer
// (see walWriter.wedge) and degrades the store; the self-healing loop takes
// it from there.
func (st *Store) logPayload(ctx context.Context, payload []byte) error {
	if st.wal == nil {
		return nil
	}
	so := st.obsv.Load()
	if st.wal.size > int64(len(segMagic)) &&
		st.wal.size+recordHeader+int64(len(payload)) > st.opts.SegmentBytes {
		if err := st.wal.rotate(st.wal.seq + 1); err != nil {
			st.enterDegradedLocked(ReasonWALFailed, err)
			return err
		}
		st.walBytes += int64(len(segMagic))
	}
	appendStart := time.Now()
	endAppend := obs.StartSpan(ctx, "wal_append")
	err := st.wal.append(payload)
	endAppend()
	if so != nil {
		so.walAppend.ObserveSince(appendStart)
	}
	if err != nil {
		st.enterDegradedLocked(ReasonWALFailed, err)
		return err
	}
	st.walBytes += recordHeader + int64(len(payload))
	if st.opts.Sync == SyncAlways {
		syncStart := time.Now()
		endSync := obs.StartSpan(ctx, "wal_fsync")
		err := st.wal.sync()
		endSync()
		if so != nil {
			so.walFsync.ObserveSince(syncStart)
		}
		if err != nil {
			st.enterDegradedLocked(ReasonWALFailed, err)
			return err
		}
	}
	st.sinceSnap++
	return nil
}

// enterDegradedLocked moves the store to degraded and wakes the healer.
// Idempotent: the first fault's reason and detail are kept until healed.
// Called with st.mu write-held.
func (st *Store) enterDegradedLocked(reason string, err error) {
	if st.closed || st.health != HealthHealthy {
		return
	}
	st.health = HealthDegraded
	st.degradedReason = reason
	st.degradedDetail = err.Error()
	st.degradedSince = time.Now()
	st.opts.Logger.Error("store: entering degraded", "reason", reason, "err", err)
	st.notifyHealth(HealthDegraded)
	if st.healKick != nil {
		select {
		case st.healKick <- struct{}{}:
		default:
		}
	}
}

// degradedErrLocked builds the mutation-rejection error for the current
// degraded episode. Callers hold st.mu (read or write).
func (st *Store) degradedErrLocked() error {
	return fmt.Errorf("%w (%s): %s", ErrDegraded, st.degradedReason, st.degradedDetail)
}

// maybeSnapshotLocked starts an automatic snapshot when the WAL has grown
// SnapshotEvery records past the last cut. The triggering mutation is
// already WAL-durable and published, so snapshotting must neither fail it
// nor slow it down: the mutation pays only the cut (a segment rotation and
// a map of pointer copies); encoding and writing the registry run in a
// background goroutine against the immutable captured view. Failures
// degrade the store (see cutLocked and finishCutLocked) and are surfaced in
// Status/Summary. Called with st.mu write-held.
func (st *Store) maybeSnapshotLocked(ctx context.Context) {
	if st.wal == nil || st.opts.SnapshotEvery <= 0 || st.sinceSnap < st.opts.SnapshotEvery ||
		st.snapDone != nil || st.health != HealthHealthy {
		return
	}
	seq, view, err := st.cutLocked(ctx)
	if err != nil {
		return
	}
	go func() {
		werr := st.persistCut(seq, view)
		st.mu.Lock()
		st.finishCutLocked(seq, werr)
		st.mu.Unlock()
	}()
}

// cutLocked takes a snapshot cut: rotate to a fresh segment S and claim it
// (see claimLocked). Records appended afterwards land in segment S and will
// be replayed on top of the snapshot. A failed rotation leaves the WAL
// writer without a segment, so it records the error and degrades the store
// (wal_failed) whichever path asked for the cut. The caller must persist a
// successful cut, through persistLocked or finishCutLocked. Called with
// st.mu write-held and no cut in flight.
func (st *Store) cutLocked(ctx context.Context) (uint64, map[string][]*dataset.Dataset, error) {
	start := time.Now()
	end := obs.StartSpan(ctx, "snapshot_cut")
	err := st.wal.rotate(st.wal.seq + 1)
	end()
	if so := st.obsv.Load(); so != nil {
		so.snapCut.ObserveSince(start)
	}
	if err != nil {
		st.snapErr = err
		st.enterDegradedLocked(ReasonWALFailed, err)
		st.opts.Logger.Error("store: snapshot cut failed", "err", err)
		return 0, nil, err
	}
	st.walBytes += int64(len(segMagic))
	seq, view := st.claimLocked()
	return seq, view, nil
}

// claimLocked claims the in-flight slot for a snapshot at the current
// segment's sequence and captures an immutable view of the registry as of
// that boundary (published datasets are never mutated in place, so the view
// is a map of pointer copies). Called with st.mu write-held.
func (st *Store) claimLocked() (uint64, map[string][]*dataset.Dataset) {
	st.sinceSnap = 0
	st.snapDone = make(chan struct{})
	return st.wal.seq, registryView(st.reg)
}

// persistCut encodes and writes a cut as snap-<seq>. It takes no locks —
// the view is immutable — so mutations and reads proceed while it runs.
func (st *Store) persistCut(seq uint64, view map[string][]*dataset.Dataset) error {
	start := time.Now()
	err := writeSnapshot(st.opts.FS, st.opts.Dir, seq, encodeRegistry(view))
	if so := st.obsv.Load(); so != nil {
		so.snapPersist.ObserveSince(start)
	}
	return err
}

// persistLocked persists a claimed cut synchronously: st.mu is dropped while
// the snapshot is written and re-held on return.
func (st *Store) persistLocked(seq uint64, view map[string][]*dataset.Dataset) error {
	st.mu.Unlock()
	err := st.persistCut(seq, view)
	st.mu.Lock()
	return st.finishCutLocked(seq, err)
}

// snapshotLocked cuts and synchronously persists a snapshot. Called with
// st.mu write-held and no cut in flight; the lock is dropped while the
// snapshot is written.
func (st *Store) snapshotLocked() error {
	seq, view, err := st.cutLocked(context.Background())
	if err != nil {
		return err
	}
	return st.persistLocked(seq, view)
}

// finishCutLocked releases the in-flight slot and records a persist
// attempt's outcome: on success the snapshot becomes current and files
// older than its predecessor (the kept fallback) are pruned. Called with
// st.mu write-held.
func (st *Store) finishCutLocked(seq uint64, err error) error {
	close(st.snapDone)
	st.snapDone = nil
	if err != nil {
		st.snapErr = err
		// A failed snapshot degrades the store: the disk is likely full, the
		// WAL would grow without bound, and replay cost is no longer bounded.
		// The healer retries (with backoff) rather than waiting for the next
		// record threshold — which a degraded store would never reach, since
		// it rejects mutations.
		st.enterDegradedLocked(ReasonSnapshotError, err)
		st.opts.Logger.Error("store: snapshot failed (healer retries)", "seq", seq, "err", err)
		return err
	}
	prev := st.snapSeq
	st.snapSeq = seq
	st.snapshots++
	st.snapErr = nil
	if prev > 0 {
		st.pruneBelow(prev)
	}
	return nil
}

// awaitSnapshotLocked blocks until no persist is in flight. Called with
// st.mu write-held; the lock is dropped while waiting and re-held on
// return.
func (st *Store) awaitSnapshotLocked() {
	for st.snapDone != nil {
		done := st.snapDone
		st.mu.Unlock()
		<-done
		st.mu.Lock()
	}
}

// pruneBelow removes snapshots and segments with sequence < keep, keeping
// the tracked WAL total in step with the disk.
func (st *Store) pruneBelow(keep uint64) {
	if _, _, err := removeBelow(st.opts.FS, st.opts.Dir, snapPrefix, snapSuffix, keep); err != nil {
		st.opts.Logger.Warn("store: pruning snapshots failed", "err", err)
	}
	_, bytes, err := removeBelow(st.opts.FS, st.opts.Dir, segPrefix, segSuffix, keep)
	st.walBytes -= bytes
	if err != nil {
		st.opts.Logger.Warn("store: pruning WAL segments failed", "err", err)
	}
}

// syncLoop is the SyncInterval flusher. It grabs the current walWriter under
// a read lock (the healer swaps writers), then syncs through the writer's
// own mutex, so a slow fsync stalls only the mutation that races it on w.mu
// — not every reader. Close stops this loop before closing the WAL, so w.f
// stays valid throughout. A sync failure wedges the writer (nothing past the
// last good sync can be promised durable), so the loop degrades the store —
// but only if that writer is still the live one, not a husk the healer has
// already replaced.
func (st *Store) syncLoop() {
	defer close(st.syncDone)
	t := time.NewTicker(st.opts.SyncInterval)
	defer t.Stop()
	var lastErr string
	for {
		select {
		case <-st.stopSync:
			return
		case <-t.C:
			st.mu.RLock()
			w := st.wal
			st.mu.RUnlock()
			syncStart := time.Now()
			err := w.sync()
			if so := st.obsv.Load(); so != nil {
				so.walFsync.ObserveSince(syncStart)
			}
			msg := ""
			if err != nil {
				msg = err.Error()
				st.mu.Lock()
				if w == st.wal {
					st.enterDegradedLocked(ReasonWALFailed, err)
				}
				st.mu.Unlock()
			}
			if msg != lastErr && msg != "" {
				st.opts.Logger.Error("store: interval sync failed", "err", err)
			}
			lastErr = msg
		}
	}
}

// healLoop is the self-healing goroutine: woken by enterDegradedLocked, it
// retries tryHeal with jittered exponential backoff until the store is
// healthy (or closed). One loop per store; started by Open for durable
// stores only.
func (st *Store) healLoop() {
	defer close(st.healDone)
	// Jitter is seeded per store; determinism across runs does not matter
	// here (chaos tests assert convergence, not exact retry times), but the
	// seeded source keeps the store free of global-rand dependencies.
	rng := xrand.New(1)
	for {
		select {
		case <-st.stopHeal:
			return
		case <-st.healKick:
		}
		backoff := st.opts.HealBackoff
		for !st.tryHeal() {
			// Full jitter on [backoff/2, backoff): desynchronizes retry storms
			// when many stores share one recovering disk.
			d := backoff/2 + time.Duration(rng.Float64()*float64(backoff/2))
			select {
			case <-st.stopHeal:
				return
			case <-time.After(d):
			}
			if backoff *= 2; backoff > st.opts.HealMaxBackoff {
				backoff = st.opts.HealMaxBackoff
			}
		}
	}
}

// tryHeal makes one attempt to bring a degraded store back to healthy:
// open a fresh WAL segment past everything on disk, swap it in for the
// wedged writer, and cut a mandatory re-sync snapshot at the fresh segment's
// sequence. The snapshot is what makes the heal sound — replay cannot cross
// the damaged tail of the old WAL, so nothing appended to the new segment is
// recoverable until a snapshot at its sequence supersedes the damage.
// Mutations stay rejected throughout (health is still degraded while the
// snapshot persists), so the fresh segment cannot take appends early.
//
// Returns true when there is nothing left to do: healed, already healthy, or
// closed. Returns false when the attempt failed and the caller should back
// off and retry.
func (st *Store) tryHeal() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	// A background persist may still be in flight from before the degrade;
	// let it land (or fail) first so it cannot finish after our re-sync
	// snapshot and regress snapSeq. The lock is dropped while waiting.
	st.awaitSnapshotLocked()
	if st.closed || st.health != HealthDegraded {
		return true
	}
	st.healAttempts++
	attempt := st.healAttempts
	// The fresh segment must clear both the wedged writer's sequence and
	// anything on disk: a previous failed attempt can have left a segment
	// file at a sequence the wedged writer never reached, and its O_EXCL
	// name would fail this open.
	newSeq := st.wal.seq + 1
	if seqs, err := listSeqs(st.opts.Dir, segPrefix, segSuffix); err == nil && len(seqs) > 0 {
		if last := seqs[len(seqs)-1]; last >= newSeq {
			newSeq = last + 1
		}
	}
	w, err := openWALWriter(st.opts.FS, st.opts.Dir, newSeq)
	if err != nil {
		st.opts.Logger.Warn("store: heal attempt failed opening fresh segment", "attempt", attempt, "err", err)
		return false
	}
	// Carry the lifetime counters so records/syncs never go backwards in
	// metrics across a heal.
	old := st.wal
	w.records, w.bytes = old.records, old.bytes
	w.syncs.Store(old.syncs.Load())
	st.wal = w
	_ = old.close() // best-effort; the writer is wedged anyway
	// The fresh segment is the cut: claim it without another rotation and
	// persist the re-sync snapshot like any other cut.
	seq, view := st.claimLocked()
	if st.persistLocked(seq, view) != nil {
		// Still degraded (the reason/detail of the original fault stand);
		// the next attempt will open yet another segment past this one.
		return false
	}
	// Prune can now see the true on-disk picture; re-derive the tracked
	// total instead of patching it through the swap.
	_, st.walBytes = segmentsOnDisk(st.opts.Dir)
	if st.closed {
		return true
	}
	st.healSuccesses++
	st.health = HealthHealthy
	st.opts.Logger.Info("store: healed",
		"degraded_for", time.Since(st.degradedSince).Round(time.Millisecond),
		"reason", st.degradedReason, "segment", seq)
	st.degradedReason, st.degradedDetail, st.degradedSince = "", "", time.Time{}
	st.notifyHealth(HealthHealthy)
	return true
}

// Names returns the registered dataset names, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	names := make([]string, 0, len(st.reg))
	for name := range st.reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered datasets.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.reg)
}

// Get returns the version history registered under name.
func (st *Store) Get(name string) (*Versions, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	vv, ok := st.reg[name]
	return vv, ok
}

// Recovery reports what Open reconstructed.
func (st *Store) Recovery() RecoveryInfo { return st.recovery }

// commit is the one live-mutation path. It encodes ev's WAL payload OUTSIDE
// st.mu (register payloads carry whole datasets, and that encode must not
// stall unrelated readers), then, under the write lock, rejects the
// mutation if the store is closed or degraded, runs check (nil = none),
// makes the event durable, runs apply to publish it, and starts an
// automatic snapshot when one is due. A store is ephemeral exactly when it
// has no directory; the check reads the immutable options, not st.wal,
// which the self-healing loop swaps under st.mu.
func (st *Store) commit(ctx context.Context, ev Event, check func() error, apply func()) error {
	var payload []byte
	if st.opts.Dir != "" {
		var err error
		if payload, err = ev.appendTo(nil); err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.health == HealthDegraded {
		return st.degradedErrLocked()
	}
	if check != nil {
		if err := check(); err != nil {
			return err
		}
	}
	if err := st.logPayload(ctx, payload); err != nil {
		return err
	}
	apply()
	st.maybeSnapshotLocked(ctx)
	return nil
}

// RegisterCtx durably (re)binds name to ds, dropping any previous history
// under that name. The caller must not mutate ds afterwards except through
// the store. When ctx carries a trace, the store stage (and its WAL
// append/fsync and snapshot cut inside) are recorded as spans. The context
// does not cancel the mutation — durability operations run to completion
// once started.
func (st *Store) RegisterCtx(ctx context.Context, name string, ds *dataset.Dataset, retain int) error {
	defer obs.StartSpan(ctx, "store")()
	if name == "" {
		return errors.New("store: dataset name must be non-empty")
	}
	if ds == nil || ds.N() == 0 {
		return errors.New("store: dataset is empty")
	}
	return st.commit(ctx, Event{Kind: EventRegister, Name: name, Dataset: ds}, nil, func() {
		st.reg[name] = &Versions{list: []*dataset.Dataset{ds}}
	})
}

// DropCtx durably removes name and its whole version history. ctx carries
// trace spans only (see RegisterCtx).
func (st *Store) DropCtx(ctx context.Context, name string) error {
	defer obs.StartSpan(ctx, "store")()
	return st.commit(ctx, Event{Kind: EventDrop, Name: name}, func() error {
		if _, ok := st.reg[name]; !ok {
			return fmt.Errorf("%w %q", ErrUnknownDataset, name)
		}
		return nil
	}, func() { delete(st.reg, name) })
}

// mutate is the shared append/delete path: build the successor version
// OUTSIDE the global lock (the value-matrix copy is the expensive part, and
// it must not stall reads or mutations of other datasets), then commit it.
// The per-dataset mutateMu serializes same-dataset mutations end to end so
// two builders never race on one base version.
func (st *Store) mutate(ctx context.Context, name string, build func(cur *dataset.Dataset) (*dataset.Dataset, error), ev Event, retain int) (*dataset.Dataset, error) {
	defer obs.StartSpan(ctx, "store")()
	vv, ok := st.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	vv.mutateMu.Lock()
	defer vv.mutateMu.Unlock()
	next, err := build(vv.Current())
	if err != nil {
		return nil, err
	}
	if retain < 1 {
		retain = st.opts.Retain
	}
	err = st.commit(ctx, ev, func() error {
		// The entry may have been dropped or replaced while we were
		// building; publishing onto a detached history would silently lose
		// the mutation.
		if cur, live := st.reg[name]; !live || cur != vv {
			return fmt.Errorf("%w %q (dropped or replaced concurrently)", ErrUnknownDataset, name)
		}
		return nil
	}, func() { vv.publish(next, retain) })
	if err != nil {
		return nil, err
	}
	return next, nil
}

// AppendRowsCtx durably appends rows to name's current version and
// publishes the successor, returning it. The WAL record is written (and,
// under SyncAlways, synced) before the new version becomes visible, and
// history past retain versions ages out (retain < 1 = Options.Retain, the
// window recovery rebuilds). ctx carries trace spans only (see RegisterCtx).
func (st *Store) AppendRowsCtx(ctx context.Context, name string, rows [][]float64, retain int) (*dataset.Dataset, error) {
	return st.mutate(ctx, name, func(cur *dataset.Dataset) (*dataset.Dataset, error) {
		// Validation happens in the builder, so the WAL never holds an
		// event the registry rejected.
		return appendNext(cur, rows)
	}, Event{Kind: EventAppend, Name: name, Rows: rows}, retain)
}

// DeleteRowsCtx durably removes rows by id from name's current version and
// publishes the successor, returning it; retain is as in AppendRowsCtx. ctx
// carries trace spans only (see RegisterCtx).
func (st *Store) DeleteRowsCtx(ctx context.Context, name string, ids []int, retain int) (*dataset.Dataset, error) {
	return st.mutate(ctx, name, func(cur *dataset.Dataset) (*dataset.Dataset, error) {
		return deleteNext(cur, ids)
	}, Event{Kind: EventDelete, Name: name, IDs: ids}, retain)
}

// snapshot forces a full snapshot now, synchronously: when it returns nil
// the snapshot is on disk and older files are pruned to the fallback.
// Durable stores only.
func (st *Store) snapshot() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.awaitSnapshotLocked()
	if st.closed {
		return ErrClosed
	}
	if st.health == HealthDegraded {
		// A degraded store's WAL cannot rotate for the cut; the healer owns
		// recovery (and cuts its own snapshot on the way back).
		return st.degradedErrLocked()
	}
	return st.snapshotLocked()
}

// Compact writes a snapshot, verifies it reads back, and prunes every older
// snapshot and WAL segment — the offline `rrmd -compact` mode. Unlike
// automatic snapshots it keeps no fallback, which is why it verifies first.
func (st *Store) Compact() error {
	if st.opts.Dir == "" {
		return nil
	}
	if err := st.snapshot(); err != nil {
		return err
	}
	st.mu.RLock()
	seq := st.snapSeq
	st.mu.RUnlock()
	payload, err := readSnapshot(st.opts.Dir, seq)
	if err != nil {
		return fmt.Errorf("store: compact verification: %w", err)
	}
	if _, err := decodeRegistry(payload); err != nil {
		return fmt.Errorf("store: compact verification: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pruneBelow(st.snapSeq)
	return nil
}

// healthLocked builds the Health report. Called with st.mu held (read or
// write).
func (st *Store) healthLocked() Health {
	h := Health{
		State:         st.health,
		HealAttempts:  st.healAttempts,
		HealSuccesses: st.healSuccesses,
	}
	if st.health == HealthDegraded {
		h.Reason = st.degradedReason
		h.Detail = st.degradedDetail
		h.Since = st.degradedSince
	}
	return h
}

// Summary reports the in-memory durability counters without touching the
// filesystem; safe to call on every request.
func (st *Store) Summary() Summary {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := Summary{
		Enabled:       st.wal != nil,
		SnapshotLag:   st.sinceSnap,
		WALBytes:      st.walBytes,
		Snapshots:     st.snapshots,
		State:         st.health,
		Reason:        st.degradedReason,
		HealAttempts:  st.healAttempts,
		HealSuccesses: st.healSuccesses,
		Retain:        st.opts.Retain,
	}
	if st.wal != nil {
		s.Records = st.wal.records
		s.Syncs = st.wal.syncs.Load()
	}
	if st.snapErr != nil {
		s.SnapshotError = st.snapErr.Error()
	}
	return s
}

// Status snapshots the store's durability health, including the on-disk
// segment listing. The directory scan runs outside the store lock, so a
// slow disk delays only the caller, never mutations or lookups.
func (st *Store) Status() Status {
	st.mu.RLock()
	s := Status{
		Enabled:     st.wal != nil,
		Dir:         st.opts.Dir,
		SnapshotSeq: st.snapSeq,
		Snapshots:   st.snapshots,
		SnapshotLag: st.sinceSnap,
		Datasets:    len(st.reg),
		Recovery:    st.recovery,
		Health:      st.healthLocked(),
	}
	if st.snapErr != nil {
		s.SnapshotError = st.snapErr.Error()
	}
	if st.wal != nil {
		s.Sync = st.opts.Sync.String()
		if st.opts.Sync == SyncInterval {
			s.Sync = fmt.Sprintf("interval:%s", st.opts.SyncInterval)
		}
		s.SegmentSeq = st.wal.seq
		s.Records = st.wal.records
		s.Syncs = st.wal.syncs.Load()
	}
	st.mu.RUnlock()
	if s.Enabled {
		s.Segments, s.WALBytes = segmentsOnDisk(s.Dir)
	}
	return s
}

// Close flushes the WAL, writes a final snapshot when records have landed
// since the last one, and closes the segment. A clean Close makes the next
// Open replay-free. Idempotent.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.health = HealthClosed
	st.mu.Unlock()
	if st.stopHeal != nil {
		close(st.stopHeal)
		<-st.healDone
	}
	if st.stopSync != nil {
		close(st.stopSync)
		<-st.syncDone
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal == nil {
		return nil
	}
	st.awaitSnapshotLocked() // closed is set, so no new cut can start
	var err error
	if st.sinceSnap > 0 {
		// Final synchronous snapshot; closed rejects every mutation, so
		// dropping the lock while it persists lets nothing in.
		err = st.snapshotLocked()
	}
	if cerr := st.wal.close(); err == nil {
		err = cerr
	}
	return err
}
