package dataset

// Versioning and the delta log. Every mutation bumps a Dataset's monotone
// version and records what changed, so consumers holding expensive derived
// structure (column mirrors, per-vector top-K caches, solution caches) can
// see *what* changed — not merely *that* something changed — and repair
// incrementally instead of rebuilding. Appends and deletes are structured
// (repairable) deltas; whole-matrix mutations (Normalize, Shift, Negate,
// SetAttrs) are recorded as opaque rewrites that no consumer can repair
// across.

// DeltaKind classifies one recorded mutation.
type DeltaKind uint8

const (
	// DeltaAppend covers one or more rows appended to the end of the
	// dataset. Consecutive appends coalesce into a single delta.
	DeltaAppend DeltaKind = iota + 1
	// DeltaDelete covers one Delete call: the removal of a set of rows,
	// compacting the ids above them downward.
	DeltaDelete
	// DeltaRewrite covers a whole-matrix mutation (Normalize, Shift,
	// Negate, SetAttrs): every value (or the identity-bearing attribute
	// names) may have changed, so derived structure cannot be repaired
	// across it. Consecutive rewrites coalesce.
	DeltaRewrite
)

// String returns the kind's log label.
func (k DeltaKind) String() string {
	switch k {
	case DeltaAppend:
		return "append"
	case DeltaDelete:
		return "delete"
	case DeltaRewrite:
		return "rewrite"
	default:
		return "unknown"
	}
}

// Delta is one entry of a dataset's mutation log: applying it to the
// dataset as of version From yields the dataset as of version To. Coalesced
// appends and rewrites satisfy To-From == number of mutation calls merged
// (appends merge exactly one row per version), which is what lets Deltas
// split an entry when a requested `since` falls inside its range.
type Delta struct {
	Kind DeltaKind
	// From and To delimit the version range this delta covers.
	From, To uint64
	// Start and Count locate appended rows: rows [Start, Start+Count) of
	// the dataset immediately after this delta applied (appends only).
	Start, Count int
	// Deleted holds the removed row indices in pre-delete indexing,
	// ascending and unique (deletes only). Treated as immutable once
	// recorded.
	Deleted []int
}

// maxDeltaLog bounds the per-dataset mutation log. Coalescing keeps steady
// append traffic at one entry, so the cap is effectively a bound on how many
// distinct delete bursts remain replayable; beyond it the oldest entries are
// forgotten and Deltas reports the history as incomplete, which consumers
// treat as "rebuild".
const maxDeltaLog = 64

// Version returns the dataset's monotone mutation counter: 0 for a freshly
// constructed empty dataset, +1 per mutating call (Append, Delete,
// Normalize, Shift, Negate, SetAttrs). Snapshots share the lineage and
// version of their source; content equality does not imply version equality
// (use Fingerprint for content identity).
func (ds *Dataset) Version() uint64 { return ds.version }

// Lineage returns the dataset's identity token: a process-unique id assigned
// at construction and preserved by Snapshot, so caches can recognize two
// snapshots as versions of the same logical dataset. Clone, Subset, Head and
// Project derive *new* datasets and get fresh lineages.
func (ds *Dataset) Lineage() uint64 { return ds.lineage }

// Deltas returns the mutations recorded after version since, oldest first,
// and whether the log reaches back that far. A true second return with an
// empty slice means "nothing changed" (since == Version()). A false return
// means the history was truncated (or since is in the future) and the caller
// must treat the change as a full rewrite. The returned deltas are copies;
// mutating them does not affect the log.
func (ds *Dataset) Deltas(since uint64) ([]Delta, bool) {
	if since > ds.version {
		return nil, false
	}
	if since == ds.version {
		return nil, true
	}
	if since < ds.floor {
		return nil, false
	}
	var out []Delta
	for _, d := range ds.log {
		if d.To <= since {
			continue
		}
		if d.From < since {
			// since falls inside a coalesced entry: split it. Appends merge
			// one row per version, rewrites carry no payload, and deletes
			// never coalesce, so the arithmetic below is exact.
			skip := int(since - d.From)
			d.From = since
			if d.Kind == DeltaAppend {
				d.Start += skip
				d.Count -= skip
			}
		}
		if d.Deleted != nil {
			d.Deleted = append([]int(nil), d.Deleted...)
		}
		out = append(out, d)
	}
	return out, true
}

// record appends a delta to the log, coalescing with the previous entry when
// possible and enforcing the log cap.
func (ds *Dataset) record(d Delta) {
	ds.version = d.To
	if n := len(ds.log); n > 0 {
		last := &ds.log[n-1]
		switch {
		case d.Kind == DeltaAppend && last.Kind == DeltaAppend && last.To == d.From && last.Start+last.Count == d.Start:
			last.Count += d.Count
			last.To = d.To
			return
		case d.Kind == DeltaRewrite && last.Kind == DeltaRewrite && last.To == d.From:
			last.To = d.To
			return
		}
	}
	ds.log = append(ds.log, d)
	for len(ds.log) > maxDeltaLog {
		ds.floor = ds.log[0].To
		ds.log = ds.log[1:]
	}
}

// Snapshot returns an immutable-by-convention copy that shares the source's
// lineage, version, and delta history — the substrate of version pinning:
// serving layers mutate a snapshot of the current version and publish it as
// the new current, so in-flight solves over older versions keep consistent
// data. The memoized fingerprint, basis and column mirror carry over (all
// are read-only), making a snapshot cheap to take relative to a cold
// rebuild of any of them.
//
// Versions within a lineage must stay linear: mutate only the newest
// snapshot. Divergent mutation of two snapshots of the same lineage yields
// two datasets whose (lineage, version) pairs collide; consumers repairing
// across the delta log verify the surviving rows' content byte-for-byte
// before trusting it and fall back to full rebuilds on any drift, so
// results stay correct, but all repair benefit is lost.
func (ds *Dataset) Snapshot() *Dataset {
	out := &Dataset{
		d:       ds.d,
		vals:    append([]float64(nil), ds.vals...),
		attrs:   append([]string(nil), ds.attrs...),
		lineage: ds.lineage,
		version: ds.version,
		floor:   ds.floor,
		log:     append([]Delta(nil), ds.log...),
	}
	out.fp.Store(ds.fp.Load())
	out.basis.Store(ds.basis.Load())
	out.cols.Store(ds.cols.Load())
	return out
}

// ComposeDeltas flattens a delta sequence over a dataset that had oldN rows
// into a single mapping: oldToNew[i] is the new index of old row i (-1 if it
// was deleted), newIDs lists the indices of rows that did not exist at the
// start (appended and still present), ascending, and newN is the final row
// count. ok is false when the sequence contains a rewrite or is internally
// inconsistent, in which case no incremental repair is possible.
func ComposeDeltas(oldN int, deltas []Delta) (oldToNew []int, newIDs []int, newN int, ok bool) {
	// origin[i] = old row id of current row i, or -1 for rows appended
	// within the window.
	origin := make([]int, oldN, oldN+16)
	for i := range origin {
		origin[i] = i
	}
	for _, d := range deltas {
		switch d.Kind {
		case DeltaAppend:
			if d.Start != len(origin) || d.Count < 0 {
				return nil, nil, 0, false
			}
			for i := 0; i < d.Count; i++ {
				origin = append(origin, -1)
			}
		case DeltaDelete:
			w, di := 0, 0
			for i := range origin {
				if di < len(d.Deleted) && d.Deleted[di] == i {
					di++
					continue
				}
				origin[w] = origin[i]
				w++
			}
			if di != len(d.Deleted) {
				return nil, nil, 0, false // an id out of range: inconsistent
			}
			origin = origin[:w]
		default:
			return nil, nil, 0, false
		}
	}
	oldToNew = make([]int, oldN)
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for pos, o := range origin {
		if o >= 0 {
			oldToNew[o] = pos
		} else {
			newIDs = append(newIDs, pos)
		}
	}
	return oldToNew, newIDs, len(origin), true
}
