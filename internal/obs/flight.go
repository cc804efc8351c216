package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// Incident is one captured anomaly bundle: the evidence a post-mortem needs,
// frozen at the moment the trigger fired — the request trace (when the
// trigger had one), a goroutine profile, the full metrics exposition, and
// the most recent log records.
type Incident struct {
	ID        string    `json:"id"`
	Time      time.Time `json:"time"`
	Trigger   string    `json:"trigger"`
	Detail    string    `json:"detail"`
	RequestID string    `json:"request_id,omitempty"`

	Trace      *TraceSnapshot `json:"trace,omitempty"`
	Goroutines string         `json:"goroutines,omitempty"`
	Metrics    string         `json:"metrics,omitempty"`
	Logs       []LogRecord    `json:"logs,omitempty"`
}

// RecorderConfig configures a flight Recorder.
type RecorderConfig struct {
	// Capacity bounds the in-memory incident ring (0 = 32).
	Capacity int
	// Dir, when non-empty, receives each bundle as incident-<id>.json so
	// post-mortems survive a crash or restart. Write failures are logged
	// and otherwise ignored — capture must never take the server down.
	Dir string
	// MinGap rate-limits captures per trigger kind (0 = 1s): an anomaly
	// storm — every request slow during a GC stall — yields one bundle per
	// gap, not one per request.
	MinGap time.Duration
	// Registry, when set, is rendered into each bundle's Metrics snapshot.
	Registry *Registry
	// LogRing, when set, supplies each bundle's recent log records.
	LogRing *LogRing
	// LogTail is how many records a bundle carries (0 = 64).
	LogTail int
	// Logger receives capture/dump diagnostics (nil = discard).
	Logger *slog.Logger
}

// Recorder is the anomaly flight recorder: a bounded ring of incident
// bundles captured on anomaly triggers (slow request, SLO fast burn, store
// health transition). Safe for concurrent use; Capture is designed to be
// called from request paths, so it is rate-limited per trigger and never
// blocks on disk (directory dumps happen inline but only within the rate
// limit).
type Recorder struct {
	cfg RecorderConfig

	mu    sync.Mutex
	seq   uint64
	buf   []*Incident
	next  int
	n     int
	byID  map[string]*Incident
	last  map[string]time.Time // trigger -> last capture time
	drops uint64
}

// NewRecorder returns a flight recorder over cfg.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity < 1 {
		cfg.Capacity = 32
	}
	if cfg.MinGap <= 0 {
		cfg.MinGap = time.Second
	}
	if cfg.LogTail <= 0 {
		cfg.LogTail = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Recorder{
		cfg:  cfg,
		buf:  make([]*Incident, cfg.Capacity),
		byID: make(map[string]*Incident),
		last: make(map[string]time.Time),
	}
}

// Capture records one incident bundle for trigger, attaching tr's snapshot
// when non-nil. It returns the captured incident, or nil when the trigger is
// inside its rate-limit gap. The goroutine profile and metrics snapshot are
// taken at call time, so the bundle reflects the server at the anomaly, not
// at retrieval.
func (r *Recorder) Capture(trigger, detail string, tr *Trace) *Incident {
	now := time.Now()
	r.mu.Lock()
	if last, ok := r.last[trigger]; ok && now.Sub(last) < r.cfg.MinGap {
		r.drops++
		r.mu.Unlock()
		return nil
	}
	r.last[trigger] = now
	r.seq++
	inc := &Incident{
		ID:      fmt.Sprintf("inc-%06d", r.seq),
		Time:    now,
		Trigger: trigger,
		Detail:  detail,
	}
	r.mu.Unlock()

	if tr != nil {
		snap := tr.Snapshot()
		inc.Trace = &snap
		inc.RequestID = snap.ID
	}
	inc.Goroutines = goroutineProfile()
	if r.cfg.Registry != nil {
		var buf bytes.Buffer
		if err := r.cfg.Registry.WritePrometheus(&buf); err == nil {
			inc.Metrics = buf.String()
		}
	}
	if r.cfg.LogRing != nil {
		inc.Logs = r.cfg.LogRing.Recent(r.cfg.LogTail)
	}

	r.mu.Lock()
	if old := r.buf[r.next]; old != nil && r.byID[old.ID] == old {
		delete(r.byID, old.ID)
	}
	r.buf[r.next] = inc
	r.byID[inc.ID] = inc
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()

	r.cfg.Logger.Warn("incident captured",
		"incident", inc.ID, "trigger", trigger, "detail", detail, "request_id", inc.RequestID)
	r.dump(inc)
	return inc
}

// dump persists a bundle to the incident directory, when configured.
func (r *Recorder) dump(inc *Incident) {
	if r.cfg.Dir == "" {
		return
	}
	b, err := json.MarshalIndent(inc, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(r.cfg.Dir, inc.ID+".json"), b, 0o644)
	}
	if err != nil {
		r.cfg.Logger.Error("incident dump failed", "incident", inc.ID, "err", err)
	}
}

// Get returns the retained incident with the given id.
func (r *Recorder) Get(id string) (*Incident, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inc, ok := r.byID[id]
	return inc, ok
}

// Recent returns up to n incidents, newest first.
func (r *Recorder) Recent(n int) []*Incident {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*Incident, 0, n)
	for i := 0; i < r.n && len(out) < n; i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		if inc := r.buf[idx]; inc != nil {
			out = append(out, inc)
		}
	}
	return out
}

// Len reports how many incidents the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// goroutineProfile renders the textual goroutine profile (debug=1: one stack
// per unique goroutine state with counts) — compact enough for a JSON bundle
// and exactly what a deadlock or leak post-mortem reads first.
func goroutineProfile() string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	return buf.String()
}
