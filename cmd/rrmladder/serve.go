package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs"
)

// solveReply and appendReply are the fields of rrmd's answers the oracles
// read.
type solveReply struct {
	Dataset    string `json:"dataset"`
	Algorithm  string `json:"algorithm"`
	IDs        []int  `json:"ids"`
	RankRegret int    `json:"rank_regret"`
	Exact      bool   `json:"exact"`
}

type appendReply struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	Fingerprint string `json:"fingerprint"`
	Version     uint64 `json:"version"`
	Appended    int    `json:"appended"`
}

// ack is one acknowledged append, with the rows it carried.
type ack struct {
	appendReply
	rows [][]float64
}

// serveData is what both serving workloads prepare once per run: the
// datasets as CSV, the same CSV loaded back the way rrmd loads an upload
// (the local reference copies), and the expected answer for every key.
type serveData struct {
	csv   map[string][]byte
	local map[string]*dataset.Dataset
	keys  []key
	refs  map[key]solveRef
}

func prepareServe(ctx context.Context, cfg config) (*serveData, error) {
	csvs, err := datasetCSVs(cfg.scale)
	if err != nil {
		return nil, err
	}
	local, err := loadCSVs(csvs)
	if err != nil {
		return nil, err
	}
	sd := &serveData{csv: csvs, local: local, keys: serveKeys(local), refs: map[key]solveRef{}}
	eng := engine.New(0)
	for _, k := range sd.keys {
		sol, err := eng.Solve(ctx, sd.local[k.dataset], k.r, specByName(k.dataset).algo, serveOpts(cfg, k.dataset))
		if err != nil {
			return nil, fmt.Errorf("reference %s r=%d: %w", k.dataset, k.r, err)
		}
		sd.refs[k] = solveRef{sol.IDs, sol.RankRegret}
	}
	return sd, nil
}

// serveOpts is what rrmd's /v1/solve turns a benchmark request into.
func serveOpts(cfg config, name string) engine.Options {
	o := solveOpts(cfg.scale)
	o.CacheSalt = name
	return o
}

func solveBody(cfg config, name string, r int, version uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"dataset": name, "r": r, "algorithm": specByName(name).algo,
		"max_samples": cfg.scale.maxSamples, "version": version,
	})
	return b
}

// session is one rrmd with the datasets uploaded and every key solved once:
// what one serving set-up produces.
type session struct {
	d        *daemon
	client   *http.Client
	dir      string
	versions map[string]uint64 // the version each upload registered
	flags    []string
}

// openSession starts rrmd, uploads the datasets, and warms every key,
// checking each warm-up answer. Wrong warm-up answers are returned, not
// raised: they fail the run like any other wrong answer.
func openSession(ctx context.Context, cfg config, sd *serveData, extra func(dir string) []string, withPprof bool) (*session, []string, error) {
	dir, err := tempDir("rrmladder-rrmd-")
	if err != nil {
		return nil, nil, err
	}
	flags := extra(dir)
	d, err := startDaemon(cfg.rrmd, dir, flags, withPprof)
	if err != nil {
		removeTempDir(dir)
		return nil, nil, err
	}
	ss := &session{d: d, client: newClient(1), dir: dir, versions: map[string]uint64{}, flags: d.args}
	for _, s := range specs {
		u := d.base + "/v1/datasets?header=1&name=" + url.QueryEscape(s.name)
		status, body, _, err := call(ctx, ss.client, http.MethodPost, u, sd.csv[s.name], "")
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var info appendReply
		if err == nil {
			err = json.Unmarshal(body, &info)
		}
		if err != nil {
			ss.close()
			return nil, nil, fmt.Errorf("uploading %s: %w", s.name, err)
		}
		ss.versions[s.name] = info.Version
	}
	var wrong []string
	for _, k := range sd.keys {
		rep, err := ss.solve(ctx, solveBody(cfg, k.dataset, k.r, 0), "")
		if err == nil {
			err = sd.refs[k].check(rep.IDs, rep.RankRegret)
		}
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("warm-up %s r=%d: %v", k.dataset, k.r, err))
		}
	}
	return ss, wrong, nil
}

func (ss *session) close() {
	ss.client.CloseIdleConnections()
	ss.d.stop()
	removeTempDir(ss.dir)
}

func (ss *session) solve(ctx context.Context, body []byte, id string) (solveReply, error) {
	var rep solveReply
	status, b, _, err := call(ctx, ss.client, http.MethodPost, ss.d.base+"/v1/solve", body, id)
	if err != nil {
		return rep, err
	}
	if status != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", status, b)
	}
	return rep, json.Unmarshal(b, &rep)
}

// counters reads the engine block of /v1/metrics.
func (ss *session) counters(ctx context.Context) (engineCounters, error) {
	var m struct {
		Engine engine.Metrics `json:"engine"`
	}
	err := getJSON(ctx, ss.client, ss.d.base+"/v1/metrics", &m)
	return countersOf(m.Engine), err
}

// serveWindow runs the paced schedule against the session. Every reply
// is checked: a solve by check, an append by recording its ack for the
// post-window replay. A traced window sends request ids and pulls the
// daemon's traces after the window closes, so the pull is never timed.
func (ss *session) serveWindow(ctx context.Context, cfg config, events []event, check func(ev event, rep solveReply) error, traced bool, tag string) (*window, []ack, error) {
	bodies := make([][]byte, len(events))
	for i, ev := range events {
		if ev.rows != nil {
			bodies[i], _ = json.Marshal(map[string]any{"rows": ev.rows})
		} else {
			bodies[i] = solveBody(cfg, ev.dataset, ev.r, 0)
		}
	}
	w := &window{}
	c0, err := ss.counters(ctx)
	if err != nil {
		return nil, nil, err
	}
	var alloc0, gc0 float64
	if ss.d.pprof != "" {
		if alloc0, gc0, err = ss.d.memStats(ctx, ss.client); err != nil {
			return nil, nil, err
		}
	}
	var acks []ack
	send := func(i int, s *sample) (end time.Time) {
		ev := events[i]
		if traced {
			s.id = fmt.Sprintf("%s-%d", tag, i)
		}
		path := "/v1/solve"
		s.class = ev.dataset
		if ev.rows != nil {
			path = "/v1/datasets/" + ev.dataset + "/rows"
			s.class = mutateClass
		}
		status, body, lat, err := call(ctx, ss.client, http.MethodPost, ss.d.base+path, bodies[i], s.id)
		end = time.Now()
		s.lat = ms(lat)
		if err != nil || status != http.StatusOK {
			// Refusals and transport errors are failures, not wrong answers.
			return end
		}
		var complaint string
		if ev.rows != nil {
			var rep appendReply
			if err := json.Unmarshal(body, &rep); err != nil || rep.Appended != len(ev.rows) || rep.Name != ev.dataset {
				complaint = fmt.Sprintf("append %s: malformed ack %s", ev.dataset, body)
			} else {
				acks = append(acks, ack{rep, ev.rows})
			}
		} else {
			var rep solveReply
			err := json.Unmarshal(body, &rep)
			if err == nil {
				err = check(ev, rep)
			}
			if err != nil {
				complaint = fmt.Sprintf("solve %s r=%d: %v", ev.dataset, ev.r, err)
			}
		}
		if complaint != "" {
			w.wrong = append(w.wrong, complaint)
			return end
		}
		s.ok = true
		return end
	}
	runtime.GC() // the set-up's garbage is not collected during the window
	mark := len(cfg.probe.times)
	rss := startRSS(strconv.Itoa(ss.d.cmd.Process.Pid))
	w.samples, w.late, w.elapsed = pacedLoop(events, send, func() { cfg.probe.tick() })
	w.rss = rss.end()
	w.paced, w.probe = true, cfg.probe.since(mark)
	if w.hwm, err = ss.d.hwmRSS(); err != nil {
		return nil, nil, err
	}
	c1, err := ss.counters(ctx)
	if err != nil {
		return nil, nil, err
	}
	w.counters = c1.minus(c0)
	if ss.d.pprof != "" {
		alloc1, gc1, err := ss.d.memStats(ctx, ss.client)
		if err != nil {
			return nil, nil, err
		}
		w.allocBytes, w.gcCycles = alloc1-alloc0, gc1-gc0
	}
	if traced {
		if w.traces, err = ss.pullTraces(ctx, w.samples); err != nil {
			return nil, nil, err
		}
	}
	return w, acks, nil
}

// pullTraces fetches the daemon's retained traces and pairs each with the
// sample that sent its request id.
func (ss *session) pullTraces(ctx context.Context, samples []sample) ([]tracedOp, error) {
	var got struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := getJSON(ctx, ss.client, ss.d.base+"/v1/traces?n="+strconv.Itoa(len(samples)+1024), &got); err != nil {
		return nil, fmt.Errorf("pulling traces: %w", err)
	}
	byID := make(map[string]obs.TraceSnapshot, len(got.Traces))
	for _, t := range got.Traces {
		byID[t.ID] = t
	}
	var out []tracedOp
	for _, s := range samples {
		if snap, ok := byID[s.id]; ok && s.ok {
			out = append(out, tracedOp{class: s.class, client: s.lat, snap: snap})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no traces matched the window's %d requests", len(samples))
	}
	return out, nil
}

// wellFormed is serve-mixed's per-reply oracle. The answer depends on which
// version the solve saw, which the reply does not say, so it checks shape:
// the requested dataset and solver, 1..r ascending ids below maxN, and a
// rank-regret of at least 1. Exact answers are checked after the window, by
// pinned re-solves.
func wellFormed(ev event, rep solveReply, maxN int) error {
	algo := specByName(ev.dataset).algo
	switch {
	case rep.Dataset != ev.dataset || rep.Algorithm != algo:
		return fmt.Errorf("answered %s/%s for %s/%s", rep.Dataset, rep.Algorithm, ev.dataset, algo)
	case len(rep.IDs) < 1 || len(rep.IDs) > ev.r:
		return fmt.Errorf("%d ids for budget %d", len(rep.IDs), ev.r)
	case rep.IDs[0] < 0 || rep.IDs[len(rep.IDs)-1] >= maxN:
		return fmt.Errorf("ids %v outside [0, %d)", rep.IDs, maxN)
	case !slices.IsSorted(rep.IDs) || len(slices.Compact(slices.Clone(rep.IDs))) != len(rep.IDs):
		return fmt.Errorf("ids %v not strictly ascending", rep.IDs)
	case rep.RankRegret < 1:
		return fmt.Errorf("rank-regret %d", rep.RankRegret)
	case rep.Exact != (algo == engine.AlgoTwoDRRM):
		return fmt.Errorf("exact=%v from %s", rep.Exact, algo)
	}
	return nil
}

// replayAcks rebuilds each acknowledged version locally, appending each ack's
// rows to the previous version in version order, and checks that every ack
// names the version and fingerprint the replay reaches. It returns every
// version it rebuilt (the registered base included) by number.
func replayAcks(base *dataset.Dataset, baseVersion uint64, acks []ack) (map[uint64]*dataset.Dataset, error) {
	sorted := slices.Clone(acks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Version < sorted[j].Version })
	out := map[uint64]*dataset.Dataset{baseVersion: base}
	cur, v := base, baseVersion
	for _, a := range sorted {
		next := cur.Snapshot()
		for _, row := range a.rows {
			next.Append(row)
		}
		v += uint64(len(a.rows))
		if a.Version != v {
			return out, fmt.Errorf("%s: ack for version %d, replay expected %d", a.Name, a.Version, v)
		}
		if fp := fingerprintHex(next); fp != a.Fingerprint || next.N() != a.N {
			return out, fmt.Errorf("%s v%d: ack fingerprint %s n=%d, replay %s n=%d", a.Name, v, a.Fingerprint, a.N, fp, next.N())
		}
		out[v] = next
		cur = next
	}
	return out, nil
}

// fingerprintHex renders a fingerprint the way rrmd's replies spell it.
func fingerprintHex(ds *dataset.Dataset) string { return fmt.Sprintf("%016x", ds.Fingerprint()) }

// verifyMixed is serve-mixed's post-window oracle: every ack replays, and a
// solve pinned to each retained version of each dataset, at every budget,
// matches a local solve of the replayed version. It returns how many
// answers it checked and the complaints.
func (ss *session) verifyMixed(ctx context.Context, cfg config, sd *serveData, acks []ack) (int, []string, error) {
	var wrong []string
	checked := 0
	eng := engine.New(0)
	for _, s := range specs {
		var mine []ack
		for _, a := range acks {
			if a.Name == s.name {
				mine = append(mine, a)
			}
		}
		checked += len(mine)
		byVersion, err := replayAcks(sd.local[s.name], ss.versions[s.name], mine)
		if err != nil {
			wrong = append(wrong, err.Error())
			continue
		}
		var listing struct {
			Versions []struct {
				Version     uint64 `json:"version"`
				Fingerprint string `json:"fingerprint"`
			} `json:"versions"`
		}
		if err := getJSON(ctx, ss.client, ss.d.base+"/v1/datasets/"+s.name+"/versions", &listing); err != nil {
			return checked, wrong, err
		}
		for _, lv := range listing.Versions {
			local, ok := byVersion[lv.Version]
			if !ok || fingerprintHex(local) != lv.Fingerprint {
				wrong = append(wrong, fmt.Sprintf("%s: retained version %d (%s) was never acked", s.name, lv.Version, lv.Fingerprint))
				continue
			}
			for _, r := range budgets(local.Dim()) {
				checked++
				want, err := eng.Solve(ctx, local, r, s.algo, serveOpts(cfg, s.name))
				if err != nil {
					return checked, wrong, fmt.Errorf("local solve %s v%d r=%d: %w", s.name, lv.Version, r, err)
				}
				rep, err := ss.solve(ctx, solveBody(cfg, s.name, r, lv.Version), "")
				if err == nil {
					err = solveRef{want.IDs, want.RankRegret}.check(rep.IDs, rep.RankRegret)
				}
				if err != nil {
					wrong = append(wrong, fmt.Sprintf("pinned %s v%d r=%d: %v", s.name, lv.Version, r, err))
				}
			}
		}
	}
	return checked, wrong, nil
}

// runServe runs serve-hit (mixed false) or serve-mixed (true). Set-up —
// daemon start, uploads, warm-up — repeats cfg.setupReps times on fresh
// daemons; the last one serves the untraced window. A traced run then
// starts one more daemon, with a trace ring that holds every request, for
// the traced window, so both windows start from the same state. The
// oracles check every window's answers.
func runServe(ctx context.Context, cfg config, mixed bool) (*outcome, error) {
	sd, err := prepareServe(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ds := sd.local
	var events []event
	name := "serve-hit"
	if mixed {
		events = mixedSchedule(cfg.seed, cfg.window, ds)
		name = "serve-mixed"
	} else {
		events = hitSchedule(cfg.seed, cfg.window, ds)
	}
	maxN := map[string]int{}
	for _, s := range specs {
		maxN[s.name] = ds[s.name].N()
	}
	for _, ev := range events {
		maxN[ev.dataset] += len(ev.rows)
	}
	check := func(ev event, rep solveReply) error {
		if mixed {
			return wellFormed(ev, rep, maxN[ev.dataset])
		}
		if rep.Dataset != ev.dataset {
			return fmt.Errorf("answered dataset %q", rep.Dataset)
		}
		return sd.refs[key{ev.dataset, ev.r}].check(rep.IDs, rep.RankRegret)
	}
	flags := func(traced bool) func(dir string) []string {
		return func(dir string) []string {
			var f []string
			if mixed {
				// -fsync always is rrmd's default; it is spelled out so the
				// result's stamp carries the durability policy.
				f = append(f, "-data-dir", filepath.Join(dir, "data"), "-fsync", "always")
			}
			if traced {
				f = append(f, "-trace-ring", strconv.Itoa(len(events)+len(sd.keys)+1024))
			}
			return f
		}
	}

	out := &outcome{}
	// run is one session's window plus its oracles.
	run := func(ss *session, traced bool) (*window, error) {
		w, acks, err := ss.serveWindow(ctx, cfg, events, check, traced, name)
		if err != nil {
			return nil, err
		}
		if mixed {
			n, wrong, err := ss.verifyMixed(ctx, cfg, sd, acks)
			if err != nil {
				return nil, err
			}
			out.extraOps += n
			out.extraWrong = append(out.extraWrong, wrong...)
		}
		return w, nil
	}

	var ss *session
	// open starts a session, checking its warm-up answers; the untraced
	// window's daemon serves pprof in a traced run, for its allocations.
	open := func(traced bool) error {
		var wrong []string
		var err error
		if ss, wrong, err = openSession(ctx, cfg, sd, flags(traced), cfg.trace && !traced); err != nil {
			return err
		}
		out.extraOps += len(sd.keys)
		out.extraWrong = append(out.extraWrong, wrong...)
		return nil
	}
	var setups []float64
	mark := len(cfg.probe.times)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if ss != nil {
			ss.close()
		}
		start := time.Now()
		if err := open(false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		cfg.probe.run(setupSlices)
	}
	out.setupS, out.setupProbe = median(setups), cfg.probe.since(mark)
	// measure runs one window on the open session, or on a fresh one when
	// none is open, and closes it.
	measure := func(traced bool) (*window, error) {
		if ss == nil {
			if err := open(traced); err != nil {
				return nil, err
			}
		}
		defer func() { ss.close(); ss = nil }()
		out.rrmdFlags = append(out.rrmdFlags, ss.flags)
		return run(ss, traced)
	}
	if out.untraced, err = measure(false); err == nil && cfg.trace {
		out.traced, err = measure(true)
	}
	return out, err
}
