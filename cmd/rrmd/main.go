// Command rrmd serves rank-regret minimization queries over HTTP: a
// named-dataset registry with durable WAL + snapshot persistence, solver
// dispatch through the engine's algorithm registry, a shared LRU solution
// cache, and per-request timeouts.
//
// Datasets load from CSV at startup (-load, repeatable) or at runtime
// (POST /v1/datasets); -demo preloads the paper's simulated datasets. With
// -data-dir set, every registry mutation is written ahead to a checksummed
// WAL and periodically snapshotted, so a restart — graceful or kill -9 —
// recovers the registered datasets, their retained version histories, and
// re-warms the engine's VecSet cache in the background.
//
//	rrmd -addr :8080 -load cars=cars.csv -header
//	rrmd -demo -data-dir /var/lib/rrmd -fsync always
//	rrmd -compact -data-dir /var/lib/rrmd   # offline compaction
//
//	curl localhost:8080/v1/datasets
//	curl -X POST localhost:8080/v1/solve -d '{"dataset":"cars","r":5}'
//
// SIGTERM/SIGINT drain gracefully: in-flight jobs finish (bounded by
// -drain-timeout), the WAL is flushed, and a final snapshot is written so
// the next start recovers replay-free.
//
// Endpoints: GET /healthz, GET /v1/algorithms, GET /v1/datasets,
// POST /v1/datasets, GET /v1/datasets/{name}, DELETE /v1/datasets/{name},
// POST /v1/datasets/{name}/rows, DELETE /v1/datasets/{name}/rows,
// GET /v1/datasets/{name}/versions, POST /v1/solve, POST /v1/solve/batch,
// POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id}, DELETE /v1/jobs/{id},
// GET /v1/metrics, GET /metrics, GET /v1/trace/{id}, GET /v1/traces,
// GET /v1/slo, GET /v1/incidents, GET /v1/incidents/{id},
// GET /v1/store/status, POST /v1/evaluate. With -pprof-addr set,
// net/http/pprof is served on that separate listener.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/rankregret/rankregret/internal/cliutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/faultfs"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrmd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, parameterized over its argument list so tests can
// exercise the full lifecycle (flags, recovery, signals) in a subprocess.
func run(args []string) error {
	fs := flag.NewFlagSet("rrmd", flag.ContinueOnError)
	var loads []string
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		header    = fs.Bool("header", false, "loaded CSVs have a header record")
		negate    = fs.String("negate", "", "comma-separated 0-based columns where smaller is better (applies to all -load files)")
		normalize = fs.Bool("normalize", true, "min-max normalize attributes to [0,1]")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-request solve timeout ceiling")
		maxUpload = fs.Int64("max-upload", 64<<20, "maximum request body size in bytes (CSV uploads and JSON requests)")
		cacheSize = fs.Int("cache", 0, "solution cache capacity (0 = default, negative = disabled)")
		workers   = fs.Int("workers", 0, "job scheduler worker count (0 = GOMAXPROCS)")
		queueCap  = fs.Int("queue", 0, "job scheduler queue capacity (0 = default 256); a full queue rejects with 429 + Retry-After")
		queueWait = fs.Duration("queue-wait", 0, "queue-wait budget for synchronous solves before a 429 (0 = same as -timeout); the solve's own timeout starts when it leaves the queue")
		solvePar  = fs.Int("solve-parallelism", 0, "default per-solve worker bound for HDRRM scoring passes (0 = GOMAXPROCS); requests override with the parallelism field")
		retainVer = fs.Int("retain-versions", store.DefaultRetain, "dataset versions kept solvable per name (older versions age out)")
		traceSlow = fs.Duration("trace-slow", 0, "log the per-stage span breakdown (queue/cache/build/solve/store) of every request slower than this (0 = off); traces are always retrievable at /v1/trace/{id}")
		demo      = fs.Bool("demo", false, "preload the simulated paper datasets (simisland, simnba, simweather)")
		seed      = fs.Int64("seed", 1, "seed for -demo dataset generation")

		dataDir   = fs.String("data-dir", "", "durable store directory (empty = in-memory only: restarts lose all state)")
		fsyncPol  = fs.String("fsync", "always", "WAL durability: always (fsync per mutation), never, or a flush interval such as 100ms")
		snapEvery = fs.Int("snapshot-every", store.DefaultSnapshotEvery, "WAL records between automatic snapshots (negative = only on shutdown/compact)")
		segBytes  = fs.Int64("segment-bytes", store.DefaultSegmentBytes, "WAL segment rotation threshold in bytes")
		warmStart = fs.Bool("warm-start", true, "rebuild the VecSet cache tier for recovered datasets in the background after a restart")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs and the final snapshot")
		compact   = fs.Bool("compact", false, "offline mode: recover the store, write a verified snapshot, prune the WAL, print status, and exit")

		faultInject = fs.String("fault-inject", "", "chaos testing: scripted store write faults, e.g. 'op=sync,err=enospc,after=10,count=5' (see internal/faultfs; NEVER set in production)")
		faultSeed   = fs.Int64("fault-seed", 1, "seed for probabilistic -fault-inject rules")
		healBackoff = fs.Duration("heal-backoff", 0, "initial self-heal retry delay after a store fault (0 = 100ms default); doubles with jitter up to -heal-backoff-max")
		healMax     = fs.Duration("heal-backoff-max", 0, "self-heal retry delay ceiling (0 = 5s default)")

		logFormat   = fs.String("log-format", "text", "log output format: text (human-readable) or json (one object per line, machine-parseable)")
		traceRing   = fs.Int("trace-ring", DefaultTraceRing, "recent traced requests retained for GET /v1/trace/{id} and GET /v1/traces")
		incidentDir = fs.String("incident-dir", "", "directory incident bundles are dumped to as JSON (empty = in-memory ring only, served at GET /v1/incidents)")
		pprofAddr   = fs.String("pprof-addr", "", "listen address for the net/http/pprof debug server (empty = disabled); keep it off the service port and firewalled")
	)
	fs.Func("load", "name=path of a CSV dataset to load at startup (repeatable)", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	var sloSpecs []string
	fs.Func("slo", "latency objective as source:pQQ<DUR@TT, e.g. 'solve:p99<250ms@99.9' (repeatable; sources: solve, mutate, scrape; default = stock objectives for all three)", func(v string) error {
		sloSpecs = append(sloSpecs, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0, as the global flag set did
		}
		return err
	}

	neg, err := cliutil.ParseNegate(*negate)
	if err != nil {
		return err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	// The shared structured logger: every subsystem (store, scheduler,
	// serving edge) logs through it, and the ring it tees into supplies the
	// log tail of incident bundles.
	logRing := obs.NewLogRing(512)
	logger := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo, logRing)
	slog.SetDefault(logger)
	sync, syncIv, err := store.ParseSyncPolicy(*fsyncPol)
	if err != nil {
		return err
	}
	if *compact && *dataDir == "" {
		return fmt.Errorf("-compact requires -data-dir")
	}

	var storeFS faultfs.FS
	if *faultInject != "" {
		rules, err := faultfs.ParseScript(*faultInject)
		if err != nil {
			return err
		}
		inj := faultfs.New(faultfs.Disk, *faultSeed)
		inj.Arm(rules...)
		storeFS = inj
		logger.Warn("store: FAULT INJECTION ARMED — chaos testing only",
			"rules", len(rules), "seed", *faultSeed)
	}

	st, err := store.Open(store.Options{
		Dir:            *dataDir,
		Retain:         *retainVer,
		SegmentBytes:   *segBytes,
		SnapshotEvery:  *snapEvery,
		Sync:           sync,
		SyncInterval:   syncIv,
		FS:             storeFS,
		HealBackoff:    *healBackoff,
		HealMaxBackoff: *healMax,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		rec := st.Recovery()
		logger.Info("store: recovered",
			"datasets", rec.Datasets, "dir", *dataDir, "snapshot", rec.SnapshotSeq,
			"wal_records", rec.RecordsReplayed, "torn_tail", rec.TornTail)
	}

	if *compact {
		err := st.Compact()
		status, _ := json.MarshalIndent(st.Status(), "", "  ")
		fmt.Println(string(status))
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return err
	}

	srv, err := NewServer(st, Config{
		CacheSize:        *cacheSize,
		MaxTimeout:       *timeout,
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxUploadBytes:   *maxUpload,
		SolveParallelism: *solvePar,
		QueueWait:        *queueWait,
		TraceSlow:        *traceSlow,
		Logger:           logger,
		LogRing:          logRing,
		TraceRing:        *traceRing,
		IncidentDir:      *incidentDir,
		SLOSpecs:         sloSpecs,
	})
	if err != nil {
		if cerr := st.Close(); cerr != nil {
			logger.Error("rrmd: closing store failed", "err", cerr)
		}
		return err
	}
	defer srv.Close()
	// Startup loads must not clobber what recovery just rebuilt: a daemon
	// restarted with its usual -load/-demo flags keeps the recovered
	// version history (with every durably-acked mutation) rather than
	// durably replacing it with a fresh copy of the seed data. Replacing a
	// recovered dataset is an explicit act: DELETE it, then re-upload.
	// Before any load, the registry holds exactly what recovery rebuilt; the
	// same list is the warm-start worklist below.
	recovered := st.Names()
	skipRecovered := func(name string) bool {
		if slices.Contains(recovered, name) {
			logger.Info("rrmd: dataset recovered; skipping startup load (drop it to replace)",
				"dataset", name, "dir", *dataDir)
			return true
		}
		return false
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -load spec %q (want name=path)", spec)
		}
		if skipRecovered(name) {
			continue
		}
		ds, err := cliutil.LoadCSVFile(path, *header, neg, *normalize)
		if err != nil {
			return fmt.Errorf("loading %q: %w", spec, err)
		}
		if err := srv.AddDataset(context.Background(), name, ds); err != nil {
			return err
		}
		logger.Info("rrmd: loaded dataset", "dataset", name, "n", ds.N(), "d", ds.Dim())
	}
	if *demo {
		for name, gen := range map[string]func(*xrand.Rand, int) *dataset.Dataset{
			"simisland":  dataset.SimIsland,
			"simnba":     dataset.SimNBA,
			"simweather": dataset.SimWeather,
		} {
			if skipRecovered(name) {
				continue
			}
			ds := gen(xrand.New(*seed), 0)
			if err := srv.AddDataset(context.Background(), name, ds); err != nil {
				return err
			}
			logger.Info("rrmd: loaded demo dataset", "dataset", name, "n", ds.N(), "d", ds.Dim())
		}
	}
	if *warmStart && len(recovered) > 0 {
		logger.Info("rrmd: warm-start priming caches in the background", "datasets", len(recovered))
		go srv.WarmStart(recovered)
	}

	if *pprofAddr != "" {
		// The pprof surface gets its own mux on its own listener: profiling
		// must never ride the service port (it is unauthenticated and can
		// stall), and registering on a private mux keeps the service handler
		// free of DefaultServeMux side effects.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		defer ps.Close()
		go func() {
			logger.Info("rrmd: pprof debug server listening", "addr", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("rrmd: pprof server failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("rrmd: listening", "addr", *addr, "timeout", *timeout, "log_format", *logFormat)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Solve responses can legitimately take up to the solve timeout, so
		// only the header read and idle keep-alives get tight bounds.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	logger.Info("rrmd: draining: waiting for in-flight work, then flushing the store", "budget", *drainTO)
	sctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Stop accepting requests and wait for in-flight handlers first, so the
	// scheduler drain below sees every job that will ever be submitted.
	if err := hs.Shutdown(sctx); err != nil {
		logger.Warn("rrmd: http shutdown failed", "err", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		logger.Warn("rrmd: drain failed", "err", err)
	}
	logger.Info("rrmd: shutdown complete")
	return nil
}
