#!/usr/bin/env bash
# Serving smoke: boot rrmd over two small deterministic datasets, drive it
# with the seeded open-loop traffic generator of cmd/rrmd's tests — the
# TestLiveSteady and TestLiveBurst entry points, whose scenarios are fixed —
# and require both runs healthy: nonzero completed throughput, zero
# unexpected 5xx responses, and a near-zero error rate. Rejections (429/503)
# are fine; they are the overload design working. The reports are written to
# BENCH_serving_steady.json / BENCH_serving_burst.json for CI upload.
set -euo pipefail

ADDR="127.0.0.1:18081"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'kill -9 $PID ${SCRAPER:-} 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/rrmd" ./cmd/rrmd
go build -o "$WORK/promcheck" ./cmd/promcheck
# The load driver is test code: compile it once, and run it from here so the
# report paths are relative to the repository root.
go test -c -o "$WORK/rrmd.test" ./cmd/rrmd

# drive runs one live entry point against the daemon and writes its report.
drive() {
  RRMD_LOAD_URL="$BASE" RRMD_LOAD_REPORT="$2" \
    "$WORK/rrmd.test" -test.run "^$1\$" -test.v
}

# Two small deterministic CSV datasets (2 and 5 attributes) so individual
# solves stay cheap: the smoke measures the serving path under load, not
# one giant solve. The demo datasets (-demo) are far heavier and belong in
# manual benchmarking, not a CI gate.
python3 - "$WORK/pair.csv" "$WORK/cars.csv" <<'EOF'
import random, sys
random.seed(11)
with open(sys.argv[1], "w") as f:
    for _ in range(1200):
        f.write(",".join(f"{random.random():.6f}" for _ in range(2)) + "\n")
with open(sys.argv[2], "w") as f:
    for _ in range(800):
        f.write(",".join(f"{random.random():.6f}" for _ in range(5)) + "\n")
EOF

# Explicit pool shape so the smoke behaves the same on any runner: a small
# worker pool, a bounded queue, and a short queue-wait budget so overload
# sheds promptly with 429s instead of letting requests rot. The observability
# surface runs in anger: JSON logs, a deliberately unmeetable solve SLO plus
# a hair-trigger slow-request threshold so the burst scenario trips the
# fast-burn alarm and the flight recorder captures bundles we can assert on.
"$WORK/rrmd" -addr "$ADDR" -workers 4 -queue 64 \
  -queue-wait 2s -load "pair=$WORK/pair.csv" -load "cars=$WORK/cars.csv" \
  -log-format json -slo "solve:p99<1ms@99" -trace-slow 250ms \
  -incident-dir "$WORK/incidents" 2> "$WORK/rrmd.log" &
PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null

# Scrape /metrics twice a second while the load runs, as a Prometheus server
# would. rrmd evaluates its SLO objectives when they are read, so the
# fast-burn alarm (and the incident it captures) can only fire while
# something scrapes.
( while sleep 0.5; do curl -sf "$BASE/metrics" -o /dev/null || true; done ) &
SCRAPER=$!

# Seed 7, 15 req/s for 15 s, max_samples 400 (which bounds the per-solve
# cost so the smoke measures the serving path on any runner), 15 s client
# timeout: rates are sized for small CI machines.
echo "== steady scenario =="
drive TestLiveSteady BENCH_serving_steady.json

# Scrape the Prometheus surface mid-run (the daemon has just served a full
# steady scenario, so the histograms are populated) and validate it with the
# strict exposition parser. The scrape is kept as a CI artifact either way.
echo "== /metrics scrape =="
curl -sf "$BASE/metrics" -o BENCH_metrics_scrape.txt
# rrmd_slo and rrmd_go_ are prefix entries: each requires its whole family
# group (the SLO gauges and the Go runtime collector) to be present.
"$WORK/promcheck" -require \
  rrmd_solve_duration_seconds,rrmd_solve_stage_duration_seconds,rrmd_queue_wait_seconds,rrmd_run_duration_seconds,rrmd_cache_hits_total,rrmd_vecset_builds_total,rrmd_wal_fsync_seconds,rrmd_snapshot_cut_seconds,rrmd_slo,rrmd_go_ \
  BENCH_metrics_scrape.txt
SOLVES=$(grep -c '^rrmd_solve_duration_seconds_bucket' BENCH_metrics_scrape.txt || true)
if [ "$SOLVES" -eq 0 ]; then
  echo "scrape has no solve-latency buckets" >&2
  exit 1
fi

# Seed 7, 8 req/s calm with 1 s bursts at 120 req/s every 3 s, for 10 s.
echo "== burst scenario =="
drive TestLiveBurst BENCH_serving_burst.json
kill "$SCRAPER" 2>/dev/null
wait "$SCRAPER" 2>/dev/null || true

# The burst ran against an unmeetable 1ms solve objective and a 250ms
# slow-request threshold, so the flight recorder must hold at least one
# incident. The newest bundle is kept as a CI artifact and must carry its
# post-mortem payloads (goroutine profile, metrics snapshot with the SLO
# gauges). Anomaly log records under load must carry request correlation.
echo "== slo + incident capture =="
curl -sf "$BASE/v1/slo" | jq -r \
  '.objectives[] | "\(.name): compliance=\(.compliance) burn_fast=\(.burn_rate_fast) alarm=\(.fast_burn_alarm)"'
INC_ID=$(curl -sf "$BASE/v1/incidents" | jq -r '.incidents[0].id // empty')
if [ -z "$INC_ID" ]; then
  echo "no incident captured under burst (expected slow_request captures at -trace-slow 250ms)" >&2
  exit 1
fi
curl -sf "$BASE/v1/incidents/$INC_ID" -o BENCH_incident_bundle.json
jq -e '.goroutines | contains("goroutine profile:")' BENCH_incident_bundle.json >/dev/null
jq -e '.metrics | contains("rrmd_slo_")' BENCH_incident_bundle.json >/dev/null
echo "incident $INC_ID: trigger=$(jq -r .trigger BENCH_incident_bundle.json)" \
  "request_id=$(jq -r '.request_id // "-"' BENCH_incident_bundle.json)"
if grep -q '"msg":"rrmd: slow request"' "$WORK/rrmd.log"; then
  if grep '"msg":"rrmd: slow request"' "$WORK/rrmd.log" | grep -qv '"request_id":"'; then
    echo "slow-request log records missing request_id:" >&2
    grep '"msg":"rrmd: slow request"' "$WORK/rrmd.log" | grep -v '"request_id":"' | head >&2
    exit 1
  fi
fi

echo "== assertions =="
for f in BENCH_serving_steady.json BENCH_serving_burst.json; do
  OK=$(jq -r '.ok' "$f")
  RPS=$(jq -r '.throughput_rps' "$f")
  BAD=$(jq -r '.unexpected_5xx' "$f")
  ERRPCT=$(jq -r '.error_rate * 100 | floor' "$f")
  echo "$f: ok=$OK throughput=${RPS}req/s unexpected_5xx=$BAD error_rate=${ERRPCT}%"
  if [ "$OK" -le 0 ]; then
    echo "$f: no requests completed" >&2
    exit 1
  fi
  if [ "$BAD" != "0" ]; then
    echo "$f: $BAD unexpected 5xx responses" >&2
    exit 1
  fi
  # Deliberate sheds report as rejections, not errors; anything above a few
  # percent of real errors (timeouts, 4xx) means the serving path is sick.
  if [ "$ERRPCT" -ge 5 ]; then
    echo "$f: error rate ${ERRPCT}% >= 5%" >&2
    jq '.per_kind' "$f" >&2
    exit 1
  fi
done

# The daemon must still be healthy after the storm, and the JSON and
# Prometheus surfaces must agree on the one registry behind them: quiesced,
# the scheduler's done counter reads the same on both.
curl -sf "$BASE/healthz" >/dev/null
curl -sf "$BASE/v1/metrics" | jq -S '{scheduler, engine}'
JSON_DONE=$(curl -sf "$BASE/v1/metrics" | jq -r '.scheduler.done')
PROM_DONE=$(curl -sf "$BASE/metrics" | awk '$1 == "rrmd_jobs_done_total" {print $2}')
if [ "$JSON_DONE" != "$PROM_DONE" ]; then
  echo "metrics surfaces disagree: /v1/metrics done=$JSON_DONE, /metrics done=$PROM_DONE" >&2
  exit 1
fi

kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
echo "serving smoke OK: steady + burst healthy, reports written"
