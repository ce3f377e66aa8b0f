#!/usr/bin/env bash
# obs_smoke.sh — boot stingd with the observability endpoint, scrape it,
# and assert the acceptance-criteria metric families are present. Run via
# `make obs-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

log="$(mktemp)"
bin="$(mktemp -d)/stingd"
trap 'kill "${pid:-}" 2>/dev/null || true; rm -f "$log"; rm -rf "$(dirname "$bin")"' EXIT

go build -o "$bin" ./cmd/stingd

"$bin" -addr 127.0.0.1:0 -http 127.0.0.1:0 -spaces jobs=hash,done=queue >"$log" 2>&1 &
pid=$!

# Wait for the daemon to announce its observability address.
obs=""
for _ in $(seq 1 50); do
    obs="$(sed -n 's|^stingd: observability on http://\([^ ]*\).*|\1|p' "$log")"
    [ -n "$obs" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "FAIL: stingd exited early"; cat "$log"; exit 1; }
    sleep 0.1
done
[ -n "$obs" ] || { echo "FAIL: no observability address in log"; cat "$log"; exit 1; }
echo "stingd observability at $obs"

fail=0

health="$(curl -fsS "http://$obs/healthz")"
if [ "$health" != "ok" ]; then
    echo "FAIL: /healthz = '$health', want 'ok'"
    fail=1
fi

metrics="$(curl -fsS "http://$obs/metrics")"
for family in \
    sting_vp_dispatches_total \
    sting_vp_steal_batches_total \
    sting_vp_failed_steals_total \
    sting_tspace_depth \
    sting_tspace_wakes_total \
    sting_remote_conns_active \
    sting_remote_op_latency_seconds_bucket \
    sting_remote_pipeline_depth \
    sting_remote_batch_size \
    sting_remote_conn_pool_size \
    sting_stm_commits_total \
    sting_stm_aborts_total \
    sting_stm_retries_total \
    sting_diag_samples_total \
    sting_diag_stalls_total \
    sting_diag_key_events_total \
    sting_diag_wake_misses_total \
    sting_diag_recorder_events_total \
    sting_vm_compiled_forms_total \
    sting_vm_dispatch_ops_total \
    sting_trace_events; do
    if ! grep -q "^$family" <<<"$metrics"; then
        echo "FAIL: /metrics missing family $family"
        fail=1
    fi
done

trace="$(curl -fsS "http://$obs/debug/trace")"
if ! grep -q '"traceEvents"' <<<"$trace"; then
    echo "FAIL: /debug/trace missing traceEvents array"
    fail=1
fi
# Valid JSON end to end (encoding/json already guards this in unit tests;
# here we check the served bytes).
if ! go run ./scripts/jsoncheck <<<"$trace"; then
    echo "FAIL: /debug/trace not valid JSON"
    fail=1
fi

kill "$pid"
wait "$pid" 2>/dev/null || true

if [ "$fail" -ne 0 ]; then
    echo "obs-smoke: FAILED"
    exit 1
fi
echo "obs-smoke: OK (/healthz ok, $(grep -c '^sting_' <<<"$metrics") sting_* samples, trace served)"
