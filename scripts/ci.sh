#!/usr/bin/env bash
# CI entry point: builds and runs the test suite under several
# configurations —
#
#   1. a plain release-ish build (the configuration the benches use), with
#      warnings as errors (-DTMPS_WERROR=ON);
#   2. an AddressSanitizer+UBSan build (-DTMPS_SANITIZE=address), which has
#      caught lifetime bugs the plain run cannot;
#   3. a ThreadSanitizer build (-DTMPS_SANITIZE=thread) scoped to the
#      threaded code paths: the TCP transport, the HTTP admin endpoints,
#      the broker fixtures they drive, the TCP session client/host, the
#      flight recorder's concurrent writers and readers, and the host-shape
#      script (MobileClient driving TcpTransport through run_on);
#   4. an audit leg: the fig09 workload sweep with tracing and the embedded
#      movement-invariant auditor enabled, re-checked from the emitted JSONL
#      files by tools/tmps_audit. Any invariant violation fails the leg.
#      Bench JSON artifacts (BENCH_*.json) land in results/.
#   5. perf-smoke legs: micro_covering at a small table size and
#      micro_forwarding at the 100k-subscription gate size. Each binary
#      exits nonzero on any index/scan-oracle disagreement (micro_forwarding
#      additionally gates on a >=10x match speedup), and the legs check that
#      the bench JSON artifacts were emitted with speedup figures in them.
#   6. a balancer-soak leg: ext_load_balance drives the load-balancing
#      control plane over a Zipf-skewed placement — with and without
#      background subscription churn — under the movement-invariant auditor.
#      The binary gates on the 2x skew reduction, per-client move budgets
#      (convergence) and delivery losses, and exits nonzero on any miss.
#   7. a chaos leg: ext_self_heal crash-restarts source, target and
#      intermediate brokers at every movement phase (all coordinator
#      timeouts disabled) and gates on the anti-entropy repair loop
#      converging auditor-clean — run under the ASan build so the
#      crash/repair paths also get lifetime checking, with a repair-off
#      negative control that must show damage.
#   8. a flaky-fleet leg: ext_flaky_fleet churns an edge fleet through
#      Zipf-distributed connect/disconnect cycles against the session layer
#      (ASan build) and gates on zero duplicates, exact drop-ledger loss
#      attribution, zero residual session state after the quiet tail, and a
#      delivery-locality win over its cold re-subscribe negative control.
#   9. an observability-overhead gate: obs_overhead_gate times the broker
#      publish path at provenance sample rate 0 vs 1/64 and fails if 1/64
#      sampling costs more than 2% (override via TMPS_GATE_PCT); the same
#      binary gates the stage profiler at <1% compiled-in-but-disabled and
#      <3% enabled at 1/16 sampling (TMPS_GATE_PROF_OFF_PCT /
#      TMPS_GATE_PROF_PCT).
#  10. a perf-regression leg: tools/tmps_benchdiff compares the bench JSON
#      from legs 4 (fig09) plus a fresh fig11 run against the committed
#      baselines in results/baselines/. The simulation metrics are
#      deterministic per seed, so any drift is a real behavior change;
#      wall-clock metrics stay advisory. Refresh the baselines after an
#      intentional change with scripts/run_all.sh --update-baselines.
#
# On any failed leg, flight-recorder dumps (flight_b*.jsonl) from the obs
# sink directories are collected into results/flight/ for post-mortem.
#
# Usage: scripts/ci.sh [jobs]     (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
RESULTS="results"

# Post-mortem context for a red run: any flight-recorder dump written by a
# failing leg (movement abort, audit violation) is preserved as an artifact.
collect_flight_dumps() {
  local status=$?
  if [[ ${status} -ne 0 ]]; then
    mkdir -p "${RESULTS}/flight"
    find "${RESULTS}" build build-asan build-tsan -name 'flight_b*.jsonl' \
        -not -path "${RESULTS}/flight/*" 2>/dev/null |
      while read -r dump; do
        cp -f "${dump}" "${RESULTS}/flight/$(echo "${dump}" | tr / _)"
      done
    if compgen -G "${RESULTS}/flight/*" > /dev/null; then
      echo "flight-recorder dumps collected in ${RESULTS}/flight/:"
      ls -l "${RESULTS}/flight"
    fi
  fi
  exit "${status}"
}
trap collect_flight_dumps EXIT

run_suite() {
  local build_dir="$1"
  shift
  local ctest_filter=()
  if [[ "${1:-}" == "--filter" ]]; then
    ctest_filter=(-R "$2")
    shift 2
  fi
  echo "=== configure ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== build ${build_dir} ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== test ${build_dir} ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
    "${ctest_filter[@]}"
}

run_suite build -DTMPS_WERROR=ON
run_suite build-asan -DTMPS_SANITIZE=address

# ThreadSanitizer on the threaded paths only (the simulator is
# single-threaded; running the whole suite under TSan would triple CI time
# for no extra coverage).
run_suite build-tsan \
  --filter '^(TcpTest|HttpAdmin|BrokerChain|BrokerCovering|SessionTcp|FlightRecorder|HostShape)' \
  -DTMPS_SANITIZE=thread

echo "=== audit leg: fig09 under the movement-invariant auditor ==="
OBS_DIR="${RESULTS}/fig09-obs"
mkdir -p "${OBS_DIR}"
TMPS_AUDIT=1 TMPS_TRACE="${OBS_DIR}" TMPS_BENCH_OUT="${RESULTS}" \
  ./build/bench/fig09_workload_sweep
# Second opinion from the file-driven CLI over the emitted streams.
./build/tools/tmps_audit "${OBS_DIR}/trace.jsonl" \
  --snapshots "${OBS_DIR}/snapshots.jsonl" --quiet
echo "bench artifacts:"
ls -l "${RESULTS}"/BENCH_*.json

echo "=== perf-smoke leg: covering index vs scan (micro_covering) ==="
# Small table size: fast, but still fails the leg on index/scan divergence.
TMPS_BENCH_OUT="${RESULTS}" ./build/bench/micro_covering 2000
COVERING_JSON="${RESULTS}/BENCH_micro_covering.json"
[[ -s "${COVERING_JSON}" ]] || {
  echo "missing ${COVERING_JSON}"; exit 1; }
grep -q '"speedup":' "${COVERING_JSON}" || {
  echo "no speedup figures in ${COVERING_JSON}"; exit 1; }

echo "=== perf-smoke leg: forwarding core vs scan (micro_forwarding) ==="
# Gate size: every timed publication is cross-checked against the
# match_scan oracle (exit 1 on divergence), and the counting index must
# beat the scan by >=10x at 100k subscriptions.
TMPS_BENCH_OUT="${RESULTS}" ./build/bench/micro_forwarding 100000
FORWARDING_JSON="${RESULTS}/BENCH_micro_forwarding.json"
[[ -s "${FORWARDING_JSON}" ]] || {
  echo "missing ${FORWARDING_JSON}"; exit 1; }
grep -q '"speedup":' "${FORWARDING_JSON}" || {
  echo "no speedup figures in ${FORWARDING_JSON}"; exit 1; }

echo "=== balancer-soak leg: load balancing under churn (ext_load_balance) ==="
TMPS_AUDIT=1 TMPS_BENCH_OUT="${RESULTS}" ./build/bench/ext_load_balance
BALANCE_JSON="${RESULTS}/BENCH_ext_load_balance.json"
[[ -s "${BALANCE_JSON}" ]] || {
  echo "missing ${BALANCE_JSON}"; exit 1; }
grep -q '"load_ratio":' "${BALANCE_JSON}" || {
  echo "no load-skew figures in ${BALANCE_JSON}"; exit 1; }

echo "=== chaos leg: crash-restart self-healing (ext_self_heal, ASan) ==="
# Phase-targeted crashes mid-movement with coordinator timeouts disabled:
# the repair sweeps are the only healer, and the binary exits nonzero if the
# repair-on run is not auditor-clean (or the repair-off control shows no
# damage). The ASan build doubles as a lifetime check on the repair paths.
HEAL_OBS="${RESULTS}/extsh-obs"
mkdir -p "${HEAL_OBS}"
TMPS_AUDIT=1 TMPS_TRACE="${HEAL_OBS}" TMPS_BENCH_OUT="${RESULTS}" \
  ./build-asan/bench/ext_self_heal
HEAL_JSON="${RESULTS}/BENCH_ext_self_heal.json"
[[ -s "${HEAL_JSON}" ]] || {
  echo "missing ${HEAL_JSON}"; exit 1; }
grep -q '"repair_ops_total":' "${HEAL_JSON}" || {
  echo "no repair figures in ${HEAL_JSON}"; exit 1; }
# Second opinion from the file-driven CLI, with the per-broker repair-round
# table. The trace holds both runs, and the repair-off control *must* carry
# violations — a clean exit here means the negative control proved nothing
# (the repair-on run's cleanliness is gated inside the binary).
if ./build/tools/tmps_audit "${HEAL_OBS}/trace.jsonl" --repair-rounds; then
  echo "repair-off control left no attributed violations in the trace"
  exit 1
fi

echo "=== flaky-fleet leg: edge-session churn soak (ext_flaky_fleet, ASan) ==="
# Zipf connect/disconnect churn against the session layer: the binary exits
# nonzero on duplicate deliveries, losses missing from the drop ledgers,
# residual session state after the quiet tail, or a delivery-locality loss
# against the cold re-subscribe control. ASan doubles as a lifetime check on
# the buffering/adoption paths.
TMPS_AUDIT=1 TMPS_BENCH_OUT="${RESULTS}" ./build-asan/bench/ext_flaky_fleet
FLEET_JSON="${RESULTS}/BENCH_ext_flaky_fleet.json"
[[ -s "${FLEET_JSON}" ]] || {
  echo "missing ${FLEET_JSON}"; exit 1; }
grep -q '"dropped_ledger":' "${FLEET_JSON}" || {
  echo "no drop-ledger figures in ${FLEET_JSON}"; exit 1; }
grep -q '"locality":' "${FLEET_JSON}" || {
  echo "no locality figures in ${FLEET_JSON}"; exit 1; }

echo "=== overhead gate: provenance sampling cost (obs_overhead_gate) ==="
# Exits nonzero when 1/64 sampling slows the publish path by more than the
# threshold (default 2%); the JSON artifact records the measured delta.
TMPS_BENCH_OUT="${RESULTS}" ./build/bench/obs_overhead_gate
GATE_JSON="${RESULTS}/BENCH_obs_overhead_gate.json"
[[ -s "${GATE_JSON}" ]] || {
  echo "missing ${GATE_JSON}"; exit 1; }
grep -q '"delta_pct":' "${GATE_JSON}" || {
  echo "no overhead figures in ${GATE_JSON}"; exit 1; }

echo "=== regression leg: bench results vs committed baselines ==="
# fig09's JSON is reused from the audit leg; fig11 (single mover, the
# paper's latency-floor figure) runs fresh. Both are deterministic per
# seed, so tmps_benchdiff fails the leg on any gated-metric drift.
TMPS_BENCH_OUT="${RESULTS}" ./build/bench/fig11_single_client
./build/tools/tmps_benchdiff --baselines "${RESULTS}/baselines" \
  "${RESULTS}/BENCH_fig09_workload_sweep.json" \
  "${RESULTS}/BENCH_fig11_single_client.json" \
  "${RESULTS}/BENCH_micro_forwarding.json" \
  "${RESULTS}/BENCH_ext_flaky_fleet.json"

echo "=== ci.sh: all legs passed ==="
