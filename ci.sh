#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# The build is fully offline — every external dependency is vendored as a
# minimal stub under stubs/ (see stubs/README.md) — so this runs on a
# clean checkout with no registry access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

# --all-targets compiles tests, examples and benches too, so removing a
# public API a bench still uses fails here rather than going unnoticed.
echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Intra-doc links must resolve, so a doc that names a moved or private
# item fails here instead of rendering as plain text.
echo "== cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Protocol-aware static analysis: transition-matrix coverage against the
# model checker, waits-for liveness, panic hygiene in hot crates,
# artifact determinism, and stat registration. Prints per-pass timings,
# writes results/lint/protocol_model.json (v2) plus the machine-readable
# findings list, and fails on any finding.
echo "== stashdir-lint"
cargo run -q -p stashdir-lint --offline -- --root . \
  --json results/lint/findings.json

# Chaos smoke (E17): one injected fault per taxonomy class on a small
# grid; the run fails unless every class is caught by its expected
# detector (invariant checker or liveness watchdog) — the end-to-end
# mutation gate for the fault-injection layer. Runs together with the
# E19 static rounds from a scratch cwd, so the committed CSVs are not
# clobbered; both experiments cap ops at 400, so the scratch CSVs are the
# full-scale bytes and must match the committed ones exactly.
echo "== chaos smoke (E17) + campaign rounds (E19)"
repo_root=$(pwd)
chaos_dir=$(mktemp -d)
chaos_out=$(cd "$chaos_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin sweep -- \
  --plan chaos_smoke,campaign --run ci_chaos --ops 400 --no-progress)
echo "$chaos_out" | grep -qF \
  "chaos gate: 7/7 fault classes caught by their expected detector — PASS" \
  || { echo "chaos smoke FAILED:"; echo "$chaos_out"; exit 1; }
for csv in e17_chaos_smoke.csv e19_campaign.csv; do
  cmp "$chaos_dir/results/$csv" "results/$csv" \
    || { echo "chaos smoke FAILED: $csv differs from the committed file"; exit 1; }
done
rm -rf "$chaos_dir"

# Shoot-out smoke (E18): the equal-area backend comparison end to end at
# a reduced op count, from a scratch cwd so the committed full-scale
# results/e18_shootout.csv is not clobbered. Passes when the sweep
# completes and the CSV carries every registered backend.
echo "== shoot-out smoke (E18)"
e18_dir=$(mktemp -d)
(cd "$e18_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin sweep -- \
  --plan shootout --run ci_shootout --ops 300 --no-progress >/dev/null)
e18_backends=$(tail -n +2 "$e18_dir/results/e18_shootout.csv" | cut -d, -f2 | sort -u)
e18_count=$(echo "$e18_backends" | wc -l)
[[ "$e18_count" -ge 6 ]] \
  || { echo "E18 smoke FAILED: only $e18_count backends in CSV:"; echo "$e18_backends"; exit 1; }
rm -rf "$e18_dir"

# XL-scaling smoke (E20): one budgeted 256-core point through the
# struct-of-arrays sim core, from a scratch cwd so the committed
# full-scale results/e20_scaling_xl.csv is not clobbered. Passes when
# the sweep completes and the CSV carries all four core counts (the
# 128-1024 rows assemble even when only the smoke ops ran).
echo "== XL-scaling smoke (E20)"
e20_dir=$(mktemp -d)
(cd "$e20_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin sweep -- \
  --plan scaling_xl --run ci_scaling_xl --ops 40 --no-progress >/dev/null)
e20_rows=$(tail -n +2 "$e20_dir/results/e20_scaling_xl.csv" | cut -d, -f2 | sort -un)
[[ "$e20_rows" == $'128\n256\n512\n1024' ]] \
  || { echo "E20 smoke FAILED: core counts in CSV:"; echo "$e20_rows"; exit 1; }
rm -rf "$e20_dir"

# Chaos campaign smoke (E19): a short budgeted coverage-guided campaign
# from a scratch cwd against the freshly written protocol model. Passes
# when composing fault classes pairwise still catches all 7 (the E17
# property under composition), when the campaign strictly beats the
# single-fault coverage floor, and when the emitted coverage artifact
# verifies under the lint schema checker.
echo "== chaos campaign smoke (E19)"
e19_dir=$(mktemp -d)
e19_out=$(cd "$e19_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin campaign -- \
  --model "$repo_root/results/lint/protocol_model.json" \
  --ops 400 --rounds 2 --plateau 1 --no-progress)
echo "$e19_out" | grep -qF \
  "pairwise gate: 7/7 fault classes caught when composed — PASS" \
  || { echo "E19 smoke FAILED (pairwise gate):"; echo "$e19_out"; exit 1; }
echo "$e19_out" | grep -qE \
  "coverage gate: campaign witnessed [0-9]+/[0-9]+ reachable transitions \(single-fault baseline [0-9]+\) — PASS" \
  || { echo "E19 smoke FAILED (coverage gate):"; echo "$e19_out"; exit 1; }
echo "== stashdir-lint --verify-coverage"
cargo run -q -p stashdir-lint --offline -- \
  --verify-coverage "$e19_dir/results/campaign/coverage.json"
rm -rf "$e19_dir"

# simulate smoke: the ad-hoc CLI runs a limited-pointer spec end to
# end, and a bad directory spec or core count exits 1 with a named
# error instead of panicking.
echo "== simulate smoke"
simulate() { cargo run -q --offline -p stashdir-bench --bin simulate -- "$@"; }
simulate --dir limited-ptr2@1/8 --cores 4 --ops 200 >/dev/null 2>&1 \
  || { echo "simulate smoke FAILED: limited-ptr2@1/8 run"; exit 1; }
check_rejects() {
  local want=$1; shift
  local err status=0
  err=$(simulate "$@" 2>&1 >/dev/null) || status=$?
  [[ $status -eq 1 ]] && grep -qF "$want" <<<"$err" \
    || { echo "simulate smoke FAILED: $* exited $status:"; echo "$err"; exit 1; }
}
check_rejects "bad coverage \`1/0\`" --dir stash@1/0
check_rejects "bad core count \`3\`" --cores 3

echo "== cargo test -q --offline"
cargo test -q --workspace --offline

# The end-to-end benchmark (simbench/, see BENCHMARK.json) builds
# against stashdir by path but sits outside the workspace, so nothing
# above compiles it; its own tests keep it building against the
# current library API.
echo "== simbench tests"
cargo test -q --offline --manifest-path simbench/Cargo.toml

echo "CI OK"
