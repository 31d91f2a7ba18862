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
# It also enforces panic hygiene in the hot crates (the clippy `deny` in
# their lib.rs; test code is exempt via crates/clippy.toml) and artifact
# determinism: crates/clippy.toml bans std HashMap/HashSet and the
# Instant/SystemTime::now wall-clock reads, and the crates that build
# artifacts deny `for` loops over a hash map (iter_over_hash_type). It
# fails on an `#[expect]` that no longer fires
# (unfulfilled_lint_expectations).
echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Intra-doc links must resolve, so a doc that names a moved or private
# item fails here instead of rendering as plain text.
echo "== cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Protocol-aware static analysis of the compiled decision functions:
# transition-matrix coverage against the model checker, and waits-for
# liveness. It reads no source files. Prints per-pass timings, writes
# results/lint/protocol_model.json (v3) plus the machine-readable
# findings list (v2), and fails on any finding. The
# model is committed and the lint rewrites it in place, so it is
# compared with the committed copy: a change to the protocol's decisions
# or to the reachable set that was not committed fails here.
echo "== stashdir-lint"
model_before=$(mktemp)
cp results/lint/protocol_model.json "$model_before"
cargo run -q -p stashdir-lint --offline -- --json results/lint/findings.json
cmp "$model_before" results/lint/protocol_model.json \
  || { rm -f "$model_before"; echo "stashdir-lint FAILED: the protocol model changed and results/lint/protocol_model.json is stale; commit the rewritten file"; exit 1; }
rm -f "$model_before"

# Full default sweep: every experiment E1-E20 at the default ops and
# seed (pinned, so STASHDIR_OPS/STASHDIR_SEED cannot move them), from a
# scratch cwd so the committed CSVs are not clobbered. Every
# results/e*.csv must match the committed file byte for byte, which is
# the repository's output contract. The E17 chaos smoke injects one
# fault per taxonomy class and must catch each with its expected
# detector (invariant checker or liveness watchdog), and the E19 static
# rounds must catch every class when faults are composed pairwise: the
# end-to-end mutation gates for the fault-injection layer. About 100 s
# on two workers.
echo "== full sweep (E1-E20) against results/"
repo_root=$(pwd)
sweep_dir=$(mktemp -d)
sweep_out=$(cd "$sweep_dir" && cargo run -q --release --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin sweep -- \
  --all --run ci_full --ops 10000 --seed 7 --no-progress)
for gate in \
  "chaos gate: 7/7 fault classes caught by their expected detector — PASS" \
  "pairwise gate: 7/7 fault classes caught when composed — PASS"; do
  grep -qF "$gate" <<<"$sweep_out" \
    || { echo "full sweep FAILED (missing \"$gate\"):"; echo "$sweep_out"; exit 1; }
done
for csv in results/e*.csv; do
  cmp "$sweep_dir/$csv" "$csv" \
    || { echo "full sweep FAILED: $csv differs from the committed file"; exit 1; }
done
rm -rf "$sweep_dir"

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
simulate() { cargo run -q --offline -p stashdir-harness --bin simulate -- "$@"; }
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

# The workspace clippy above never sees simbench, which calls public
# APIs of mem, sim and core; lint it with the same settings.
echo "== cargo clippy (simbench) --all-targets -- -D warnings"
cargo clippy --offline --manifest-path simbench/Cargo.toml --all-targets -- -D warnings

# Digest smoke: one warm-up and three rounds of all five simbench
# workloads (64-1024 cores, ~30 s) per seed. Exits 1 on any report
# digest that differs from simbench/baseline.json, so byte-identity
# holds at scales the golden fixtures never reach, on both sides of the
# inline/boxed SharerSet switch at 64 cores. Seed 7 is the paired
# protocol's working seed and seed 11 its confirmation seed
# (EXPERIMENTS.md, BENCH), so a change is held to the same digests on
# traces it was not tuned on.
for seed in 7 11; do
  echo "== simbench digest smoke (seed $seed)"
  cargo run --release -q --offline --manifest-path simbench/Cargo.toml -- \
    --seed "$seed" --seconds 0 --trace 0 >/dev/null
done

echo "CI OK"
