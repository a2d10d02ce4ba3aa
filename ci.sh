#!/usr/bin/env bash
# Tier-1 verification plus lint gates. Run from the repo root.
#
#   ./ci.sh           # everything
#   ./ci.sh --quick   # skip the release build (debug tests + lints only)
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== duplicate-helper gate =="
# One FNV-1a-64 (fsc_ir::hash) and one histogram (fsc_ir::hist): a second
# copy of either fails here instead of regrowing per crate.
[[ $(grep -rli 'cbf2_9ce4_8422_2325' crates/ | wc -l) -le 1 ]] || { echo "FNV offset basis in more than one file under crates/"; exit 1; }
! grep -rn 'struct .*Histogram' crates/ --include='*.rs' | grep -v '^crates/ir/' || { echo "histogram defined outside crates/ir/"; exit 1; }
# One resilient wire protocol (fsc_mpisim::resilient::Transport): both rank
# substrates drive it through `Link`, neither carries a copy.
for f in retransmit_due send_ack crash_and_restore; do
  [[ $(grep -rlE "fn $f\b" crates/ --include='*.rs' | wc -l) -eq 1 ]] || { echo "fn $f defined in other than exactly one file under crates/"; exit 1; }
done
# One fan-out (fsc_ir::par): every split of work over cores goes through
# `fan_out`, and `available_threads` is the one reading of the core count.
if grep -qsw rayon Cargo.toml ./*/Cargo.toml ./*/*/Cargo.toml || [[ -e shims/rayon ]]; then echo "a Cargo.toml names rayon, or shims/rayon exists: split work with fsc_ir::par::fan_out"; exit 1; fi
[[ $(grep -rlE 'fn fan_out\b' crates/ --include='*.rs' | wc -l) -eq 1 ]] || { echo "fn fan_out defined in other than exactly one file under crates/"; exit 1; }
if grep -rl available_parallelism crates/ shims/ src/ examples/ tests/ --include='*.rs' | grep -vx 'crates/ir/src/par.rs'; then echo "available_parallelism outside crates/ir/src/par.rs"; exit 1; fi
# Plans come from the IR (the tiling pass's attrs): no tuner, no plan cache.
if grep -rlE 'FSC_PLAN_CACHE|TuneConfig' crates/ src/ examples/ tests/; then echo "FSC_PLAN_CACHE or TuneConfig is back: plans come from the IR"; exit 1; fi
for f in autotune plancache sharded; do
  [[ ! -e crates/exec/src/$f.rs ]] || { echo "crates/exec/src/$f.rs exists: plans come from the IR"; exit 1; }
done

if [[ $quick -eq 0 ]]; then
  echo "== build (release) =="
  # --workspace: the root manifest is also a package, so a bare build
  # would only cover flang-stencil and skip the member crates' binaries
  # (fsc-serve, loadgen, the figure bins).
  cargo build --release --workspace
fi

echo "== test =="
# Hard timeout: the mpisim fault/deadlock tests are designed so no code
# path can block forever, but a regression there must fail CI loudly
# instead of hanging it. SIGKILL follows 30s after SIGTERM if needed.
# --workspace for the same reason as the build above.
timeout --kill-after=30s 900s cargo test -q --workspace

if [[ $quick -eq 0 ]]; then
  echo "== mpisim soak =="
  # The transport's tests race real timers (retry backoff against the
  # deadlock watchdog's grace): five consecutive green runs, ~8 s each, so
  # a timing flake there shows up here and not one run in thirty elsewhere.
  for i in 1 2 3 4 5; do
    timeout --kill-after=30s 300s cargo test -q -p fsc-mpisim
  done
fi

echo "== benchmark self-test =="
# The benchmark is a package of its own (outside the workspace) that
# replays the compile through each crate's public entry points, so this is
# what catches a public-API change that breaks `benchmark/src/stages.rs`;
# its self-test also runs every workload at quick sizes and checks that a
# spoiled expectation is reported as a failed operation.
timeout --kill-after=30s 600s cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== fuzz smoke =="
# Bounded differential fuzzing: every ladder rung and exec tier must be
# bit-identical to the reference on seeded random stencils, and malformed
# input must be rejected with coded diagnostics — never a panic. The fixed
# seed keeps CI deterministic; nightly jobs can rotate it.
timeout --kill-after=30s 300s cargo run -q -p fsc-bench --bin fuzz_diff -- --cases 200 --seed 1

echo "== distributed smoke =="
# Executed distributed run on a 2x2 process grid: rank bodies on the MPI
# micro-sim must produce a bit-identical result to single-rank serial,
# attest a non-zero halo-overlap fraction, and scatter and gather each
# rank's resident windows exactly once per run (asserted inside the
# binary).
timeout --kill-after=30s 300s \
  cargo run -q -p fsc-bench --bin fig6_distributed -- --smoke

echo "== scaling smoke =="
# 1024 virtual ranks on the work-stealing cooperative scheduler over a
# forced 4-worker pool: the run must stay *measured* (no cost-model
# fallback), match single-rank serial bit-for-bit, attest non-zero
# steals, and finish under the binary's wall budget (all asserted inside
# the binary).
timeout --kill-after=30s 300s \
  cargo run -q -p fsc-bench --bin fig7_rank_scaling -- --smoke

echo "== jit smoke =="
# The stitched jit tier (DESIGN.md §14): the three non-template kernels
# must land on the jit by default and stay bit-identical to both VM
# tiers, and Gauss–Seidel forced onto the jit must stay within 1.2x of
# the hand-specialized template (all asserted inside the binary).
timeout --kill-after=30s 300s \
  cargo run -q -p fsc-bench --bin fig8_jit_tier -- --smoke

echo "== server smoke =="
# Compile-server mode: loadgen self-hosts an fsc-serve instance on a
# private socket and storms it with a duplicate-heavy request mix. The
# binary exits non-zero unless every request completed ok, the artifact
# cache was actually reused (hit rate > 0), and singleflight held
# (server-side compiles <= distinct request shapes).
timeout --kill-after=30s 300s \
  cargo run -q -p fsc-serve --bin loadgen -- --smoke

echo "== chaos smoke =="
# Seeded fault-injection soak against the failure model (DESIGN.md §11):
# 500 requests through resilient clients while the server takes worker
# panics, slow compiles past the deadline, truncated response frames,
# artifact purges and memory pressure. The binary exits non-zero
# unless every request ends in exactly one bit-identical success after
# bounded retries, every chaos site actually fired, the scarred server
# drains clean, serves bit-identically after disarm, and stops within its
# hard bound. The fixed seed pins each site's decision stream.
timeout --kill-after=30s 300s \
  cargo run -q -p fsc-serve --bin loadgen -- --chaos --smoke --seed 20260808

echo "== memory smoke =="
# Memory-governance soak (DESIGN.md §12): 500 requests with over-budget
# giants mixed into normal traffic against a self-hosted server capped at
# --mem-budget 256 MiB. The binary exits non-zero unless every giant is
# answered exactly once with the coded E0806 rejection, every admitted
# run is bit-identical with its attested estimate bounding its measured
# peak, the reservation ledger drains to zero, and no worker dies. The
# subshell pins a hard 4 GiB address-space rlimit so an accounting hole
# becomes a real allocator failure, not a missed assertion. The binary is
# prebuilt outside the rlimit because rustc itself needs more than the
# cap.
cargo build -q -p fsc-serve --bin loadgen
loadgen_bin="${CARGO_TARGET_DIR:-target}/debug/loadgen"
( ulimit -v 4194304
  timeout --kill-after=30s 300s \
    "$loadgen_bin" --mem --smoke --seed 20260808 )

echo "ci: all green"
