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
# One float printer (fsc_ir::ftoa): every shortest round-trip print on the
# wire goes through `write_shortest`, pinned to std's `{}` byte for byte.
[[ $(grep -rlE 'fn write_shortest\b' crates/ --include='*.rs' | wc -l) -eq 1 ]] || { echo "fn write_shortest defined in other than exactly one file under crates/"; exit 1; }
# One zeroed-allocation path (fsc_exec::value): every program array comes
# through `Memory::try_alloc_buffer`, the one place that consults the
# thread's spare set before asking the allocator for fresh pages.
[[ "$(grep -rl alloc_zeroed crates/ --include='*.rs')" == crates/exec/src/value.rs ]] || { echo "alloc_zeroed in other than exactly crates/exec/src/value.rs"; exit 1; }
# Plans come from the IR (the tiling pass's attrs): no tuner, no plan cache.
if grep -rlE 'FSC_PLAN_CACHE|TuneConfig' crates/ src/ examples/ tests/; then echo "FSC_PLAN_CACHE or TuneConfig is back: plans come from the IR"; exit 1; fi
for f in autotune plancache sharded; do
  [[ ! -e crates/exec/src/$f.rs ]] || { echo "crates/exec/src/$f.rs exists: plans come from the IR"; exit 1; }
done
# One way to execute a nest (the kernel engine's tier ladder): the "Flang
# only" line is the generic VM on the unfused lift, not a runner of its own.
if grep -rnE 'fn (run_kernel_naive|naive_cell|run_cell_checked)\b' crates/ --include='*.rs'; then echo "a second per-cell runner is back under crates/: the Flang-only line runs on the generic VM"; exit 1; fi
# One step loop (fsc_exec::kernel's `Pipeline::walk`): a host sweep and a
# rank's trail run the same work items, each nest's state built once per run.
if grep -rnE 'fn (run_steps|run_nest_box_based)\b' crates/ --include='*.rs'; then echo "a second step loop or per-box nest runner is back under crates/: walk Pipeline::walk's items"; exit 1; fi
# Every timed number comes from a figure bin: no criterion benches.
if [[ -e shims/criterion ]] || grep -qsw criterion Cargo.toml ./*/Cargo.toml ./*/*/Cargo.toml; then echo "shims/criterion exists or a Cargo.toml names criterion: time it in a figure bin"; exit 1; fi

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
  echo "== float printer sweep =="
  # fsc_ir::ftoa against std's `{}` on 10^7 seeded random bit patterns,
  # byte for byte (the tier-1 tests cover 10^6 and the edge sets).
  timeout --kill-after=30s 600s cargo test -q --release -p fsc-ir -- --ignored

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
# tiers; PW 24^3 must run on the specialized tier (its fused advection
# body) bit-identical to the forced jit and generic VM; Gauss–Seidel must
# run every nest on the jit as one fragment (its update and copy unit
# chains, its init one affine chain), bit-identical to the generic VM;
# and PW's init must stitch to three chains (all asserted inside the
# binary).
timeout --kill-after=30s 300s \
  cargo run -q -p fsc-bench --bin fig8_jit_tier -- --smoke
# `fsc` names the copy its row loops run, read from the one detection
# (DESIGN.md §16): it must be the one this host's CPU flags call for.
smoke_dir=$(mktemp -d)
sed -e 's/{n}/16/' -e 's/{iters}/1/' benchmark/programs/gs.f90 > "$smoke_dir/gs.f90"
cargo run -q --release --example fsc -- "$smoke_dir/gs.f90" 2> "$smoke_dir/err" > /dev/null
want=baseline
if [[ $(uname -m) == x86_64 ]] && grep -qw avx512f /proc/cpuinfo; then want=avx512f; fi
grep -x "row loops: $want" "$smoke_dir/err" \
  || { echo "fsc did not print 'row loops: $want'"; cat "$smoke_dir/err"; exit 1; }
rm -r "$smoke_dir"

echo "== vector width gate =="
# The AVX-512F copies of the row loops (DESIGN.md §16) must be zmm code with
# the body inlined. The fused PW row's copy must not call or jump into
# another function of this workspace (a closure or an `#[inline(never)]`
# body runs at baseline width); no function may call a jit fragment's
# closure (the `LinChain` lane once ran as one call per cell); some jit
# fragment copy must be zmm code; and the one-fragment box loop's copies
# must be zmm code that calls no jit row function (`row_op`, a `Row::row`
# or its closure): the row body is inlined, not called per row.
if [[ $(uname -m) == x86_64 ]]; then
  cargo build -q --release --example fsc
  objdump -d -C --no-show-raw-insn "${CARGO_TARGET_DIR:-target}/release/examples/fsc" | awk '
    /^[0-9a-f]+ <.*>:$/ {
      f = ""
      if ($0 ~ /<fsc_exec::specialize::pw_nest_row::avx512f::wide>:$/) { f = "pw"; pw++ }
      if ($0 ~ /<fsc_exec::jit::row_op::avx512f::wide>:$/) { f = "jit"; jit++ }
      if ($0 ~ /<fsc_exec::jit::box_op::avx512f::wide>:$/) { f = "box"; box++ }
      next
    }
    /(call|jmp)[a-z]* +[0-9a-f]+ <.*fsc_exec::jit::.*::row::[{][{]closure[}][}]>$/ {
      print "calls a jit closure: " $0; bad = 1
    }
    f == "" { next }
    /zmm/ { zmm[f]++ }
    f == "pw" && /(call|jmp)[a-z]* +[0-9a-f]+ <fsc_/ && $0 !~ /::avx512f::wide\+0x[0-9a-f]+>$/ {
      print "pw_nest_row leaves its copy: " $0; bad = 1
    }
    f == "box" && /(call|jmp)[a-z]* +[0-9a-f]+ <.*fsc_exec::jit::.*(::row|row_op)/ {
      print "box_op calls a row: " $0; bad = 1
    }
    END {
      print "pw_nest_row: " pw + 0 " AVX-512F copy, " zmm["pw"] + 0 " zmm instructions"
      print "jit::row_op: " jit + 0 " AVX-512F copies, " zmm["jit"] + 0 " zmm instructions"
      print "jit::box_op: " box + 0 " AVX-512F copies, " zmm["box"] + 0 " zmm instructions"
      if (!pw || !zmm["pw"] || !jit || !zmm["jit"] || !box || !zmm["box"]) bad = 1
      exit bad
    }' || { echo "an AVX-512F row copy is not zmm code of its own"; exit 1; }
fi

echo "== jit text gate =="
# The jit's machine code earns its bytes (DESIGN.md §14): the text symbols
# of the release `fsc` whose names contain `fsc_exec::jit::` may sum to at
# most JIT_TEXT_BOUND bytes. It was 917157 with one monomorph per chain
# form of up to 8 taps; one runtime-arity chain loop and the one kept form
# measure 163238. The bound may only shrink.
JIT_TEXT_BOUND=171000
cargo build -q --release --example fsc
jit_text=$(nm -S -t d -C "${CARGO_TARGET_DIR:-target}/release/examples/fsc" \
  | awk '$3 ~ /^[tT]$/ && /fsc_exec::jit::/ { s += $2 } END { print s + 0 }')
echo "fsc_exec::jit text: $jit_text bytes (bound $JIT_TEXT_BOUND)"
[[ $jit_text -gt 0 && $jit_text -le $JIT_TEXT_BOUND ]] \
  || { echo "fsc_exec::jit text is $jit_text bytes, above the bound of $JIT_TEXT_BOUND"; exit 1; }

echo "== small-nest smoke =="
# An openmp nest is split into slabs only when its work repays a spawn
# (DESIGN.md §8): on two threads every nest of Gauss–Seidel n=4 must stay
# on the calling thread (every `schedule:` line reads `slabs [1, …]`), and
# the stencil nest of n=64 must still split in two.
smoke_dir=$(mktemp -d)
for n in 4 64; do
  sed -e "s/{n}/$n/" -e 's/{iters}/2/' benchmark/programs/gs.f90 > "$smoke_dir/gs$n.f90"
  cargo run -q --example fsc -- "$smoke_dir/gs$n.f90" --target=openmp --threads=2 2>&1 \
    | grep '^schedule:' > "$smoke_dir/gs$n.schedule" || true
done
cat "$smoke_dir"/gs*.schedule
[[ -s "$smoke_dir/gs4.schedule" ]] && ! grep -v 'slabs \[1\(, 1\)*\]$' "$smoke_dir/gs4.schedule" \
  || { echo "GS n=4 on openmp:2 split a nest (or printed no schedule)"; exit 1; }
grep -q 'slabs \[2, [0-9]*\]$' "$smoke_dir/gs64.schedule" \
  || { echo "GS n=64 on openmp:2 did not split its stencil nest in two"; exit 1; }
rm -r "$smoke_dir"

echo "== batched sweep smoke =="
# Consecutive dispatches of one region on the same arrays run as one
# pipelined sweep (DESIGN.md §15), and on `dmp` as one queued rank run
# (DESIGN.md §9): GS n=64 x 8 on `cpu` and on two ranks runs its init
# region alone and its eight time steps as one sweep, and its `u` must
# print the FIR interpreter's (`--target=flang`) checksum. Release build:
# the interpreter takes minutes on 64^3 x 8 unoptimised.
smoke_dir=$(mktemp -d)
sed -e 's/{n}/64/' -e 's/{iters}/8/' benchmark/programs/gs.f90 > "$smoke_dir/gs.f90"
for target in cpu dmp flang; do
  cargo run -q --release --example fsc -- "$smoke_dir/gs.f90" --target=$target --grid=2 --print=u \
    > "$smoke_dir/$target.out" 2> "$smoke_dir/$target.err"
done
for target in cpu dmp; do
  grep '^sweeps:' "$smoke_dir/$target.err" || true
  grep -qx 'sweeps: 9 dispatches in 2 sweeps' "$smoke_dir/$target.err" \
    || { echo "GS n=64 x 8 on $target did not run its 8 time steps as one sweep"; exit 1; }
  cmp "$smoke_dir/$target.out" "$smoke_dir/flang.out" \
    || { echo "GS n=64 x 8: u on $target differs from flang"; cat "$smoke_dir"/*.out; exit 1; }
done
rm -r "$smoke_dir"

echo "== docs =="
# Every intra-doc link resolves and no public doc links a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

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
