#!/usr/bin/env bash
# Full local gate: build, tests, docs (warnings fatal), and lint across
# the whole workspace. CI and pre-merge both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."
before="$(git status --porcelain --untracked-files=no)"

# Manifests say what the sources use: a `[dependencies]` or
# `[dev-dependencies]` entry of the root package, a crate or a shim that
# no file under its `src/`, `tests/`, `benches/` or `examples/` names is
# a leftover, and shims/README.md's table lists exactly the shims that
# exist.
echo "==> manifests: every declared dependency is named by its package; shims/README.md lists every shim"
stale=0
for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    for dep in $(awk '/^\[/ { deps = /^\[(dev-)?dependencies\]$/ } deps && /^[a-z]/ { print $1 }' "$manifest"); do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "$dir/src" "$dir/tests" "$dir/benches" "$dir/examples" 2>/dev/null; then
            echo "$manifest: '$dep' is named by no source file of the package" >&2
            stale=1
        fi
    done
done
if ! diff <(sed -n 's/^| `\([a-z_]*\)` |.*/\1/p' shims/README.md | sort) \
          <(for d in shims/*/; do basename "$d"; done | sort) >&2; then
    echo "shims/README.md's table and the shims/ directories disagree" >&2
    stale=1
fi
[ "$stale" -eq 0 ]

# The pub surface says what other files use: a `pub` item of `crates/*`
# that no other file names is printed (a type a pub signature hands out
# belongs there; anything else wants `pub(crate)` or less), and one that
# only its own `#[cfg(test)]` module names — or nothing does — fails, as
# does a printed list longer than the script's A_MAX.
echo "==> dead pub: no pub item lives only for its own unit tests; list A at most its cap"
scripts/dead_pub.sh

# The docs describe code that exists: a backticked code name in docs/,
# README.md, DESIGN.md, EXPERIMENTS.md or shims/README.md that names
# nothing in the tree fails, and so does a `docs/<NAME>.md` path or link
# to a file that is not there (the script's header has the rule).
echo "==> doc names: every code name and docs/ path the docs use exists"
scripts/doc_names.sh

# Every `unsafe` block, fn and impl of `crates/` and `shims/` is a site
# the AddressSanitizer run below has to cover (`shims/rayon`'s kernel pool
# is under it as `-p rayon`); the count is capped so a new one has to
# displace an old one.
echo "==> unsafe sites: at most 25 in crates/ and shims/"
unsafe_sites="$(grep -rnEo 'unsafe( fn| impl|\s*\{)' crates shims --include='*.rs' || true)"
unsafe_count="$(grep -c . <<<"$unsafe_sites" || true)"
for tree in crates shims; do
    echo "$tree/: $(grep -c "^$tree/" <<<"$unsafe_sites" || true) unsafe sites"
done
echo "$unsafe_count unsafe sites"
if [ "$unsafe_count" -gt 25 ]; then
    echo "more than 25 unsafe sites in crates/ and shims/:" >&2
    echo "$unsafe_sites" >&2
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The deterministic results files are what their bins write. Each of
# these bins runs without `--measured` (model projections and seeded
# simulations, about 2 s together in release) and rewrites
# `results/<bin>.jsonl`; the file as it stood before the run is the
# reference, so a stale one fails whether or not the tree was clean.
# The file is put back either way.
echo "==> results: the deterministic results/*.jsonl are what their bins write"
saved="$(mktemp -d)"
trap 'rm -rf "$saved"' EXIT
stale=0
for bin in fig4a fig4b fig4c fig5 fig6 ablation_mixing ablation_remap; do
    file="results/$bin.jsonl"
    cp "$file" "$saved/$bin.jsonl"
    cargo run -q --release -p qgear-bench --bin "$bin" >/dev/null
    if ! cmp -s "$saved/$bin.jsonl" "$file"; then
        echo "$file is not what \`cargo run --release -p qgear-bench --bin $bin\` writes" >&2
        stale=1
    fi
    cp "$saved/$bin.jsonl" "$file"
done
[ "$stale" -eq 0 ]

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The cross-backend differential suite is part of the workspace test run
# above, but it is the correctness gate for the sweep-scheduled hot path
# and for checkpoint/resume bit-identity — run it by name so a
# filtered/partial test environment can't skip it.
echo "==> cargo test -q --test differential"
cargo test -q --test differential

# Checkpoint/resume equivalence at every interruption boundary, by name
# for the same reason.
echo "==> cargo test -q --test differential resume_at_every_segment_boundary"
cargo test -q --test differential resume_at_every_segment_boundary_is_bit_identical_to_straight_through

# The portable lane types. With AVX2 and FMA in the target (the
# workspace's `target-cpu=native` on any recent x86-64) `qgear-num::simd`
# compiles its register lanes and never the array fallback, so nothing
# above builds the code a target without them runs. Rebuild at the
# baseline x86-64 target into its own target dir and run the lane
# types' own tests, the kernels' unit tests and the SIMD-toggle tier.
echo "==> portable lanes (-C target-cpu=x86-64): qgear-num + qgear-statevec unit tests, differential simd"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q -p qgear-num -p qgear-statevec --lib
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q --test differential simd

# The smoke grid (n = 16) runs all four series (unfused/fused/sweep/
# planned), interleaved rep by rep; --enforce-planned fails the gate if
# the priced plan loses to the best pinned series by more than the
# bin's one relative tolerance on any cell of at least 10 ms
# (docs/PIPELINE.md § 4). Prints only.
echo "==> hotpath smoke (per-mode kernels + planner gate)"
cargo run --release -p qgear-bench --bin hotpath -- --smoke --enforce-planned

# The shard-migration path by name, under three derived scenario seeds.
echo "==> cargo test -q --test simtest shard_worker_death (named migration gate)"
cargo test -q --test simtest shard_worker_death_migrates_onto_a_fresh_group_and_completes_bit_identically

# The shard tier at the repo benchmark's own size, kept out of tier-1
# (n = 18 is minutes in a debug build, seconds in release): served
# counts under checkpoint_interval 8, gathered amplitudes and a resume
# from the generation at cursor 24 over four shards, all bitwise the
# dense run's, and the gather-free checkpoint writer against the
# gathering one on 64 container chunks.
echo "==> cargo test -q --release --test sharding an_eighteen_qubit_job -- --ignored (n = 18 shard tier)"
cargo test -q --release --test sharding an_eighteen_qubit_job_is_bitwise_dense_over_four_shards -- --ignored

# The full QCrank grid, kept out of tier-1 (which runs every split up to
# 14 qubits): every (addr, data) split up to 20 qubits, fp32 and fp64,
# multiplexed kernels against the closed-form QCrank state (held to the
# IR's reference simulator up to 14 qubits).
echo "==> cargo test -q --release --test differential qcrank_tracks_the_reference_at_every_split_up_to_twenty_qubits -- --ignored (QCrank grid)"
cargo test -q --release --test differential qcrank_tracks_the_reference_at_every_split_up_to_twenty_qubits -- --ignored

# The shot draw's heavy tests, kept out of tier-1 (seconds in release,
# minutes in a debug build): the chi-square fit at 10^8 shots a draw and
# the pooled draw against the serial one at n = 20, bit for bit.
echo "==> cargo test -q --release -p qgear-statevec sampling -- --include-ignored (heavy draw tests)"
cargo test -q --release -p qgear-statevec sampling -- --include-ignored

# Checkpoint throughput, self-calibrating (docs/CHECKPOINTS.md): on this
# host, encoding a dense n=16 fp64 state must take less time than one
# bit-by-bit CRC-32 pass over the encoder's own output, and decoding
# less than two, best of five interleaved rounds. The format carries two
# CRCs over the state (one pass and a combine to write, two passes to
# check), so a bit loop or a few stray state-sized copies in the codec
# fail it (the pre-table encoder: 0.3x), and no absolute number is
# involved.
echo "==> bench_checkpoint smoke (QCKP encode/decode vs a bitwise CRC pass)"
cargo run --release -p qgear-bench --bin bench_checkpoint -- --smoke

# The repo benchmark's smoke run (BENCHMARK.json, benchmark/README.md):
# the only check that drives all four traffic shapes — same-shape floods,
# mixed, large dense, sharded + checkpointed — through the real `Service`.
# Its in-command correctness gate (counts sum to shots, TV distance vs
# `AerCpuBackend`, exact repeats equal, sharded jobs really exchanged)
# fails the run, and building it proves `benchmark/` — a package outside
# the workspace, so nothing above compiles it — still builds against
# the crates.
echo "==> benchmark/run.sh --smoke (four workloads through the real Service)"
bash benchmark/run.sh --smoke >/dev/null

# Deterministic simulation matrix: the simtest suite re-runs under four
# fixed scenario seeds so the oracle properties — including the
# checkpoint-recovery acceptance scenario (die mid-run, newest
# generation corrupt, resume from the prior one) — are exercised on
# more of the seed space than the default base seed (docs/TESTING.md).
for seed in 0x51D3C0DE 0xDEADBEEF 0x00C0FFEE 0x0C1CADA5; do
    echo "==> cargo test -q --test simtest (QGEAR_SIMTEST_SEED=${seed})"
    QGEAR_SIMTEST_SEED="${seed}" cargo test -q --test simtest
done

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# clippy is optional in minimal toolchains; the gate still fails if it
# is installed and finds anything.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets (-D warnings)"
    cargo clippy --workspace --all-targets --release -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

# The unsafe kernels under AddressSanitizer (docs/TESTING.md): the unit
# tests of `qgear-num` (aligned.rs, simd.rs), `qgear-statevec` (gpu.rs
# and the rest of its lib) and the `rayon` stand-in (the pool's erased
# job closure and raw sub-slices) rebuilt with the installed nightly
# into their own target dir. Miri is not installable offline; this is
# the checker the image does have. Optional like clippy.
if cargo +nightly --version >/dev/null 2>&1; then
    echo "==> cargo +nightly test (-Zsanitizer=address) -p qgear-num -p qgear-statevec -p rayon --lib"
    RUSTFLAGS="-Zsanitizer=address -C target-cpu=native" CARGO_TARGET_DIR=target/asan \
        cargo +nightly test -q -p qgear-num -p qgear-statevec -p rayon --lib --target x86_64-unknown-linux-gnu
else
    echo "==> nightly toolchain not installed; skipping the AddressSanitizer run"
fi

# The gate must leave the tree as it found it: nothing above writes a
# tracked file (the probes print, the benchmark writes under ignored
# paths), so one that differs from the index now was rewritten by the
# gate itself.
dirty="$(git status --porcelain --untracked-files=no)"
if [ "$dirty" != "$before" ]; then
    echo "check.sh changed tracked files:" >&2
    diff <(echo "$before") <(echo "$dirty") >&2 || true
    exit 1
fi

echo "All checks passed."
