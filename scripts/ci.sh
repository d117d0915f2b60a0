#!/usr/bin/env bash
# The repo's single gate: build, test, lint, then the paper's tables and
# the canaries. Run before publishing results or merging.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Perf lints ride the warning gate: the simulator hot path is clone- and
# allocation-sensitive (see DESIGN.md § performance), so regressions that
# clippy can see should fail CI. --all-features folds the obs-instrumented
# configuration into the same gate; without it the feature-gated halves
# of the tree were never linted.
cargo clippy --all-targets --all-features -- -D warnings \
    -D clippy::redundant_clone \
    -D clippy::inefficient_to_string \
    -D clippy::string_add \
    -D clippy::unnecessary_to_owned
# The four experiment binaries the steps below run.
cargo build --release -p siphoc-bench \
    --bin exp_tables --bin exp_handoff --bin exp_call_load --bin exp_adversarial
# The reproduction gate: all thirteen paper tables (E1-E8, A1, A2, F3, F6,
# T1), 1.9 s together on the 2-core recorder. `diff` holds every cell to
# the recorded file; the exit status (pipefail is on) holds every
# expected-shape claim, which exp_tables evaluates as a predicate over the
# cells and prints as `shape ok:` / `shape FAILED:` under its table. After
# an intended behaviour change, regenerate with
# `./target/release/exp_tables > results/paper_tables.txt` and say in
# EXPERIMENTS.md which cells moved and why.
./target/release/exp_tables | diff -u results/paper_tables.txt -
# Mid-call gateway handoff canary: one seed, both failover modes. Asserts
# every call survives, break-before-make stays inside the 5 s detection +
# re-lease budget, and make-before-break (warm standby promotion) keeps
# the mean handoff ≤ 500 ms.
./target/release/exp_handoff --smoke
# SIP control-plane capacity canary: smoke ladder rung + registration
# storm against the tracked baseline. Event counts must match exactly
# (the workload is deterministic); wall time is printed, never gated —
# benchmark/ is the only wall-clock gate. Two concurrent sweep jobs keep
# the multi-seed parallel runner (`siphoc_bench::parallel::run_indexed`)
# exercised.
./target/release/exp_call_load --smoke --jobs 2 --check results/BENCH_sip.json
# Adversarial canary: one seed, both attacks, defenses off then on.
# Asserts the attacks *work* against the undefended stack (100% hijack /
# capture) and die completely against signed adverts + pins + gateway
# attestation. Either half going quiet means the security experiment
# stopped testing anything.
./target/release/exp_adversarial --smoke
# Acceptance benchmark canary: benchmark/ is a package of its own that
# nothing above compiles, so a change to the public API its README lists
# would otherwise surface only in the acceptance driver. Its unit tests,
# then all four workloads — the OLSR one, the signalling hub (whose peak
# memory is SIP transaction and dialog state), the 100k-node beacon city
# (simulator core alone) and the lossy AODV mesh with media (full stack)
# — at 1/15 length; a run exits 0 only if every output check passed. A
# crash and correctness gate, never a perf number.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload roam_internet --seed 7 --seconds 1 --trace 0
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload sip_hub --seed 7 --seconds 1 --trace 0
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload city_beacon --seed 7 --seconds 1 --trace 0
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload mesh_calls --seed 7 --seconds 1 --trace 0
# Supply-chain audit (deny.toml: advisories, licenses, bans, sources).
# Skipped with a notice when cargo-deny is not installed — the CI `deny`
# job always runs it, so the merge gate never loses the check.
if command -v cargo-deny >/dev/null 2>&1; then
    cargo deny check
else
    echo "ci.sh: cargo-deny not installed, skipping supply-chain audit (CI deny job covers it)"
fi
# MSRV honesty check against the rust-version pin in Cargo.toml, when
# that toolchain is available locally; the CI `msrv` job always runs it.
MSRV=$(sed -n 's/^rust-version = "\(.*\)"/\1/p' Cargo.toml | head -n1)
if [ -n "${MSRV}" ] && rustup toolchain list 2>/dev/null | grep -q "^${MSRV}"; then
    cargo "+${MSRV}" check --workspace --all-targets
else
    echo "ci.sh: MSRV toolchain ${MSRV:-unset} not installed, skipping MSRV check (CI msrv job covers it)"
fi
# ROADMAP aim 2's module rule: a `pub fn` under crates/ whose name occurs
# nowhere but at its definition fails the gate; the module table and the
# test-only class it also prints are informational.
./scripts/module_audit.sh
# The numbers ROADMAP tracks per PR (lines, config fields, features,
# external crates, `unsafe`): printed for the PR description, never a gate.
./scripts/tracked_numbers.sh || true
