#!/usr/bin/env bash
# The repo's single gate: build, test, lint, then every simulated table
# and the benchmark canary. Run before publishing results or merging.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting first, as CI's `fmt` job checks it: the cheapest step to fail.
cargo fmt --all -- --check
# FNV-1a has one home, `simnet::ident`: its offset basis spelled anywhere
# else under crates/, src/ or tests/ is a second copy of the fold.
# (`benchmark/` keeps its own, frozen with the rest of that package.)
if grep -rnIiE 'c_?b_?f_?2_?9_?c_?e_?4_?8_?4_?2_?2_?2_?3_?2_?5' crates src tests |
    grep -v '^crates/simnet/src/ident\.rs:'; then
    echo "ci.sh: FNV-1a outside simnet::ident (above); call ident::h64 instead" >&2
    exit 1
fi
# The tree depends on no crate outside it, so every build is offline and
# holds to the committed Cargo.lock. The tests are the whole workspace's:
# the root package's integration suites, and every crate's unit tests and
# doctests — the RFC schedule tests, the OLSR differential oracle and the
# SLP daemon's conformance table live there.
cargo build --release --offline --locked
cargo test -q --offline --locked --workspace
# The simulator binary end to end: the tests drive the scenario library,
# not `siphoc-sim`'s `main`, so run it once with every output flag into a
# scratch directory. A non-zero exit or a missing document fails the gate.
sim_out=$(mktemp -d)
trap 'rm -rf "${sim_out}"' EXIT
./target/release/siphoc-sim --json --trace-out "${sim_out}/trace.json" \
    --metrics-out "${sim_out}/metrics.json" scenarios/two_node_call.json >"${sim_out}/report.json"
test -s "${sim_out}/trace.json" && test -s "${sim_out}/metrics.json"
# Perf lints ride the warning gate: the simulator hot path is clone- and
# allocation-sensitive (see DESIGN.md § performance), so regressions that
# clippy can see should fail CI. --all-features folds the obs-instrumented
# configuration into the same gate; `-p siphoc-bench` alone builds the
# stack with obs off, whose `cfg` halves (the zero-sized `NodeObs`) the
# first run never sees.
LINTS=(-D warnings
    -D clippy::redundant_clone
    -D clippy::inefficient_to_string
    -D clippy::string_add
    -D clippy::unnecessary_to_owned)
cargo clippy --offline --locked --all-targets --all-features -- "${LINTS[@]}"
cargo clippy --offline --locked -p siphoc-bench --all-targets -- "${LINTS[@]}"
# The experiment binary the step below runs, with obs off.
cargo build --release --offline --locked -p siphoc-bench --bin exp_tables
# The reproduction gate: every simulated table — the paper's thirteen
# (E1-E8, A1, A2, F3, F6, T1), gateway handoff (E9), signalling load (E11)
# and adversarial faults (E12) — 3.7 s together on the 2-core recorder.
# `diff` holds every cell to the recorded file; the exit status (pipefail
# is on) holds every expected-shape claim, which exp_tables evaluates as a
# predicate over the cells and prints as `shape ok:` / `shape FAILED:`
# under its table. After an intended behaviour change, regenerate with
# `./target/release/exp_tables > results/paper_tables.txt` and say in
# EXPERIMENTS.md which cells moved and why.
./target/release/exp_tables | diff -u results/paper_tables.txt -
# The same gate with obs on: a `--workspace` build turns on the root
# crate's default `obs` feature for every crate, and re-links the same
# binary. Instrumentation must not change a cell.
cargo build --release --offline --locked --workspace --bin exp_tables
./target/release/exp_tables | diff -u results/paper_tables.txt -
# Acceptance benchmark canary: benchmark/ is a package of its own that
# nothing above compiles, so a change to the public API its README lists
# would otherwise surface only in the acceptance driver. Its unit tests,
# then all four workloads — the OLSR one, the signalling hub (whose peak
# memory is SIP transaction and dialog state), the 100k-node beacon city
# (simulator core alone) and the lossy AODV mesh with media (full stack)
# — at 1/15 length; a run exits 0 only if every output check passed. A
# crash and correctness gate, never a perf number. Each run's simulation
# digest (the `repetitions_agree` line) must also equal the value pinned
# here, so a behaviour change fails this gate before it reaches the
# acceptance benchmark. After an intended change, re-pin from that line
# and say in EXPERIMENTS.md why the digest moved. `canary WORKLOAD DIGEST
# [SEED]` runs seed 7 unless told otherwise. Every workload is pinned at
# a second seed as well: roam_internet, the only one that runs OLSR;
# sip_hub, the one whose work is the SIP user agent's; city_beacon, whose
# work is the simulator's own receive path; and mesh_calls, whose calls
# go proxy → MANET SLP → remote proxy.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
canary() {
    local out
    out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed "${3:-7}" --seconds 1 --trace 0)
    echo "${out}"
    if ! grep -q "repetitions_agree .*\"$2\"" <<<"${out}"; then
        echo "ci.sh: $1 seed ${3:-7} digest moved (pinned $2)" >&2
        exit 1
    fi
}
canary roam_internet f98ea5e9553fe781
canary roam_internet 3749b1d1b8a8cd81 4242
canary sip_hub 0d1229618be0aac1
canary sip_hub c99c5167573a73b5 4242
canary city_beacon 775aa9194117be0e
canary city_beacon adbee9dc5111f44c 4242
canary mesh_calls 4d3cbb2abc99fc19
canary mesh_calls 0fc143bbf1aa4f9c 4242
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
