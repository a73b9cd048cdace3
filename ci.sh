#!/usr/bin/env sh
# Repository CI gate: formatting, invariant lints, clippy, and the full
# test suite. Usage: ./ci.sh  (add CARGO_FLAGS=--offline for air-gapped
# machines)
#
# Lanes, in order:
#   fmt          rustfmt as a pure check;
#   cardest-lint the workspace invariant checker (crates/lint) for what
#                clippy cannot express: the lexical rules (determinism
#                scoped to library crates, decode clamping) plus the
#                semantic call-graph pass (--semantic: panic reachability
#                from serving entry points, lock discipline, durability
#                protocol, error taxonomy). Machine-readable JSON on
#                stdout and in LINT_REPORT.json; diagnostics accepted in
#                crates/lint/baseline.txt are subtracted, so the lane is
#                non-zero only on *new* non-allowed findings. Runs before
#                everything heavy because it needs only the
#                zero-dependency lint crate;
#   clippy       -D warnings. Owns panics, float comparisons and allow
#                reasons (crate-root attributes), kernel casts
#                (as_conversions in the two kernel files) and NaN-unsafe
#                ordering (clippy.toml); rustc's unsafe_code = "forbid"
#                ([workspace.lints] in Cargo.toml) owns unsafe. Then the negative controls: clippy must fire each
#                of those lints on crates/lint/fixtures/clippy and stay
#                silent on its clean file;
#   bench-build  benches must keep compiling (perf regression harness),
#                but running them is not a CI concern;
#   test         the default suite — fast and deterministic, the per-commit
#                gate (includes cardest-lint's fixture self-tests and the
#                workspace meta-gate, so the lint gate also fires for
#                contributors who only run `cargo test`; the vendored shims
#                under shims/ are path dependencies inside the workspace
#                directory, hence implicit members, so their own unit tests
#                run here too);
#   perfbench    the serving benchmark's own tests (perfbench/ is a
#                workspace of its own, so `--workspace` never reaches it):
#                a change to the server API the benchmark calls fails here
#                instead of at benchmark time;
#   fault        the fault-injection lane — corrupted artifacts, poisoned
#                weights and malformed queries must surface as typed errors
#                or recorded fallbacks, never as panics (run separately so
#                a panic anywhere in it is unambiguously a robustness
#                regression);
#   serve        the estimation-server smoke battery: a real server on an
#                ephemeral port answering estimate / batch / malformed-body
#                400 / hot reload (healthy and corrupt) / stats, plus the
#                `cardest-serve` binary's LISTENING announcement — every
#                wait is deadline-bounded so a wedged server fails rather
#                than hangs. (cardest-lint covers crates/server via the
#                lint lane's recursive `crates` scan.)
#   ingest       the online-ingestion durability battery: WAL framing
#                proptests (torn tails, bit flips, zero-length records),
#                the crash matrix (kill at every byte offset of a live WAL,
#                recover, assert bit-identical state), POST /insert and
#                drift-triggered fine-tune over real HTTP, and the e2e
#                insert-under-load / crash / recover / re-serve test —
#                again deadline-bounded; a hang here is a recovery bug;
#   replicate    the warm-standby lane: replication frame-codec proptests,
#                the network-fault chaos battery (drops, delays, truncated /
#                duplicated frames, bit flips — standby must converge
#                bit-identically), and the HTTP failover e2e (standby 503s
#                writes with Retry-After, /ready gates on lag, promote
#                continues the sequence chain) — every wait is
#                deadline-bounded, so a wedged stream fails, not hangs;
#   heavy        the `--ignored` lane — heavyweight configurations
#                (multi-variant / multi-dataset trainings) that pin broader
#                behavior but cost minutes.
#
# A per-lane wall-clock summary is printed at the end (also on failure, so
# slow lanes stay visible even when a later lane breaks).
set -eu

SUMMARY=""
CURRENT_LANE="(startup)"

print_summary() {
    status=$?
    printf '\n== ci.sh lane timing ==\n'
    printf '%b' "$SUMMARY"
    if [ "$status" -ne 0 ]; then
        printf '%-14s FAILED (exit %s)\n' "$CURRENT_LANE" "$status"
    fi
    exit "$status"
}
trap print_summary EXIT

lane() {
    CURRENT_LANE="$1"
    shift
    printf '== lane: %s ==\n' "$CURRENT_LANE"
    lane_start=$(date +%s)
    "$@"
    lane_end=$(date +%s)
    SUMMARY="${SUMMARY}$(printf '%-14s %4ss' "$CURRENT_LANE" "$((lane_end - lane_start))")\n"
    CURRENT_LANE="(done)"
}

lane fmt          cargo fmt --all --check
lane cardest-lint cargo run -p cardest-lint ${CARGO_FLAGS:-} -- --format=json --semantic \
                      --baseline=crates/lint/baseline.txt --report=LINT_REPORT.json crates
lane clippy       sh -c "cargo clippy --workspace --all-targets ${CARGO_FLAGS:-} -- -D warnings \
                      && crates/lint/fixtures/clippy/check.sh ${CARGO_FLAGS:-}"
lane bench-build  cargo bench --workspace ${CARGO_FLAGS:-} --no-run
lane test         cargo test --workspace ${CARGO_FLAGS:-} -q
lane perfbench    cargo test --manifest-path perfbench/Cargo.toml ${CARGO_FLAGS:-} -q
lane fault        cargo test -p cardest ${CARGO_FLAGS:-} -q --test fault_injection
lane serve        cargo test -p cardest-server ${CARGO_FLAGS:-} -q --test http_smoke
lane ingest       sh -c "cargo test -p cardest-store ${CARGO_FLAGS:-} -q \
                      && cargo test -p cardest-server ${CARGO_FLAGS:-} -q --test http_ingest \
                      && cargo test -p cardest ${CARGO_FLAGS:-} -q --test online_ingestion"
lane replicate    sh -c "cargo test -p cardest-store ${CARGO_FLAGS:-} -q --test frame_props --test replication_chaos \
                      && cargo test -p cardest-server ${CARGO_FLAGS:-} -q --test http_replication"
lane heavy        cargo test --workspace ${CARGO_FLAGS:-} -q -- --ignored
