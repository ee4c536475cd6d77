#!/usr/bin/env bash
# Proves that the compiler checks guarding determinism and handler
# exhaustiveness still bite. Each case plants one mutation in the working
# tree, runs the check that must reject it, and restores the file. The
# script fails if a check accepts its mutation, or rejects it for some
# other reason than the expected diagnostic.
#
#   ci/seeded-mutations.sh
#
# Run it on a clean build (after `cargo clippy --workspace`) so each case
# recompiles one crate. Files are restored with their original timestamps,
# so the next build does not redo the work.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

backup=$(mktemp)
log=$(mktemp)
planted=""
restore() {
    if [[ -n $planted ]]; then
        cp -p "$backup" "$planted"
        planted=""
    fi
}
trap 'restore; rm -f "$backup" "$log"' EXIT

failed=0
# expect_rejected NAME FILE MUTATION EXPECTED CMD...
#   MUTATION is a perl -0 substitution applied to FILE; EXPECTED is an
#   extended regex the check's output must match.
expect_rejected() {
    local name=$1 file=$2 mutation=$3 expected=$4
    shift 4
    cp -p "$file" "$backup"
    planted=$file
    perl -0pi -e "$mutation" "$file"
    if cmp -s "$file" "$backup"; then
        echo "FAIL ($name): the mutation no longer applies to $file; update this script"
        failed=1
    elif "$@" >"$log" 2>&1; then
        echo "FAIL ($name): \`$*\` accepted the mutation"
        failed=1
    elif ! grep -Eq "$expected" "$log"; then
        echo "FAIL ($name): \`$*\` failed, but without /$expected/:"
        tail -n 30 "$log"
        failed=1
    else
        echo "ok   ($name): \`$*\` rejects it"
    fi
    restore
}

# (a) A wall-clock read in the simulation kernel.
expect_rejected "Instant::now in fgs-simkernel" crates/simkernel/src/lib.rs \
    's/\z/\n\/\/\/ Seeded mutation.\npub fn seeded_clock() -> std::time::Instant {\n    std::time::Instant::now()\n}\n/' \
    'clippy::disallowed_methods' \
    cargo clippy -p fgs-simkernel -- -D warnings

# (b) A wall-clock type in the simulator.
expect_rejected "SystemTime in fgs-sim" crates/sim/src/lib.rs \
    's/\z/\n\/\/\/ Seeded mutation.\npub fn seeded_epoch() -> std::time::SystemTime {\n    std::time::SystemTime::UNIX_EPOCH\n}\n/' \
    'clippy::disallowed_types' \
    cargo clippy -p fgs-sim -- -D warnings

# (c) A wildcard arm hiding ServerMsg variants in the client runtime's
#     designated handler.
expect_rejected "wildcard arm in ClientRuntime::handle_server" crates/oodb/src/client.rs \
    's/ServerMsg::Callback \{ \.\. \}\s*\|\s*ServerMsg::Deescalate \{ \.\. \}\s*\|\s*ServerMsg::Aborted \{ \.\. \}\s*\|\s*ServerMsg::CommitDone \{ \.\. \}\s*\|\s*ServerMsg::AbortDone \{ \.\. \} => \{\}/_ => {}/' \
    'clippy::wildcard_enum_match_arm' \
    cargo clippy -p fgs-oodb -- -D warnings

# (d) A dropped dispatch arm in the server engine's designated handler.
expect_rejected "dropped Request::Abort arm in ServerEngine::handle" crates/core/src/server/engine.rs \
    's/\n\s*Request::Abort \{ txn \} => self\.handle_client_abort\(from, txn\),//' \
    'E0004' \
    cargo check -p fgs-core

# (e) OS entropy in the chaos harness: no crate of the workspace or
#     vendor/ provides thread_rng, so the call cannot resolve.
expect_rejected "thread_rng in fgs-harness" crates/harness/src/lib.rs \
    's/\z/\n\/\/\/ Seeded mutation.\npub fn seeded_entropy() -> u64 {\n    rand::thread_rng().next_u64()\n}\n/' \
    'E0433|E0425' \
    cargo check -p fgs-harness

exit "$failed"
