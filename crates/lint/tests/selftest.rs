//! fgs-lint self-test: the lint must flag every seeded violation in the
//! fixtures, stay silent on the clean fixture, and — run as the real
//! binary — exit non-zero on an inversion and zero on the actual
//! workspace.

use fgs_lint::{check_files, check_sources, Rule, Violation};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    check_files(&[fixture(name)]).expect("fixture readable")
}

#[test]
fn clean_fixture_has_no_violations() {
    let v = lint_fixture("clean.rs");
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn inversion_fixture_flags_both_inversions() {
    let v = lint_fixture("inversion.rs");
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|x| x.rule == Rule::LockOrder));
    // The direct inversion names the offending pair.
    assert!(v[0].message.contains("ClientState") && v[0].message.contains("WalInner"));
    // The transitive one names the callee it goes through.
    assert!(v.iter().any(|x| x.message.contains("helper")), "{v:?}");
}

#[test]
fn io_under_protocol_fixture_flags_all_three_sites() {
    let v = lint_fixture("io_under_protocol.rs");
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|x| x.rule == Rule::IoUnderProtocol));
    assert!(v.iter().any(|x| x.message.contains("Wal::force")), "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("channel")), "{v:?}");
}

/// The transport extension of the DAG: blocking socket writes
/// (`ConnWriter`) under the engine lock are I/O-under-protocol, and the
/// port registry (`PortTable`) ranks after the storage locks.
#[test]
fn socket_under_protocol_fixture_flags_sends_and_the_inversion() {
    let v = lint_fixture("socket_under_protocol.rs");
    assert_eq!(v.len(), 3, "{v:?}");
    let io: Vec<_> = v
        .iter()
        .filter(|x| x.rule == Rule::IoUnderProtocol)
        .collect();
    assert_eq!(io.len(), 2, "{v:?}");
    assert!(
        io.iter().all(|x| x.message.contains("ConnWriter")),
        "{io:?}"
    );
    let order: Vec<_> = v.iter().filter(|x| x.rule == Rule::LockOrder).collect();
    assert_eq!(order.len(), 1, "{v:?}");
    assert!(
        order[0].message.contains("PortTable") && order[0].message.contains("ProtocolStage"),
        "{order:?}"
    );
}

#[test]
fn closure_reentry_fixture_flags_only_the_held_guard_case() {
    let v = lint_fixture("closure_reentry.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::ReentrantClosure);
    assert!(v[0].message.contains("PoolShard"), "{v:?}");
}

#[test]
fn illegal_send_fixture_flags_origins_roles_and_terminal_ordering() {
    let v = lint_fixture("illegal_send.rs");
    assert!(v.iter().all(|x| x.rule == Rule::IllegalTransition), "{v:?}");
    assert_eq!(v.len(), 7, "{v:?}");
    // Origin misses: the two forged acks plus the grant-after-abort (the
    // `Aborted` in `abort_txn` is itself a modeled origin and passes).
    assert_eq!(
        v.iter()
            .filter(|x| x.message.contains("outside its modeled origin"))
            .count(),
        3,
        "{v:?}"
    );
    // Role: both direct forgeries plus the transitive one through `forge`.
    let roles: Vec<_> = v
        .iter()
        .filter(|x| x.message.contains("wrong direction"))
        .collect();
    assert_eq!(roles.len(), 3, "{v:?}");
    assert!(
        roles
            .iter()
            .any(|x| x.message.contains("relay") && x.message.contains("forge")),
        "transitive send not traced through the helper: {roles:?}"
    );
    // Terminal ordering: ReadGranted to `txn` after Aborted finished it.
    assert!(
        v.iter()
            .any(|x| x.message.contains("after a terminal message")),
        "{v:?}"
    );
}

#[test]
fn panic_under_protocol_fixture_flags_guarded_sites_only() {
    let v = lint_fixture("panic_under_protocol.rs");
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|x| x.rule == Rule::PanicUnderProtocol));
    assert!(v.iter().any(|x| x.message.contains("`unwrap`")), "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("`panic!`")), "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("`sleep`")), "{v:?}");
}

/// Load every real workspace source for the seeded-violation tests below.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let files = fgs_lint::workspace_files(&root).expect("workspace scan");
    assert!(
        files.len() >= 40,
        "workspace scan looks wrong: {} files",
        files.len()
    );
    files
        .iter()
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(p).expect("readable"),
            )
        })
        .collect()
}

fn seed_into(sources: &mut [(String, String)], suffix: &str, extra: &str) {
    let (_, src) = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with(suffix))
        .unwrap_or_else(|| panic!("no workspace source matching {suffix}"));
    src.push_str(extra);
}

/// Seeding an inversion *into the real workspace sources* is caught: this
/// proves the cross-file effect propagation works on the actual crates,
/// not just on self-contained fixtures.
#[test]
fn seeded_inversion_against_real_workspace_sources() {
    let mut sources = workspace_sources();
    // Sanity: the real workspace is clean before seeding, across all
    // passes.
    let pre = check_sources(&sources);
    assert!(pre.is_empty(), "workspace not clean: {pre:?}");
    // Seed: hold the WAL lock while calling BufferPool::stats, which
    // acquires PoolShard — an inversion reachable only by resolving the
    // real `shard.lock()` sites inside fgs-pagestore.
    sources.push((
        "seeded.rs".to_string(),
        r#"
        struct Seeded { wal: Mutex<WalInner> }
        impl Seeded {
            fn bad(&self, pool: &BufferPool) {
                let g = self.wal.lock();
                pool.stats();
                drop(g);
            }
        }
        "#
        .to_string(),
    ));
    let post = check_sources(&sources);
    assert!(
        post.iter().any(|v| {
            v.file == "seeded.rs"
                && v.rule == Rule::LockOrder
                && v.message.contains("PoolShard")
                && v.message.contains("WalInner")
        }),
        "seeded inversion not caught: {post:?}"
    );
}

/// The client runtime's mutex in `fgs-oodb` really is seen as
/// `ClientState`, the outermost class: taking it (here through
/// `ClientShared::begin`) while holding a connection's write half inverts
/// the one descent the client side makes (ClientState -> ConnWriter).
#[test]
fn seeded_client_state_under_conn_writer_is_caught() {
    let mut sources = workspace_sources();
    sources.push((
        "seeded.rs".to_string(),
        r#"
        struct Seeded { writer: Mutex<ConnWriter> }
        impl Seeded {
            fn bad(&self, client: &ClientShared) {
                let g = self.writer.lock();
                client.begin();
                drop(g);
            }
        }
        "#
        .to_string(),
    ));
    let post = check_sources(&sources);
    assert!(
        post.iter().any(|v| {
            v.file == "seeded.rs"
                && v.rule == Rule::LockOrder
                && v.message.contains("may acquire ClientState")
                && v.message.contains("while holding ConnWriter")
        }),
        "seeded inversion not caught: {post:?}"
    );
}

/// The completion router's invariant — `CompletionState` is never held
/// across a delivery — is checked, not just commented: a client runtime
/// is its own port (`ClientShared`'s `deliver` takes `ClientState`), so
/// delivering under the router guard inverts the DAG. The port is
/// resolved by name, exactly as in `CompletionRouter::drain`.
#[test]
fn seeded_delivery_under_completion_state_is_caught() {
    let mut sources = workspace_sources();
    sources.push((
        "seeded.rs".to_string(),
        r#"
        struct Seeded { state: Mutex<CompletionState> }
        impl Seeded {
            fn bad(&self, ports: &PortMap, env: ToClient) {
                let g = self.state.lock();
                if let Some(port) = ports.lookup_port(0) {
                    port.deliver(env);
                }
                drop(g);
            }
        }
        "#
        .to_string(),
    ));
    let post = check_sources(&sources);
    assert!(
        post.iter().any(|v| {
            v.file == "seeded.rs"
                && v.rule == Rule::LockOrder
                && v.message.contains("may acquire ClientState")
                && v.message.contains("while holding CompletionState")
        }),
        "seeded delivery under the router lock not caught: {post:?}"
    );
}

/// A rogue `CommitDone` constructed outside `handle_commit` — an ack for
/// a commit that never ran — is caught by the origin table.
#[test]
fn seeded_illegal_send_in_real_engine_is_caught() {
    let mut sources = workspace_sources();
    seed_into(
        &mut sources,
        "core/src/server/engine.rs",
        "\nimpl ServerEngine {\n    fn rogue_ack(&mut self, from: ClientId, txn: TxnId) {\n        self.send(from, ServerMsg::CommitDone { txn });\n    }\n}\n",
    );
    let post = check_sources(&sources);
    assert!(
        post.iter().any(|v| {
            v.rule == Rule::IllegalTransition
                && v.message.contains("ServerMsg::CommitDone")
                && v.message.contains("rogue_ack")
        }),
        "rogue send not caught: {post:?}"
    );
}

/// An `unwrap` while holding the real `ServerRuntime::protocol` stage —
/// resolved through the actual struct field, not a fixture — is caught.
#[test]
fn seeded_panic_under_real_protocol_stage_is_caught() {
    let mut sources = workspace_sources();
    seed_into(
        &mut sources,
        "oodb/src/server.rs",
        "\nimpl ServerRuntime {\n    fn rogue_block(&self, x: Option<u64>) -> u64 {\n        let g = self.protocol.lock();\n        let v = x.unwrap();\n        drop(g);\n        v\n    }\n}\n",
    );
    let post = check_sources(&sources);
    assert!(
        post.iter().any(|v| {
            v.rule == Rule::PanicUnderProtocol
                && v.file.ends_with("oodb/src/server.rs")
                && v.message.contains("`unwrap`")
        }),
        "guarded unwrap not caught: {post:?}"
    );
}

#[test]
fn binary_exits_nonzero_on_inversion_and_zero_on_workspace() {
    let bin = env!("CARGO_BIN_EXE_fgs-lint");
    let bad = Command::new(bin)
        .arg(fixture("inversion.rs"))
        .output()
        .expect("run fgs-lint");
    assert_eq!(bad.status.code(), Some(1), "expected exit 1 on inversion");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("lock_order") && stdout.contains("inversion.rs"),
        "report missing file/rule: {stdout}"
    );

    let clean = Command::new(bin).output().expect("run fgs-lint");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "workspace should lint clean: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
}
