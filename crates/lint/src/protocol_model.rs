//! The declarative model of the FGSP state machines.
//!
//! This module is pure data: the wire vocabulary of
//! `crates/core/src/msg.rs`, which functions may *originate* each wire
//! message, and which messages terminate a transaction. The `protocol`
//! module checks the code against these tables; keeping the tables
//! separate from the traversal means a protocol change (a new `ServerMsg`
//! variant, a new origin site) is a one-line diff here — and until that
//! diff lands, the origin-table test fails loudly.
//!
//! The tables mirror the paper's callback-locking conversations
//! (Carey/Franklin/Zaharioudakis, SIGMOD'94 §3): a client request enters
//! through one server dispatch point, every server→client message has
//! exactly one legal origin in the engine, and a transaction that has been
//! sent `Aborted`/`CommitDone`/`AbortDone` is *finished* — nothing else may
//! be addressed to it.

/// One wire enum and its complete variant list, kept in sync with
/// `crates/core/src/msg.rs`.
pub struct EnumSpec {
    /// Enum name as it appears in paths (`ServerMsg::...`).
    pub name: &'static str,
    /// All variants, in declaration order.
    pub variants: &'static [&'static str],
}

/// The wire vocabulary of `crates/core/src/msg.rs`.
pub const PROTOCOL_ENUMS: &[EnumSpec] = &[
    EnumSpec {
        name: "Request",
        variants: &[
            "Read",
            "Write",
            "CallbackReply",
            "DeescalateReply",
            "Commit",
            "Abort",
        ],
    },
    EnumSpec {
        name: "ServerMsg",
        variants: &[
            "ReadGranted",
            "WriteGranted",
            "Callback",
            "Deescalate",
            "Aborted",
            "CommitDone",
            "AbortDone",
        ],
    },
];

/// Legal origin functions for each wire-message variant, as
/// `(owner, fn)` pairs. Constructing one of these messages anywhere else
/// (outside codecs and `#[cfg(test)]` modules) is an illegal transition:
/// the state machine in the engine is the only place with enough context
/// to know the send is legal.
pub struct OriginSpec {
    /// `Enum::Variant` path of the message.
    pub variant: &'static str,
    /// Functions allowed to construct it.
    pub origins: &'static [(&'static str, &'static str)],
}

/// The origin table, mirroring DESIGN.md §14's transition tables.
pub const ORIGINS: &[OriginSpec] = &[
    // Server → client messages: one origin per transition in the server
    // per-txn state machine.
    OriginSpec {
        variant: "ServerMsg::ReadGranted",
        origins: &[("ServerEngine", "grant_read")],
    },
    OriginSpec {
        variant: "ServerMsg::WriteGranted",
        origins: &[("ServerEngine", "finish_grant")],
    },
    OriginSpec {
        variant: "ServerMsg::Callback",
        origins: &[("ServerEngine", "start_write")],
    },
    OriginSpec {
        variant: "ServerMsg::Deescalate",
        origins: &[("ServerEngine", "maybe_start_deescalation")],
    },
    OriginSpec {
        variant: "ServerMsg::Aborted",
        origins: &[
            ("ServerEngine", "abort_txn"),
            ("ServerEngine", "abort_victim"),
        ],
    },
    // The engine itself no longer constructs the commit ack: it emits a
    // `ServerAction::AckCommit`, and the ack becomes a wire message only
    // where durability is decided — the completion router (embedded
    // server) once the durable watermark a committer's force advanced
    // passes the ack's LSN, or the simulator's log-force continuation.
    OriginSpec {
        variant: "ServerMsg::CommitDone",
        origins: &[
            ("CompletionRouter", "release_ready"),
            ("Simulator", "run_cont"),
        ],
    },
    OriginSpec {
        variant: "ServerMsg::AbortDone",
        origins: &[("ServerEngine", "handle_client_abort")],
    },
    // Client → server messages: one origin per client-lifecycle transition.
    OriginSpec {
        variant: "Request::Read",
        // `access` issues the initial read; `on_write_granted` re-fetches
        // a page whose copy went stale while the write waited.
        origins: &[
            ("ClientEngine", "access"),
            ("ClientEngine", "on_write_granted"),
        ],
    },
    OriginSpec {
        variant: "Request::Write",
        origins: &[("ClientEngine", "access")],
    },
    OriginSpec {
        variant: "Request::CallbackReply",
        origins: &[("ClientEngine", "send_cb_reply")],
    },
    OriginSpec {
        variant: "Request::DeescalateReply",
        origins: &[("ClientEngine", "on_deescalate")],
    },
    OriginSpec {
        variant: "Request::Commit",
        origins: &[("ClientEngine", "commit")],
    },
    OriginSpec {
        variant: "Request::Abort",
        origins: &[("ClientEngine", "abort")],
    },
];

/// Messages that *finish* a transaction. After one of these has been
/// issued for txn `T`, constructing a further txn-addressed message for
/// `T` in the same function body is an illegal transition (the classic
/// grant-after-abort race the chaos oracle can only catch per-seed).
pub const TERMINAL_MSGS: &[&str] = &[
    "ServerMsg::Aborted",
    "ServerMsg::CommitDone",
    "ServerMsg::AbortDone",
];

/// Txn-addressed non-terminal server messages (those carrying a `txn`
/// field). `ServerMsg::Callback` is client-addressed — it concerns cached
/// copies, not a transaction — and is exempt from the ordering check.
pub const TXN_ADDRESSED_MSGS: &[&str] = &[
    "ServerMsg::ReadGranted",
    "ServerMsg::WriteGranted",
    "ServerMsg::Deescalate",
];

/// Owners on the client side of the wire: may construct `Request`, never
/// `ServerMsg` — not even transitively through helpers.
pub const CLIENT_ROLE_OWNERS: &[&str] = &["ClientEngine", "ClientRuntime"];

/// Owners on the server side of the wire: may construct `ServerMsg`,
/// never `Request`.
pub const SERVER_ROLE_OWNERS: &[&str] = &["ServerEngine", "ServerRuntime"];

/// Origin owners deliberately absent from both role tables.
///
/// The role pass walks a *name-resolved* transitive call graph, which is
/// unsound for these two: `Simulator` drives both halves of the wire by
/// design (its event loop calls `ClientEngine::handle_server`, which
/// legitimately constructs `Request`s), and `CompletionRouter`'s delivery
/// path (`deliver`) shares its method name with the simulator's, so the
/// name-based graph bleeds one into the other. For the same reason their
/// send sets do not flow to their callers (request runs deliver through
/// the router). Their *direct* constructions are
/// still fully policed by the origin pass — each may construct exactly
/// the durability-gated `CommitDone`, and only in the function the
/// origin table names.
pub const ROLE_EXEMPT_ORIGIN_OWNERS: &[&str] = &["CompletionRouter", "Simulator"];

/// Whether a file is codec-exempt from the origin/role checks: codecs
/// legitimately construct every variant while decoding frames off the
/// wire.
pub fn codec_exempt(file: &str) -> bool {
    file.contains("codec")
}

/// Look up the origin list for `Enum::Variant`, if it is a modeled wire
/// message.
pub fn origins_of(variant_path: &str) -> Option<&'static [(&'static str, &'static str)]> {
    ORIGINS
        .iter()
        .find(|o| o.variant == variant_path)
        .map(|o| o.origins)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_table_covers_every_wire_variant_exactly_once() {
        // Every Request and ServerMsg variant has exactly one origin entry.
        for spec in PROTOCOL_ENUMS {
            for v in spec.variants {
                let path = format!("{}::{v}", spec.name);
                let n = ORIGINS.iter().filter(|o| o.variant == path).count();
                assert_eq!(n, 1, "{path} has {n} origin entries");
            }
        }
        // And nothing else does.
        assert_eq!(
            ORIGINS.len(),
            6 + 7,
            "origin table should list exactly the wire variants"
        );
    }

    #[test]
    fn terminal_and_txn_addressed_msgs_are_modeled_servermsgs() {
        let server = PROTOCOL_ENUMS
            .iter()
            .find(|e| e.name == "ServerMsg")
            .unwrap()
            .variants;
        for m in TERMINAL_MSGS.iter().chain(TXN_ADDRESSED_MSGS) {
            let v = m.strip_prefix("ServerMsg::").expect("ServerMsg path");
            assert!(server.contains(&v), "{m} not a ServerMsg variant");
        }
    }

    #[test]
    fn role_owners_match_origin_owners() {
        for o in ORIGINS {
            let server_side = o.variant.starts_with("ServerMsg::");
            for (owner, _) in o.origins {
                let table = if server_side {
                    SERVER_ROLE_OWNERS
                } else {
                    CLIENT_ROLE_OWNERS
                };
                assert!(
                    table.contains(owner) || ROLE_EXEMPT_ORIGIN_OWNERS.contains(owner),
                    "{}: origin owner {owner} not in its role table (or the \
                     documented exempt list)",
                    o.variant
                );
            }
        }
        // The exempt list is for origin owners only — anything else in it
        // would silently drop role coverage.
        for owner in ROLE_EXEMPT_ORIGIN_OWNERS {
            assert!(
                ORIGINS
                    .iter()
                    .any(|o| o.origins.iter().any(|(ow, _)| ow == owner)),
                "{owner} is role-exempt but originates nothing"
            );
        }
    }
}
