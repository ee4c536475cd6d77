//! The declarative model of the FGSP state machines.
//!
//! This module is pure data: the message vocabulary of
//! `crates/core/src/msg.rs`, which functions are the designated handlers
//! for each enum, which functions may *originate* each wire message, which
//! messages terminate a transaction, and which crates must stay free of
//! wall-clock/randomness. The `protocol` module checks the code against
//! these tables; keeping the tables separate from the traversal means a
//! protocol change (a new `ServerMsg` variant, a new origin site) is a
//! one-line diff here — and until that diff lands, every pass that keys on
//! the enum fails loudly.
//!
//! The tables mirror the paper's callback-locking conversations
//! (Carey/Franklin/Zaharioudakis, SIGMOD'94 §3): a client request enters
//! through one server dispatch point, every server→client message has
//! exactly one legal origin in the engine, and a transaction that has been
//! sent `Aborted`/`CommitDone`/`AbortDone` is *finished* — nothing else may
//! be addressed to it.

/// One protocol enum and its complete variant list, kept in sync with
/// `crates/core/src/msg.rs` (the handler-exhaustiveness self-test seeds a
/// dropped arm into the real file to prove the sync is load-bearing).
pub struct EnumSpec {
    /// Enum name as it appears in paths (`ServerMsg::...`).
    pub name: &'static str,
    /// All variants, in declaration order.
    pub variants: &'static [&'static str],
}

/// The protocol vocabulary of `crates/core/src/msg.rs`.
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
    EnumSpec {
        name: "CallbackReply",
        variants: &[
            "PagePurged",
            "ObjectUnavailable",
            "ObjectPurged",
            "NotCached",
            "Busy",
        ],
    },
    EnumSpec {
        name: "DataGrant",
        variants: &["Page", "Object", "None"],
    },
    EnumSpec {
        name: "AbortReason",
        variants: &["Deadlock", "Server"],
    },
];

/// A designated handler: the one function (per owner) through which every
/// variant of the listed enums must flow.
///
/// Handlers are keyed by `(owner, fn name)` rather than file path so the
/// fixture suite can model them in self-contained files. A handler whose
/// body never mentions a listed enum is skipped (it is not that enum's
/// dispatch point in this workspace slice); one that mentions it must
/// mention *every* variant and must not hide any behind a bare `_ =>` arm.
pub struct HandlerSpec {
    /// Self type of the impl the handler lives in.
    pub owner: &'static str,
    /// Handler function name.
    pub func: &'static str,
    /// Enums the handler must match exhaustively.
    pub enums: &'static [&'static str],
}

/// The designated dispatch points.
///
/// `crates/oodb/src/remote.rs` is deliberately absent: the remote client
/// transport relays `ToClient` envelopes verbatim into
/// `ClientRuntime::handle_server` and never inspects `ServerMsg` itself,
/// so the runtime handler below is the single client-side dispatch point
/// for both transports.
pub const HANDLERS: &[HandlerSpec] = &[
    // Server dispatch: every client request enters here.
    HandlerSpec {
        owner: "ServerEngine",
        func: "handle",
        enums: &["Request"],
    },
    // Callback sub-protocol: every reply kind must be handled (copy-table
    // effects differ per variant; a missed one silently leaks copies).
    HandlerSpec {
        owner: "ServerEngine",
        func: "handle_cb_reply",
        enums: &["CallbackReply"],
    },
    // Client engine dispatch: every server message acts on the txn state.
    HandlerSpec {
        owner: "ClientEngine",
        func: "handle_server",
        enums: &["ServerMsg"],
    },
    // Client engine data install: every grant payload shape.
    HandlerSpec {
        owner: "ClientEngine",
        func: "install",
        enums: &["DataGrant"],
    },
    // Client runtime: installs payloads and surfaces abort reasons before
    // delegating to the engine — all three enums must stay exhaustive.
    HandlerSpec {
        owner: "ClientRuntime",
        func: "handle_server",
        enums: &["ServerMsg", "DataGrant", "AbortReason"],
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

/// Crate sub-paths whose sources must stay deterministic: the simulation
/// kernel, the simulator, and the chaos harness all promise
/// seed-reproducibility (PR 3's parallel sweep and PR 7's oracle rely on
/// it), so wall-clock reads and OS randomness are banned there.
pub const DETERMINISM_SCOPE: &[&str] = &[
    "crates/simkernel/src",
    "crates/sim/src",
    "crates/harness/src",
];

/// A banned nondeterminism source: a `Type::method` path or a bare
/// identifier.
pub struct BannedSource {
    /// Path head (`Instant`), or the bare ident itself.
    pub head: &'static str,
    /// Path tail (`now`); empty for a bare-identifier ban.
    pub tail: &'static str,
    /// What to reach for instead.
    pub instead: &'static str,
}

/// Nondeterminism sources banned inside [`DETERMINISM_SCOPE`].
pub const BANNED_SOURCES: &[BannedSource] = &[
    BannedSource {
        head: "Instant",
        tail: "now",
        instead: "the simulated clock (fgs-simkernel `SimTime`)",
    },
    BannedSource {
        head: "SystemTime",
        tail: "",
        instead: "the simulated clock (fgs-simkernel `SimTime`)",
    },
    BannedSource {
        head: "thread_rng",
        tail: "",
        instead: "a seeded `SplitMix64`/`Lcg` stream",
    },
    BannedSource {
        head: "from_entropy",
        tail: "",
        instead: "a seeded `SplitMix64`/`Lcg` stream",
    },
];

/// Whether a file is codec-exempt from the origin/role checks: codecs
/// legitimately construct every variant while decoding frames off the
/// wire.
pub fn codec_exempt(file: &str) -> bool {
    file.contains("codec")
}

/// Look up an enum's declared variants.
pub fn enum_variants(name: &str) -> Option<&'static [&'static str]> {
    PROTOCOL_ENUMS
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.variants)
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
    fn handler_enums_are_declared() {
        for h in HANDLERS {
            for e in h.enums {
                assert!(
                    enum_variants(e).is_some(),
                    "handler {}::{} names undeclared enum {e}",
                    h.owner,
                    h.func
                );
            }
        }
    }

    #[test]
    fn origin_table_covers_every_wire_variant_exactly_once() {
        // Every Request and ServerMsg variant has exactly one origin entry.
        for spec in PROTOCOL_ENUMS {
            if spec.name != "Request" && spec.name != "ServerMsg" {
                continue;
            }
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
        let server = enum_variants("ServerMsg").unwrap();
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
