//! The declared lock-order DAG and violation model.
//!
//! The workspace discipline (see DESIGN.md, "Lock ordering and concurrency
//! invariants") is a total order over the lock classes; a thread may only
//! acquire a lock whose class is strictly *later* in the order than every
//! lock it already holds:
//!
//! ```text
//! ClientState -> ProtocolStage -> PoolShard -> WalInner -> Disk
//!     -> CompletionState -> PortTable -> ConnWriter
//! ```

use std::fmt;

/// A lock class in the declared order. The discriminant is the rank:
/// acquiring class `c` while holding class `h` is legal iff
/// `c as u8 > h as u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// One client workstation's runtime — protocol engine, byte cache and
    /// request outbox (`client.rs`) — locked by application calls and by
    /// whichever thread delivers the client's server messages (any thread
    /// running a request or forcing the log, a TCP reader thread).
    /// Outermost:
    /// it is held across `RequestSink::send_request` (which takes
    /// `ConnWriter` over TCP), so every caller and every deliverer takes
    /// it with nothing held — the completion router never delivers under
    /// its own lock, and a thread serves what it queued only after
    /// dropping this one.
    ClientState = 0,
    /// A pipeline stage's protocol/engine mutex (`server.rs`).
    ProtocolStage = 1,
    /// One buffer-pool shard (`bufferpool.rs`).
    PoolShard = 2,
    /// The WAL's inner buffer + durable horizon (`wal.rs`).
    WalInner = 3,
    /// The disk manager's page table (`disk.rs`).
    Disk = 4,
    /// The completion router's durable watermark, log-force claim and
    /// per-client barrier queues (`server.rs`). Sits after the storage
    /// classes (a forcing run advances it having finished its WAL/disk
    /// work) and before the transport classes (releasing a queue
    /// resolves a port).
    CompletionState = 5,
    /// The transport's client-port registry (`transport/mod.rs`).
    PortTable = 6,
    /// A TCP connection's write half (`transport/tcp.rs`). Innermost by
    /// design: socket writes are blocking I/O, so nothing may be waiting
    /// on a `ConnWriter` holder.
    ConnWriter = 7,
}

impl LockClass {
    /// Rank in the declared order (lower = must be acquired first).
    pub fn rank(self) -> u8 {
        self as u8
    }

    /// The declared order, spelled out for diagnostics.
    pub fn order() -> String {
        let names: Vec<String> = Self::ALL.iter().map(|c| c.to_string()).collect();
        names.join(" -> ")
    }

    /// All classes, in order.
    pub const ALL: [LockClass; 8] = [
        LockClass::ClientState,
        LockClass::ProtocolStage,
        LockClass::PoolShard,
        LockClass::WalInner,
        LockClass::Disk,
        LockClass::CompletionState,
        LockClass::PortTable,
        LockClass::ConnWriter,
    ];

    /// Map a type name appearing as the protected inner type of a
    /// `Mutex<T>` (or the self type of an `impl` whose methods lock
    /// internally) to its lock class.
    pub fn from_inner_type(name: &str) -> Option<LockClass> {
        Some(match name {
            "ClientRuntime" => LockClass::ClientState,
            "ProtocolStage" | "EngineStage" => LockClass::ProtocolStage,
            "PoolShard" | "PoolInner" | "ShardInner" => LockClass::PoolShard,
            "WalInner" => LockClass::WalInner,
            "DiskInner" => LockClass::Disk,
            "CompletionState" => LockClass::CompletionState,
            "PortTable" => LockClass::PortTable,
            "ConnWriter" => LockClass::ConnWriter,
            _ => return None,
        })
    }

    /// Types whose *methods* internally acquire a class even though the
    /// caller never sees a guard (e.g. `MemDisk::write_page` locks the
    /// disk page table).
    pub fn from_owner_type(name: &str) -> Option<LockClass> {
        Some(match name {
            "MemDisk" | "FileDisk" | "DiskManager" => LockClass::Disk,
            "Wal" => LockClass::WalInner,
            _ => return None,
        })
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockClass::ClientState => "ClientState",
            LockClass::ProtocolStage => "ProtocolStage",
            LockClass::PoolShard => "PoolShard",
            LockClass::WalInner => "WalInner",
            LockClass::Disk => "Disk",
            LockClass::CompletionState => "CompletionState",
            LockClass::PortTable => "PortTable",
            LockClass::ConnWriter => "ConnWriter",
        };
        f.write_str(s)
    }
}

/// Which discipline rule a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Acquired a lock out of DAG order (or re-entered the same class).
    LockOrder,
    /// Disk/WAL I/O, a blocking socket write (`ConnWriter`), or a channel
    /// send/recv while a `ProtocolStage` guard is live.
    IoUnderProtocol,
    /// A guard held across a closure body that can re-enter the engine.
    ReentrantClosure,
    /// A protocol message constructed outside its modeled origin function,
    /// sent in the wrong role direction, or sent to a transaction after a
    /// terminal message (abort/commit ack) was already issued to it.
    IllegalTransition,
    /// `unwrap`/`expect`/`panic!` (or a thread-blocking call) while the
    /// `ProtocolStage` guard is live: a poisoned engine lock takes the
    /// whole server down.
    PanicUnderProtocol,
}

impl Rule {
    /// The rule's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock_order",
            Rule::IoUnderProtocol => "io_under_protocol",
            Rule::ReentrantClosure => "reentrant_closure",
            Rule::IllegalTransition => "illegal_transition",
            Rule::PanicUnderProtocol => "panic_under_protocol",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule was broken.
    pub rule: Rule,
    /// File the violation occurs in.
    pub file: String,
    /// 1-based line of the offending acquisition/call.
    pub line: u32,
    /// Human-readable explanation, including the offending lock pair.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_the_declared_dag() {
        let ranks: Vec<u8> = LockClass::ALL.iter().map(|c| c.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(LockClass::ClientState < LockClass::ProtocolStage);
        assert!(LockClass::ClientState < LockClass::ConnWriter);
        assert!(LockClass::WalInner < LockClass::Disk);
        assert!(LockClass::Disk < LockClass::CompletionState);
        assert!(LockClass::CompletionState < LockClass::PortTable);
        assert!(LockClass::PortTable < LockClass::ConnWriter);
    }

    #[test]
    fn inner_type_mapping() {
        assert_eq!(
            LockClass::from_inner_type("PoolInner"),
            Some(LockClass::PoolShard)
        );
        assert_eq!(
            LockClass::from_inner_type("ClientRuntime"),
            Some(LockClass::ClientState)
        );
        assert_eq!(LockClass::from_inner_type("Foo"), None);
        assert_eq!(LockClass::from_owner_type("MemDisk"), Some(LockClass::Disk));
    }
}
