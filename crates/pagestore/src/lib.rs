//! # fgs-pagestore
//!
//! The storage substrate under the page-server OODBMS: slotted pages with
//! record forwarding (the paper's §6 treatment of size-changing updates),
//! page-granularity disk managers (in-memory and file-backed), an LRU
//! buffer pool enforcing the write-ahead rule, a WAL with before/after
//! images, and steal/no-force crash recovery (repeat history, then roll
//! back losers).
//!
//! ```
//! use fgs_pagestore::{MemDisk, Store};
//! use fgs_core::{ClientId, Oid, PageId, TxnId};
//! use std::sync::Arc;
//!
//! let store = Store::new(Arc::new(MemDisk::new(4096)), 64, 10_000);
//! store.init_objects(16, 20, 128).unwrap();
//! let txn = TxnId::new(ClientId(0), 1);
//! store.begin(txn);
//! store.update_object(txn, Oid::new(PageId(3), 7), b"hello").unwrap();
//! fgs_pagestore::test_support::commit_durably(&store, txn);
//! assert_eq!(store.read_object(Oid::new(PageId(3), 7)).unwrap().unwrap(), b"hello");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bufferpool;
mod disk;
mod fault;
mod page;
mod recovery;
mod store;
pub use fgs_core::sync;
mod wal;

pub use bufferpool::BufferPool;
pub use disk::{DiskManager, FileDisk, MemDisk};
pub use fault::{FaultPlan, FaultyDisk};
pub use page::{PageError, Record, SlottedPage};
pub use recovery::{recover, RecoveryReport};
pub use store::{Store, StoreStats};
pub use wal::{LogRecord, Lsn, Wal, WalHold};

/// Helpers for tests and examples that drive a [`Store`] directly,
/// without the server runtime's staged log force.
pub mod test_support {
    use crate::Store;
    use fgs_core::TxnId;

    /// Commits `txn` synchronously: appends its commit record and
    /// flushes the log through it, so the commit is durable on return.
    /// The server never does this — its runs append, then force through
    /// the staged cycle — so it does not count in
    /// [`StoreStats::commits`](crate::StoreStats::commits).
    pub fn commit_durably(store: &Store, txn: TxnId) {
        store.append_commit(txn);
        store.wal().flush();
    }
}
