//! The application-facing session API.

use crate::client::{Call, ClientShared};
use crate::error::TxnError;
use fgs_core::{ClientStats, Oid};
use std::fmt;
use std::sync::Arc;

/// A handle onto one client workstation. One transaction runs at a time.
/// Calls run the client's protocol engine and cache on the calling thread:
/// an access to a cached, locally permitted object returns at once, and
/// anything that needs the server blocks until it grants (or aborts) it.
///
/// `Session` is cheap to clone, but concurrent calls from multiple threads
/// against the same client violate the one-transaction-per-client model —
/// give each thread its own client instead.
#[derive(Clone)]
pub struct Session {
    client: u16,
    shared: Arc<ClientShared>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("client", &self.client)
            .finish_non_exhaustive()
    }
}

impl Session {
    pub(crate) fn new(client: u16, shared: Arc<ClientShared>) -> Self {
        Session { client, shared }
    }

    /// The client id this session drives.
    pub fn client(&self) -> u16 {
        self.client
    }

    /// Starts a transaction.
    pub fn begin(&self) -> Result<(), TxnError> {
        self.shared.begin()
    }

    /// Reads an object. Blocks while the object is write-locked remotely.
    pub fn read(&self, oid: Oid) -> Result<Vec<u8>, TxnError> {
        self.shared.call(Call::Read(oid))
    }

    /// Writes an object (acquiring the write lock per the protocol).
    pub fn write(&self, oid: Oid, bytes: impl Into<Vec<u8>>) -> Result<(), TxnError> {
        self.shared.call(Call::Write(oid, bytes.into())).map(drop)
    }

    /// Commits the transaction (durable once this returns).
    pub fn commit(&self) -> Result<(), TxnError> {
        self.shared.call(Call::Commit).map(drop)
    }

    /// Voluntarily aborts the transaction.
    pub fn abort(&self) -> Result<(), TxnError> {
        self.shared.call(Call::Abort).map(drop)
    }

    /// This client's protocol counters.
    pub fn stats(&self) -> Result<ClientStats, TxnError> {
        self.shared.stats()
    }

    /// Runs `body` inside a transaction, retrying on deadlock up to
    /// `max_retries` times. Any other error aborts and propagates.
    pub fn run_txn<T>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&Session) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let mut attempts = 0;
        loop {
            self.begin()?;
            match body(self).and_then(|v| self.commit().map(|()| v)) {
                Ok(v) => return Ok(v),
                Err(TxnError::Deadlock) if attempts < max_retries => {
                    attempts += 1;
                    // The victim is already cleaned up server-side; just
                    // retry with the same logic.
                }
                Err(e) => {
                    // Best-effort rollback of a still-active transaction.
                    let _ = self.abort();
                    return Err(e);
                }
            }
        }
    }
}
