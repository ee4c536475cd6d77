//! The storage facade the page-server engine builds on: a logged object
//! store with fixed object homes, forwarding on overflow, and
//! steal/no-force transaction semantics.

use crate::bufferpool::BufferPool;
use crate::disk::DiskManager;
use crate::page::{PageError, Record};
use crate::recovery::{recover, RecoveryReport};
use crate::wal::{LogRecord, Lsn, Wal};
use fgs_core::{Oid, PageId, TxnId};
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Commit-durability counters, exposed for group-commit observability,
/// plus the server pipeline's per-stage timing and batching counters.
///
/// The durability fields are filled by the store itself; the pipeline
/// fields (`*_ns`, `lock_*`, `commit_p*`, `dispatch_*`, `send_*`) are
/// filled by the `fgs-oodb` server runtime when it snapshots the store —
/// a store used directly reports them as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Committed transactions whose commit record was forced durable.
    pub commits: u64,
    /// Physical log forces that covered the commit record of more than
    /// one transaction — i.e. batched (group) commits. Each such force
    /// saved at least one fsync versus commit-at-a-time. In the server a
    /// force is a committing run's seal → write → force cycle, so a
    /// group is the commits appended while the previous cycle was in
    /// flight.
    pub group_commit_batches: u64,
    /// Commit records made durable by a force issued on behalf of some
    /// *other* transaction (the group-commit followers).
    pub piggybacked_commits: u64,
    /// Total physical log forces (any cause, including steals).
    pub log_forces: u64,
    /// Nanoseconds request runs spent in the durability stage: commit
    /// install and append, plus claiming and running the log force
    /// (waiting out a cycle in flight included).
    pub durability_ns: u64,
    /// Nanoseconds request runs spent in the protocol stage (lock wait +
    /// engine transitions under the guard).
    pub protocol_ns: u64,
    /// Nanoseconds request runs spent in the dispatch stage: payload
    /// attach and ordered delivery through the completion router, the
    /// acks a run's force released included.
    pub dispatch_ns: u64,
    /// Nanoseconds spent *waiting* to acquire the protocol-stage lock.
    pub lock_wait_ns: u64,
    /// Nanoseconds the protocol-stage lock was *held*.
    pub lock_hold_ns: u64,
    /// Hot-path protocol-stage lock acquisitions (one per inbound batch).
    pub lock_acquisitions: u64,
    /// Median server-side commit latency, microseconds (batch arrival →
    /// `CommitDone` released for delivery).
    pub commit_p50_us: u64,
    /// 99th-percentile server-side commit latency, microseconds.
    pub commit_p99_us: u64,
    /// Commits sampled into the latency histogram.
    pub commit_latency_samples: u64,
    /// Inbound batches run through the server (one protocol-lock
    /// acquisition and one sequence number each).
    pub dispatch_batches: u64,
    /// Messages across all inbound batches (`/ dispatch_batches` = mean
    /// amortization of the critical section).
    pub dispatch_batch_msgs: u64,
    /// Per-client delivery batches issued by the completion router (one
    /// coalesced transport write each on TCP).
    pub send_batches: u64,
    /// Envelopes across all send batches.
    pub send_batch_msgs: u64,
    /// Active-buffer seals performed by the staged force cycle (zero for
    /// stores driven through the synchronous force paths).
    pub wal_seals: u64,
    /// Sealed-segment device writes performed by the staged force cycle.
    pub wal_writes: u64,
    /// Commit acks released by a force cycle rather than on submit
    /// (filled by the `fgs-oodb` runtime). A run submits its acks before
    /// it forces, so in the server nearly every ack counts; one submitted
    /// after the watermark already covered it does not.
    pub deferred_acks: u64,
}

/// A logged object store over a disk and buffer pool.
pub struct Store {
    pool: BufferPool,
    wal: Arc<Wal>,
    /// First page of the overflow region (forward targets are allocated
    /// from here upward).
    overflow_next: AtomicU32,
    commits: AtomicU64,
    group_commit_batches: AtomicU64,
    piggybacked_commits: AtomicU64,
}

impl Store {
    /// Creates a store over `disk` with a `pool_pages`-frame buffer pool.
    /// `overflow_start` is the first page number reserved for forwarded
    /// records (beyond the regular database).
    pub fn new(disk: Arc<dyn DiskManager>, pool_pages: usize, overflow_start: u32) -> Self {
        let wal = Arc::new(Wal::new());
        Store {
            pool: BufferPool::new(disk, wal.clone(), pool_pages),
            wal,
            overflow_next: AtomicU32::new(overflow_start),
            commits: AtomicU64::new(0),
            group_commit_batches: AtomicU64::new(0),
            piggybacked_commits: AtomicU64::new(0),
        }
    }

    /// Recovers a store from a disk image and a durable log image.
    pub fn recover(
        disk: Arc<dyn DiskManager>,
        log_bytes: Vec<u8>,
        pool_pages: usize,
        overflow_start: u32,
    ) -> io::Result<(Self, RecoveryReport)> {
        let wal = Arc::new(Wal::from_bytes(log_bytes));
        let (pool, report) = recover(disk, wal.clone(), pool_pages)?;
        Ok((
            Store {
                pool,
                wal,
                overflow_next: AtomicU32::new(overflow_start),
                commits: AtomicU64::new(0),
                group_commit_batches: AtomicU64::new(0),
                piggybacked_commits: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// The write-ahead log (for durability snapshots and crash tests).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The buffer pool (hit-rate statistics, pinning).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Populates the database with `objects_per_page` objects of
    /// `object_size` bytes on each of `db_pages` pages, all zero-filled,
    /// without logging (initial load). Flushes to disk.
    pub fn init_objects(
        &self,
        db_pages: u32,
        objects_per_page: u16,
        object_size: usize,
    ) -> io::Result<()> {
        let zeroes = vec![0u8; object_size];
        for page in 0..db_pages {
            self.pool.with_page_mut(PageId(page), 0, |p| {
                for _ in 0..objects_per_page {
                    p.insert(&zeroes).expect("initial objects fit");
                }
            })?;
        }
        self.pool.flush_all()
    }

    /// Reads an object, following at most one forward hop (forwarded
    /// records are never re-forwarded: the overflow home is permanent).
    pub fn read_object(&self, oid: Oid) -> io::Result<Option<Vec<u8>>> {
        let first = self.pool.with_page(oid.page, |p| match p.read(oid.slot) {
            Ok(Record::Data(d)) => Some(Ok(d.to_vec())),
            Ok(Record::Forward(page, slot)) => Some(Err(Oid::new(PageId(page), slot))),
            Err(_) => None,
        })?;
        match first {
            Some(Ok(data)) => Ok(Some(data)),
            Some(Err(fwd)) => self.pool.with_page(fwd.page, |p| match p.read(fwd.slot) {
                Ok(Record::Data(d)) => Some(d.to_vec()),
                _ => None,
            }),
            None => Ok(None),
        }
    }

    /// A copy of a page's current image (what the server ships to
    /// clients).
    pub fn page_image(&self, page: PageId) -> io::Result<Vec<u8>> {
        self.pool.with_page(page, |p| p.as_bytes().to_vec())
    }

    /// Logs `txn`'s start.
    pub fn begin(&self, txn: TxnId) {
        self.wal.append(&LogRecord::Begin { txn });
    }

    /// Applies one logged object update for `txn`. Size-changing updates
    /// that overflow the page are forwarded to the overflow region.
    pub fn update_object(&self, txn: TxnId, oid: Oid, after: &[u8]) -> io::Result<()> {
        // Resolve a forward first: updates apply at the record's home.
        let target = self.pool.with_page(oid.page, |p| match p.read(oid.slot) {
            Ok(Record::Forward(page, slot)) => Oid::new(PageId(page), slot),
            _ => oid,
        })?;
        let before = self.read_object(target)?.unwrap_or_default();
        let lsn = self.wal.append(&LogRecord::Update {
            txn,
            oid: target,
            before: before.clone(),
            after: after.to_vec(),
        });
        let fit = self
            .pool
            .with_page_mut(target.page, lsn, |p| p.put_at(target.slot, after))?;
        match fit {
            Ok(()) => Ok(()),
            Err(PageError::Full) => self.forward_update(txn, target, &before, after),
            Err(e) => Err(io::Error::other(e)),
        }
    }

    /// Handles a page-overflowing update: place the bytes on an overflow
    /// page, install a forward stub at the home slot.
    fn forward_update(&self, txn: TxnId, home: Oid, before: &[u8], after: &[u8]) -> io::Result<()> {
        // Find an overflow page with room (records are ≤ page payload).
        let mut page = self.overflow_next.load(Ordering::Relaxed);
        let to = loop {
            let slot = self
                .pool
                .with_page_mut(PageId(page), 0, |p| p.insert(after).ok())?;
            match slot {
                Some(slot) => break Oid::new(PageId(page), slot),
                None => {
                    page += 1;
                    self.overflow_next.store(page, Ordering::Relaxed);
                }
            }
        };
        // Log the overflow-resident bytes, then the forward.
        let lsn = self.wal.append(&LogRecord::Update {
            txn,
            oid: to,
            before: Vec::new(),
            after: after.to_vec(),
        });
        self.pool.with_page_mut(to.page, lsn, |_| ())?; // stamp the page LSN
        let lsn = self.wal.append(&LogRecord::Forward {
            txn,
            from: home,
            to,
            home_before: before.to_vec(),
        });
        self.pool.with_page_mut(home.page, lsn, |p| {
            p.forward(home.slot, to.page.0, to.slot)
                .expect("stub always fits after shrink")
        })
    }

    /// Appends `txn`'s commit record *without* forcing the log. The
    /// transaction is not durable until a force covers the returned LSN.
    pub fn append_commit(&self, txn: TxnId) -> Lsn {
        self.wal.append(&LogRecord::Commit { txn })
    }

    /// Accounts `batch_size` commits made durable by one staged force
    /// cycle (the stepwise WAL API, [`crate::Wal::force_written`]).
    /// `forced` reports whether that cycle performed a physical force;
    /// every commit beyond the first rode on it (`piggybacked_commits`),
    /// and a forced cycle carrying more than one is a group commit.
    pub fn account_durable(&self, batch_size: u64, forced: bool) {
        self.commits.fetch_add(batch_size, Ordering::Relaxed);
        if batch_size > 1 {
            self.piggybacked_commits
                .fetch_add(batch_size - 1, Ordering::Relaxed);
            if forced {
                self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Commit-durability counters so far.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            commits: self.commits.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            piggybacked_commits: self.piggybacked_commits.load(Ordering::Relaxed),
            log_forces: self.wal.forces(),
            wal_seals: self.wal.seals(),
            wal_writes: self.wal.segment_writes(),
            ..StoreStats::default()
        }
    }

    /// Aborts `txn`: undoes its updates from the log (newest first) and
    /// appends an abort record.
    pub fn abort(&self, txn: TxnId) -> io::Result<()> {
        let records = {
            // Undo needs unflushed records too; snapshot all appended
            // bytes by flushing first (abort does not need durability, but
            // this keeps replay simple and is harmless).
            self.wal.flush();
            self.wal.replay()
        };
        for (lsn, rec) in records.iter().rev() {
            match rec {
                LogRecord::Update {
                    txn: t,
                    oid,
                    before,
                    ..
                } if *t == txn => {
                    self.pool.with_page_mut(oid.page, *lsn, |p| {
                        if before.is_empty() {
                            let _ = p.delete(oid.slot);
                        } else {
                            p.put_at(oid.slot, before).expect("undo fits");
                        }
                    })?;
                }
                LogRecord::Forward {
                    txn: t,
                    from,
                    to,
                    home_before,
                } if *t == txn => {
                    self.pool.with_page_mut(from.page, *lsn, |p| {
                        p.put_at(from.slot, home_before).expect("undo fits")
                    })?;
                    self.pool.with_page_mut(to.page, *lsn, |p| {
                        let _ = p.delete(to.slot);
                    })?;
                }
                _ => {}
            }
        }
        self.wal.append(&LogRecord::Abort { txn });
        Ok(())
    }

    /// Flushes everything (checkpoint/shutdown).
    pub fn flush_all(&self) -> io::Result<()> {
        self.pool.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::test_support::commit_durably;
    use fgs_core::ClientId;

    fn store() -> (Store, Arc<MemDisk>) {
        let disk = Arc::new(MemDisk::new(256));
        let s = Store::new(disk.clone(), 16, 1000);
        s.init_objects(4, 4, 16).unwrap();
        (s, disk)
    }

    fn txn(n: u16) -> TxnId {
        TxnId::new(ClientId(n), 1)
    }

    fn oid(p: u32, s: u16) -> Oid {
        Oid::new(PageId(p), s)
    }

    #[test]
    fn init_creates_fixed_objects() {
        let (s, _) = store();
        for p in 0..4 {
            for sl in 0..4 {
                assert_eq!(s.read_object(oid(p, sl)).unwrap().unwrap(), vec![0u8; 16]);
            }
        }
    }

    #[test]
    fn update_and_read_back() {
        let (s, _) = store();
        s.begin(txn(1));
        s.update_object(txn(1), oid(1, 2), b"new-value").unwrap();
        commit_durably(&s, txn(1));
        assert_eq!(s.read_object(oid(1, 2)).unwrap().unwrap(), b"new-value");
    }

    #[test]
    fn abort_restores_before_image() {
        let (s, _) = store();
        s.begin(txn(1));
        s.update_object(txn(1), oid(0, 0), b"v1").unwrap();
        commit_durably(&s, txn(1));
        s.begin(txn(2));
        s.update_object(txn(2), oid(0, 0), b"v2").unwrap();
        assert_eq!(s.read_object(oid(0, 0)).unwrap().unwrap(), b"v2");
        s.abort(txn(2)).unwrap();
        assert_eq!(s.read_object(oid(0, 0)).unwrap().unwrap(), b"v1");
    }

    #[test]
    fn growing_update_forwards_and_reads_through() {
        let (s, _) = store();
        // 4 × 16-byte objects on a 256-byte page: a 150-byte record cannot
        // fit alongside its siblings, so it forwards.
        s.begin(txn(1));
        let big = vec![0xCD; 150];
        s.update_object(txn(1), oid(2, 1), &big).unwrap();
        commit_durably(&s, txn(1));
        assert_eq!(s.read_object(oid(2, 1)).unwrap().unwrap(), big);
        // Neighbours unaffected.
        assert_eq!(s.read_object(oid(2, 0)).unwrap().unwrap(), vec![0u8; 16]);
        // Updating the forwarded object again applies at its new home.
        s.begin(txn(2));
        s.update_object(txn(2), oid(2, 1), b"small again").unwrap();
        commit_durably(&s, txn(2));
        assert_eq!(s.read_object(oid(2, 1)).unwrap().unwrap(), b"small again");
    }

    #[test]
    fn abort_of_forwarding_update_restores_home() {
        let (s, _) = store();
        s.begin(txn(1));
        s.update_object(txn(1), oid(2, 1), b"before-forward")
            .unwrap();
        commit_durably(&s, txn(1));
        s.begin(txn(2));
        s.update_object(txn(2), oid(2, 1), &[0xEE; 150]).unwrap();
        s.abort(txn(2)).unwrap();
        assert_eq!(
            s.read_object(oid(2, 1)).unwrap().unwrap(),
            b"before-forward"
        );
    }

    #[test]
    fn group_commit_batches_are_counted() {
        let (s, _) = store();
        for c in 1..=3u16 {
            s.begin(txn(c));
            s.update_object(txn(c), oid(0, c - 1), b"gc").unwrap();
        }
        // One forced cycle makes all three durable.
        let last = (1..=3u16).map(|c| s.append_commit(txn(c))).max().unwrap();
        s.wal().flush();
        s.account_durable(3, true);
        let st = s.stats();
        assert_eq!(st.commits, 3);
        assert_eq!(st.group_commit_batches, 1);
        assert_eq!(st.piggybacked_commits, 2);
        assert!(s.wal().flushed() > last, "batch is durable");
        // Replay sees all three commit records.
        let commits = s
            .wal()
            .replay()
            .into_iter()
            .filter(|(_, r)| matches!(r, LogRecord::Commit { .. }))
            .count();
        assert_eq!(commits, 3);
    }

    #[test]
    fn crash_recovery_via_store() {
        let (s, disk) = store();
        s.begin(txn(1));
        s.update_object(txn(1), oid(1, 1), b"durable").unwrap();
        commit_durably(&s, txn(1));
        s.begin(txn(2));
        s.update_object(txn(2), oid(1, 2), b"lost").unwrap();
        // A steal forces t2's log records out before the crash.
        s.wal().flush();
        let log = s.wal().durable_bytes();
        drop(s);
        let (s2, report) = Store::recover(disk, log, 16, 1000).unwrap();
        assert!(report.winners.contains(&txn(1)));
        assert!(report.losers.contains(&txn(2)));
        assert_eq!(s2.read_object(oid(1, 1)).unwrap().unwrap(), b"durable");
        assert_eq!(s2.read_object(oid(1, 2)).unwrap().unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn crash_recovery_of_forwarded_commit() {
        let (s, disk) = store();
        s.begin(txn(1));
        let big = vec![0xAB; 150];
        s.update_object(txn(1), oid(3, 2), &big).unwrap();
        commit_durably(&s, txn(1));
        let log = s.wal().durable_bytes();
        drop(s);
        let (s2, _) = Store::recover(disk, log, 16, 1000).unwrap();
        assert_eq!(s2.read_object(oid(3, 2)).unwrap().unwrap(), big);
    }
}
