//! A buffer pool over a [`DiskManager`] with WAL-before-data enforcement.
//!
//! Steal/no-force: dirty pages may be written back before commit (steal) —
//! but only after the log covering their updates is flushed (the WAL rule)
//! — and commit does not force data pages.

use crate::disk::DiskManager;
use crate::page::SlottedPage;
use crate::sync::Mutex;
use crate::wal::{Lsn, Wal};
use fgs_core::PageId;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::ops::Range;
use std::sync::Arc;

struct Frame {
    page: SlottedPage,
    dirty: bool,
    /// LSN of the latest update applied to this frame (must be ≤ the WAL's
    /// flushed horizon before the frame may be written back).
    page_lsn: Lsn,
    tick: u64,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    lru: BTreeMap<u64, PageId>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A fixed-capacity LRU buffer pool, sharded by page id.
///
/// Each shard is an independent `Mutex<PoolInner>` with its own LRU and
/// capacity slice, so page accesses on different shards proceed
/// concurrently instead of queueing on one pool-wide lock. Measured on the
/// repo benchmark's `hicon_contend` (EXPERIMENTS.md "Measured decisions"):
/// with one shard 4.6 % of pool-lock acquisitions found the lock taken,
/// against 0.6 % with eight, and throughput fell in 7 of 10 paired runs;
/// the one-client workloads never contend.
///
/// A page's shard is a pure function of its id (`page % nshards`), so a
/// page never migrates and the single-shard LRU semantics are unchanged;
/// pools of fewer than [`MAX_SHARDS`] frames degenerate to one frame per
/// shard.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    wal: Arc<Wal>,
    /// Frame capacity of each shard.
    shard_capacity: usize,
    shards: Vec<Mutex<PoolInner>>,
}

/// Upper bound on shard count; pools smaller than this get one shard per
/// frame so tiny pools (the eviction tests use capacity 1) keep exact LRU.
const MAX_SHARDS: usize = 8;

impl BufferPool {
    /// A pool of `capacity` frames over `disk`, honouring `wal`'s flushed
    /// horizon on write-back.
    pub fn new(disk: Arc<dyn DiskManager>, wal: Arc<Wal>, capacity: usize) -> Self {
        assert!(capacity > 0);
        let nshards = capacity.min(MAX_SHARDS);
        let shards = (0..nshards)
            .map(|_| {
                Mutex::new(PoolInner {
                    frames: HashMap::new(),
                    lru: BTreeMap::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                })
            })
            .collect();
        BufferPool {
            disk,
            wal,
            shard_capacity: capacity.div_ceil(nshards),
            shards,
        }
    }

    fn shard(&self, page: PageId) -> &Mutex<PoolInner> {
        &self.shards[page.0 as usize % self.shards.len()]
    }

    /// Runs `f` over the (read-only) page, faulting it in if necessary.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&SlottedPage) -> R) -> io::Result<R> {
        let mut g = self.shard(page).lock();
        self.fault_in(&mut g, page)?;
        let frame = g.frames.get(&page).expect("just faulted in");
        Ok(f(&frame.page))
    }

    /// Runs `f` over the mutable page, marking it dirty and recording
    /// `lsn` as its latest update.
    pub fn with_page_mut<R>(
        &self,
        page: PageId,
        lsn: Lsn,
        f: impl FnOnce(&mut SlottedPage) -> R,
    ) -> io::Result<R> {
        let mut g = self.shard(page).lock();
        self.fault_in(&mut g, page)?;
        let frame = g.frames.get_mut(&page).expect("just faulted in");
        frame.dirty = true;
        frame.page_lsn = frame.page_lsn.max(lsn);
        Ok(f(&mut frame.page))
    }

    /// Writes every dirty frame back (e.g. at checkpoint/shutdown),
    /// flushing the log first per the WAL rule.
    pub fn flush_all(&self) -> io::Result<()> {
        self.wal.flush();
        for shard in &self.shards {
            let mut g = shard.lock();
            let pages: Vec<PageId> = g.frames.keys().copied().collect();
            for p in pages {
                let frame = g.frames.get_mut(&p).expect("listed");
                if frame.dirty {
                    self.disk.write_page(p, frame.page.as_bytes())?;
                    frame.dirty = false;
                }
            }
        }
        self.disk.sync()
    }

    /// Formats one empty page with `format` and writes that image to the
    /// disk home of every page in `pages`, then syncs once (the initial
    /// load). The frames are bypassed, so the pool must hold none: a
    /// resident frame would shadow the image just written. Each page is
    /// read from disk on its first use.
    pub fn load_pages(
        &self,
        pages: Range<u32>,
        format: impl FnOnce(&mut SlottedPage),
    ) -> io::Result<()> {
        if !self.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "page load into a pool with resident frames",
            ));
        }
        let mut image = SlottedPage::new(self.disk.page_size());
        format(&mut image);
        for page in pages {
            self.disk.write_page(PageId(page), image.as_bytes())?;
        }
        self.disk.sync()
    }

    /// (hits, misses) so far, summed over shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), shard| {
            let g = shard.lock();
            (h + g.hits, m + g.misses)
        })
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Whether no frames are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn fault_in(&self, g: &mut PoolInner, page: PageId) -> io::Result<()> {
        g.tick += 1;
        let tick = g.tick;
        if let Some(f) = g.frames.get_mut(&page) {
            g.hits += 1;
            let old = f.tick;
            f.tick = tick;
            g.lru.remove(&old);
            g.lru.insert(tick, page);
            return Ok(());
        }
        g.misses += 1;
        // Evict first so capacity holds after insertion.
        while g.frames.len() >= self.shard_capacity {
            let (_, victim) = g.lru.pop_first().expect("a full shard has an LRU entry");
            let f = g.frames.remove(&victim).expect("resident");
            if f.dirty {
                // WAL rule: the log record at the page's LSN must be
                // durable before the page overwrites its disk home. A
                // record is durable only when `flushed > page_lsn` (an LSN
                // is the record's *start* offset), which is exactly
                // `force_up_to`'s contract — and it probes and advances the
                // horizon in one WAL lock acquisition instead of two.
                self.wal.force_up_to(f.page_lsn);
                self.disk.write_page(victim, f.page.as_bytes())?;
            }
        }
        let bytes = self.disk.read_page(page)?;
        let page_img = if bytes.iter().all(|&b| b == 0) {
            SlottedPage::new(self.disk.page_size())
        } else {
            SlottedPage::from_bytes(bytes)
        };
        g.frames.insert(
            page,
            Frame {
                page: page_img,
                dirty: false,
                page_lsn: 0,
                tick,
            },
        );
        g.lru.insert(tick, page);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::wal::LogRecord;
    use fgs_core::{ClientId, TxnId};

    fn pool(cap: usize) -> (BufferPool, Arc<MemDisk>, Arc<Wal>) {
        let disk = Arc::new(MemDisk::new(256));
        let wal = Arc::new(Wal::new());
        (BufferPool::new(disk.clone(), wal.clone(), cap), disk, wal)
    }

    #[test]
    fn pages_fault_in_as_empty() {
        let (pool, _, _) = pool(2);
        let slots = pool.with_page(PageId(1), |p| p.slot_count()).unwrap();
        assert_eq!(slots, 0);
        assert_eq!(pool.stats(), (0, 1));
    }

    #[test]
    fn updates_survive_eviction() {
        let (pool, _, _) = pool(1);
        let slot = pool
            .with_page_mut(PageId(1), 1, |p| p.insert(b"persist me").unwrap())
            .unwrap();
        // Touch other pages to force eviction of page 1.
        pool.with_page(PageId(2), |_| ()).unwrap();
        pool.with_page(PageId(3), |_| ()).unwrap();
        let data = pool
            .with_page(PageId(1), |p| match p.read(slot).unwrap() {
                crate::page::Record::Data(d) => d.to_vec(),
                other => panic!("{other:?}"),
            })
            .unwrap();
        assert_eq!(data, b"persist me");
    }

    #[test]
    fn wal_rule_flushes_log_before_steal() {
        let (pool, _, wal) = pool(1);
        let lsn = wal.append(&LogRecord::Begin {
            txn: TxnId::new(ClientId(1), 1),
        });
        let lsn2 = wal.append(&LogRecord::Commit {
            txn: TxnId::new(ClientId(1), 1),
        });
        assert!(lsn2 > lsn);
        pool.with_page_mut(PageId(1), lsn2, |p| p.insert(b"x").unwrap())
            .unwrap();
        assert_eq!(wal.flushed(), 0, "nothing flushed yet");
        // Evicting the dirty page must flush the log first.
        pool.with_page(PageId(2), |_| ()).unwrap();
        assert!(wal.flushed() > lsn2, "WAL rule enforced on steal");
    }

    #[test]
    fn wal_rule_holds_when_page_lsn_equals_flushed_horizon() {
        // Regression: the steal-path check used `page_lsn > flushed()`,
        // which let a dirty page whose update record starts *exactly at*
        // the durable horizon (page_lsn == flushed) reach disk without its
        // log record — e.g. right after a checkpoint flushed everything.
        let (pool, _, wal) = pool(1);
        wal.append(&LogRecord::Begin {
            txn: TxnId::new(ClientId(1), 1),
        });
        wal.flush();
        let lsn = wal.append(&LogRecord::Commit {
            txn: TxnId::new(ClientId(1), 1),
        });
        assert_eq!(lsn, wal.flushed(), "record starts at the horizon");
        pool.with_page_mut(PageId(1), lsn, |p| p.insert(b"x").unwrap())
            .unwrap();
        pool.with_page(PageId(2), |_| ()).unwrap(); // evict page 1
        assert!(wal.flushed() > lsn, "WAL rule enforced at the boundary");
    }

    #[test]
    fn eviction_of_unlogged_page_is_not_a_physical_force() {
        let (pool, disk, wal) = pool(1);
        // Unlogged writes carry lsn 0; on an empty log, stealing them
        // must not count a log force (there is nothing to flush).
        pool.with_page_mut(PageId(1), 0, |p| p.insert(b"init").unwrap())
            .unwrap();
        pool.with_page(PageId(2), |_| ()).unwrap(); // evict page 1
        assert_eq!(disk.pages_written(), 1, "page stolen");
        assert_eq!(wal.forces(), 0, "no spurious force");
    }

    #[test]
    fn shards_allow_concurrent_access() {
        let disk = Arc::new(MemDisk::new(256));
        let wal = Arc::new(Wal::new());
        let pool = Arc::new(BufferPool::new(disk, wal, 64));
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let page = PageId(t * 16 + i % 16);
                        pool.with_page_mut(page, u64::from(i), |p| {
                            let _ = p.insert(&[t as u8]);
                        })
                        .unwrap();
                        pool.with_page(page, |p| p.slot_count()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (hits, misses) = pool.stats();
        assert_eq!(hits + misses, 8 * 400, "every access accounted");
    }

    #[test]
    fn flush_all_writes_everything() {
        let (pool, disk, _) = pool(4);
        for i in 0..3 {
            pool.with_page_mut(PageId(i), 1, |p| p.insert(&[i as u8]).unwrap())
                .unwrap();
        }
        pool.flush_all().unwrap();
        assert_eq!(disk.pages_written(), 3);
    }
}

/// Model checking for the sharded install/evict path, run only under
/// `RUSTFLAGS="--cfg loom"` (see DESIGN.md §"Lock ordering and concurrency
/// invariants"). The pool's locks resolve to `loom::sync` types through
/// [`crate::sync`], so the explored schedules drive the production code.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::wal::LogRecord;
    use fgs_core::{ClientId, TxnId};
    use loom::thread;

    /// Two writers install into a capacity-starved pool while a reader
    /// faults pages back in: every access must be accounted, every insert
    /// must survive the eviction churn, and nothing may deadlock across
    /// the shard → WAL → disk acquisition chain.
    #[test]
    fn concurrent_install_evict_preserves_records() {
        loom::model(|| {
            let disk = Arc::new(MemDisk::new(256));
            let wal = Arc::new(Wal::new());
            // Capacity 2 → shard-per-frame pools with constant eviction.
            let pool = Arc::new(BufferPool::new(disk, wal.clone(), 2));
            let writers: Vec<_> = (0..2u32)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    let wal = Arc::clone(&wal);
                    thread::spawn(move || {
                        for i in 0..3u32 {
                            let page = PageId(t * 4 + i);
                            let lsn = wal.append(&LogRecord::Begin {
                                txn: TxnId::new(ClientId(t as u16), u64::from(i)),
                            });
                            pool.with_page_mut(page, lsn, |p| {
                                p.insert(&[t as u8, i as u8]).unwrap();
                            })
                            .unwrap();
                        }
                    })
                })
                .collect();
            let reader = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    for i in 0..6u32 {
                        pool.with_page(PageId(i), |p| p.slot_count()).unwrap();
                    }
                })
            };
            for t in writers {
                t.join().unwrap();
            }
            reader.join().unwrap();
            // Every install survived the concurrent eviction churn.
            for t in 0..2u32 {
                for i in 0..3u32 {
                    let data = pool
                        .with_page(PageId(t * 4 + i), |p| match p.read(0).unwrap() {
                            crate::page::Record::Data(d) => d.to_vec(),
                            other => panic!("{other:?}"),
                        })
                        .unwrap();
                    assert_eq!(data, vec![t as u8, i as u8]);
                }
            }
            let (hits, misses) = pool.stats();
            assert!(hits + misses >= 12, "every access accounted");
        });
    }

    /// A disk that asserts the WAL rule at the instant of every write-back:
    /// the log record that last dirtied the page must already be durable.
    struct WalRuleDisk {
        inner: MemDisk,
        wal: Arc<Wal>,
        /// page → LSN of the (single) update the test applied to it,
        /// recorded *before* the page is dirtied.
        expected: Mutex<HashMap<PageId, Lsn>>,
    }

    impl crate::disk::DiskManager for WalRuleDisk {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, page: PageId) -> io::Result<Vec<u8>> {
            self.inner.read_page(page)
        }
        fn write_page(&self, page: PageId, data: &[u8]) -> io::Result<()> {
            if let Some(&lsn) = self.expected.lock().get(&page) {
                let flushed = self.wal.flushed();
                assert!(
                    flushed > lsn,
                    "WAL rule violated: page {page:?} (lsn {lsn}) written \
                     with durable horizon at {flushed}"
                );
            }
            self.inner.write_page(page, data)
        }
        fn sync(&self) -> io::Result<()> {
            self.inner.sync()
        }
    }

    /// The WAL rule under concurrent steal: whenever a dirty page reaches
    /// disk, the log covering its latest update is durable first. With one
    /// frame per shard every mutation triggers a steal, so the race between
    /// `append` (WAL tail grows) and eviction (horizon must catch up) is
    /// exercised on every schedule — including the `page_lsn == flushed`
    /// boundary the pre-lint steal path got wrong.
    #[test]
    fn steal_forces_wal_before_write_back() {
        loom::model(|| {
            let wal = Arc::new(Wal::new());
            let disk = Arc::new(WalRuleDisk {
                inner: MemDisk::new(256),
                wal: Arc::clone(&wal),
                expected: Mutex::new(HashMap::new()),
            });
            let pool = Arc::new(BufferPool::new(disk.clone(), wal.clone(), 1));
            let threads: Vec<_> = (0..2u16)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    let wal = Arc::clone(&wal);
                    let disk = Arc::clone(&disk);
                    thread::spawn(move || {
                        for i in 0..3u64 {
                            let page = PageId(u32::from(t) * 8 + i as u32);
                            let lsn = wal.append(&LogRecord::Begin {
                                txn: TxnId::new(ClientId(t), i),
                            });
                            // Record the expectation before dirtying, so
                            // the disk-side assert can never run early.
                            disk.expected.lock().insert(page, lsn);
                            pool.with_page_mut(page, lsn, |p| {
                                p.insert(b"steal me").unwrap();
                            })
                            .unwrap();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            // Schedule-independent tail check: the interleaved appends and
            // forces left a log that replays cleanly.
            wal.flush();
            assert_eq!(wal.replay().len(), 6, "all appends intact");
        });
    }
}
