//! Deterministic storage fault injection for the chaos harness.
//!
//! [`FaultyDisk`] wraps any [`DiskManager`] and injects transient IO
//! errors from a seed-derived plan, so every run of a seeded schedule
//! sees the same faults at the same operation indices. It also models a
//! crash's "unplugged disk": [`FaultyDisk::freeze`] makes all later
//! writes vanish (reads still work, so an engine limping toward the
//! simulated crash point does not wedge), and [`FaultyDisk::snapshot`]
//! clones the surviving page images into a fresh [`MemDisk`] that a
//! recovery pass can be driven over.

use crate::disk::{DiskManager, MemDisk};
use crate::sync::Mutex;
use crate::wal::WalHold;
use fgs_core::PageId;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

/// A seed-derived plan of storage faults.
///
/// Probabilities are per ten thousand operations; `max_faults` bounds
/// the total number of injected errors so retry loops above the store
/// always converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the fault stream (independent of other chaos streams).
    pub seed: u64,
    /// Chance (per 10 000 write/sync ops) of an injected write error.
    pub write_fault_per_10k: u32,
    /// Chance (per 10 000 read ops) of an injected read error.
    pub read_fault_per_10k: u32,
    /// Upper bound on injected faults across the disk's lifetime.
    pub max_faults: u64,
    /// Where to park the staged WAL pipeline when the harness draws the
    /// crash line (see [`WalHold`]): the crash image is captured with
    /// the log tail frozen at this stage boundary. [`WalHold::None`]
    /// crashes with whatever the force cycles happened to have drained.
    pub wal_hold: WalHold,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            write_fault_per_10k: 0,
            read_fault_per_10k: 0,
            max_faults: 0,
            wal_hold: WalHold::None,
        }
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct FaultState {
    rng: u64,
    plan: FaultPlan,
    injected: u64,
    frozen: bool,
    /// Mirror of every page successfully written while unfrozen; the
    /// source of [`FaultyDisk::snapshot`] (trait objects cannot
    /// enumerate their pages).
    shadow: BTreeMap<PageId, Vec<u8>>,
}

impl FaultState {
    fn roll(&mut self, per_10k: u32) -> bool {
        if per_10k == 0 || self.injected >= self.plan.max_faults {
            return false;
        }
        if splitmix64(&mut self.rng) % 10_000 < u64::from(per_10k) {
            self.injected += 1;
            return true;
        }
        false
    }
}

fn injected_error() -> io::Error {
    io::Error::other("injected disk fault")
}

/// A fault-injecting wrapper around a real disk. See the module docs.
pub struct FaultyDisk {
    inner: Arc<dyn DiskManager>,
    state: Mutex<FaultState>,
}

impl FaultyDisk {
    /// Wraps `inner` with no faults armed (arm a plan once initial load
    /// is done — injecting into `init_objects` would just kill startup).
    pub fn new(inner: Arc<dyn DiskManager>) -> Arc<FaultyDisk> {
        Arc::new(FaultyDisk {
            inner,
            state: Mutex::new(FaultState {
                rng: 0,
                plan: FaultPlan::none(),
                injected: 0,
                frozen: false,
                shadow: BTreeMap::new(),
            }),
        })
    }

    /// Starts injecting faults according to `plan`.
    pub fn arm(&self, plan: FaultPlan) {
        let mut g = self.state.lock();
        let mut seed = plan.seed;
        g.rng = splitmix64(&mut seed);
        g.plan = plan;
        g.injected = 0;
    }

    /// Stops injecting faults (the crash/recovery phases run clean).
    pub fn disarm(&self) {
        self.state.lock().plan = FaultPlan::none();
    }

    /// Simulates the disk side of a crash: every later write or sync is
    /// silently discarded. Reads keep working so the doomed engine can
    /// reach its teardown without wedging.
    pub fn freeze(&self) {
        self.state.lock().frozen = true;
    }

    /// Number of faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.state.lock().injected
    }

    /// The surviving page images, as a fresh in-memory disk a recovery
    /// pass can run against.
    pub fn snapshot(&self) -> Arc<MemDisk> {
        let g = self.state.lock();
        let disk = MemDisk::new(self.inner.page_size());
        for (&page, data) in &g.shadow {
            disk.write_page(page, data).expect("snapshot page fits");
        }
        Arc::new(disk)
    }
}

impl DiskManager for FaultyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: PageId) -> io::Result<Vec<u8>> {
        {
            let mut g = self.state.lock();
            let rate = g.plan.read_fault_per_10k;
            if !g.frozen && g.roll(rate) {
                return Err(injected_error());
            }
        }
        self.inner.read_page(page)
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        let mut g = self.state.lock();
        if g.frozen {
            return Ok(()); // the unplugged disk eats the write
        }
        let rate = g.plan.write_fault_per_10k;
        if g.roll(rate) {
            return Err(injected_error());
        }
        self.inner.write_page(page, data)?;
        g.shadow.insert(page, data.to_vec());
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        {
            let mut g = self.state.lock();
            if g.frozen {
                return Ok(());
            }
            let rate = g.plan.write_fault_per_10k;
            if g.roll(rate) {
                return Err(injected_error());
            }
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_deterministic_and_bounded() {
        let plan = FaultPlan {
            seed: 42,
            write_fault_per_10k: 5_000,
            read_fault_per_10k: 0,
            max_faults: 3,
            wal_hold: WalHold::None,
        };
        let run = || {
            let d = FaultyDisk::new(Arc::new(MemDisk::new(64)));
            d.arm(plan);
            (0..64)
                .map(|i| d.write_page(PageId(i), &[i as u8; 64]).is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan, same faults");
        assert_eq!(a.iter().filter(|&&f| f).count(), 3, "max_faults respected");
    }

    #[test]
    fn freeze_discards_writes_and_snapshot_survives() {
        let d = FaultyDisk::new(Arc::new(MemDisk::new(64)));
        d.write_page(PageId(1), &[0xAA; 64]).unwrap();
        d.freeze();
        d.write_page(PageId(1), &[0xBB; 64]).unwrap(); // eaten
        d.write_page(PageId(2), &[0xCC; 64]).unwrap(); // eaten
        d.sync().unwrap();
        let snap = d.snapshot();
        assert_eq!(snap.read_page(PageId(1)).unwrap(), vec![0xAA; 64]);
        assert_eq!(snap.read_page(PageId(2)).unwrap(), vec![0u8; 64]);
        // Reads through the frozen disk still work.
        assert_eq!(d.read_page(PageId(1)).unwrap(), vec![0xAA; 64]);
    }

    #[test]
    fn disarm_stops_injection() {
        let d = FaultyDisk::new(Arc::new(MemDisk::new(64)));
        d.arm(FaultPlan {
            seed: 7,
            write_fault_per_10k: 10_000,
            read_fault_per_10k: 10_000,
            max_faults: u64::MAX,
            wal_hold: WalHold::None,
        });
        assert!(d.write_page(PageId(0), &[0; 64]).is_err());
        d.disarm();
        d.write_page(PageId(0), &[0; 64]).unwrap();
        d.read_page(PageId(0)).unwrap();
    }
}
