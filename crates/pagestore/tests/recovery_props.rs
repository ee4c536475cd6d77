//! Property tests for crash-recovery convergence: recovering twice from
//! the same crash image, and recovering a log prefix before the full
//! log, must both land in exactly the state a single recovery produces.
//! (Redo repeats history with after-images and undo applies
//! before-images, so recovery must be insensitive to the disk state it
//! starts from — these properties pin that down.)

use fgs_core::{ClientId, Oid, PageId, TxnId};
use fgs_pagestore::test_support::commit_durably;
use fgs_pagestore::{DiskManager, MemDisk, Store};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const DB_PAGES: u32 = 4;
const SLOTS: u16 = 4;
const PAGE: usize = 256;
const OVERFLOW_START: u32 = 100;
const OVERFLOW_PAGES: u32 = 8;
const POOL_PAGES: usize = 2; // tiny: evictions steal dirty pages to disk

#[derive(Debug, Clone)]
enum Op {
    /// A logged object update. Sizes are kept small enough to always fit
    /// in place: image-based redo has no persistent page LSN to gate on,
    /// so histories where fit depends on page fill are covered by the
    /// deterministic forwarding tests instead, not by random replay.
    Update {
        client: u16,
        page: u32,
        slot: u16,
        val: u8,
        len: u8,
    },
    Commit {
        client: u16,
    },
    Abort {
        client: u16,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // The vendored proptest's prop_oneof is homogeneous, so encode the
    // op choice in a tuple and map it.
    prop::collection::vec(
        (0u8..8, 0u16..3, 0u32..DB_PAGES, 0u16..SLOTS, any::<u8>()),
        1..50,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, client, page, slot, val)| match kind {
                0..=4 => Op::Update {
                    client,
                    page,
                    slot,
                    val,
                    len: 1 + val % 24,
                },
                5 | 6 => Op::Commit { client },
                _ => Op::Abort { client },
            })
            .collect()
    })
}

/// Runs a legal (write-locked) history over a fresh store, then
/// "crashes": returns the surviving disk and the crash log image.
fn run_program(program: &[Op], extra_tail: usize) -> (Arc<MemDisk>, Vec<u8>) {
    let disk = Arc::new(MemDisk::new(PAGE));
    let store = Store::new(disk.clone(), POOL_PAGES, OVERFLOW_START);
    store
        .init_objects(DB_PAGES, SLOTS, 16)
        .expect("initial load");

    let mut seq: HashMap<u16, u64> = HashMap::new();
    let mut active: HashMap<u16, TxnId> = HashMap::new();
    let mut dirty: HashMap<(u32, u16), TxnId> = HashMap::new();
    for op in program {
        match *op {
            Op::Update {
                client,
                page,
                slot,
                val,
                len,
            } => {
                let txn = *active.entry(client).or_insert_with(|| {
                    let s = seq.entry(client).or_insert(0);
                    *s += 1;
                    let t = TxnId::new(ClientId(client), *s);
                    store.begin(t);
                    t
                });
                // Respect object write locks: skip updates to an object
                // another live transaction has dirtied (the engine's lock
                // table would never produce such a history).
                match dirty.get(&(page, slot)) {
                    Some(&holder) if holder != txn => continue,
                    _ => {}
                }
                let data = vec![val; len as usize];
                store
                    .update_object(txn, Oid::new(PageId(page), slot), &data)
                    .expect("update applies");
                dirty.insert((page, slot), txn);
            }
            Op::Commit { client } => {
                if let Some(txn) = active.remove(&client) {
                    commit_durably(&store, txn);
                    dirty.retain(|_, t| *t != txn);
                }
            }
            Op::Abort { client } => {
                if let Some(txn) = active.remove(&client) {
                    store.abort(txn).expect("abort applies");
                    dirty.retain(|_, t| *t != txn);
                }
            }
        }
    }
    // Crash: the log survives to its durable horizon plus a torn tail;
    // the disk holds whatever the pool stole. No checkpoint.
    let log = store.wal().crash_bytes(extra_tail);
    drop(store);
    (disk, log)
}

fn all_pages() -> impl Iterator<Item = PageId> {
    (0..DB_PAGES)
        .chain(OVERFLOW_START..OVERFLOW_START + OVERFLOW_PAGES)
        .map(PageId)
}

fn copy_disk(src: &MemDisk) -> Arc<MemDisk> {
    let dst = MemDisk::new(PAGE);
    for page in all_pages() {
        let img = src.read_page(page).expect("mem disk read");
        if img.iter().any(|&b| b != 0) {
            dst.write_page(page, &img).expect("mem disk write");
        }
    }
    Arc::new(dst)
}

/// The logical object state after recovery (physical page layout may
/// differ between recovery paths; object contents may not).
fn object_state(store: &Store) -> Vec<Option<Vec<u8>>> {
    let mut out = Vec::new();
    for page in 0..DB_PAGES {
        for slot in 0..SLOTS {
            out.push(
                store
                    .read_object(Oid::new(PageId(page), slot))
                    .expect("read back"),
            );
        }
    }
    out
}

fn recover_on(disk: Arc<MemDisk>, log: &[u8]) -> (Store, Vec<TxnId>, Vec<TxnId>) {
    let (store, report) = Store::recover(
        disk as Arc<dyn DiskManager>,
        log.to_vec(),
        POOL_PAGES,
        OVERFLOW_START + OVERFLOW_PAGES,
    )
    .expect("recovery succeeds");
    (store, report.winners, report.losers)
}

proptest! {
    /// Recovering the same crash image twice (crash immediately after
    /// the first recovery) converges: same winners, same losers, same
    /// object state.
    #[test]
    fn recovery_is_idempotent(program in ops(), extra in 0usize..96) {
        let (disk, log) = run_program(&program, extra);
        let crash_disk = copy_disk(&disk);
        let (s1, w1, l1) = recover_on(crash_disk.clone(), &log);
        let state1 = object_state(&s1);
        drop(s1);
        // Second crash-recovery over the already-recovered disk.
        let (s2, w2, l2) = recover_on(crash_disk, &log);
        prop_assert_eq!(w1, w2);
        prop_assert_eq!(l1, l2);
        prop_assert_eq!(state1, object_state(&s2));
    }

    /// Recovering a log prefix (an earlier crash) and then the full log
    /// over the resulting disk lands in the same state as recovering
    /// the full log directly: redo repeats history image-by-image, so
    /// the intermediate disk state must not matter.
    #[test]
    fn prefix_then_full_replay_converges(
        program in ops(),
        extra in 0usize..96,
        cut in 0usize..4096,
    ) {
        let (disk, log) = run_program(&program, extra);
        let reference = {
            let (s, _, _) = recover_on(copy_disk(&disk), &log);
            object_state(&s)
        };
        // A prefix cut anywhere — including mid-record, which replay
        // must discard as a torn tail.
        let prefix = &log[..cut.min(log.len())];
        let staged_disk = copy_disk(&disk);
        let (s_prefix, _, _) = recover_on(staged_disk.clone(), prefix);
        drop(s_prefix);
        let (s_full, _, _) = recover_on(staged_disk, &log);
        prop_assert_eq!(reference, object_state(&s_full));
    }
}

/// Regression: a committed update that overflowed its page live (logged,
/// found no room, forwarded) must not derail redo — the bare Update
/// record applied nothing and replay has to skip it the same way.
#[test]
fn forwarded_commit_recovers() {
    let disk = Arc::new(MemDisk::new(PAGE));
    let store = Store::new(disk.clone(), 16, OVERFLOW_START);
    store.init_objects(DB_PAGES, SLOTS, 16).unwrap();
    let txn = TxnId::new(ClientId(1), 1);
    store.begin(txn);
    // The first big update fits in place; the second overflows and
    // forwards, leaving a logged-but-never-applied Update record.
    store
        .update_object(txn, Oid::new(PageId(0), 0), &[7u8; 150])
        .unwrap();
    store
        .update_object(txn, Oid::new(PageId(0), 1), &[8u8; 150])
        .unwrap();
    commit_durably(&store, txn);
    let log = store.wal().durable_bytes();
    drop(store);
    let (recovered, report) = Store::recover(
        disk as Arc<dyn DiskManager>,
        log,
        16,
        OVERFLOW_START + OVERFLOW_PAGES,
    )
    .unwrap();
    assert_eq!(report.winners, vec![txn]);
    assert_eq!(
        recovered
            .read_object(Oid::new(PageId(0), 0))
            .unwrap()
            .unwrap(),
        vec![7u8; 150]
    );
    assert_eq!(
        recovered
            .read_object(Oid::new(PageId(0), 1))
            .unwrap()
            .unwrap(),
        vec![8u8; 150]
    );
}
