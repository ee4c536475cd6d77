//! Protocol-level integration tests: one server engine and several client
//! engines wired through an in-memory FIFO network, driven to quiescence.
//! These exercise the logical behaviour of all five granularity schemes;
//! timing is exercised by the simulator crate.

mod common;

use common::{oid, Event, World};
use fgs_core::client::TxnOutcome;
use fgs_core::{ClientId, PageId, Protocol, TxnId};

// ---------------------------------------------------------------------
// PS: the basic page server
// ---------------------------------------------------------------------

#[test]
fn ps_read_miss_then_hits_on_same_page() {
    let mut w = World::new(Protocol::Ps, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), false);
    assert_eq!(
        w.take_events(0),
        vec![Event::Ready {
            oid: oid(1, 0),
            write: false,
            hit: false
        }]
    );
    let first_msgs = w.msgs_to_server;
    // Any object on the cached page is now a hit.
    w.access(0, oid(1, 5), false);
    assert_eq!(
        w.take_events(0),
        vec![Event::Ready {
            oid: oid(1, 5),
            write: false,
            hit: true
        }]
    );
    assert_eq!(w.msgs_to_server, first_msgs, "cache hit sends nothing");
    assert_eq!(w.server.page_copies(PageId(1)), vec![ClientId(0)]);
}

#[test]
fn ps_intertransaction_caching_survives_commit() {
    let mut w = World::new(Protocol::Ps, 1, 16);
    w.begin(0);
    w.access(0, oid(1, 0), false);
    w.commit(0);
    assert_eq!(w.ended(0), Some(TxnOutcome::Committed));
    w.take_events(0);
    // New transaction reads the retained copy without a message.
    let before = w.msgs_to_server;
    w.begin(0);
    w.access(0, oid(1, 3), false);
    assert_eq!(
        w.take_events(0)[0],
        Event::Ready {
            oid: oid(1, 3),
            write: false,
            hit: true
        }
    );
    // Read-only all-hit transactions commit locally.
    w.commit(0);
    assert_eq!(w.msgs_to_server, before, "no server interaction at all");
    assert_eq!(w.ended(0), Some(TxnOutcome::Committed));
}

#[test]
fn ps_write_lock_blocks_remote_read_until_commit() {
    let mut w = World::new(Protocol::Ps, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    assert_eq!(w.ready_count(0), 1);
    assert_eq!(
        w.server.page_writer(PageId(1)),
        Some(TxnId::new(ClientId(0), 1))
    );

    w.begin(1);
    w.access(1, oid(1, 1), false);
    assert_eq!(w.ready_count(1), 0, "read blocks behind page write lock");
    assert_eq!(w.server.blocked_requests(), 1);

    w.commit(0);
    assert_eq!(w.ready_count(1), 1, "read granted after commit");
    assert_eq!(w.server.page_writer(PageId(1)), None);
}

#[test]
fn ps_callback_purges_idle_remote_copy() {
    let mut w = World::new(Protocol::Ps, 2, 16);
    // Client 1 caches page 1, then goes idle.
    w.quick_write(1, oid(1, 0));
    assert_eq!(w.server.page_copies(PageId(1)).len(), 1);
    // Client 0 writes an object on page 1: client 1 must purge.
    w.begin(0);
    w.access(0, oid(1, 2), true);
    assert_eq!(w.ready_count(0), 1, "callback answered immediately");
    assert_eq!(w.server.page_copies(PageId(1)), vec![ClientId(0)]);
    assert_eq!(w.clients[1].cached_items(), 0, "page purged at client 1");
    assert_eq!(w.server.stats().callbacks_sent, 1);
    w.commit(0);
}

#[test]
fn ps_callback_defers_behind_active_reader() {
    let mut w = World::new(Protocol::Ps, 2, 16);
    // Client 1 is actively reading page 1.
    w.begin(1);
    w.access(1, oid(1, 0), false);
    assert_eq!(w.ready_count(1), 1);
    // Client 0 wants to write page 1: callback is answered Busy.
    w.begin(0);
    w.access(0, oid(1, 2), true);
    assert_eq!(w.ready_count(0), 0, "writer waits for reader's read lock");
    assert_eq!(w.server.stats().busy_replies, 1);
    // Reader commits; deferred callback fires; writer proceeds.
    w.commit(1);
    assert_eq!(w.ready_count(0), 1);
    assert_eq!(w.ended(1), Some(TxnOutcome::Committed));
    w.commit(0);
    assert_eq!(w.ended(0), Some(TxnOutcome::Committed));
}

#[test]
fn ps_false_sharing_blocks_disjoint_objects() {
    let mut w = World::new(Protocol::Ps, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    w.begin(1);
    w.access(1, oid(1, 7), true); // different object, same page
    assert_eq!(w.ready_count(1), 0, "PS suffers false sharing");
    w.commit(0);
    assert_eq!(w.ready_count(1), 1);
    w.commit(1);
}

#[test]
fn ps_deadlock_aborts_youngest() {
    let mut w = World::new(Protocol::Ps, 2, 16);
    // T0 (older) read-locks page 1 locally; T1 read-locks page 2.
    w.begin(0);
    w.access(0, oid(1, 0), false);
    w.begin(1);
    w.access(1, oid(2, 0), false);
    // T0 writes page 2 (callback to client 1 → Busy).
    w.access(0, oid(2, 1), true);
    assert_eq!(w.ready_count(0), 1, "still just the first read");
    // T1 writes page 1 (callback to client 0 → Busy) → cycle.
    w.access(1, oid(1, 1), true);
    let aborted: Vec<_> = (0..2)
        .filter(|&c| w.ended(c) == Some(TxnOutcome::Deadlocked))
        .collect();
    assert_eq!(aborted.len(), 1, "exactly one victim");
    assert_eq!(w.server.stats().deadlocks, 1);
    // The survivor's write completes once the victim's locks cleared.
    let survivor = 1 - aborted[0];
    assert_eq!(w.ready_count(survivor), 2);
    w.commit(survivor);
    assert_eq!(w.ended(survivor), Some(TxnOutcome::Committed));
    // The victim can rerun the same work.
    w.take_events(aborted[0]);
    w.quick_write(aborted[0], oid(3, 0));
}

// ---------------------------------------------------------------------
// OS: the basic object server
// ---------------------------------------------------------------------

#[test]
fn os_transfers_single_objects() {
    let mut w = World::new(Protocol::Os, 1, 16);
    w.begin(0);
    w.access(0, oid(1, 0), false);
    assert_eq!(w.ready_count(0), 1);
    // A different object on the same page is a miss for OS.
    let before = w.msgs_to_server;
    w.access(0, oid(1, 1), false);
    assert!(w.msgs_to_server > before, "OS fetches per object");
    assert_eq!(w.clients[0].cached_items(), 2);
    assert_eq!(w.server.object_copies(oid(1, 0)), vec![ClientId(0)]);
    w.commit(0);
}

#[test]
fn os_disjoint_objects_do_not_conflict() {
    let mut w = World::new(Protocol::Os, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    w.begin(1);
    w.access(1, oid(1, 1), true);
    assert_eq!(w.ready_count(0), 1);
    assert_eq!(w.ready_count(1), 1, "no false sharing in OS");
    w.commit(0);
    w.commit(1);
    assert_eq!(w.ended(0), Some(TxnOutcome::Committed));
    assert_eq!(w.ended(1), Some(TxnOutcome::Committed));
}

#[test]
fn os_object_callback_purges_only_that_object() {
    let mut w = World::new(Protocol::Os, 2, 16);
    w.begin(1);
    w.access(1, oid(1, 0), false);
    w.access(1, oid(1, 1), false);
    w.commit(1);
    w.take_events(1);
    assert_eq!(w.clients[1].cached_items(), 2);
    // Client 0 writes object (1,0): only that object purged at client 1.
    w.quick_write(0, oid(1, 0));
    assert_eq!(w.clients[1].cached_items(), 1);
    assert_eq!(w.server.object_copies(oid(1, 1)), vec![ClientId(1)]);
    assert!(w.server.object_copies(oid(1, 0)).contains(&ClientId(0)));
}

#[test]
fn os_write_write_same_object_blocks() {
    let mut w = World::new(Protocol::Os, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 3), true);
    w.begin(1);
    w.access(1, oid(1, 3), true);
    assert_eq!(w.ready_count(1), 0);
    w.commit(0);
    assert_eq!(w.ready_count(1), 1);
    w.commit(1);
}

// ---------------------------------------------------------------------
// PS-OO: object locking with object callbacks over page transfer
// ---------------------------------------------------------------------

#[test]
fn psoo_page_transfer_with_object_locks() {
    let mut w = World::new(Protocol::PsOo, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    w.begin(1);
    // Different slot, same page: no conflict, and the page is shipped with
    // slot 0 marked unavailable.
    w.access(1, oid(1, 1), true);
    assert_eq!(w.ready_count(0), 1);
    assert_eq!(w.ready_count(1), 1, "object locks avoid false sharing");
    // Client 1 cannot read the write-locked slot 0 from its cached page.
    w.access(1, oid(1, 0), false);
    assert_eq!(w.ready_count(1), 1, "read of locked object blocks");
    w.commit(0);
    assert_eq!(w.ready_count(1), 2, "unblocked by commit; page re-shipped");
    w.commit(1);
}

#[test]
fn psoo_callback_marks_object_but_keeps_page() {
    let mut w = World::new(Protocol::PsOo, 2, 16);
    // Client 1 caches page 1 (all 8 objects registered).
    w.begin(1);
    w.access(1, oid(1, 5), false);
    w.commit(1);
    w.take_events(1);
    // Client 0 writes slot 0: object callback to client 1.
    w.quick_write(0, oid(1, 0));
    assert_eq!(w.clients[1].cached_items(), 1, "page stays cached");
    // Client 1 still hits on slot 5 but must refetch slot 0.
    let before = w.msgs_to_server;
    w.begin(1);
    w.access(1, oid(1, 5), false);
    assert_eq!(w.msgs_to_server, before, "unaffected object still a hit");
    w.access(1, oid(1, 0), false);
    assert!(w.msgs_to_server > before, "marked object refetches");
    assert_eq!(w.ready_count(1), 2);
    w.commit(1);
}

/// A callback whose requester vanished is cancelled, but its reply still
/// arrives. If the page was shipped to the replying client again in the
/// meantime (the object no longer provisionally locked, so available and
/// registered), the late `ObjectPurged` must not deregister that fresh
/// copy: the next writer of the object has to call it back.
#[test]
fn psoo_late_purge_for_a_cancelled_callback_keeps_the_reshipped_copy() {
    use fgs_core::server::{ServerAction, ServerEngine};
    use fgs_core::{CallbackReply, DataGrant, Request, ServerMsg};
    let (a, b, c) = (ClientId(0), ClientId(1), ClientId(2));
    let (hot, other) = (oid(0, 3), oid(0, 2));
    let mut s = ServerEngine::new(Protocol::PsOo, 4);
    let read = |s: &mut ServerEngine, txn, oid| {
        let out = s.handle(c, Request::Read { txn, oid });
        s.handle(
            c,
            Request::Commit {
                txn,
                writes: vec![],
            },
        );
        out.actions
    };
    let callback_to_c = |actions: &[ServerAction]| {
        actions.iter().find_map(|act| match act {
            ServerAction::Send {
                to,
                msg: ServerMsg::Callback { callback, .. },
            } if *to == c => Some(*callback),
            _ => None,
        })
    };
    // C caches the page; A's write of `hot` calls C back; A vanishes.
    read(&mut s, TxnId::new(c, 1), hot);
    let write = |txn| Request::Write {
        txn,
        oid: hot,
        need_copy: true,
    };
    let out = s.handle(a, write(TxnId::new(a, 1)));
    let cancelled = callback_to_c(&out.actions).expect("C holds a copy");
    s.client_gone(a);
    // C is shipped the page again, `hot` included...
    let shipped = read(&mut s, TxnId::new(c, 2), other);
    assert!(shipped.iter().any(|act| matches!(
        act,
        ServerAction::Send { msg: ServerMsg::ReadGranted { data: DataGrant::Page { unavailable, .. }, .. }, .. }
            if unavailable.is_empty()
    )));
    // ...and only then does its reply to the cancelled callback land.
    s.handle(
        c,
        Request::CallbackReply {
            callback: cancelled,
            page: hot.page,
            reply: CallbackReply::ObjectPurged { slot: hot.slot },
        },
    );
    let out = s.handle(b, write(TxnId::new(b, 1)));
    assert!(
        callback_to_c(&out.actions).is_some(),
        "C's re-shipped copy of the object must be called back: {:?}",
        out.actions
    );
    s.check_invariants();
}

#[test]
fn psoo_object_callbacks_fan_out_per_object() {
    let mut w = World::new(Protocol::PsOo, 2, 16);
    // Client 1 caches the page, then idles.
    w.begin(1);
    w.access(1, oid(1, 0), false);
    w.commit(1);
    w.take_events(1);
    // Client 0 updates three objects: three separate callbacks (the
    // PS-OO inefficiency the paper describes).
    w.begin(0);
    w.access(0, oid(1, 1), true);
    w.access(0, oid(1, 2), true);
    w.access(0, oid(1, 3), true);
    w.commit(0);
    assert_eq!(w.server.stats().callbacks_sent, 3);
}

// ---------------------------------------------------------------------
// PS-OA: object locking with adaptive callbacks
// ---------------------------------------------------------------------

#[test]
fn psoa_callback_purges_page_when_remote_idle() {
    let mut w = World::new(Protocol::PsOa, 2, 16);
    w.begin(1);
    w.access(1, oid(1, 0), false);
    w.commit(1);
    w.take_events(1);
    // Client 0 updates three objects: the FIRST write purges the whole
    // page at idle client 1; subsequent writes need no callbacks at all.
    w.begin(0);
    w.access(0, oid(1, 1), true);
    w.access(0, oid(1, 2), true);
    w.access(0, oid(1, 3), true);
    w.commit(0);
    assert_eq!(
        w.server.stats().callbacks_sent,
        1,
        "adaptive callback saves messages vs PS-OO"
    );
    assert_eq!(w.clients[1].cached_items(), 0);
}

#[test]
fn psoa_callback_marks_object_when_remote_active() {
    let mut w = World::new(Protocol::PsOa, 2, 16);
    // Client 1 actively reads slot 5 of page 1.
    w.begin(1);
    w.access(1, oid(1, 5), false);
    // Client 0 writes slot 0: page is in use at client 1, so only the
    // object is marked; client 1 keeps reading its page.
    w.begin(0);
    w.access(0, oid(1, 0), true);
    assert_eq!(w.ready_count(0), 1, "object grant without waiting");
    assert_eq!(w.clients[1].cached_items(), 1);
    w.access(1, oid(1, 6), false);
    assert_eq!(w.ready_count(1), 2, "remote reader unaffected");
    w.commit(0);
    w.commit(1);
}

#[test]
fn psoa_write_locks_are_object_level() {
    let mut w = World::new(Protocol::PsOa, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    // Every write needs its own lock request even from the same client.
    let before = w.msgs_to_server;
    w.access(0, oid(1, 1), true);
    assert!(w.msgs_to_server > before, "second object needs a new lock");
    assert_eq!(w.server.stats().obj_grants, 2);
    assert_eq!(w.server.stats().page_grants, 0);
    w.commit(0);
}

// ---------------------------------------------------------------------
// PS-AA: adaptive locking with adaptive callbacks
// ---------------------------------------------------------------------

#[test]
fn psaa_sole_writer_gets_page_lock() {
    let mut w = World::new(Protocol::PsAa, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    assert_eq!(w.server.stats().page_grants, 1);
    // Subsequent writes on the page are free (local, under the page lock).
    let before = w.msgs_to_server;
    w.access(0, oid(1, 1), true);
    w.access(0, oid(1, 2), true);
    assert_eq!(w.msgs_to_server, before, "page lock covers the whole page");
    w.commit(0);
}

#[test]
fn psaa_idle_remote_copies_purged_then_page_lock() {
    let mut w = World::new(Protocol::PsAa, 2, 16);
    w.quick_write(1, oid(1, 0)); // client 1 caches page 1, idle
    w.begin(0);
    w.access(0, oid(1, 1), true);
    assert_eq!(w.server.stats().callbacks_sent, 1);
    assert_eq!(
        w.server.stats().page_grants,
        2,
        "client 1's page lock, then re-escalated page lock for client 0"
    );
    assert_eq!(w.clients[1].cached_items(), 0);
    w.commit(0);
}

#[test]
fn psaa_active_remote_forces_object_lock() {
    let mut w = World::new(Protocol::PsAa, 2, 16);
    // Client 1 actively reads slot 5.
    w.begin(1);
    w.access(1, oid(1, 5), false);
    // Client 0 writes slot 0: client 1 keeps the page → object grant.
    w.begin(0);
    w.access(0, oid(1, 0), true);
    assert_eq!(w.ready_count(0), 1);
    assert_eq!(w.server.stats().obj_grants, 1);
    assert_eq!(w.server.stats().page_grants, 0);
    // A second write by client 0 on the same page needs another request.
    let before = w.msgs_to_server;
    w.access(0, oid(1, 1), true);
    assert!(w.msgs_to_server > before);
    w.commit(0);
    w.commit(1);
}

#[test]
fn psaa_read_deescalates_remote_page_lock() {
    let mut w = World::new(Protocol::PsAa, 2, 16);
    // Client 0 takes a page write lock and updates slots 0 and 1.
    w.begin(0);
    w.access(0, oid(1, 0), true);
    w.access(0, oid(1, 1), true);
    assert_eq!(w.server.stats().page_grants, 1);
    // Client 1 reads slot 5: the server asks client 0 to de-escalate.
    w.begin(1);
    w.access(1, oid(1, 5), false);
    assert_eq!(w.server.stats().deescalations, 1);
    assert_eq!(w.ready_count(1), 1, "read proceeds after de-escalation");
    // Client 0 now holds object locks on 0 and 1 only.
    assert_eq!(w.server.page_writer(PageId(1)), None);
    assert_eq!(
        w.server.object_writer(oid(1, 0)),
        Some(TxnId::new(ClientId(0), 1))
    );
    assert_eq!(
        w.server.object_writer(oid(1, 1)),
        Some(TxnId::new(ClientId(0), 1))
    );
    assert_eq!(w.server.object_writer(oid(1, 2)), None);
    // Client 0's next write on the page must request an object lock.
    let before = w.msgs_to_server;
    w.access(0, oid(1, 2), true);
    assert!(w.msgs_to_server > before, "page lock is gone");
    assert_eq!(w.ready_count(0), 3);
    w.commit(0);
    w.commit(1);
}

#[test]
fn psaa_read_blocks_on_deescalated_object_conflict() {
    let mut w = World::new(Protocol::PsAa, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true); // page lock, slot 0 dirty
    w.begin(1);
    w.access(1, oid(1, 0), false); // wants the updated object itself
    assert_eq!(w.server.stats().deescalations, 1);
    assert_eq!(w.ready_count(1), 0, "object-level conflict remains");
    w.commit(0);
    assert_eq!(w.ready_count(1), 1);
    w.commit(1);
}

#[test]
fn psaa_reescalation_after_contention_passes() {
    let mut w = World::new(Protocol::PsAa, 3, 16);
    // Phase 1: contention → object grant for client 0.
    w.begin(1);
    w.access(1, oid(1, 5), false);
    w.begin(0);
    w.access(0, oid(1, 0), true);
    assert_eq!(w.server.stats().obj_grants, 1);
    w.commit(0);
    w.commit(1);
    w.take_events(0);
    w.take_events(1);
    // Phase 2: client 1 idle now; client 0 writes again → callbacks purge
    // everywhere → page lock (re-escalation).
    w.begin(0);
    w.access(0, oid(1, 1), true);
    let grants_before = w.server.stats().page_grants;
    assert!(grants_before >= 1, "re-escalated to a page lock");
    w.commit(0);
}

#[test]
fn psaa_busy_deferral_and_deadlock() {
    let mut w = World::new(Protocol::PsAa, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), false);
    w.begin(1);
    w.access(1, oid(2, 0), false);
    // Writers cross: T0 wants an object T1 read-locked and vice versa.
    w.access(0, oid(2, 0), true);
    w.access(1, oid(1, 0), true);
    let aborted: Vec<_> = (0..2)
        .filter(|&c| w.ended(c) == Some(TxnOutcome::Deadlocked))
        .collect();
    assert_eq!(aborted.len(), 1);
    let survivor = 1 - aborted[0];
    assert_eq!(w.ready_count(survivor), 2);
    w.commit(survivor);
    assert_eq!(w.ended(survivor), Some(TxnOutcome::Committed));
}

// ---------------------------------------------------------------------
// Cross-protocol behaviours
// ---------------------------------------------------------------------

#[test]
fn merge_preserves_local_updates_on_refetch() {
    for protocol in [Protocol::PsOo, Protocol::PsOa, Protocol::PsAa] {
        let mut w = World::new(protocol, 2, 16);
        // Client 0 writes slot 0; client 1 writes slot 1 (both hold the
        // page with the other's slot unavailable).
        w.begin(0);
        w.access(0, oid(1, 0), true);
        w.begin(1);
        w.access(1, oid(1, 1), true);
        assert_eq!(w.ready_count(1), 1, "{protocol}: disjoint writes proceed");
        // Client 0 commits; client 1 then reads slot 0, forcing a refetch
        // that must merge around its own dirty slot 1.
        w.commit(0);
        w.access(1, oid(1, 0), false);
        assert_eq!(w.ready_count(1), 2, "{protocol}: refetch after commit");
        w.commit(1);
        assert_eq!(w.ended(1), Some(TxnOutcome::Committed), "{protocol}");
    }
}

#[test]
fn capacity_eviction_and_not_cached_callbacks() {
    let mut w = World::new(Protocol::Ps, 2, 2); // tiny 2-page cache
    w.begin(1);
    for p in 1..=4 {
        w.access(1, oid(p, 0), false);
    }
    w.commit(1);
    w.take_events(1);
    assert_eq!(w.clients[1].cached_items(), 2, "LRU keeps last two pages");
    // Server still lists client 1 for page 1 (evictions are silent)…
    assert!(w.server.page_copies(PageId(1)).contains(&ClientId(1)));
    // …until a callback is answered NotCached.
    w.quick_write(0, oid(1, 3));
    assert!(!w.server.page_copies(PageId(1)).contains(&ClientId(1)));
}

#[test]
fn voluntary_abort_discards_updates_and_releases_locks() {
    for protocol in Protocol::ALL {
        let mut w = World::new(protocol, 2, 16);
        w.begin(0);
        w.access(0, oid(1, 0), true);
        let out = w.clients[0].abort();
        w.client_actions(0, out.actions);
        w.run();
        assert_eq!(w.ended(0), Some(TxnOutcome::Aborted), "{protocol}");
        assert_eq!(w.server.live_txns(), 0, "{protocol}: state cleaned");
        // The lock is gone: another client can write immediately.
        w.quick_write(1, oid(1, 0));
    }
}

#[test]
fn read_only_transactions_never_block_each_other() {
    for protocol in Protocol::ALL {
        let mut w = World::new(protocol, 3, 16);
        for c in 0..3 {
            w.begin(c);
            w.access(c, oid(1, 0), false);
            assert_eq!(w.ready_count(c), 1, "{protocol}: shared reads");
        }
        for c in 0..3 {
            w.commit(c);
            assert_eq!(w.ended(c), Some(TxnOutcome::Committed), "{protocol}");
        }
    }
}

#[test]
fn fifo_fairness_no_starvation() {
    let mut w = World::new(Protocol::Ps, 3, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true); // holds page lock
    w.begin(1);
    w.access(1, oid(1, 1), true); // queued first
    w.begin(2);
    w.access(2, oid(1, 2), false); // queued second, conflicts with 1's write
    assert_eq!(w.ready_count(1), 0);
    assert_eq!(w.ready_count(2), 0);
    w.commit(0);
    // Client 1's write (queued first) is granted; client 2 still waits.
    assert_eq!(w.ready_count(1), 1, "FIFO grant order");
    assert_eq!(w.ready_count(2), 0);
    w.commit(1);
    assert_eq!(w.ready_count(2), 1);
    w.commit(2);
}

#[test]
fn stats_track_hits_and_misses() {
    let mut w = World::new(Protocol::Ps, 1, 16);
    w.begin(0);
    w.access(0, oid(1, 0), false);
    w.access(0, oid(1, 1), false);
    w.commit(0);
    let stats = w.clients[0].stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
}

// ---------------------------------------------------------------------
// PS-WT: the write-token extension (§6.1 / footnote 7 of the paper)
// ---------------------------------------------------------------------

#[test]
fn pswt_concurrent_page_updaters_serialize_on_token() {
    let mut w = World::new(Protocol::PsWt, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true); // c0 takes the token, updates slot 0
    assert_eq!(w.ready_count(0), 1);
    w.begin(1);
    w.access(1, oid(1, 1), true); // disjoint object, same page
    assert_eq!(
        w.ready_count(1),
        0,
        "the token blocks a second page updater while c0 has uncommitted \
         updates — no merging ever needed"
    );
    w.commit(0);
    assert_eq!(w.ready_count(1), 1, "token transfers once c0 commits");
    assert_eq!(w.server.stats().token_transfers, 1);
    w.commit(1);
    assert_eq!(w.ended(1), Some(TxnOutcome::Committed));
}

#[test]
fn pswt_token_transfer_is_free_of_waiting_when_owner_idle() {
    let mut w = World::new(Protocol::PsWt, 2, 16);
    w.quick_write(0, oid(1, 0)); // c0 owns the token, commits, idles
    w.begin(1);
    w.access(1, oid(1, 1), true);
    assert_eq!(w.ready_count(1), 1, "idle owner: transfer without blocking");
    assert_eq!(
        w.server.stats().token_transfers,
        1,
        "the transfer ships the page along with the grant"
    );
    w.commit(1);
}

#[test]
fn pswt_readers_share_pages_under_the_token() {
    let mut w = World::new(Protocol::PsWt, 2, 16);
    w.begin(0);
    w.access(0, oid(1, 0), true); // token + object lock on slot 0
    w.begin(1);
    w.access(1, oid(1, 5), false); // unrelated object: reads unaffected
    assert_eq!(w.ready_count(1), 1, "tokens only serialize updaters");
    w.access(1, oid(1, 0), false); // the locked object itself blocks
    assert_eq!(w.ready_count(1), 1);
    w.commit(0);
    assert_eq!(w.ready_count(1), 2);
    w.commit(1);
}

#[test]
fn pswt_same_owner_keeps_token_without_reshipping() {
    let mut w = World::new(Protocol::PsWt, 2, 16);
    w.quick_write(0, oid(1, 0));
    w.quick_write(0, oid(1, 1));
    w.quick_write(0, oid(1, 2));
    assert_eq!(
        w.server.stats().token_transfers,
        0,
        "a stable owner never bounces the page"
    );
}

#[test]
fn pswt_object_callbacks_like_psoo() {
    let mut w = World::new(Protocol::PsWt, 2, 16);
    // c1 caches the page, then idles.
    w.begin(1);
    w.access(1, oid(1, 5), false);
    w.commit(1);
    w.take_events(1);
    // c0 updates one object: a single object callback, page stays at c1.
    w.quick_write(0, oid(1, 0));
    assert_eq!(w.server.stats().callbacks_sent, 1);
    assert_eq!(w.clients[1].cached_items(), 1, "page kept, object marked");
}

// ---------------------------------------------------------------------
// Server-initiated aborts (the embedding runtime's storage-error path)
// ---------------------------------------------------------------------

#[test]
fn server_initiated_abort_releases_locks() {
    use fgs_core::{AbortReason, Request, ServerAction, ServerEngine, ServerMsg};
    let mut server = ServerEngine::new(Protocol::Ps, 16);
    let txn = TxnId::new(ClientId(0), 1);
    let out = server.handle(
        ClientId(0),
        Request::Write {
            txn,
            oid: oid(1, 0),
            need_copy: true,
        },
    );
    assert_eq!(out.data_sends(), 1, "write grant ships the page");
    assert_eq!(out.control_sends(), 0);

    let out = server.abort_txn(txn, AbortReason::Server);
    assert!(
        out.actions.iter().any(|a| matches!(
            a,
            ServerAction::Send {
                msg: ServerMsg::Aborted {
                    reason: AbortReason::Server,
                    ..
                },
                ..
            }
        )),
        "client is told its transaction died"
    );
    assert_eq!(out.data_sends(), 0, "abort is pure control traffic");
    assert_eq!(server.live_txns(), 0, "locks and state released");
    assert_eq!(server.stats().server_aborts, 1);
    assert_eq!(server.stats().deadlocks, 0);
    server.check_invariants();

    // Aborting an unknown/finished transaction is a silent no-op.
    let out = server.abort_txn(txn, AbortReason::Server);
    assert!(out.actions.is_empty());
    assert_eq!(server.stats().server_aborts, 1);
}

#[test]
fn server_abort_wakes_blocked_waiter() {
    use fgs_core::{AbortReason, Request, ServerEngine};
    let mut server = ServerEngine::new(Protocol::Ps, 16);
    let t0 = TxnId::new(ClientId(0), 1);
    let t1 = TxnId::new(ClientId(1), 1);
    server.handle(
        ClientId(0),
        Request::Write {
            txn: t0,
            oid: oid(1, 0),
            need_copy: true,
        },
    );
    let blocked = server.handle(
        ClientId(1),
        Request::Write {
            txn: t1,
            oid: oid(1, 1),
            need_copy: true,
        },
    );
    assert!(blocked.actions.is_empty(), "t1 waits on t0's page lock");
    // Killing t0 must start handing the page to t1 in the same outcome
    // (under PS that begins with a callback to client 0's cached copy).
    let out = server.abort_txn(t0, AbortReason::Server);
    assert!(
        out.actions.len() >= 2,
        "t0's abort also advances t1's pending grant: {:?}",
        out.actions
    );
    server.check_invariants();
}

// ---------------------------------------------------------------------
// Disconnect cleanup (the chaos harness kills connections mid-protocol)
// ---------------------------------------------------------------------

/// A disconnected client's cached copy stops blocking writers: the
/// callback it can no longer answer completes as an implicit purge.
#[test]
fn disconnect_completes_outstanding_callbacks() {
    for protocol in Protocol::ALL {
        let mut w = World::new(protocol, 2, 16);
        // Client 0 reads under an open transaction: its reply to the
        // upcoming callback is Busy, so the op stays outstanding.
        w.begin(0);
        w.access(0, oid(1, 0), false);
        assert_eq!(w.ready_count(0), 1, "{protocol:?}");
        w.begin(1);
        w.access(1, oid(1, 0), true);
        assert_eq!(w.ready_count(1), 0, "{protocol:?}: writer must wait");

        w.disconnect(0);
        assert_eq!(
            w.ready_count(1),
            1,
            "{protocol:?}: disconnect must unblock the writer"
        );
        w.commit(1);
        assert_eq!(w.ended(1), Some(TxnOutcome::Committed), "{protocol:?}");
        assert_eq!(w.server.live_txns(), 0, "{protocol:?}");
        assert_eq!(w.server.callbacks_in_flight(), 0, "{protocol:?}");
        assert!(
            !w.server.page_copies(PageId(1)).contains(&ClientId(0))
                && !w.server.object_copies(oid(1, 0)).contains(&ClientId(0)),
            "{protocol:?}: gone client still registered as a copy holder"
        );
        assert_eq!(w.server.stats().disconnects, 1);
    }
}

/// A disconnected client's write locks are released and a blocked
/// reader of the same object proceeds.
#[test]
fn disconnect_releases_locks_and_wakes_waiters() {
    for protocol in Protocol::ALL {
        let mut w = World::new(protocol, 2, 16);
        w.begin(0);
        w.access(0, oid(2, 1), true);
        assert_eq!(w.ready_count(0), 1, "{protocol:?}");
        w.begin(1);
        w.access(1, oid(2, 1), false);
        assert_eq!(w.ready_count(1), 0, "{protocol:?}: reader must block");

        w.disconnect(0);
        assert_eq!(
            w.ready_count(1),
            1,
            "{protocol:?}: lock must be released on disconnect"
        );
        w.commit(1);
        assert_eq!(w.ended(1), Some(TxnOutcome::Committed), "{protocol:?}");
        // Idempotent: a second disconnect of the same client is a no-op.
        w.disconnect(0);
        w.server.check_invariants();
    }
}
