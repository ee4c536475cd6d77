//! The client-side protocol engine.
//!
//! Like the server engine, [`ClientEngine`] is a pure state machine: the
//! embedding layer feeds it application accesses and server messages and
//! carries out the returned [`ClientAction`]s. One transaction is active
//! per client at a time, as the paper assumes; local lock management for
//! multiple local transactions is an embedding-layer concern.

use crate::client::cache::{full_mask, ObjectCache, PageCache};
use crate::cost::Cost;
use crate::ids::{ClientId, Oid, PageId, SlotId, TxnId};
use crate::msg::{
    CallbackId, CallbackReply, CallbackTarget, DataGrant, GrantLevel, Request, ServerMsg, WriteSet,
};
use crate::protocol::Protocol;
use std::collections::{BTreeMap, HashMap, HashSet};

/// An effect the embedding layer must carry out for a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Send a request to the server (FIFO channel required).
    Send(Request),
    /// The pending (or cache-hit) access may proceed: data is resident and
    /// the necessary permissions are held. The embedding layer performs the
    /// actual object read/write and charges processing cost.
    AccessReady {
        /// The accessing transaction.
        txn: TxnId,
        /// The object accessed.
        oid: Oid,
        /// Whether this was a write access.
        write: bool,
        /// Whether it was satisfied without server interaction.
        from_cache: bool,
    },
    /// The transaction finished.
    TxnEnded {
        /// The finished transaction.
        txn: TxnId,
        /// How it ended.
        outcome: TxnOutcome,
    },
    /// A page left the cache (LRU eviction, callback purge, or abort
    /// purge). The embedding layer must drop any bytes it holds for it.
    /// Evictions are silent protocol-wise — the server learns via
    /// `NotCached` callback replies.
    DroppedPage {
        /// The dropped page.
        page: PageId,
    },
    /// An object left the cache (object server). The embedding layer must
    /// drop its bytes.
    DroppedObject {
        /// The dropped object.
        oid: Oid,
    },
}

/// How a transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed (durable at the server, or read-only and local).
    Committed,
    /// Aborted by the server as a deadlock victim; the paper's model
    /// resubmits it with the same reference string.
    Deadlocked,
    /// Aborted voluntarily by the application.
    Aborted,
}

/// The result of one engine call.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// Effects, in order.
    pub actions: Vec<ClientAction>,
    /// CPU-accounting deltas for the simulator.
    pub cost: Cost,
}

/// Client-side protocol counters.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// Accesses satisfied entirely from the cache.
    pub hits: u64,
    /// Accesses that required a server request.
    pub misses: u64,
    /// Callback requests received.
    pub callbacks_received: u64,
    /// Callbacks answered `Busy` (deferred to end of transaction).
    pub busy_replies: u64,
    /// Whole pages purged in response to callbacks.
    pub pages_purged: u64,
    /// Objects marked unavailable in response to callbacks.
    pub objects_marked: u64,
    /// Cache evictions (pages or objects).
    pub evictions: u64,
    /// De-escalations performed (PS-AA).
    pub deescalations: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    oid: Oid,
    write: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finishing {
    Commit,
    Abort,
}

#[derive(Debug, Clone)]
struct DeferredCb {
    callback: CallbackId,
    page: PageId,
    target: CallbackTarget,
}

#[derive(Debug)]
struct LocalTxn {
    id: TxnId,
    /// Whether the server has been involved (if not, a read-only commit is
    /// purely local).
    contacted: bool,
    finishing: Option<Finishing>,
    /// Per-page bitmask of slots read (the client-managed read locks).
    read_objs: HashMap<PageId, u64>,
    /// Pages on which a page write lock is held.
    page_locks: HashSet<PageId>,
    /// Per-page bitmask of slots covered by object write locks.
    obj_locks: HashMap<PageId, u64>,
    /// Per-page bitmask of slots updated (uncommitted).
    dirty: BTreeMap<PageId, u64>,
}

impl LocalTxn {
    fn new(id: TxnId) -> Self {
        LocalTxn {
            id,
            contacted: false,
            finishing: None,
            read_objs: HashMap::new(),
            page_locks: HashSet::new(),
            obj_locks: HashMap::new(),
            dirty: BTreeMap::new(),
        }
    }

    fn uses_page(&self, page: PageId) -> bool {
        self.read_objs.get(&page).is_some_and(|&m| m != 0)
            || self.page_locks.contains(&page)
            || self.obj_locks.get(&page).is_some_and(|&m| m != 0)
            || self.dirty.get(&page).is_some_and(|&m| m != 0)
    }

    fn uses_slot(&self, oid: Oid) -> bool {
        let bit = 1u64 << oid.slot;
        self.read_objs.get(&oid.page).is_some_and(|&m| m & bit != 0)
            || self.page_locks.contains(&oid.page)
            || self.obj_locks.get(&oid.page).is_some_and(|&m| m & bit != 0)
            || self.dirty.get(&oid.page).is_some_and(|&m| m & bit != 0)
    }

    fn has_write_permission(&self, oid: Oid) -> bool {
        self.page_locks.contains(&oid.page)
            || self
                .obj_locks
                .get(&oid.page)
                .is_some_and(|&m| m & (1 << oid.slot) != 0)
    }

    fn write_sets(&self) -> Vec<WriteSet> {
        self.dirty
            .iter()
            .map(|(&page, &mask)| WriteSet {
                page,
                slots: mask_slots(mask),
            })
            .collect()
    }
}

fn mask_slots(mask: u64) -> Vec<SlotId> {
    (0..64).filter(|s| mask & (1u64 << s) != 0).collect()
}

/// The client half of the five callback-locking protocols.
#[derive(Debug)]
pub struct ClientEngine {
    id: ClientId,
    protocol: Protocol,
    objects_per_page: u16,
    page_cache: Option<PageCache>,
    obj_cache: Option<ObjectCache>,
    txn: Option<LocalTxn>,
    pending: Option<PendingAccess>,
    deferred: Vec<DeferredCb>,
    stats: ClientStats,
    out: Vec<ClientAction>,
    cost: Cost,
}

impl ClientEngine {
    /// Creates a client. `cache_pages` is the buffer size in pages; the
    /// object server's cache holds `cache_pages × objects_per_page`
    /// objects, as in the paper's model.
    pub fn new(
        id: ClientId,
        protocol: Protocol,
        objects_per_page: u16,
        cache_pages: usize,
    ) -> Self {
        let (page_cache, obj_cache) = if protocol == Protocol::Os {
            (
                None,
                Some(ObjectCache::new(cache_pages * objects_per_page as usize)),
            )
        } else {
            (Some(PageCache::new(cache_pages, objects_per_page)), None)
        };
        ClientEngine {
            id,
            protocol,
            objects_per_page,
            page_cache,
            obj_cache,
            txn: None,
            pending: None,
            deferred: Vec::new(),
            stats: ClientStats::default(),
            out: Vec::new(),
            cost: Cost::default(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The protocol this client runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether a transaction is active (including one awaiting its commit
    /// or abort acknowledgement).
    pub fn has_active_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Whether an access is awaiting a server reply.
    pub fn has_pending_access(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether `oid` is currently readable from this client's cache.
    pub fn can_read_locally(&self, oid: Oid) -> bool {
        self.readable(oid)
    }

    /// The id of the active transaction, if any.
    pub fn active_txn(&self) -> Option<TxnId> {
        self.txn.as_ref().map(|t| t.id)
    }

    /// Pages with at least one cached object (for invariant checks).
    pub fn cached_pages(&self) -> Vec<PageId> {
        match (&self.page_cache, &self.obj_cache) {
            (Some(pc), _) => pc.pages().collect(),
            _ => Vec::new(),
        }
    }

    /// The availability mask of a cached page, if resident.
    pub fn cached_avail_mask(&self, page: PageId) -> Option<u64> {
        self.page_cache.as_ref().and_then(|pc| pc.avail_mask(page))
    }

    /// Marks one cached object unavailable without any transaction effect.
    ///
    /// Embedding layers use this when a shipped page image contains data
    /// they cannot materialize locally (e.g. a forwarding stub whose
    /// target bytes were not attached), so that a later access to the
    /// object becomes a proper miss instead of a byte-less cache hit.
    pub fn invalidate_object(&mut self, oid: Oid) {
        debug_assert!(
            !self.txn.as_ref().is_some_and(|t| t.uses_slot(oid)),
            "cannot invalidate an object the active transaction uses"
        );
        if let Some(cache) = self.page_cache.as_mut() {
            cache.mark_unavailable(oid);
        }
    }

    /// Individually cached objects (object server; empty otherwise).
    pub fn cached_objects(&self) -> Vec<Oid> {
        match &self.obj_cache {
            Some(oc) => oc.objects().collect(),
            None => Vec::new(),
        }
    }

    /// Number of cached pages (or objects, for the object server).
    pub fn cached_items(&self) -> usize {
        match (&self.page_cache, &self.obj_cache) {
            (Some(pc), _) => pc.len(),
            (_, Some(oc)) => oc.len(),
            _ => unreachable!("one cache always exists"),
        }
    }

    /// Starts a transaction. Panics if one is already active.
    pub fn begin(&mut self, txn: TxnId) {
        assert_eq!(txn.client, self.id, "transaction belongs to another client");
        assert!(
            self.txn.is_none(),
            "client {} already has a transaction",
            self.id
        );
        self.txn = Some(LocalTxn::new(txn));
    }

    /// Processes the next object reference of the active transaction.
    ///
    /// Emits either `AccessReady { from_cache: true }` (cache hit under
    /// sufficient permissions) or a `Send` whose eventual reply produces
    /// the `AccessReady`.
    pub fn access(&mut self, oid: Oid, write: bool) -> ClientOutcome {
        assert!(oid.slot < self.objects_per_page, "slot out of range");
        assert!(self.pending.is_none(), "previous access still pending");
        let txn = self.txn.as_ref().expect("no active transaction");
        assert!(txn.finishing.is_none(), "transaction is finishing");
        let txn_id = txn.id;
        self.cost.lock_ops += 1; // local lock/unlock pair
        let readable = self.readable(oid);
        if write {
            if readable && txn.has_write_permission(oid) {
                self.record_access(oid, true);
                self.touch(oid);
                self.stats.hits += 1;
                self.out.push(ClientAction::AccessReady {
                    txn: txn_id,
                    oid,
                    write: true,
                    from_cache: true,
                });
            } else {
                self.stats.misses += 1;
                let txn = self.txn.as_mut().expect("checked above");
                txn.contacted = true;
                self.pending = Some(PendingAccess { oid, write: true });
                self.out.push(ClientAction::Send(Request::Write {
                    txn: txn_id,
                    oid,
                    need_copy: !readable,
                }));
            }
        } else if readable {
            self.record_access(oid, false);
            self.touch(oid);
            self.stats.hits += 1;
            self.out.push(ClientAction::AccessReady {
                txn: txn_id,
                oid,
                write: false,
                from_cache: true,
            });
        } else {
            self.stats.misses += 1;
            let txn = self.txn.as_mut().expect("checked above");
            txn.contacted = true;
            self.pending = Some(PendingAccess { oid, write: false });
            self.out
                .push(ClientAction::Send(Request::Read { txn: txn_id, oid }));
        }
        self.take_outcome()
    }

    /// Commits the active transaction. Read-only transactions that never
    /// contacted the server commit locally without a message.
    pub fn commit(&mut self) -> ClientOutcome {
        assert!(
            self.pending.is_none(),
            "cannot commit with a pending access"
        );
        let txn = self.txn.as_mut().expect("no active transaction");
        assert!(txn.finishing.is_none(), "already finishing");
        if !txn.contacted && txn.dirty.is_empty() {
            let id = txn.id;
            self.end_txn(TxnOutcome::Committed, false);
            debug_assert!(self
                .out
                .iter()
                .any(|a| matches!(a, ClientAction::TxnEnded { txn, .. } if *txn == id)));
        } else {
            txn.finishing = Some(Finishing::Commit);
            let req = Request::Commit {
                txn: txn.id,
                writes: txn.write_sets(),
            };
            self.out.push(ClientAction::Send(req));
        }
        self.take_outcome()
    }

    /// Voluntarily aborts the active transaction.
    pub fn abort(&mut self) -> ClientOutcome {
        assert!(self.pending.is_none(), "cannot abort with a pending access");
        let txn = self.txn.as_mut().expect("no active transaction");
        assert!(txn.finishing.is_none(), "already finishing");
        if !txn.contacted && txn.dirty.is_empty() {
            self.end_txn(TxnOutcome::Aborted, false);
        } else {
            txn.finishing = Some(Finishing::Abort);
            let id = txn.id;
            self.out
                .push(ClientAction::Send(Request::Abort { txn: id }));
        }
        self.take_outcome()
    }

    /// Handles a message from the server.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn handle_server(&mut self, msg: ServerMsg) -> ClientOutcome {
        match msg {
            ServerMsg::ReadGranted { txn, oid, data } => self.on_read_granted(txn, oid, data),
            ServerMsg::WriteGranted {
                txn,
                oid,
                level,
                data,
            } => self.on_write_granted(txn, oid, level, data),
            ServerMsg::Callback {
                callback,
                page,
                target,
            } => self.on_callback(callback, page, target),
            ServerMsg::Deescalate { page, txn } => self.on_deescalate(page, txn),
            ServerMsg::Aborted { txn, .. } => self.on_server_abort(txn),
            ServerMsg::CommitDone { txn } => self.on_commit_done(txn),
            ServerMsg::AbortDone { txn } => self.on_abort_done(txn),
        }
        self.take_outcome()
    }

    // ------------------------------------------------------------------
    // Grant handling
    // ------------------------------------------------------------------

    fn on_read_granted(&mut self, txn: TxnId, oid: Oid, data: DataGrant) {
        let p = self.pending.expect("unexpected read grant");
        debug_assert_eq!(p.oid, oid);
        debug_assert_eq!(self.txn.as_ref().map(|t| t.id), Some(txn));
        // `pending` stays set through `install` so the incoming page cannot
        // be chosen as its own eviction victim.
        self.install(data);
        self.pending = None;
        debug_assert!(self.readable(oid), "granted object must be readable");
        // `p.write` marks the copy-refresh read issued after a write grant
        // whose cached copy had been invalidated while the request waited;
        // the access it completes is the original write.
        self.record_access(oid, p.write);
        self.touch(oid);
        self.out.push(ClientAction::AccessReady {
            txn,
            oid,
            write: p.write,
            from_cache: false,
        });
    }

    fn on_write_granted(&mut self, txn: TxnId, oid: Oid, level: GrantLevel, data: DataGrant) {
        let p = self.pending.expect("unexpected write grant");
        debug_assert_eq!((p.oid, p.write), (oid, true));
        self.install(data);
        let t = self.txn.as_mut().expect("active transaction");
        debug_assert_eq!(t.id, txn);
        match level {
            GrantLevel::Page => {
                t.page_locks.insert(oid.page);
            }
            GrantLevel::Object => {
                *t.obj_locks.entry(oid.page).or_insert(0) |= 1 << oid.slot;
            }
        }
        if !self.readable(oid) {
            // The copy we held when the request was issued (`need_copy:
            // false`) was invalidated by a callback while we waited. The
            // lock is ours now; fetch fresh data under it and complete the
            // access when it arrives. (`pending` stays set, still marked as
            // a write.) The slot is recorded as updated *now* so that a
            // PS-AA de-escalation arriving before the refresh read returns
            // converts this slot's coverage into an object lock too.
            let t = self.txn.as_mut().expect("active transaction");
            *t.dirty.entry(oid.page).or_insert(0) |= 1 << oid.slot;
            *t.read_objs.entry(oid.page).or_insert(0) |= 1 << oid.slot;
            self.out
                .push(ClientAction::Send(Request::Read { txn, oid }));
            return;
        }
        self.pending = None;
        self.record_access(oid, true);
        self.touch(oid);
        self.out.push(ClientAction::AccessReady {
            txn,
            oid,
            write: true,
            from_cache: false,
        });
    }

    /// Installs shipped data into the cache, merging with local uncommitted
    /// updates when a divergent copy is already resident.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn install(&mut self, data: DataGrant) {
        match data {
            DataGrant::Page {
                page,
                unavailable,
                epoch,
            } => {
                let mut avail = full_mask(self.objects_per_page);
                for slot in &unavailable {
                    avail &= !(1u64 << slot);
                }
                let dirty_mask = self
                    .txn
                    .as_ref()
                    .and_then(|t| t.dirty.get(&page).copied())
                    .unwrap_or(0);
                debug_assert_eq!(
                    avail & dirty_mask,
                    dirty_mask,
                    "server marked one of our own locked slots unavailable"
                );
                let cache = self.page_cache.as_mut().expect("page-transfer protocol");
                let had = cache.install(page, avail, epoch);
                if had.is_some() && dirty_mask != 0 {
                    // Merging an incoming page over locally updated objects:
                    // our updated slots keep the local versions.
                    self.cost.merged_objects += dirty_mask.count_ones();
                }
                self.evict_pages_if_needed();
            }
            DataGrant::Object { oid } => {
                self.obj_cache.as_mut().expect("object server").install(oid);
                self.evict_objects_if_needed();
            }
            DataGrant::None => {}
        }
    }

    // ------------------------------------------------------------------
    // Callbacks
    // ------------------------------------------------------------------

    fn on_callback(&mut self, callback: CallbackId, page: PageId, target: CallbackTarget) {
        self.stats.callbacks_received += 1;
        let reply = self.resolve_callback(page, target);
        match reply {
            Some(reply) => self.send_cb_reply(callback, page, reply),
            None => {
                // Locally blocked: reply Busy now, final reply at end of
                // transaction.
                self.stats.busy_replies += 1;
                let conflicts = self.txn.as_ref().map(|t| vec![t.id]).unwrap_or_default();
                self.send_cb_reply(callback, page, CallbackReply::Busy { conflicts });
                self.deferred.push(DeferredCb {
                    callback,
                    page,
                    target,
                });
            }
        }
    }

    /// Attempts to satisfy a callback right now. Returns `None` when the
    /// active transaction's locks force a deferral.
    fn resolve_callback(&mut self, page: PageId, target: CallbackTarget) -> Option<CallbackReply> {
        self.cost.lock_ops += 1;
        let in_use = self.txn.as_ref().is_some_and(|t| t.uses_page(page));
        match target {
            CallbackTarget::Page => {
                if in_use {
                    return None;
                }
                Some(self.purge_page_reply(page))
            }
            CallbackTarget::PageAdaptive { slot } => {
                if !in_use {
                    return Some(self.purge_page_reply(page));
                }
                let oid = Oid::new(page, slot);
                if self.txn.as_ref().is_some_and(|t| t.uses_slot(oid)) {
                    return None;
                }
                self.mark_object_unavailable(oid);
                Some(CallbackReply::ObjectUnavailable { slot })
            }
            CallbackTarget::Object { slot } => {
                let oid = Oid::new(page, slot);
                if self.txn.as_ref().is_some_and(|t| t.uses_slot(oid)) {
                    return None;
                }
                if self.protocol == Protocol::Os {
                    if self.obj_cache.as_mut().expect("object server").purge(oid) {
                        self.out.push(ClientAction::DroppedObject { oid });
                    }
                } else {
                    self.mark_object_unavailable(oid);
                }
                Some(CallbackReply::ObjectPurged { slot })
            }
        }
    }

    fn purge_page_reply(&mut self, page: PageId) -> CallbackReply {
        let cache = self.page_cache.as_mut().expect("page-transfer protocol");
        match cache.purge(page) {
            Some(epoch) => {
                self.stats.pages_purged += 1;
                self.cost.copy_ops += 1;
                self.out.push(ClientAction::DroppedPage { page });
                CallbackReply::PagePurged { epoch }
            }
            None => CallbackReply::NotCached { epoch: 0 },
        }
    }

    fn mark_object_unavailable(&mut self, oid: Oid) {
        if let Some(cache) = self.page_cache.as_mut() {
            cache.mark_unavailable(oid);
            self.stats.objects_marked += 1;
        }
    }

    fn send_cb_reply(&mut self, callback: CallbackId, page: PageId, reply: CallbackReply) {
        self.out.push(ClientAction::Send(Request::CallbackReply {
            callback,
            page,
            reply,
        }));
    }

    /// Re-resolves deferred callbacks once the blocking transaction ends.
    fn flush_deferred(&mut self) {
        debug_assert!(self.txn.is_none());
        let deferred = std::mem::take(&mut self.deferred);
        for d in deferred {
            let reply = self
                .resolve_callback(d.page, d.target)
                .expect("no active transaction can block a callback");
            self.send_cb_reply(d.callback, d.page, reply);
        }
    }

    // ------------------------------------------------------------------
    // De-escalation (PS-AA)
    // ------------------------------------------------------------------

    fn on_deescalate(&mut self, page: PageId, txn: TxnId) {
        let updated = match self.txn.as_mut() {
            Some(t) if t.id == txn && t.page_locks.contains(&page) => {
                t.page_locks.remove(&page);
                let mask = t.dirty.get(&page).copied().unwrap_or(0);
                *t.obj_locks.entry(page).or_insert(0) |= mask;
                self.stats.deescalations += 1;
                self.cost.lock_ops += 1 + mask.count_ones();
                mask_slots(mask)
            }
            // Stale: the transaction already finished (its commit/abort is
            // in flight). The server ignores the empty reply.
            _ => Vec::new(),
        };
        self.out.push(ClientAction::Send(Request::DeescalateReply {
            txn,
            page,
            updated,
        }));
    }

    // ------------------------------------------------------------------
    // End of transaction
    // ------------------------------------------------------------------

    fn on_server_abort(&mut self, txn: TxnId) {
        let Some(t) = self.txn.as_ref() else {
            return; // already gone (should not happen)
        };
        debug_assert_eq!(t.id, txn);
        // The aborted access (if any) will never be granted.
        self.pending = None;
        self.end_txn(TxnOutcome::Deadlocked, true);
    }

    fn on_commit_done(&mut self, txn: TxnId) {
        let t = self.txn.as_ref().expect("committing transaction exists");
        debug_assert_eq!(t.id, txn);
        debug_assert_eq!(t.finishing, Some(Finishing::Commit));
        self.end_txn(TxnOutcome::Committed, false);
    }

    fn on_abort_done(&mut self, txn: TxnId) {
        let t = self.txn.as_ref().expect("aborting transaction exists");
        debug_assert_eq!(t.id, txn);
        debug_assert_eq!(t.finishing, Some(Finishing::Abort));
        self.end_txn(TxnOutcome::Aborted, true);
    }

    /// Drops the active transaction: on abort, uncommitted updates are
    /// purged from the cache (purge-at-client); on commit the cache is
    /// retained (pages are now clean — their data went to the server with
    /// the commit). Deferred callbacks are then answered.
    fn end_txn(&mut self, outcome: TxnOutcome, purge_dirty: bool) {
        let t = self.txn.take().expect("transaction to end");
        if purge_dirty {
            for (&page, &mask) in &t.dirty {
                if let Some(cache) = self.page_cache.as_mut() {
                    if cache.purge(page).is_some() {
                        self.cost.copy_ops += 1;
                        self.out.push(ClientAction::DroppedPage { page });
                    }
                } else if let Some(cache) = self.obj_cache.as_mut() {
                    for slot in mask_slots(mask) {
                        let oid = Oid::new(page, slot);
                        if cache.purge(oid) {
                            self.out.push(ClientAction::DroppedObject { oid });
                        }
                    }
                }
            }
        }
        self.cost.lock_ops += (t.read_objs.len() + t.page_locks.len() + t.obj_locks.len()) as u32;
        self.flush_deferred();
        // Pins released with the transaction: shrink back to capacity.
        if self.page_cache.is_some() {
            self.evict_pages_if_needed();
        } else {
            self.evict_objects_if_needed();
        }
        self.out.push(ClientAction::TxnEnded { txn: t.id, outcome });
    }

    // ------------------------------------------------------------------
    // Cache helpers
    // ------------------------------------------------------------------

    fn readable(&self, oid: Oid) -> bool {
        match (&self.page_cache, &self.obj_cache) {
            (Some(pc), _) => pc.readable(oid),
            (_, Some(oc)) => oc.readable(oid),
            _ => unreachable!("one cache always exists"),
        }
    }

    fn touch(&mut self, oid: Oid) {
        match (&mut self.page_cache, &mut self.obj_cache) {
            (Some(pc), _) => pc.touch(oid.page),
            (_, Some(oc)) => oc.touch(oid),
            _ => unreachable!("one cache always exists"),
        }
    }

    fn record_access(&mut self, oid: Oid, write: bool) {
        let t = self.txn.as_mut().expect("active transaction");
        *t.read_objs.entry(oid.page).or_insert(0) |= 1 << oid.slot;
        if write {
            debug_assert!(t.has_write_permission(oid), "write without permission");
            *t.dirty.entry(oid.page).or_insert(0) |= 1 << oid.slot;
            // A local write makes our copy of the object authoritative.
            if let Some(cache) = self.page_cache.as_mut() {
                cache.mark_available(oid);
            }
        }
    }

    fn pinned_pages(&self) -> HashSet<PageId> {
        let mut pinned = HashSet::new();
        if let Some(t) = &self.txn {
            pinned.extend(t.read_objs.keys().copied());
            pinned.extend(t.page_locks.iter().copied());
            pinned.extend(t.obj_locks.keys().copied());
            pinned.extend(t.dirty.keys().copied());
        }
        if let Some(p) = &self.pending {
            pinned.insert(p.oid.page);
        }
        pinned
    }

    fn evict_pages_if_needed(&mut self) {
        let pinned = self.pinned_pages();
        let cache = self.page_cache.as_mut().expect("page cache");
        while cache.over_capacity() {
            match cache.evict_lru(|p| pinned.contains(&p)) {
                Some(page) => {
                    self.stats.evictions += 1;
                    self.out.push(ClientAction::DroppedPage { page });
                }
                None => break, // everything pinned; tolerate overflow
            }
        }
    }

    fn evict_objects_if_needed(&mut self) {
        let mut pinned: HashSet<Oid> = HashSet::new();
        if let Some(t) = &self.txn {
            for (&page, &mask) in t.read_objs.iter().chain(t.obj_locks.iter()) {
                for slot in mask_slots(mask) {
                    pinned.insert(Oid::new(page, slot));
                }
            }
            for (&page, &mask) in &t.dirty {
                for slot in mask_slots(mask) {
                    pinned.insert(Oid::new(page, slot));
                }
            }
        }
        if let Some(p) = &self.pending {
            pinned.insert(p.oid);
        }
        let cache = self.obj_cache.as_mut().expect("object cache");
        while cache.over_capacity() {
            match cache.evict_lru(|o| pinned.contains(&o)) {
                Some(oid) => {
                    self.stats.evictions += 1;
                    self.out.push(ClientAction::DroppedObject { oid });
                }
                None => break,
            }
        }
    }

    fn take_outcome(&mut self) -> ClientOutcome {
        ClientOutcome {
            actions: std::mem::take(&mut self.out),
            cost: std::mem::take(&mut self.cost),
        }
    }
}
