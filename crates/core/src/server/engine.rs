//! The server-side protocol engine.
//!
//! [`ServerEngine`] is a pure, timing-free state machine: it consumes one
//! [`Request`] at a time and produces a list of [`ServerAction`]s plus a CPU
//! [`Cost`] delta. The simulator charges the costs at the simulated server
//! CPU and turns each action into a network message; the real engine ships
//! the messages (with data payloads attached) over channels. Keeping the
//! protocol logic here means the simulator and the engine cannot diverge.
//!
//! The engine implements all five granularity schemes of the paper behind
//! one interface; see [`Protocol`] for the scheme-by-scheme differences.

use crate::ids::{ClientId, Item, Oid, PageId, TxnId};
use crate::msg::{
    AbortReason, CallbackId, CallbackReply, CallbackTarget, DataGrant, GrantLevel, Request,
    ServerMsg, WriteSet,
};
use crate::protocol::Protocol;
use crate::server::state::{
    CbOp, Cost, PageState, Provisional, STxn, ServerStats, WaitKind, Waiter,
};
use crate::server::wfg::WaitsFor;
use std::collections::{BTreeSet, HashMap};

/// An effect the embedding layer must carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAction {
    /// Send a message to a client. Messages to one client must be delivered
    /// in order (a FIFO channel); the protocol relies on it.
    Send {
        /// Destination client.
        to: ClientId,
        /// The message.
        msg: ServerMsg,
    },
    /// Acknowledge a commit — but only once its log records are durable.
    /// The engine has already released the transaction's locks (the WAL
    /// rule allows early release: anything that reads the released state
    /// commits *after* this record in log order), so the embedding must
    /// turn this into a `ServerMsg::CommitDone` gated on its durability
    /// watermark, keeping it ordered against later sends to the same
    /// client. An embedding without an asynchronous durability stage may
    /// ack immediately after a synchronous force.
    AckCommit {
        /// The committing client.
        to: ClientId,
        /// The committed transaction.
        txn: TxnId,
    },
}

impl ServerAction {
    /// Whether carrying out this action requires attaching stored data
    /// (a page image or object bytes) before it reaches its client.
    pub fn attaches_data(&self) -> bool {
        match self {
            ServerAction::Send { msg, .. } => msg.attaches_data(),
            ServerAction::AckCommit { .. } => false,
        }
    }
}

/// The result of handling one request.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Effects, in order.
    pub actions: Vec<ServerAction>,
    /// CPU-accounting deltas for the simulator.
    pub cost: Cost,
}

impl Outcome {
    /// Number of actions that must pass through a data-attach stage
    /// (grants shipping a page image or object bytes).
    pub fn data_sends(&self) -> usize {
        self.actions.iter().filter(|a| a.attaches_data()).count()
    }

    /// Number of pure control sends (no stored data involved); these can
    /// be dispatched directly without touching the store.
    pub fn control_sends(&self) -> usize {
        self.actions.len() - self.data_sends()
    }
}

/// How a request fared against the lock table.
enum Decision {
    Proceed,
    Block { blockers: BTreeSet<TxnId> },
    Deescalate { holder: TxnId },
}

/// The server half of the five callback-locking protocols.
#[derive(Debug)]
pub struct ServerEngine {
    protocol: Protocol,
    objects_per_page: u16,
    pages: HashMap<PageId, PageState>,
    txns: HashMap<TxnId, STxn>,
    ops: HashMap<CallbackId, CbOp>,
    wfg: WaitsFor,
    next_cb: u64,
    next_age: u64,
    stats: ServerStats,
    out: Vec<ServerAction>,
    cost: Cost,
}

impl ServerEngine {
    /// Creates a server for `protocol` with `objects_per_page` objects on
    /// every page (at most 64).
    pub fn new(protocol: Protocol, objects_per_page: u16) -> Self {
        assert!(
            (1..=64).contains(&objects_per_page),
            "objects_per_page must be in 1..=64"
        );
        ServerEngine {
            protocol,
            objects_per_page,
            pages: HashMap::new(),
            txns: HashMap::new(),
            ops: HashMap::new(),
            wfg: WaitsFor::new(),
            next_cb: 1,
            next_age: 1,
            stats: ServerStats::default(),
            out: Vec::new(),
            cost: Cost::default(),
        }
    }

    /// The protocol this server runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Cumulative protocol counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Handles one client request, returning the effects to carry out.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn handle(&mut self, from: ClientId, req: Request) -> Outcome {
        debug_assert!(self.out.is_empty() && self.cost == Cost::default());
        match req {
            Request::Read { txn, oid } => self.handle_access(from, txn, oid, None),
            Request::Write {
                txn,
                oid,
                need_copy,
            } => self.handle_access(from, txn, oid, Some(need_copy)),
            Request::CallbackReply {
                callback,
                page,
                reply,
            } => self.handle_cb_reply(from, callback, page, reply),
            Request::DeescalateReply { txn, page, updated } => {
                self.handle_deesc_reply(txn, page, updated)
            }
            Request::Commit { txn, writes } => self.handle_commit(from, txn, &writes),
            Request::Abort { txn } => self.handle_client_abort(from, txn),
        }
        Outcome {
            actions: std::mem::take(&mut self.out),
            cost: std::mem::take(&mut self.cost),
        }
    }

    /// Aborts a live transaction at the server's initiative (outside the
    /// normal request path — e.g. the embedding runtime hit a storage
    /// error while installing its updates). Releases its locks, wakes
    /// blocked waiters and notifies the owning client, returning the
    /// effects like [`ServerEngine::handle`]. A no-op outcome results if
    /// the transaction is unknown or already finished.
    pub fn abort_txn(&mut self, txn: TxnId, reason: AbortReason) -> Outcome {
        debug_assert!(self.out.is_empty() && self.cost == Cost::default());
        if let Some(client) = self.end_txn(txn) {
            match reason {
                AbortReason::Deadlock => self.stats.deadlocks += 1,
                AbortReason::Server => self.stats.server_aborts += 1,
            }
            self.send(client, ServerMsg::Aborted { txn, reason });
        }
        Outcome {
            actions: std::mem::take(&mut self.out),
            cost: std::mem::take(&mut self.cost),
        }
    }

    /// Removes a disconnected client from the protocol state: deregisters
    /// every copy it holds, ends its live transactions, and completes any
    /// callback operations still waiting on a reply from it (the purge
    /// stands in for the reply the client can no longer send). No message
    /// is addressed to the gone client — it is unreachable — but grants
    /// and aborts for *other* clients unblocked by the cleanup are
    /// returned as usual. Idempotent; a disconnect for an unknown client
    /// is a no-op outcome.
    pub fn client_gone(&mut self, client: ClientId) -> Outcome {
        debug_assert!(self.out.is_empty() && self.cost == Cost::default());
        self.stats.disconnects += 1;
        // 1. Purge the copy tables first: transactions granted while the
        //    teardown below regrants pages must never open callbacks to (or
        //    count copies at) the gone client.
        for st in self.pages.values_mut() {
            st.copies.remove(&client);
            for set in st.obj_copies.values_mut() {
                set.remove(&client);
            }
            st.obj_copies.retain(|_, s| !s.is_empty());
            if st.token == Some(client) {
                st.token = None;
            }
            st.epochs.remove(&client);
        }
        // 2. End every transaction the client owns; each release rescans the
        //    touched pages, granting queued requests of the survivors.
        let mine: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| t.client == client)
            .map(|(&txn, _)| txn)
            .collect();
        for txn in mine {
            self.end_txn(txn);
        }
        // 3. Callback operations still outstanding at the gone client
        //    complete as if it had replied "purged" (step 1 already
        //    dropped its copies). Ops *requested by* the gone client were
        //    removed with its transactions in step 2, so every op left
        //    here belongs to a live requester.
        let waiting: Vec<CallbackId> = self
            .ops
            .iter()
            .filter(|(_, op)| op.outstanding.contains(&client))
            .map(|(&id, _)| id)
            .collect();
        for id in waiting {
            let Some(op) = self.ops.get_mut(&id) else {
                continue;
            };
            op.outstanding.remove(&client);
            if op.outstanding.is_empty() {
                let op = self.ops.remove(&id).expect("just seen");
                if let Some(st) = self.pages.get_mut(&op.oid.page) {
                    st.provisional.retain(|p| p.callback != id);
                }
                if let Some(t) = self.txns.get_mut(&op.txn) {
                    t.pending_op = None;
                }
                self.wfg.clear_edges(op.txn);
                self.finish_grant(op.requester, op.txn, op.oid, op.need_copy, op.any_kept);
                self.grant_waiters(op.oid.page);
            }
        }
        // 4. Pages that lost their last reference only through the purge.
        let pages: Vec<PageId> = self.pages.keys().copied().collect();
        for page in pages {
            self.gc_page(page);
        }
        // Nothing can be delivered to the gone client; suppress the abort
        // notifications end_txn queued for it (and anything else addressed
        // there) so embeddings need no port-liveness filtering.
        self.out.retain(|a| match a {
            ServerAction::Send { to, .. } | ServerAction::AckCommit { to, .. } => *to != client,
        });
        Outcome {
            actions: std::mem::take(&mut self.out),
            cost: std::mem::take(&mut self.cost),
        }
    }

    // ------------------------------------------------------------------
    // Access requests (reads and write-lock requests)
    // ------------------------------------------------------------------

    fn handle_access(&mut self, from: ClientId, txn: TxnId, oid: Oid, write: Option<bool>) {
        assert!(oid.slot < self.objects_per_page, "slot out of range");
        self.ensure_txn(from, txn);
        let kind = match write {
            None => WaitKind::Read { oid },
            Some(need_copy) => WaitKind::Write { oid, need_copy },
        };
        let page = oid.page;
        let t = self.txns.get_mut(&txn).expect("just ensured");
        debug_assert!(
            t.waiting_on.is_none() && t.pending_op.is_none(),
            "{txn} has two outstanding requests"
        );
        t.waiting_on = Some(page);
        self.pages
            .entry(page)
            .or_default()
            .waiters
            .push_back(Waiter {
                client: from,
                txn,
                kind,
            });
        // The uniform path: enqueue, then scan the queue. An unblocked request
        // is granted immediately by the scan; a blocked one stays queued with
        // its waits-for edges installed.
        self.grant_waiters(page);
    }

    /// Whether requests conflict at page granularity (PS transfers *and*
    /// locks whole pages, so its reads/writes are page-grain requests).
    fn page_grain_requests(&self) -> bool {
        self.protocol == Protocol::Ps
    }

    /// Lock-table check for `item`, ignoring queue order (`grant_waiters`
    /// handles queue fairness separately).
    fn check_locks(
        &self,
        st: &PageState,
        txn: TxnId,
        item: Item,
        is_write: bool,
        client: ClientId,
    ) -> Decision {
        let mut blockers = BTreeSet::new();
        let mut deesc = None;
        // PS-WT: a write needs the page's token; it can transfer only once
        // the current owner has no uncommitted updates on the page.
        if is_write && self.protocol.write_token() {
            if let Some(owner) = st.token {
                if owner != client {
                    blockers.extend(
                        st.obj_writers
                            .values()
                            .filter(|h| h.client == owner && **h != txn)
                            .copied(),
                    );
                }
            }
        }
        if let Some(holder) = st.page_writer {
            if holder != txn {
                if self.protocol.deescalates() {
                    // De-escalation resolves autonomously (the holder's
                    // client replies without waiting for its application),
                    // so it contributes no waits-for edge.
                    deesc = Some(holder);
                } else {
                    blockers.insert(holder);
                }
            }
        }
        match item {
            Item::Page(_) => {
                for (_, &holder) in st.obj_writers.iter() {
                    if holder != txn {
                        blockers.insert(holder);
                    }
                }
                for p in &st.provisional {
                    if p.txn != txn {
                        blockers.insert(p.txn);
                    }
                }
            }
            Item::Object(oid) => {
                if let Some(&holder) = st.obj_writers.get(&oid.slot) {
                    if holder != txn {
                        blockers.insert(holder);
                    }
                }
                for p in &st.provisional {
                    if p.txn != txn && p.item.overlaps(&item) {
                        blockers.insert(p.txn);
                    }
                }
            }
        }
        if !blockers.is_empty() {
            Decision::Block { blockers }
        } else if let Some(holder) = deesc {
            Decision::Deescalate { holder }
        } else {
            Decision::Proceed
        }
    }

    /// Scans a page's waiter queue in FIFO order, granting every request
    /// that is compatible with the lock table and with all still-blocked
    /// earlier requests, and refreshing waits-for edges for the rest.
    fn grant_waiters(&mut self, page: PageId) {
        let mut to_check: Vec<TxnId> = Vec::new();
        let mut blocked_items: Vec<(Item, TxnId)> = Vec::new();
        let mut i = 0;
        while let Some(st) = self.pages.get(&page) {
            let Some(w) = st.waiters.get(i).cloned() else {
                break;
            };
            let item = w.item(self.page_grain_requests());
            // A requester that already holds a covering write lock (e.g. a
            // copy-refresh read issued under a just-granted lock) must not
            // queue behind earlier waiters that are blocked by that very
            // lock — that would stall both sides.
            let holds_covering_lock = {
                let o = w.oid();
                st.page_writer == Some(w.txn) || st.obj_writers.get(&o.slot) == Some(&w.txn)
            };
            let earlier: BTreeSet<TxnId> = if holds_covering_lock {
                BTreeSet::new()
            } else {
                blocked_items
                    .iter()
                    .filter(|(it, t)| *t != w.txn && it.overlaps(&item))
                    .map(|&(_, t)| t)
                    .collect()
            };
            let decision = if earlier.is_empty() {
                self.check_locks(st, w.txn, item, w.is_write(), w.client)
            } else {
                Decision::Block { blockers: earlier }
            };
            match decision {
                Decision::Proceed => {
                    let st = self.pages.get_mut(&page).expect("page exists");
                    st.waiters.remove(i);
                    self.wfg.clear_edges(w.txn);
                    if let Some(t) = self.txns.get_mut(&w.txn) {
                        t.waiting_on = None;
                    }
                    match w.kind {
                        WaitKind::Read { oid } => self.grant_read(w.client, w.txn, oid),
                        WaitKind::Write { oid, need_copy } => {
                            self.start_write(w.client, w.txn, oid, need_copy)
                        }
                    }
                    // Do not advance `i`: removal shifted the queue.
                }
                Decision::Deescalate { holder } => {
                    self.cost.lock_ops += 1;
                    self.maybe_start_deescalation(page, holder);
                    self.wfg.clear_edges(w.txn);
                    blocked_items.push((item, w.txn));
                    i += 1;
                }
                Decision::Block { mut blockers } => {
                    self.stats.blocks += 1;
                    self.cost.lock_ops += 1;
                    // Also wait behind earlier still-blocked conflicting
                    // requests computed above, for queue fairness.
                    blockers.extend(
                        blocked_items
                            .iter()
                            .filter(|(it, t)| *t != w.txn && it.overlaps(&item))
                            .map(|&(_, t)| t),
                    );
                    blockers.remove(&w.txn);
                    self.wfg.set_edges(w.txn, blockers);
                    to_check.push(w.txn);
                    blocked_items.push((item, w.txn));
                    i += 1;
                }
            }
        }
        self.gc_page(page);
        for txn in to_check {
            self.resolve_deadlocks(txn);
        }
    }

    fn grant_read(&mut self, client: ClientId, txn: TxnId, oid: Oid) {
        self.cost.lock_ops += 1;
        let data = self.ship(client, txn, oid);
        self.send(client, ServerMsg::ReadGranted { txn, oid, data });
    }

    /// Registers copies and builds the data grant for shipping `oid` (the
    /// whole page under page-transfer protocols) to `client`.
    fn ship(&mut self, client: ClientId, txn: TxnId, oid: Oid) -> DataGrant {
        let st = self.pages.entry(oid.page).or_default();
        if self.protocol == Protocol::Os {
            st.obj_copies.entry(oid.slot).or_default().insert(client);
            self.cost.copy_ops += 1;
            self.stats.objects_shipped += 1;
            return DataGrant::Object { oid };
        }
        let unavailable = st.unavailable_for(txn);
        let epoch = st.bump_epoch(client);
        if self.protocol.page_grain_copies() {
            st.copies.insert(client);
            self.cost.copy_ops += 1;
        } else {
            // PS-OO: the server's copy table is per object; every available
            // object on the shipped page is now cached at the client.
            let unavailable_set: BTreeSet<_> = unavailable.iter().copied().collect();
            for slot in 0..self.objects_per_page {
                if !unavailable_set.contains(&slot) {
                    st.obj_copies.entry(slot).or_default().insert(client);
                }
            }
            self.cost.copy_ops += u32::from(self.objects_per_page);
        }
        self.stats.pages_shipped += 1;
        DataGrant::Page {
            page: oid.page,
            unavailable,
            epoch,
        }
    }

    /// Entry point for a write request that has passed the lock check:
    /// either grants immediately (no remote copies) or opens a callback
    /// operation.
    fn start_write(&mut self, client: ClientId, txn: TxnId, oid: Oid, need_copy: bool) {
        let st = self.pages.entry(oid.page).or_default();
        let mut recipients: BTreeSet<ClientId> = if self.protocol.page_grain_copies() {
            st.copies.clone()
        } else {
            st.obj_copies.get(&oid.slot).cloned().unwrap_or_default()
        };
        recipients.remove(&client);
        if recipients.is_empty() {
            self.finish_grant(client, txn, oid, need_copy, false);
            return;
        }
        let id = CallbackId(self.next_cb);
        self.next_cb += 1;
        let (item, target) = match self.protocol {
            Protocol::Ps => (Item::Page(oid.page), CallbackTarget::Page),
            Protocol::PsOa => (
                Item::Object(oid),
                CallbackTarget::PageAdaptive { slot: oid.slot },
            ),
            // The PS-AA grant may become a page lock, so no new copies of
            // the page may leak out during the callback phase.
            Protocol::PsAa => (
                Item::Page(oid.page),
                CallbackTarget::PageAdaptive { slot: oid.slot },
            ),
            Protocol::Os | Protocol::PsOo | Protocol::PsWt => {
                (Item::Object(oid), CallbackTarget::Object { slot: oid.slot })
            }
        };
        st.provisional.push(Provisional {
            callback: id,
            item,
            txn,
        });
        let snapshot_epochs = recipients.iter().map(|&c| (c, st.epoch(c))).collect();
        self.ops.insert(
            id,
            CbOp {
                requester: client,
                txn,
                oid,
                need_copy,
                outstanding: recipients.clone(),
                snapshot_epochs,
                any_kept: false,
            },
        );
        self.txns
            .get_mut(&txn)
            .expect("requester transaction exists")
            .pending_op = Some(id);
        for to in recipients {
            self.stats.callbacks_sent += 1;
            self.send(
                to,
                ServerMsg::Callback {
                    callback: id,
                    page: oid.page,
                    target,
                },
            );
        }
    }

    /// Grants the write lock once no remote copies stand in the way.
    fn finish_grant(
        &mut self,
        client: ClientId,
        txn: TxnId,
        oid: Oid,
        need_copy: bool,
        any_kept: bool,
    ) {
        let level = match self.protocol {
            Protocol::Ps => GrantLevel::Page,
            Protocol::Os | Protocol::PsOo | Protocol::PsOa | Protocol::PsWt => GrantLevel::Object,
            Protocol::PsAa => {
                let others_hold_objects = self
                    .pages
                    .get(&oid.page)
                    .map(|st| st.obj_writers.values().any(|&h| h != txn))
                    .unwrap_or(false);
                if any_kept || others_hold_objects {
                    GrantLevel::Object
                } else {
                    GrantLevel::Page
                }
            }
        };
        let st = self.pages.entry(oid.page).or_default();
        let t = self
            .txns
            .get_mut(&txn)
            .expect("requester transaction exists");
        match level {
            GrantLevel::Page => {
                debug_assert!(st.page_writer.is_none() || st.page_writer == Some(txn));
                st.page_writer = Some(txn);
                t.page_locks.insert(oid.page);
                self.stats.page_grants += 1;
            }
            GrantLevel::Object => {
                debug_assert!(!st.obj_writers.get(&oid.slot).is_some_and(|&h| h != txn));
                st.obj_writers.insert(oid.slot, txn);
                t.obj_locks.insert(oid);
                self.stats.obj_grants += 1;
            }
        }
        self.cost.lock_ops += 1;
        // PS-WT: acquire/transfer the write token; a transfer from another
        // owner ships the page with the grant ("the entire page must often
        // be sent when the write token is transferred").
        let mut token_shipped = false;
        if self.protocol.write_token() {
            let st = self.pages.entry(oid.page).or_default();
            let prev = st.token.replace(client);
            if prev.is_some() && prev != Some(client) {
                self.stats.token_transfers += 1;
                token_shipped = true;
            }
        }
        let data = if need_copy || token_shipped {
            self.ship(client, txn, oid)
        } else {
            DataGrant::None
        };
        self.send(
            client,
            ServerMsg::WriteGranted {
                txn,
                oid,
                level,
                data,
            },
        );
    }

    // ------------------------------------------------------------------
    // Callback replies
    // ------------------------------------------------------------------

    #[deny(clippy::wildcard_enum_match_arm)]
    fn handle_cb_reply(
        &mut self,
        from: ClientId,
        callback: CallbackId,
        page: PageId,
        reply: CallbackReply,
    ) {
        // 1. Copy-table effects. A page-grain purge is applied even when
        //    the op has been cancelled (the client really did purge its
        //    copy; the epoch tells a newer shipment apart). An object
        //    purge quotes no epoch, so it is only trusted while its op is
        //    live: the op's provisional lock keeps the object out of every
        //    shipment to that client. Once the op is cancelled (requester
        //    aborted or gone) the page may have been re-shipped with the
        //    object available again, and deregistering that copy would let
        //    a later writer skip its callback — a lost update. Keeping a
        //    copy the client no longer has costs one needless callback.
        let page_grain = self.protocol.page_grain_copies();
        let op_live = self.ops.contains_key(&callback);
        if let Some(st) = self.pages.get_mut(&page) {
            match &reply {
                CallbackReply::PagePurged { epoch } => {
                    if page_grain && *epoch == st.epoch(from) {
                        st.copies.remove(&from);
                        self.cost.copy_ops += 1;
                    }
                }
                CallbackReply::ObjectPurged { slot } => {
                    if !page_grain && op_live {
                        if let Some(set) = st.obj_copies.get_mut(slot) {
                            set.remove(&from);
                            self.cost.copy_ops += 1;
                        }
                    }
                }
                CallbackReply::NotCached { .. } => {
                    if page_grain {
                        let snapshot = self
                            .ops
                            .get(&callback)
                            .and_then(|op| op.snapshot_epochs.get(&from).copied());
                        if snapshot == Some(st.epoch(from)) {
                            st.copies.remove(&from);
                            self.cost.copy_ops += 1;
                        }
                    } else if let Some(op) = self.ops.get(&callback) {
                        if let Some(set) = st.obj_copies.get_mut(&op.oid.slot) {
                            set.remove(&from);
                            self.cost.copy_ops += 1;
                        }
                    }
                }
                CallbackReply::ObjectUnavailable { .. } => {
                    // The client keeps its page copy; nothing to deregister.
                }
                CallbackReply::Busy { .. } => {}
            }
        }
        // 2. Operation progress.
        match reply {
            CallbackReply::Busy { conflicts } => {
                self.stats.busy_replies += 1;
                if let Some(op) = self.ops.get(&callback) {
                    let txn = op.txn;
                    if self.txns.contains_key(&txn) {
                        self.wfg
                            .add_edges(txn, conflicts.into_iter().filter(|c| *c != txn));
                        self.resolve_deadlocks(txn);
                    }
                }
            }
            // Every final reply kind resolves the outstanding callback the
            // same way; spelled out so a new reply variant cannot silently
            // inherit this path (the handler denies `_` arms).
            CallbackReply::PagePurged { .. }
            | CallbackReply::ObjectUnavailable { .. }
            | CallbackReply::ObjectPurged { .. }
            | CallbackReply::NotCached { .. } => {
                let Some(op) = self.ops.get_mut(&callback) else {
                    return; // cancelled op; effects already applied
                };
                op.outstanding.remove(&from);
                if matches!(reply, CallbackReply::ObjectUnavailable { .. }) {
                    op.any_kept = true;
                }
                if op.outstanding.is_empty() {
                    let op = self.ops.remove(&callback).expect("just seen");
                    if let Some(st) = self.pages.get_mut(&op.oid.page) {
                        st.provisional.retain(|p| p.callback != callback);
                    }
                    if let Some(t) = self.txns.get_mut(&op.txn) {
                        t.pending_op = None;
                    }
                    self.wfg.clear_edges(op.txn);
                    self.finish_grant(op.requester, op.txn, op.oid, op.need_copy, op.any_kept);
                    self.grant_waiters(op.oid.page);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // De-escalation (PS-AA)
    // ------------------------------------------------------------------

    fn maybe_start_deescalation(&mut self, page: PageId, holder: TxnId) {
        let Some(st) = self.pages.get_mut(&page) else {
            return;
        };
        if st.deescalating.is_some() {
            return;
        }
        debug_assert_eq!(st.page_writer, Some(holder));
        st.deescalating = Some(holder);
        self.stats.deescalations += 1;
        let client = self.txns.get(&holder).expect("lock holder exists").client;
        self.send(client, ServerMsg::Deescalate { page, txn: holder });
    }

    fn handle_deesc_reply(&mut self, txn: TxnId, page: PageId, updated: Vec<u16>) {
        let Some(st) = self.pages.get_mut(&page) else {
            return;
        };
        if st.deescalating == Some(txn) {
            st.deescalating = None;
        }
        if st.page_writer == Some(txn) {
            st.page_writer = None;
            self.cost.lock_ops += 1 + updated.len() as u32;
            let t = self.txns.get_mut(&txn).expect("holder exists");
            t.page_locks.remove(&page);
            for slot in updated {
                t.obj_locks.insert(Oid::new(page, slot));
                st.obj_writers.insert(slot, txn);
            }
        }
        // Otherwise the reply is stale (the holder committed or aborted
        // while the de-escalation request was in flight); ignore it.
        self.grant_waiters(page);
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    fn handle_commit(&mut self, from: ClientId, txn: TxnId, writes: &[WriteSet]) {
        // Installing committed updates merges the shipped copies into the
        // server's versions object by object (object locks make the slot
        // sets of concurrent writers disjoint).
        self.cost.merged_objects += writes.iter().map(|w| w.slots.len() as u32).sum::<u32>();
        // A read-only transaction may never have registered server state;
        // it is still acknowledged. The ack itself is deferred: the
        // embedding's completion stage emits `CommitDone` once the
        // durability watermark covers the commit record (early lock
        // release is safe — log order puts any dependent commit after
        // this one, so an acked reader implies a durable writer).
        self.end_txn(txn);
        self.out.push(ServerAction::AckCommit { to: from, txn });
    }

    fn handle_client_abort(&mut self, from: ClientId, txn: TxnId) {
        self.end_txn(txn);
        self.send(from, ServerMsg::AbortDone { txn });
    }

    /// Releases everything a finished transaction holds and wakes waiters.
    /// Returns the owning client if the transaction was known.
    fn end_txn(&mut self, txn: TxnId) -> Option<ClientId> {
        let t = self.txns.remove(&txn)?;
        let mut touched: BTreeSet<PageId> = BTreeSet::new();
        for page in &t.page_locks {
            if let Some(st) = self.pages.get_mut(page) {
                debug_assert_eq!(st.page_writer, Some(txn));
                st.page_writer = None;
                if st.deescalating == Some(txn) {
                    st.deescalating = None;
                }
                self.cost.lock_ops += 1;
                touched.insert(*page);
            }
        }
        for oid in &t.obj_locks {
            if let Some(st) = self.pages.get_mut(&oid.page) {
                if st.obj_writers.get(&oid.slot) == Some(&txn) {
                    st.obj_writers.remove(&oid.slot);
                    self.cost.lock_ops += 1;
                }
                touched.insert(oid.page);
            }
        }
        // Defensive: a well-behaved client never finishes a transaction
        // with a request still outstanding, but clean up if it happens.
        if let Some(page) = t.waiting_on {
            if let Some(st) = self.pages.get_mut(&page) {
                st.waiters.retain(|w| w.txn != txn);
                touched.insert(page);
            }
        }
        if let Some(cb) = t.pending_op {
            if let Some(op) = self.ops.remove(&cb) {
                if let Some(st) = self.pages.get_mut(&op.oid.page) {
                    st.provisional.retain(|p| p.callback != cb);
                    touched.insert(op.oid.page);
                }
            }
        }
        self.wfg.remove_txn(txn);
        for page in touched {
            self.grant_waiters(page);
        }
        Some(t.client)
    }

    // ------------------------------------------------------------------
    // Deadlock handling
    // ------------------------------------------------------------------

    /// Repeatedly detects and breaks cycles reachable from `start` until
    /// none remain (or `start` itself was aborted).
    fn resolve_deadlocks(&mut self, start: TxnId) {
        loop {
            if !self.txns.contains_key(&start) {
                return;
            }
            let Some(cycle) = self.wfg.find_cycle(start) else {
                return;
            };
            let victim = cycle
                .iter()
                .copied()
                .max_by_key(|t| self.txns.get(t).map(|s| s.age).unwrap_or(0))
                .expect("cycle is non-empty");
            self.abort_victim(victim);
            if victim == start {
                return;
            }
        }
    }

    fn abort_victim(&mut self, victim: TxnId) {
        self.stats.deadlocks += 1;
        let client = self
            .end_txn(victim)
            .expect("victim chosen from live transactions");
        self.send(
            client,
            ServerMsg::Aborted {
                txn: victim,
                reason: AbortReason::Deadlock,
            },
        );
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn ensure_txn(&mut self, client: ClientId, txn: TxnId) {
        debug_assert_eq!(txn.client, client, "transaction from wrong client");
        if !self.txns.contains_key(&txn) {
            let age = self.next_age;
            self.next_age += 1;
            self.txns.insert(txn, STxn::new(client, age));
        }
    }

    fn send(&mut self, to: ClientId, msg: ServerMsg) {
        self.out.push(ServerAction::Send { to, msg });
    }

    /// Drops a page's state once nothing references it, bounding memory
    /// over long runs. (Epochs can be reset safely because quiescence means
    /// no client caches the page.)
    fn gc_page(&mut self, page: PageId) {
        if let Some(st) = self.pages.get(&page) {
            if st.is_quiescent() {
                self.pages.remove(&page);
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection (used by tests, the simulator's invariant checks and
    // the real engine)
    // ------------------------------------------------------------------

    /// The holder of `page`'s page write lock, if any.
    pub fn page_writer(&self, page: PageId) -> Option<TxnId> {
        self.pages.get(&page).and_then(|st| st.page_writer)
    }

    /// The holder of `oid`'s object write lock, if any.
    pub fn object_writer(&self, oid: Oid) -> Option<TxnId> {
        self.pages
            .get(&oid.page)
            .and_then(|st| st.obj_writers.get(&oid.slot).copied())
    }

    /// Clients the server believes cache `page` (page-granularity tables).
    pub fn page_copies(&self, page: PageId) -> Vec<ClientId> {
        self.pages
            .get(&page)
            .map(|st| st.copies.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Clients the server believes cache `oid` (object-granularity tables).
    pub fn object_copies(&self, oid: Oid) -> Vec<ClientId> {
        self.pages
            .get(&oid.page)
            .and_then(|st| st.obj_copies.get(&oid.slot))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of transactions the server currently tracks.
    pub fn live_txns(&self) -> usize {
        self.txns.len()
    }

    /// Number of blocked requests across all pages.
    pub fn blocked_requests(&self) -> usize {
        self.pages.values().map(|st| st.waiters.len()).sum()
    }

    /// Number of callback operations in flight.
    pub fn callbacks_in_flight(&self) -> usize {
        self.ops.len()
    }

    /// Checks internal invariants; panics on violation. Used by tests and
    /// (in debug builds) by the simulator between events.
    pub fn check_invariants(&self) {
        for (pid, st) in &self.pages {
            if let Some(h) = st.page_writer {
                assert!(
                    self.txns.contains_key(&h),
                    "{pid}: page writer {h} is not a live transaction"
                );
                // A page write lock excludes object write locks by others.
                for (&slot, &oh) in &st.obj_writers {
                    assert_eq!(
                        oh, h,
                        "{pid}: slot {slot} write-locked by {oh} alongside page lock of {h}"
                    );
                }
            }
            for (&slot, &oh) in &st.obj_writers {
                assert!(
                    self.txns.contains_key(&oh),
                    "{pid}: slot {slot} writer {oh} is not live"
                );
            }
            if let Some(d) = st.deescalating {
                assert_eq!(st.page_writer, Some(d), "{pid}: de-escalating non-holder");
            }
            for p in &st.provisional {
                assert!(
                    self.ops.contains_key(&p.callback),
                    "{pid}: provisional for dead op"
                );
            }
        }
        for (id, op) in &self.ops {
            assert!(
                !op.outstanding.is_empty(),
                "op {id:?} complete but not granted"
            );
            assert!(
                self.txns.contains_key(&op.txn),
                "op {id:?} for dead transaction"
            );
        }
        for (txn, t) in &self.txns {
            if let Some(cb) = t.pending_op {
                assert!(self.ops.contains_key(&cb), "{txn}: stale pending op");
            }
        }
    }
}
