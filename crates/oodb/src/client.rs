//! The per-client runtime: the client protocol engine plus the byte-level
//! cache (parsed page images and an overlay for oversize/forwarded
//! objects), kept as passive shared state that whoever has input drives.
//! Application calls run it on the calling thread — a cache hit costs one
//! lock, no thread hop — and a server message runs it on the thread that
//! delivers it: [`ClientShared`] is the client's [`ClientPort`]; either
//! thread then serves the requests it queued (DESIGN.md §8).

use crate::error::TxnError;
use crate::transport::{ClientParams, ClientPort, RequestSink, Run};
use crate::wire::{into_owned, SharedBytes, ToClient};
use fgs_core::client::{ClientAction, ClientEngine, TxnOutcome};
use fgs_core::sync::{Condvar, Mutex, MutexGuard};
use fgs_core::{
    AbortReason, ClientId, ClientStats, DataGrant, Oid, PageId, Protocol, Request, ServerMsg,
    SlotId, TxnId,
};
use fgs_pagestore::{Record, SlottedPage};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one call may stay parked before the connection is declared
/// dead. Overridable (in milliseconds) with `FGS_RPC_TIMEOUT_MS` — the
/// chaos harness shortens it so wedged-run diagnostics don't take a minute.
fn rpc_timeout() -> Duration {
    static TIMEOUT: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *TIMEOUT.get_or_init(|| {
        std::env::var("FGS_RPC_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_secs(60))
    })
}

/// An application call the engine may have to ask the server about.
#[derive(Debug)]
pub(crate) enum Call {
    Read(Oid),
    Write(Oid, Vec<u8>),
    Commit,
    Abort,
}

/// A call's result: the bytes read, or empty for calls that return nothing.
type Reply = Result<Vec<u8>, TxnError>;

/// One client workstation's state, shared by its [`Session`]s and by
/// whichever thread delivers its server messages.
///
/// [`Session`]: crate::Session
pub(crate) struct ClientShared {
    state: Mutex<ClientRuntime>,
    /// Signalled when the parked call completes.
    done: Condvar,
    timeout: Duration,
}

impl ClientShared {
    pub(crate) fn new(
        id: ClientId,
        params: ClientParams,
        sink: Box<dyn RequestSink>,
    ) -> Arc<ClientShared> {
        Arc::new(ClientShared {
            state: Mutex::new(ClientRuntime::new(id, params, sink)),
            done: Condvar::new(),
            timeout: rpc_timeout(),
        })
    }

    /// Locks the runtime for one application call. One call at a time: a
    /// caller arriving while another is parked is refused — the engine is
    /// mid-access and cannot safely take another operation.
    fn enter(&self) -> Result<MutexGuard<'_, ClientRuntime>, TxnError> {
        let rt = self.state.lock();
        if let Some(e) = &rt.dead {
            return Err(e.clone());
        }
        if rt.waiting.is_some() || rt.done.is_some() {
            return Err(TxnError::TxnState(
                "a call is already pending on this client",
            ));
        }
        Ok(rt)
    }

    pub(crate) fn begin(&self) -> Result<(), TxnError> {
        self.enter()?.begin()
    }

    pub(crate) fn stats(&self) -> Result<ClientStats, TxnError> {
        Ok(self.enter()?.engine.stats().clone())
    }

    /// Runs one call on the calling thread: a hit completes right there;
    /// a miss or commit serves its own request, which may complete it on
    /// this thread, and otherwise parks until a delivery completes it.
    pub(crate) fn call(&self, call: Call) -> Reply {
        let mut rt = self.enter()?;
        rt.start(call)?;
        if let Some(run) = rt.sink.claim_run(false) {
            drop(rt);
            rt = self.serve(run);
        }
        let mut deadline = None;
        loop {
            if let Some(res) = rt.done.take() {
                return res;
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // The engine is still mid-access; a later call would
                // overlap it. Declare the connection dead instead: the
                // sink closes (telling the server the client is gone),
                // every later call fails fast, and a late grant is dropped.
                drop(rt);
                self.turn(|rt| {
                    rt.close();
                    rt.done = None;
                });
                return Err(TxnError::Io("rpc timed out; connection closed".into()));
            }
            self.done.wait_for(&mut rt, left);
        }
    }

    /// Engine (or remote client) shutdown: closes the runtime — goodbye
    /// through the sink, a parked caller failed — so a `Session` that
    /// outlives its engine gets [`TxnError::Closed`] instead of parking.
    pub(crate) fn shutdown(&self) {
        self.turn(ClientRuntime::close);
    }

    /// Handles a run of server envelopes under one lock hold. Stops at the
    /// first envelope that finds the runtime dead; `false` tells the
    /// deliverer to drop the rest.
    fn handle_run(&self, envs: impl IntoIterator<Item = ToClient>) -> bool {
        self.turn(|rt| {
            for env in envs {
                if rt.dead.is_some() {
                    break;
                }
                rt.handle_server(env);
            }
            rt.dead.is_none()
        })
    }

    /// Runs `f` under the lock, then — unlocked — wakes the parked caller
    /// if its call completed, and serves what `f` queued for the server.
    fn turn<R>(&self, f: impl FnOnce(&mut ClientRuntime) -> R) -> R {
        let mut rt = self.state.lock();
        let out = f(&mut rt);
        let run = rt.sink.claim_run(false);
        let done = rt.done.is_some();
        drop(rt);
        if done {
            self.done.notify_one();
        }
        if let Some(run) = run {
            let rt = self.serve(run);
            self.wake(rt);
        }
        out
    }

    /// Serves `run`, then whatever else the outbox holds — including what
    /// nested deliveries to this client queued meanwhile — one batch at a
    /// time, unlocked; returns with the lock held and the outbox empty.
    /// A refused run means the server is closed (or gone): a lost
    /// connection.
    fn serve(&self, mut run: Run) -> MutexGuard<'_, ClientRuntime> {
        loop {
            let served = run.0.upgrade().is_some_and(|server| server.serve(run.1));
            let mut rt = self.state.lock();
            if !served {
                rt.conn_lost();
            }
            match rt.sink.claim_run(true) {
                Some(next) => run = next,
                None => return rt,
            }
        }
    }

    /// Notifies after the guard drops, so the woken caller finds the lock
    /// free. At most one caller is ever parked.
    fn wake(&self, rt: MutexGuard<'_, ClientRuntime>) {
        let done = rt.done.is_some();
        drop(rt);
        if done {
            self.done.notify_one();
        }
    }
}

/// The client is its own port: the thread that delivers a server message
/// — on the channel transport the run that produced it or the force
/// that released it (through a chaos port under fault injection), over
/// TCP the connection's reader thread — runs the engine on the spot.
///
/// That thread may take `ClientState`, the outermost lock class, because
/// every deliverer holds no lock when it calls in: the completion router
/// drops `CompletionState` before it delivers (a forcing run included),
/// a chaos port holds no lock while it delivers, and reader threads hold
/// nothing. Under `ClientState` the client only queues into its outbox
/// or, over TCP, writes a socket (DESIGN.md §10).
impl ClientPort for ClientShared {
    fn deliver(&self, env: ToClient) -> bool {
        self.handle_run(std::iter::once(env))
    }

    /// The whole run under one lock hold and at most one wake-up.
    fn deliver_batch(&self, envs: Vec<ToClient>) -> bool {
        self.handle_run(envs)
    }

    /// The transport lost the server: fails the parked caller and every
    /// later call with [`TxnError::Server`].
    fn close(&self) {
        self.turn(ClientRuntime::conn_lost);
    }
}

pub(crate) struct ClientRuntime {
    id: ClientId,
    protocol: Protocol,
    objects_per_page: u16,
    max_object_bytes: usize,
    engine: ClientEngine,
    /// Parsed page images (page-transfer protocols).
    pages: HashMap<PageId, SlottedPage>,
    /// Object bytes that do not live in a page image: oversize local
    /// updates and forwarded objects resolved by the server.
    overlay: HashMap<Oid, Vec<u8>>,
    /// Object bytes for the object server.
    objects: HashMap<Oid, Vec<u8>>,
    /// Slots updated by the active transaction (byte-merge bookkeeping).
    dirty: HashMap<PageId, HashSet<SlotId>>,
    txn_seq: u64,
    /// The one call whose request is with the server; its caller is parked.
    waiting: Option<Call>,
    /// That call's result, until its caller picks it up.
    done: Option<Reply>,
    /// The active transaction was killed server-side (deadlock victim or
    /// server failure); the error to surface on the pending or next call.
    killed: Option<TxnError>,
    /// Set once the runtime is beyond use; every call fails with this from
    /// here on. [`TxnError::Server`]: the transport lost the server.
    /// [`TxnError::Closed`]: shut down, or poisoned by an rpc timeout.
    dead: Option<TxnError>,
    sink: Box<dyn RequestSink>,
}

impl ClientRuntime {
    fn new(id: ClientId, params: ClientParams, sink: Box<dyn RequestSink>) -> Self {
        ClientRuntime {
            id,
            protocol: params.protocol,
            objects_per_page: params.objects_per_page,
            max_object_bytes: params.page_size - 16,
            engine: ClientEngine::new(
                id,
                params.protocol,
                params.objects_per_page,
                params.client_cache_pages,
            ),
            pages: HashMap::new(),
            overlay: HashMap::new(),
            objects: HashMap::new(),
            dirty: HashMap::new(),
            txn_seq: params.first_txn_seq,
            waiting: None,
            done: None,
            killed: None,
            dead: None,
            sink,
        }
    }

    // ------------------------------------------------------------------
    // Application calls
    // ------------------------------------------------------------------

    fn begin(&mut self) -> Result<(), TxnError> {
        if self.engine.has_active_txn() {
            return Err(TxnError::TxnState("a transaction is already active"));
        }
        self.txn_seq += 1;
        self.killed = None;
        self.engine.begin(TxnId::new(self.id, self.txn_seq));
        Ok(())
    }

    /// Validates `call` and feeds it to the engine, which either completes
    /// it from the cache or sends the server a request for it.
    fn start(&mut self, call: Call) -> Result<(), TxnError> {
        let slot = match &call {
            Call::Read(oid) | Call::Write(oid, _) => oid.slot,
            Call::Commit | Call::Abort => 0,
        };
        self.txn_guard(slot)?;
        let outcome = match &call {
            Call::Read(oid) => self.engine.access(*oid, false),
            Call::Write(_, bytes) if bytes.len() > self.max_object_bytes => {
                return Err(TxnError::ObjectTooLarge)
            }
            Call::Write(oid, _) => self.engine.access(*oid, true),
            Call::Commit => self.engine.commit(),
            Call::Abort => self.engine.abort(),
        };
        self.waiting = Some(call);
        self.handle_actions(outcome.actions);
        Ok(())
    }

    /// Common per-call validation: server-abort surfacing, slot range,
    /// and transaction existence.
    fn txn_guard(&mut self, slot: SlotId) -> Result<(), TxnError> {
        if let Some(e) = self.killed.take() {
            return Err(e);
        }
        if !self.engine.has_active_txn() {
            return Err(TxnError::TxnState("no active transaction"));
        }
        if slot >= self.objects_per_page {
            return Err(TxnError::NoSuchObject);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Server messages
    // ------------------------------------------------------------------

    fn handle_server(&mut self, env: ToClient) {
        // Discard stale transaction-addressed messages. If a previous
        // incarnation of this client id died mid-transaction, the
        // server's reply to it can race our reconnect through the port
        // map and land here; transaction ids are never reused across
        // connections (see `ClientParams::first_txn_seq`), so anything
        // addressed to a transaction we are not running is provably not
        // ours. Callbacks are client-addressed and always handled.
        if let Some(txn) = env.msg.txn_addressee() {
            if self.engine.active_txn() != Some(txn) {
                return;
            }
        }
        // Capture *why* a server-side abort happened before the engine
        // collapses it into a generic `TxnEnded`; `finish_txn` surfaces
        // the matching error to the application.
        if let ServerMsg::Aborted { reason, .. } = &env.msg {
            self.killed = Some(match reason {
                AbortReason::Deadlock => TxnError::Deadlock,
                AbortReason::Server => TxnError::Server,
            });
        }
        // Byte payloads install before the engine acts on the message, so
        // an `AccessReady` emitted during handling can read them.
        let mut stub_scan: Option<PageId> = None;
        match &env.msg {
            ServerMsg::ReadGranted { oid, data, .. }
            | ServerMsg::WriteGranted { oid, data, .. } => match data {
                DataGrant::Page { page, .. } => {
                    let image = env.page_image.expect("page grant carries an image");
                    self.install_page_image(*page, image, *oid, env.object_bytes);
                    stub_scan = Some(*page);
                }
                DataGrant::Object { oid } => {
                    let bytes = env.object_bytes.expect("object grant carries bytes");
                    self.objects.insert(*oid, into_owned(bytes));
                }
                DataGrant::None => {}
            },
            // Control messages carry no payload; spelled out so a new
            // data-bearing ServerMsg variant cannot silently skip the
            // install stage (fgs-lint handler_exhaustiveness).
            ServerMsg::Callback { .. }
            | ServerMsg::Deescalate { .. }
            | ServerMsg::Aborted { .. }
            | ServerMsg::CommitDone { .. }
            | ServerMsg::AbortDone { .. } => {}
        }
        let outcome = self.engine.handle_server(env.msg);
        self.handle_actions(outcome.actions);
        // Mark unresolved forwarding stubs unavailable so future accesses
        // are protocol-level misses (the server resolves them on demand).
        if let Some(page) = stub_scan {
            self.invalidate_unresolved_stubs(page);
        }
    }

    /// Installs a fresh page image, preserving the active transaction's
    /// local updates (the paper's copy-merge). The shared image is
    /// reclaimed in place when this client is its sole recipient.
    fn install_page_image(
        &mut self,
        page: PageId,
        image: SharedBytes,
        requested: Oid,
        object_bytes: Option<SharedBytes>,
    ) {
        // Capture our uncommitted bytes before the image is replaced.
        let dirty_slots: Vec<SlotId> = self
            .dirty
            .get(&page)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let saved: Vec<(Oid, Vec<u8>)> = dirty_slots
            .iter()
            .map(|&slot| {
                let oid = Oid::new(page, slot);
                (oid, self.read_local(oid).expect("dirty object readable"))
            })
            .collect();
        self.pages
            .insert(page, SlottedPage::from_bytes(into_owned(image)));
        self.overlay.retain(|o, _| o.page != page);
        for (oid, bytes) in saved {
            self.apply_local_write(oid, bytes);
        }
        // Resolve the requested object if its home slot holds a stub.
        if let Some(bytes) = object_bytes {
            if self.slot_is_stub(requested) {
                self.overlay.insert(requested, into_owned(bytes));
            }
        }
    }

    fn slot_is_stub(&self, oid: Oid) -> bool {
        self.pages
            .get(&oid.page)
            .is_some_and(|p| matches!(p.read(oid.slot), Ok(Record::Forward(..))))
    }

    fn invalidate_unresolved_stubs(&mut self, page: PageId) {
        for slot in 0..self.objects_per_page {
            let oid = Oid::new(page, slot);
            if self.slot_is_stub(oid)
                && !self.overlay.contains_key(&oid)
                && !self.dirty.get(&page).is_some_and(|s| s.contains(&slot))
            {
                self.engine.invalidate_object(oid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Engine actions
    // ------------------------------------------------------------------

    fn handle_actions(&mut self, actions: Vec<ClientAction>) {
        for a in actions {
            match a {
                ClientAction::Send(req) => {
                    let commit_data = match &req {
                        Request::Commit { writes, .. } => writes
                            .iter()
                            .flat_map(|ws| {
                                ws.slots.iter().map(|&slot| {
                                    let oid = Oid::new(ws.page, slot);
                                    (
                                        oid,
                                        self.read_local(oid)
                                            .expect("dirty object readable at commit"),
                                    )
                                })
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    if self.sink.send_request(self.id, req, commit_data).is_err() {
                        self.conn_lost();
                    }
                }
                ClientAction::AccessReady { oid, write, .. } => self.complete_access(oid, write),
                ClientAction::TxnEnded { outcome, .. } => self.finish_txn(outcome),
                ClientAction::DroppedPage { page } => {
                    self.pages.remove(&page);
                    self.overlay.retain(|o, _| o.page != page);
                }
                ClientAction::DroppedObject { oid } => {
                    self.objects.remove(&oid);
                }
            }
        }
    }

    fn complete_access(&mut self, oid: Oid, write: bool) {
        let res = match self.waiting.take() {
            Some(Call::Read(o)) => {
                debug_assert_eq!((o, write), (oid, false));
                self.read_local(oid).ok_or(TxnError::NoSuchObject)
            }
            Some(Call::Write(o, bytes)) => {
                debug_assert_eq!((o, write), (oid, true));
                self.apply_local_write(oid, bytes);
                self.dirty.entry(oid.page).or_default().insert(oid.slot);
                Ok(Vec::new())
            }
            other => {
                if self.dead.is_some() {
                    // The call already failed: a send earlier in this
                    // same batch of engine actions lost the connection.
                    return;
                }
                panic!("grant without a matching app call: {other:?}")
            }
        };
        self.done = Some(res);
    }

    fn finish_txn(&mut self, outcome: TxnOutcome) {
        self.dirty.clear();
        let res = match (self.waiting.take(), outcome) {
            (Some(Call::Commit), TxnOutcome::Committed)
            | (Some(Call::Abort), TxnOutcome::Aborted) => Ok(Vec::new()),
            (Some(Call::Commit | Call::Read(_) | Call::Write(..)), TxnOutcome::Deadlocked) => {
                Err(self.kill_error())
            }
            (None, TxnOutcome::Deadlocked) => {
                // Killed between app calls; `txn_guard` surfaces the
                // error (already stashed in `self.killed`) next call.
                let e = self.kill_error();
                self.killed = Some(e);
                return;
            }
            (call, outcome) => {
                if self.dead.is_some() {
                    return; // see `complete_access`
                }
                panic!("inconsistent transaction end: {call:?} vs {outcome:?}")
            }
        };
        self.done = Some(res);
    }

    /// The error a server-side kill should surface (captured from the
    /// `Aborted` message; deadlock if the reason never reached us).
    fn kill_error(&mut self) -> TxnError {
        self.killed.take().unwrap_or(TxnError::Deadlock)
    }

    /// The transport lost the server (socket death or send failure): fail
    /// the parked call and poison the runtime — every later call errors
    /// with [`TxnError::Server`]. The engine's protocol state is beyond
    /// repair without the server, so no local cleanup is attempted.
    fn conn_lost(&mut self) {
        self.fail(TxnError::Server);
    }

    /// Shuts the runtime down for good (engine shutdown, or an rpc timeout
    /// poisoning the connection): fails the parked call, and every later
    /// call errors with [`TxnError::Closed`].
    fn close(&mut self) {
        self.fail(TxnError::Closed);
    }

    /// Says goodbye through the sink (once) — under the lock, so after
    /// every request this runtime sent and with none to follow — and fails
    /// the parked call and all later ones with `e`.
    fn fail(&mut self, e: TxnError) {
        if self.dead.is_none() {
            self.sink.close();
        }
        if self.waiting.take().is_some() {
            self.done = Some(Err(e.clone()));
        }
        // `Closed` is final: a connection loss noticed later keeps it.
        if self.dead != Some(TxnError::Closed) {
            self.dead = Some(e);
        }
    }

    // ------------------------------------------------------------------
    // Byte-level cache
    // ------------------------------------------------------------------

    fn read_local(&self, oid: Oid) -> Option<Vec<u8>> {
        if self.protocol == Protocol::Os {
            return self.objects.get(&oid).cloned();
        }
        if let Some(bytes) = self.overlay.get(&oid) {
            return Some(bytes.clone());
        }
        match self.pages.get(&oid.page)?.read(oid.slot) {
            Ok(Record::Data(d)) => Some(d.to_vec()),
            Ok(Record::Forward(..)) => {
                unreachable!("unresolved stub {oid} was marked unavailable")
            }
            Err(_) => None,
        }
    }

    /// Applies bytes locally: in the page image if they fit, else in the
    /// overlay (the server's copy forwards at commit).
    fn apply_local_write(&mut self, oid: Oid, bytes: Vec<u8>) {
        if self.protocol == Protocol::Os {
            self.objects.insert(oid, bytes);
            return;
        }
        let page = self
            .pages
            .get_mut(&oid.page)
            .expect("write permission implies a cached page");
        match page.put_at(oid.slot, &bytes) {
            Ok(()) => {
                self.overlay.remove(&oid);
            }
            Err(_) => {
                self.overlay.insert(oid, bytes);
            }
        }
    }
}

/// A client runtime over a recording sink, with no transport: tests
/// deliver its server messages by hand, on whichever thread they choose,
/// or let an [`InlineServer`] behind a real channel-transport outbox
/// answer its reads on the thread that serves them.
#[cfg(test)]
mod testkit {
    use super::*;
    use crate::transport::channel::ChannelSink;
    use crate::transport::Serve;
    use crate::wire::ToServer;
    use crate::Session;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use fgs_core::GrantLevel;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{OnceLock, Weak};

    /// What the sink saw, in the order the runtime sent it.
    pub(super) struct Wire {
        pub sent: Mutex<Vec<Request>>,
        /// How many times the runtime said goodbye.
        pub closes: AtomicUsize,
        seen: Sender<Request>,
    }

    /// Records every request, then hands it to the channel transport's
    /// outbox when there is one. Both happen under the client's lock, so
    /// `sent` is the outbox's order.
    struct RecordingSink {
        wire: Arc<Wire>,
        outbox: Option<ChannelSink>,
    }

    impl RequestSink for RecordingSink {
        fn send_request(
            &mut self,
            from: ClientId,
            req: Request,
            commit_data: Vec<(Oid, Vec<u8>)>,
        ) -> Result<(), TxnError> {
            self.wire.sent.lock().push(req.clone());
            let _ = self.wire.seen.send(req.clone());
            match &mut self.outbox {
                Some(outbox) => outbox.send_request(from, req, commit_data),
                None => Ok(()),
            }
        }

        fn close(&mut self) {
            self.wire.closes.fetch_add(1, Ordering::SeqCst);
            if let Some(outbox) = &mut self.outbox {
                outbox.close();
            }
        }

        fn claim_run(&mut self, resume: bool) -> Option<Run> {
            self.outbox.as_mut()?.claim_run(resume)
        }
    }

    /// A server that runs on whichever thread serves the client's
    /// outbox, as the real one does: it records every request it runs,
    /// in order, and answers a read with a whole-page grant delivered
    /// straight back into the client on that same thread.
    pub(super) struct InlineServer {
        pub served: Mutex<Vec<Request>>,
        client: OnceLock<Weak<ClientShared>>,
    }

    impl Serve for InlineServer {
        fn serve(&self, batch: Vec<ToServer>) -> bool {
            for env in batch {
                let ToServer::Req { req, .. } = env else {
                    continue; // the goodbye
                };
                self.served.lock().push(req.clone());
                if let Request::Read { txn, oid } = req {
                    let client = self.client.get().and_then(Weak::upgrade);
                    client
                        .expect("the client outlives its runs")
                        .deliver(page_grant(txn, oid, false));
                }
            }
            true
        }
    }

    pub(super) struct Rig {
        pub session: Session,
        pub shared: Arc<ClientShared>,
        pub wire: Arc<Wire>,
    }

    pub(super) const PAGE: PageId = PageId(3);
    pub(super) const FILL: [u8; 8] = [7; 8];

    /// A PS-AA client (4 objects per page, 4-page cache) whose parked calls
    /// time out after `timeout`, and a feed of every request it sends, for
    /// a thread that must block until one is on the wire.
    pub(super) fn rig(timeout: Duration) -> (Rig, Receiver<Request>) {
        rig_over(timeout, None)
    }

    /// The same client on the channel transport, its outbox served by
    /// an [`InlineServer`].
    pub(super) fn inline_rig(timeout: Duration) -> (Rig, Arc<InlineServer>) {
        let server = Arc::new(InlineServer {
            served: Mutex::new(Vec::new()),
            client: OnceLock::new(),
        });
        let (rig, _) = rig_over(timeout, Some(server.clone()));
        let _ = server.client.set(Arc::downgrade(&rig.shared));
        (rig, server)
    }

    fn rig_over(timeout: Duration, server: Option<Arc<dyn Serve>>) -> (Rig, Receiver<Request>) {
        let (seen, requests) = unbounded();
        let wire = Arc::new(Wire {
            sent: Mutex::new(Vec::new()),
            closes: AtomicUsize::new(0),
            seen,
        });
        let params = ClientParams {
            protocol: Protocol::PsAa,
            objects_per_page: 4,
            page_size: 256,
            client_cache_pages: 4,
            first_txn_seq: 0,
        };
        let sink = Box::new(RecordingSink {
            wire: wire.clone(),
            outbox: server.map(|server| ChannelSink::new(ClientId(0), Arc::downgrade(&server))),
        });
        let shared = Arc::new(ClientShared {
            state: Mutex::new(ClientRuntime::new(ClientId(0), params, sink)),
            done: Condvar::new(),
            timeout,
        });
        let session = Session::new(0, shared.clone());
        let rig = Rig {
            session,
            shared,
            wire,
        };
        (rig, requests)
    }

    impl Rig {
        pub fn txn(&self) -> TxnId {
            self.shared.state.lock().engine.active_txn().expect("txn")
        }

        /// One server-bound call without a second thread: starts it, then
        /// hands the runtime the server's `reply`, as a parked caller and
        /// a deliverer would between them.
        pub fn by_hand(&self, call: Call, reply: ToClient) -> Reply {
            let mut rt = self.shared.state.lock();
            rt.start(call)?;
            assert!(rt.waiting.is_some(), "the call must miss");
            rt.handle_server(reply);
            rt.done.take().expect("the reply completes the call")
        }
    }

    pub(super) fn control(msg: ServerMsg) -> ToClient {
        ToClient {
            msg,
            page_image: None,
            object_bytes: None,
        }
    }

    /// An adaptive callback for slot 0 of `page`.
    pub(super) fn callback_on(page: PageId) -> ToClient {
        control(ServerMsg::Callback {
            callback: fgs_core::CallbackId(9),
            page,
            target: fgs_core::CallbackTarget::PageAdaptive { slot: 0 },
        })
    }

    /// A whole-page grant for `oid`'s page: every slot holds [`FILL`].
    pub(super) fn page_grant(txn: TxnId, oid: Oid, write: bool) -> ToClient {
        let mut image = SlottedPage::new(256);
        for _ in 0..4 {
            image.insert(&FILL).expect("fits");
        }
        let data = DataGrant::Page {
            page: oid.page,
            unavailable: Vec::new(),
            epoch: 1,
        };
        ToClient {
            msg: if write {
                ServerMsg::WriteGranted {
                    txn,
                    oid,
                    level: GrantLevel::Page,
                    data,
                }
            } else {
                ServerMsg::ReadGranted { txn, oid, data }
            },
            page_image: Some(Arc::new(image.as_bytes().to_vec())),
            object_bytes: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use fgs_core::{CallbackId, CallbackReply};
    use std::sync::atomic::Ordering;

    /// The rpc timeout where none should expire. A parked caller rechecks
    /// its slot when it does, so a lost wake-up shows as a call taking
    /// this long, not as an error.
    const LONG: Duration = Duration::from_secs(5);
    const OVERLAP: TxnError = TxnError::TxnState("a call is already pending on this client");

    fn callback_reply(reply: CallbackReply) -> Request {
        Request::CallbackReply {
            callback: CallbackId(9),
            page: PAGE,
            reply,
        }
    }

    fn callback() -> ToClient {
        callback_on(PAGE)
    }

    /// Transaction 1 reads `PAGE` from the server and commits, leaving
    /// the page cached and no transaction active.
    fn cache_page(rig: &Rig) {
        let a = Oid::new(PAGE, 0);
        rig.session.begin().unwrap();
        let t1 = rig.txn();
        rig.by_hand(Call::Read(a), page_grant(t1, a, false))
            .unwrap();
        rig.by_hand(Call::Commit, control(ServerMsg::CommitDone { txn: t1 }))
            .unwrap();
    }

    /// No other thread exists here, so a call that returns was served
    /// entirely on the calling thread.
    #[test]
    fn cache_hits_complete_on_the_calling_thread() {
        let (rig, _) = rig(LONG);
        let (a, b) = (Oid::new(PAGE, 0), Oid::new(PAGE, 1));
        rig.session.begin().unwrap();
        let grant = page_grant(rig.txn(), a, true);
        rig.by_hand(Call::Write(a, b"v1".to_vec()), grant).unwrap();
        let sent = rig.wire.sent.lock().len();

        assert_eq!(rig.session.read(a).unwrap(), b"v1");
        rig.session.write(b, b"v2".to_vec()).unwrap();
        assert_eq!(rig.session.read(b).unwrap(), b"v2");
        assert_eq!(rig.session.stats().unwrap().hits, 3);
        assert_eq!(rig.wire.sent.lock().len(), sent, "a hit sends nothing");
    }

    /// On the channel transport a miss's request is served by its own
    /// caller once the lock is dropped, and the server's grant comes
    /// straight back into the client on that thread: the call returns
    /// with its result already set, never parking. The zero rpc timeout
    /// turns any park into an error, and no other thread exists.
    #[test]
    fn an_inline_served_miss_completes_without_parking() {
        let (rig, server) = inline_rig(Duration::ZERO);
        let a = Oid::new(PAGE, 0);
        rig.session.begin().unwrap();
        let txn = rig.txn();
        assert_eq!(rig.session.read(a).unwrap(), FILL);
        assert_eq!(*server.served.lock(), vec![Request::Read { txn, oid: a }]);
        assert_eq!(rig.session.read(Oid::new(PAGE, 1)).unwrap(), FILL, "a hit");
    }

    /// The one ordering relaxation (DESIGN.md §12): a cached read may be
    /// served while a callback for its page is still in flight. The
    /// outcome is that of the callback arriving after the read.
    #[test]
    fn a_hit_may_overtake_a_queued_callback() {
        let (rig, _) = rig(LONG);
        let a = Oid::new(PAGE, 0);
        cache_page(&rig);

        rig.session.begin().unwrap();
        let t2 = rig.txn();
        assert_eq!(rig.session.read(a).unwrap(), FILL);
        assert!(rig.shared.deliver(callback()));

        let busy = callback_reply(CallbackReply::Busy {
            conflicts: vec![t2],
        });
        assert_eq!(rig.wire.sent.lock().last(), Some(&busy));
        assert!(rig.shared.state.lock().pages.contains_key(&PAGE));
        // A read-only transaction that never asked the server commits
        // locally; the deferred callback is answered then.
        rig.session.commit().unwrap();
        let purged = callback_reply(CallbackReply::PagePurged { epoch: 1 });
        assert_eq!(rig.wire.sent.lock().last(), Some(&purged));
        let rt = rig.shared.state.lock();
        assert!(!rt.pages.contains_key(&PAGE));
        assert_eq!(rt.engine.stats().busy_replies, 1);
    }

    /// An idle client — between transactions, no call parked, so no
    /// application thread to run it — still answers a callback: the
    /// delivering thread runs the engine, and the reply is on the wire
    /// before `deliver` returns.
    #[test]
    fn an_idle_client_answers_a_callback_before_deliver_returns() {
        let (rig, _) = rig(LONG);
        cache_page(&rig);
        assert!(rig.shared.deliver(callback()));
        let purged = callback_reply(CallbackReply::PagePurged { epoch: 1 });
        assert_eq!(rig.wire.sent.lock().last(), Some(&purged));
        assert!(!rig.shared.state.lock().pages.contains_key(&PAGE));
    }

    #[test]
    fn a_second_caller_is_refused_while_a_miss_is_parked() {
        let (rig, requests) = rig(LONG);
        let a = Oid::new(PAGE, 0);
        rig.session.begin().unwrap();
        let txn = rig.txn();
        let started = Instant::now();
        let parked = {
            let session = rig.session.clone();
            std::thread::spawn(move || session.read(a))
        };
        // The first caller sends its request holding the lock and releases
        // it only by parking, so the calls below find it parked.
        assert_eq!(requests.recv().unwrap(), Request::Read { txn, oid: a });
        assert_eq!(rig.session.read(a), Err(OVERLAP));
        assert_eq!(rig.session.begin(), Err(OVERLAP));
        assert!(rig.shared.deliver(page_grant(txn, a, false)));
        assert_eq!(parked.join().unwrap().unwrap(), FILL);
        assert!(started.elapsed() < LONG, "the grant's wake-up was lost");
    }

    #[test]
    fn an_rpc_timeout_poisons_the_client() {
        let (rig, _) = rig(Duration::from_millis(30));
        let a = Oid::new(PAGE, 0);
        rig.session.begin().unwrap();
        let txn = rig.txn();
        assert_eq!(
            rig.session.read(a),
            Err(TxnError::Io("rpc timed out; connection closed".into()))
        );
        assert_eq!(rig.wire.closes.load(Ordering::SeqCst), 1);
        assert_eq!(rig.session.read(a), Err(TxnError::Closed));
        assert_eq!(rig.session.begin(), Err(TxnError::Closed));
        // The grant, when it finally comes, is refused with the rest of
        // its run.
        let run = vec![
            page_grant(txn, a, false),
            control(ServerMsg::CommitDone { txn }),
        ];
        assert!(!rig.shared.deliver_batch(run));
        let rt = rig.shared.state.lock();
        assert!(rt.waiting.is_none() && rt.done.is_none());
    }

    #[test]
    fn shutdown_closes_the_state_under_a_parked_caller() {
        let (rig, requests) = rig(LONG);
        rig.session.begin().unwrap();
        let started = Instant::now();
        let parked = {
            let session = rig.session.clone();
            std::thread::spawn(move || session.read(Oid::new(PAGE, 0)))
        };
        requests.recv().unwrap();
        let shared = rig.shared.clone();
        std::thread::spawn(move || shared.shutdown())
            .join()
            .unwrap();
        assert_eq!(parked.join().unwrap(), Err(TxnError::Closed));
        assert!(started.elapsed() < LONG, "the shutdown's wake-up was lost");
        assert_eq!(rig.wire.closes.load(Ordering::SeqCst), 1);
        assert_eq!(rig.session.begin(), Err(TxnError::Closed));
        assert!(!rig.shared.deliver(callback()), "a closed client refuses");
    }

    /// The transport losing the server (`ClientPort::close`) fails the
    /// parked caller with `Server` and says goodbye exactly once, however
    /// often it is reported.
    #[test]
    fn a_lost_connection_fails_the_parked_caller_and_closes_the_sink_once() {
        let (rig, requests) = rig(LONG);
        rig.session.begin().unwrap();
        let parked = {
            let session = rig.session.clone();
            std::thread::spawn(move || session.read(Oid::new(PAGE, 0)))
        };
        requests.recv().unwrap();
        rig.shared.close();
        assert_eq!(parked.join().unwrap(), Err(TxnError::Server));
        assert_eq!(rig.session.begin(), Err(TxnError::Server));
        rig.shared.close();
        rig.shared.shutdown();
        assert_eq!(rig.wire.closes.load(Ordering::SeqCst), 1);
        assert_eq!(rig.session.begin(), Err(TxnError::Closed));
    }
}

/// Model checks of caller ↔ deliverer, run only under
/// `RUSTFLAGS="--cfg loom"` (DESIGN.md §10): the state mutex and condvar
/// resolve to `loom::sync` types through [`fgs_core::sync`], so the
/// explored schedules drive the production `call` and [`ClientPort`]
/// paths.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::testkit::*;
    use super::*;
    use loom::thread;

    const NO_TXN: TxnError = TxnError::TxnState("no active transaction");

    /// Runs `caller` against a deliverer thread that waits for the
    /// caller's first request (its read miss), then answers it through
    /// the client's port as `script` says. A parked caller rechecks its
    /// slot when the rpc timeout expires, so a lost wake-up shows as the
    /// run taking that long.
    fn model(script: fn(&ClientShared, TxnId, Oid), caller: fn(&Rig, thread::JoinHandle<()>)) {
        loom::model(move || {
            let timeout = Duration::from_secs(5);
            let (rig, requests) = rig(timeout);
            let started = Instant::now();
            let shared = rig.shared.clone();
            let deliverer = thread::spawn(move || {
                let Ok(Request::Read { txn, oid }) = requests.recv() else {
                    panic!("the caller's first request is its read miss");
                };
                script(&shared, txn, oid);
            });
            caller(&rig, deliverer);
            assert!(started.elapsed() < timeout, "a wake-up was lost");
        });
    }

    #[test]
    fn a_parked_miss_is_woken_by_its_grant() {
        model(
            |port, txn, oid| assert!(port.deliver(page_grant(txn, oid, false))),
            |rig, deliverer| {
                rig.session.begin().unwrap();
                assert_eq!(rig.session.read(Oid::new(PAGE, 0)).unwrap(), FILL);
                deliverer.join().unwrap();
            },
        );
    }

    #[test]
    fn an_abort_between_calls_surfaces_exactly_once() {
        model(
            |port, txn, oid| {
                let reason = AbortReason::Deadlock;
                assert!(port.deliver(page_grant(txn, oid, false)));
                assert!(port.deliver(control(ServerMsg::Aborted { txn, reason })));
            },
            |rig, deliverer| {
                let a = Oid::new(PAGE, 0);
                rig.session.begin().unwrap();
                assert_eq!(rig.session.read(a).unwrap(), FILL);
                // Races the abort: a hit before it lands, the kill after.
                let racing = rig.session.read(a);
                deliverer.join().unwrap();
                let after = [rig.session.read(a), rig.session.read(a)];
                let kills = std::iter::once(&racing)
                    .chain(&after)
                    .filter(|r| **r == Err(TxnError::Deadlock))
                    .count();
                assert_eq!(kills, 1, "{racing:?} then {after:?}");
                assert_eq!(after[1], Err(NO_TXN));
            },
        );
    }

    #[test]
    fn a_lost_connection_fails_the_parked_caller() {
        model(
            |port, _, _| port.close(),
            |rig, deliverer| {
                rig.session.begin().unwrap();
                assert_eq!(rig.session.read(Oid::new(PAGE, 0)), Err(TxnError::Server));
                deliverer.join().unwrap();
                assert_eq!(rig.session.begin(), Err(TxnError::Server));
            },
        );
    }

    /// The outbox hand-off on the channel transport: the caller serves
    /// its own read miss (the grant comes back on its thread) while a
    /// deliverer makes the client answer a callback, queueing the reply
    /// in the same outbox. Whichever thread ends up serving the reply,
    /// every queued request runs exactly once, in the order it was
    /// queued, and none is stranded when the serving thread lets go.
    #[test]
    fn the_outbox_runs_every_request_once_in_queue_order() {
        loom::model(|| {
            let timeout = Duration::from_secs(5);
            let (rig, server) = inline_rig(timeout);
            let started = Instant::now();
            rig.session.begin().unwrap();
            let deliverer = {
                let shared = rig.shared.clone();
                thread::spawn(move || assert!(shared.deliver(callback_on(PageId(5)))))
            };
            assert_eq!(rig.session.read(Oid::new(PAGE, 0)).unwrap(), FILL);
            deliverer.join().unwrap();
            let queued = rig.wire.sent.lock().clone();
            assert_eq!(queued.len(), 2, "the read and the callback reply");
            assert_eq!(*server.served.lock(), queued, "lost, doubled or reordered");
            assert!(started.elapsed() < timeout, "a wake-up was lost");
        });
    }
}
