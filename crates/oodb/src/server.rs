//! The server runtime: a run-to-completion request path over the
//! protocol engine and the logged page store.
//!
//! The old runtime was one thread holding one big mutex across the whole
//! request path (durability, protocol, data attach, send). This one
//! splits the path into stages with independent synchronization:
//!
//! * **Runs** — whoever produces a batch of one client's requests carries
//!   it through every stage below, delivery included, on its own thread
//!   ([`Serve::serve`]): the client's caller or deliverer on the channel
//!   transport, the connection's reader over TCP. One producer at a time
//!   per client keeps its requests FIFO; different clients run
//!   concurrently.
//! * **Durability (append)** — commit data is installed into the store
//!   and the commit records *appended* before the engine releases locks;
//!   the run registers the batch's watermark with the [`LogWriter`]
//!   and moves on without waiting for the force. Early lock release is
//!   safe under the WAL rule: any transaction that reads the released
//!   state appends its own commit record *after* these, so its ack
//!   watermark covers them (log order).
//! * **Protocol** — the engine itself stays single-writer under a small
//!   mutex held only for the in-memory state transition; a global
//!   sequence number is assigned under the same lock, capturing the
//!   engine's serialization order.
//! * **Attach** — page images / object bytes are copied out of the store
//!   *outside* the engine lock (the store has its own sharded
//!   synchronization). A storage error here aborts the affected
//!   transaction ([`AbortReason::Server`]) instead of panicking.
//! * **Log writer** — a dedicated thread owns the WAL tail: it seals the
//!   active append buffer, writes the sealed shadow segment, and forces
//!   the written image ([`fgs_pagestore::Wal`]'s stepwise API), each
//!   cycle coalescing every commit appended since the last one. This
//!   subsumes the old group-commit gather: batching now comes from the
//!   writer's natural cycle time instead of timed waits on the request
//!   path.
//! * **Completion** — the [`CompletionRouter`] restores the engine's
//!   order and delivers. A run submits its stamped batch; the batch
//!   waits until every lower sequence number has been submitted, then
//!   joins its clients' queues and goes out on the submitting run's
//!   thread, so every client observes the engine's order even though
//!   attaches finish out of order. Each commit ack is held until the
//!   writer's durable watermark passes its LSN, then emitted as
//!   `CommitDone`; a pending ack is a *barrier* for later messages to
//!   the same client, so the engine's per-client order survives the
//!   deferral.

use crate::transport::{PortMap, Serve};
use crate::wire::{SharedBytes, ToClient, ToServer};
use fgs_core::server::{ServerAction, ServerEngine, ServerStats};
use fgs_core::sync::{Condvar, Mutex};
use fgs_core::{AbortReason, ClientId, DataGrant, Oid, PageId, Request, ServerMsg, TxnId};
use fgs_pagestore::{Lsn, Store, StoreStats};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on how many queued requests one run takes (one
/// protocol-lock acquisition, one sequence number, one invariant
/// sample). Bounds both latency and the size of a submitted batch.
pub(crate) const DISPATCH_BATCH: usize = 64;

/// Backpressure cap on the WAL's active append buffer. A run blocks
/// appending only when the active buffer holds this much *and* the
/// sealed shadow segment is still being written — i.e. the log device
/// is more than two full buffers behind the workload.
const APPEND_CAP: usize = 1 << 20;

/// The bit of [`ServerRuntime::runs`] that marks the server closed.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// The protocol stage: the engine plus the global send-order sequence.
/// Everything in here is touched only under the one (small) mutex.
struct ProtocolStage {
    engine: ServerEngine,
    /// Next batch sequence number; assigned under the engine lock so the
    /// completion router can restore the engine's serialization order.
    next_seq: u64,
}

/// One outbound item after the dispatch stage: a ready envelope, or a
/// commit ack that must wait for the durable watermark.
pub(crate) enum OutMsg {
    /// Deliverable as-is (unless queued behind a pending ack).
    Env(ToClient),
    /// Becomes `CommitDone` once the log writer's durable watermark
    /// reaches `ack_lsn` (the WAL tail at the owning batch's append
    /// pre-pass — covering the commit's own records *and* every record
    /// its reads could depend on).
    Ack {
        /// The committed transaction.
        txn: TxnId,
        /// Watermark the durable horizon must reach before the ack.
        ack_lsn: Lsn,
        /// Batch arrival, for end-to-end commit latency.
        t0: Instant,
    },
}

/// [`LatencyHistogram`] has 2^`SUB_BITS` buckets per octave: exact below
/// 8 ns, then eight per power of two up to 2^48 ns (≈ 78 hours; the last
/// bucket also takes everything longer).
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
const LATENCY_BUCKETS: usize = SUB_BUCKETS * (48 - SUB_BITS as usize + 1);

/// The bucket of an `ns` sample: its octave, split by the three bits
/// below the leading one (the indices run on from the exact range).
fn latency_bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (shift as usize * SUB_BUCKETS + (ns >> shift) as usize).min(LATENCY_BUCKETS - 1)
}

/// The lowest sample of bucket `idx` and the bucket's width, in ns.
fn latency_bucket_span(idx: usize) -> (u64, u64) {
    let shift = (idx / SUB_BUCKETS).saturating_sub(1);
    let sub = idx.min(SUB_BUCKETS + idx % SUB_BUCKETS);
    ((sub as u64) << shift, 1 << shift)
}

/// A lock-free log-linear latency histogram (nanosecond samples): a
/// quantile is known to within 1/8 of its octave (about 1 µs around
/// 12 µs, where power-of-two buckets spanned 8–16); recording is one
/// relaxed fetch_add, so the hot path pays no synchronization.
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, ns: u64) {
        self.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (0..=1) as microseconds, estimated at the
    /// midpoint of the winning bucket. Zero with no samples.
    fn quantile_us(&self, q: f64) -> u64 {
        let total = self.samples();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let (low, width) = latency_bucket_span(idx);
                return (low + width / 2) / 1_000;
            }
        }
        0
    }
}

/// Per-stage timing and batching counters for the server pipeline, all
/// relaxed atomics (observability only; never ordering-bearing). Merged
/// into [`StoreStats`] by [`ServerRuntime::store_stats`].
pub(crate) struct PipelineMetrics {
    durability_ns: AtomicU64,
    protocol_ns: AtomicU64,
    dispatch_ns: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_hold_ns: AtomicU64,
    lock_acquisitions: AtomicU64,
    dispatch_batches: AtomicU64,
    dispatch_batch_msgs: AtomicU64,
    send_batches: AtomicU64,
    send_batch_msgs: AtomicU64,
    deferred_acks: AtomicU64,
    commit_latency: LatencyHistogram,
}

impl PipelineMetrics {
    fn new() -> PipelineMetrics {
        PipelineMetrics {
            durability_ns: AtomicU64::new(0),
            protocol_ns: AtomicU64::new(0),
            dispatch_ns: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            lock_hold_ns: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
            dispatch_batches: AtomicU64::new(0),
            dispatch_batch_msgs: AtomicU64::new(0),
            send_batches: AtomicU64::new(0),
            send_batch_msgs: AtomicU64::new(0),
            deferred_acks: AtomicU64::new(0),
            commit_latency: LatencyHistogram::new(),
        }
    }

    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Copies the pipeline counters into a store snapshot.
    fn fill(&self, stats: &mut StoreStats) {
        stats.durability_ns = self.durability_ns.load(Ordering::Relaxed);
        stats.protocol_ns = self.protocol_ns.load(Ordering::Relaxed);
        stats.dispatch_ns = self.dispatch_ns.load(Ordering::Relaxed);
        stats.lock_wait_ns = self.lock_wait_ns.load(Ordering::Relaxed);
        stats.lock_hold_ns = self.lock_hold_ns.load(Ordering::Relaxed);
        stats.lock_acquisitions = self.lock_acquisitions.load(Ordering::Relaxed);
        stats.dispatch_batches = self.dispatch_batches.load(Ordering::Relaxed);
        stats.dispatch_batch_msgs = self.dispatch_batch_msgs.load(Ordering::Relaxed);
        stats.send_batches = self.send_batches.load(Ordering::Relaxed);
        stats.send_batch_msgs = self.send_batch_msgs.load(Ordering::Relaxed);
        stats.deferred_acks = self.deferred_acks.load(Ordering::Relaxed);
        stats.commit_p50_us = self.commit_latency.quantile_us(0.50);
        stats.commit_p99_us = self.commit_latency.quantile_us(0.99);
        stats.commit_latency_samples = self.commit_latency.samples();
    }
}

/// Hand-off from the request runs to the dedicated log-writer thread.
/// Runs append commit records and *register* the batch here
/// (one lock poke, no waiting); the writer wakes, runs one
/// seal → write → force cycle over everything registered since its last
/// cycle, and advances the completion router's durable watermark.
pub(crate) struct LogWriter {
    state: Mutex<LogWriterState>,
    cv: Condvar,
}

/// The writer's request board. One mutex class of its own (first in the
/// lock DAG: the writer descends from here into `WalInner` and the
/// completion router).
struct LogWriterState {
    /// Highest watermark any run has asked to become durable (the
    /// requesting batch's WAL tail).
    requested: Lsn,
    /// Commits appended but not yet accounted durable.
    pending_commits: u64,
    /// The server is closed: shut down after the final cycle, which
    /// waits for the runs in flight.
    stop: bool,
    /// Run one cycle even with nothing registered. Set when a chaos
    /// [`WalHold`](fgs_pagestore::WalHold) changes: turns under a hold
    /// no-op but still count as handled, so only a kick makes the
    /// writer re-drain (and release parked acks) after the hold lifts.
    kicked: bool,
}

impl LogWriter {
    fn new() -> LogWriter {
        LogWriter {
            state: Mutex::new(LogWriterState {
                requested: 0,
                pending_commits: 0,
                stop: false,
                kicked: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Run side: registers a batch of `commits` appended commit
    /// records whose durability watermark is `ack_lsn`, and returns
    /// immediately — the force happens on the writer thread.
    fn request(&self, ack_lsn: Lsn, commits: u64) {
        let mut g = self.state.lock();
        g.requested = g.requested.max(ack_lsn);
        g.pending_commits += commits;
        self.cv.notify_one();
    }
}

/// What a pending outbound item is waiting for in the completion router.
/// The per-client queue preserves engine order: a parked ack blocks
/// everything queued behind it for the same client.
#[derive(Default)]
struct ClientQueue {
    pending: VecDeque<OutMsg>,
    /// A thread is delivering this client's released prefix outside the
    /// lock; concurrent releasers must queue behind it or the client
    /// would observe reordered messages.
    releasing: bool,
}

/// Router state: the engine-order cursor and the batches parked ahead of
/// it, the durable watermark as last reported by the log writer, and the
/// per-client barrier queues.
struct CompletionState {
    /// The next sequence number to move into the client queues.
    next_seq: u64,
    /// Submitted batches whose sequence number is above `next_seq`.
    held: HashMap<u64, Vec<(ClientId, OutMsg)>>,
    durable: Lsn,
    clients: HashMap<ClientId, ClientQueue>,
}

/// The completion stage: the one place outbound messages are ordered.
/// Runs submit batches stamped with the sequence number taken under
/// [`ProtocolStage`]; a batch joins the per-client queues only once
/// every lower number has, so each client sees messages in the engine's
/// order. `CommitDone` for a registered ack is emitted only once the log
/// writer's durable watermark passes the ack's LSN, preserving the WAL
/// rule without parking any run. Envelopes that arrive behind a
/// pending ack wait with it (per-client order); clients with nothing
/// pending pass straight through to delivery.
///
/// Invariant: `CompletionState` is never held across
/// [`deliver_batch`](crate::transport::ClientPort::deliver_batch) — a
/// port write is I/O; the per-client `releasing` flag orders concurrent
/// deliverers instead.
pub(crate) struct CompletionRouter {
    state: Mutex<CompletionState>,
}

impl CompletionRouter {
    fn new() -> CompletionRouter {
        CompletionRouter {
            state: Mutex::new(CompletionState {
                next_seq: 0,
                held: HashMap::new(),
                durable: 0,
                clients: HashMap::new(),
            }),
        }
    }

    /// Run side: submits the batch stamped `seq` (possibly empty) and,
    /// if it is next in engine order, moves it and every consecutive
    /// held batch into the per-client queues, then delivers every client
    /// touched on the calling thread. A batch that is not yet next stays
    /// held; the run that submits the missing sequence number delivers
    /// it. Each sequence number must be submitted exactly once.
    pub(crate) fn submit_batch(
        &self,
        seq: u64,
        msgs: Vec<(ClientId, OutMsg)>,
        ports: &PortMap,
        metrics: &PipelineMetrics,
    ) {
        let mut touched: Vec<ClientId> = Vec::new();
        {
            let mut g = self.state.lock();
            let g = &mut *g;
            g.held.insert(seq, msgs);
            while let Some(msgs) = g.held.remove(&g.next_seq) {
                g.next_seq += 1;
                // A client never observes another client's messages, so
                // only each client's own order matters: appending item
                // by item keeps it, and one drain per client below
                // delivers the whole run as one batch.
                for (to, m) in msgs {
                    if !touched.contains(&to) {
                        touched.push(to);
                    }
                    g.clients.entry(to).or_default().pending.push_back(m);
                }
            }
        }
        for client in touched {
            self.drain(client, false, ports, metrics);
        }
    }

    /// Log-writer side: advances the durable watermark and delivers every
    /// newly releasable prefix.
    pub(crate) fn advance(&self, durable: Lsn, ports: &PortMap, metrics: &PipelineMetrics) {
        let clients: Vec<ClientId> = {
            let mut g = self.state.lock();
            g.durable = g.durable.max(durable);
            g.clients
                .iter()
                .filter(|(_, q)| !q.pending.is_empty())
                .map(|(c, _)| *c)
                .collect()
        };
        for client in clients {
            self.drain(client, true, ports, metrics);
        }
    }

    /// Pops `client`'s releasable prefix under the router lock: leading
    /// envelopes plus any ack whose watermark the durable horizon has
    /// passed (each ack becoming its `CommitDone`). Returns an empty run
    /// when nothing is ready — or when another thread is already
    /// delivering for this client (the `releasing` flag; that thread's
    /// drain loop will pick up whatever we just made ready). A non-empty
    /// return transfers the flag to the caller, who must deliver the run
    /// and then [`finish_release`](Self::finish_release).
    fn release_ready(
        &self,
        client: ClientId,
        deferred: bool,
        metrics: &PipelineMetrics,
    ) -> Vec<ToClient> {
        let mut g = self.state.lock();
        let durable = g.durable;
        let Some(q) = g.clients.get_mut(&client) else {
            return Vec::new();
        };
        if q.releasing {
            return Vec::new();
        }
        let mut run: Vec<ToClient> = Vec::new();
        while let Some(front) = q.pending.front() {
            match front {
                OutMsg::Ack { ack_lsn, .. } if *ack_lsn > durable => break,
                OutMsg::Ack { .. } => {
                    let Some(OutMsg::Ack { txn, t0, .. }) = q.pending.pop_front() else {
                        unreachable!("front was an ack");
                    };
                    metrics
                        .commit_latency
                        .record(t0.elapsed().as_nanos() as u64);
                    if deferred {
                        PipelineMetrics::add(&metrics.deferred_acks, 1);
                    }
                    run.push(ToClient {
                        msg: ServerMsg::CommitDone { txn },
                        page_image: None,
                        object_bytes: None,
                    });
                }
                OutMsg::Env(_) => {
                    let Some(OutMsg::Env(env)) = q.pending.pop_front() else {
                        unreachable!("front was an envelope");
                    };
                    run.push(env);
                }
            }
        }
        if !run.is_empty() {
            q.releasing = true;
        }
        run
    }

    /// Clears `client`'s `releasing` flag after an out-of-lock delivery.
    fn finish_release(&self, client: ClientId) {
        let mut g = self.state.lock();
        if let Some(q) = g.clients.get_mut(&client) {
            q.releasing = false;
        }
    }

    /// Delivers `client`'s stream until nothing more is ready. The
    /// router lock is never held across a delivery (a port write is
    /// I/O); the `releasing` flag keeps concurrent drains from
    /// interleaving the client's stream while the lock is open.
    fn drain(&self, client: ClientId, deferred: bool, ports: &PortMap, metrics: &PipelineMetrics) {
        loop {
            let run = self.release_ready(client, deferred, metrics);
            if run.is_empty() {
                return;
            }
            PipelineMetrics::add(&metrics.send_batches, 1);
            PipelineMetrics::add(&metrics.send_batch_msgs, run.len() as u64);
            // No port, or a dead one, means the client is gone (shutdown
            // race or dropped connection); drop the messages. An ack for
            // a reconnected successor is filtered client-side by the
            // stale-txn check, so late release stays exactly-once.
            if let Some(port) = ports.lookup_port(client.0) {
                let _ = port.deliver_batch(run);
            }
            self.finish_release(client);
            // The watermark (or the queue) may have moved while we were
            // delivering; loop to release what became ready.
        }
    }
}

/// State shared between the request runs, the log writer, the
/// transports and the introspection APIs.
pub(crate) struct ServerRuntime {
    protocol: Mutex<ProtocolStage>,
    store: Store,
    writer: LogWriter,
    completion: CompletionRouter,
    /// Live client ports, resolved per delivery, so TCP clients may come
    /// and go without the pipeline noticing.
    ports: Arc<PortMap>,
    metrics: PipelineMetrics,
    /// Runs in flight, plus [`CLOSED`] once the server is closed.
    runs: AtomicUsize,
    /// Run engine invariant checks after every batch even in release.
    paranoid: bool,
}

/// One message of an inbound batch after the durability pre-pass: what
/// the protocol stage should do for it under the (single) lock hold.
enum Step {
    /// Run the request through the engine.
    Handle(ClientId, Request),
    /// The client's connection died; purge it.
    Gone(ClientId),
    /// The commit's install failed; abort the transaction server-side.
    ServerAbort(TxnId),
}

impl ServerRuntime {
    /// A runtime whose port registry admits client ids below
    /// `port_limit`.
    pub(crate) fn new(engine: ServerEngine, store: Store, paranoid: bool, port_limit: u16) -> Self {
        store.wal().set_append_cap(APPEND_CAP);
        ServerRuntime {
            protocol: Mutex::new(ProtocolStage {
                engine,
                next_seq: 0,
            }),
            store,
            writer: LogWriter::new(),
            completion: CompletionRouter::new(),
            ports: Arc::new(PortMap::new(port_limit)),
            metrics: PipelineMetrics::new(),
            runs: AtomicUsize::new(0),
            paranoid,
        }
    }

    // -- introspection ------------------------------------------------

    pub(crate) fn engine_stats(&self) -> ServerStats {
        self.protocol.lock().engine.stats().clone()
    }

    pub(crate) fn check_invariants(&self) {
        self.protocol.lock().engine.check_invariants();
    }

    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    pub(crate) fn ports(&self) -> &Arc<PortMap> {
        &self.ports
    }

    /// Durability counters plus the pipeline's timing/batching counters.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let mut stats = self.store.stats();
        self.metrics.fill(&mut stats);
        stats
    }

    // -- the log-writer stage -------------------------------------------

    /// One turn of the log-writer thread: parks until runs register
    /// appended commits, then runs one seal → write → force cycle over
    /// everything registered since the last turn (the double-buffered
    /// WAL tail lets appends continue meanwhile) and accounts the
    /// cycle's commits. Returns the durable watermark and whether this
    /// was the final (stop) turn.
    ///
    /// The writer never holds a cycle open waiting for more arrivals:
    /// coalescing comes from the double buffering itself — every commit
    /// appended while the previous cycle was writing, forcing, or
    /// delivering acks lands in the next cycle as one batch. A timed
    /// gather here taxes every commit's ack with the wait (and convoys
    /// badly in closed-loop workloads, where the clients whose acks it
    /// withholds are exactly the ones who would supply the next commit).
    fn writer_turn(&self, handled: &mut Lsn, carried: &mut u64) -> (Lsn, bool) {
        let wal = self.store.wal();
        let (target, commits, stop) = {
            let mut g = self.writer.state.lock();
            while !g.stop && !g.kicked && g.requested <= *handled && g.pending_commits == 0 {
                self.writer.cv.wait(&mut g);
            }
            // The final cycle covers every run the closed server admitted;
            // the last one out kicks.
            while g.stop && self.runs.load(Ordering::Acquire) != CLOSED {
                self.writer.cv.wait(&mut g);
            }
            g.kicked = false;
            (g.requested, std::mem::take(&mut g.pending_commits), g.stop)
        };
        let before = wal.flushed();
        // One cycle: seal the active buffer, write the shadow
        // segment, force the written image. Under a chaos hold each
        // step no-ops and the watermark simply stays put.
        wal.seal();
        wal.write_sealed();
        let durable = wal.force_written();
        // Commits are accounted when the watermark covers their
        // registration target, not when they are taken off the board:
        // turns frozen by a chaos hold carry their commits forward, so
        // everything parked behind a hold lands in the stats as the one
        // coalesced cycle that actually made it durable.
        *carried += commits;
        if *carried > 0 && durable >= target {
            self.store
                .account_durable(std::mem::take(carried), durable > before);
        }
        // A turn "handles" everything requested before it — even
        // under a chaos hold, where the watermark stays put (the
        // acks stay parked; re-requested or released on the final
        // cycle) — so a frozen writer parks instead of spinning.
        *handled = (*handled).max(target);
        (durable, stop)
    }

    /// Closes the server: every later run is refused, and the log-writer
    /// thread, once the runs in flight finish, takes a final catch-up
    /// cycle and exits (the embedding joins it afterwards).
    pub(crate) fn close(&self) {
        self.runs.fetch_or(CLOSED, Ordering::AcqRel);
        self.writer.state.lock().stop = true;
        self.writer.cv.notify_one();
    }

    /// Forces one writer cycle regardless of registered work — the
    /// chaos harness calls this when it changes the WAL hold, so the
    /// writer re-drains (releasing parked acks) once a hold lifts.
    pub(crate) fn kick_log_writer(&self) {
        self.writer.state.lock().kicked = true;
        self.writer.cv.notify_one();
    }

    // -- the request pipeline -----------------------------------------

    /// Runs one batch of one client's requests through the pipeline
    /// stages on the calling thread.
    ///
    /// The whole batch shares one durability pre-pass, one
    /// protocol-lock acquisition, one sequence number and one invariant
    /// sample. Durability first — but only the *append* half: every
    /// commit's updates are installed and its commit record appended
    /// before the engine releases any lock, then the batch's watermark
    /// (the WAL tail, covering the appended records *and* everything any
    /// read-only commit in the batch could have read) is registered
    /// with the log writer. The run never waits for the force; the
    /// acks are parked in the completion router until the writer's
    /// durable watermark passes the registered LSN. Then the protocol
    /// stage replays the batch in arrival order under a single lock
    /// hold, and the dispatch stage attaches payloads outside it and
    /// submits the batch for delivery.
    fn handle_batch(&self, batch: Vec<ToServer>) {
        let t_start = Instant::now();
        PipelineMetrics::add(&self.metrics.dispatch_batches, 1);
        PipelineMetrics::add(&self.metrics.dispatch_batch_msgs, batch.len() as u64);

        // Durability stage: install + append, no force.
        let mut steps: Vec<Step> = Vec::with_capacity(batch.len());
        let mut commits = 0u64;
        let mut data_commits = 0u64;
        for env in batch {
            match env {
                ToServer::Disconnect { from } => steps.push(Step::Gone(from)),
                ToServer::Req {
                    from,
                    req,
                    commit_data,
                } => {
                    if let Request::Commit { txn, .. } = &req {
                        commits += 1;
                        // Read-only commits (no shipped data) have
                        // nothing to install; their ack still gates on
                        // the batch watermark so every commit their
                        // reads observed is durable first.
                        if !commit_data.is_empty() {
                            match self.install_commit_data(*txn, &commit_data) {
                                Ok(_lsn) => data_commits += 1,
                                Err(e) => {
                                    eprintln!(
                                        "fgs-server: commit install for {txn} failed: {e}; \
                                         aborting"
                                    );
                                    commits -= 1; // not a commit any more
                                    steps.push(Step::ServerAbort(*txn));
                                    continue;
                                }
                            }
                        }
                    }
                    steps.push(Step::Handle(from, req));
                }
            }
        }
        // One watermark for the whole batch: everything it appended and
        // everything its commits' reads depend on sits at or below the
        // tail right now.
        let ack_lsn = if commits > 0 {
            let tail = self.store.wal().len();
            self.writer.request(tail, data_commits);
            tail
        } else {
            0
        };
        let t_durable = Instant::now();

        // Protocol stage: the in-memory state transitions, single-writer,
        // one lock acquisition for the whole batch.
        let (actions, seq) = {
            let mut g = self.protocol.lock();
            let t_locked = Instant::now();
            let mut actions: Vec<ServerAction> = Vec::new();
            for step in steps {
                let outcome = match step {
                    Step::Handle(from, req) => g.engine.handle(from, req),
                    Step::Gone(from) => g.engine.client_gone(from),
                    Step::ServerAbort(txn) => g.engine.abort_txn(txn, AbortReason::Server),
                };
                actions.extend(outcome.actions);
            }
            self.maybe_check(&g.engine);
            let seq = g.next_seq;
            g.next_seq += 1;
            let t_unlocked = Instant::now();
            PipelineMetrics::add(&self.metrics.lock_acquisitions, 1);
            PipelineMetrics::add(
                &self.metrics.lock_wait_ns,
                (t_locked - t_durable).as_nanos() as u64,
            );
            PipelineMetrics::add(
                &self.metrics.lock_hold_ns,
                (t_unlocked - t_locked).as_nanos() as u64,
            );
            (actions, seq)
        };
        let t_protocol = Instant::now();

        // Dispatch stage: attach payloads outside the lock, deliver.
        self.dispatch(actions, seq, ack_lsn, t_start);

        let t_done = Instant::now();
        PipelineMetrics::add(
            &self.metrics.durability_ns,
            (t_durable - t_start).as_nanos() as u64,
        );
        PipelineMetrics::add(
            &self.metrics.protocol_ns,
            (t_protocol - t_durable).as_nanos() as u64,
        );
        PipelineMetrics::add(
            &self.metrics.dispatch_ns,
            (t_done - t_protocol).as_nanos() as u64,
        );
    }

    /// Installs a commit's dirty objects and appends its commit record,
    /// returning the record's LSN. On an install error the store-side
    /// updates are rolled back.
    fn install_commit_data(
        &self,
        txn: TxnId,
        commit_data: &[(fgs_core::Oid, Vec<u8>)],
    ) -> std::io::Result<Lsn> {
        self.store.begin(txn);
        for (oid, bytes) in commit_data {
            if let Err(e) = retry_io(|| self.store.update_object(txn, *oid, bytes)) {
                if let Err(undo) = retry_io(|| self.store.abort(txn)) {
                    eprintln!("fgs-server: rollback of {txn} failed: {undo}");
                }
                return Err(e);
            }
        }
        Ok(self.store.append_commit(txn))
    }

    /// Attach + delivery stage: copies data payloads out of the store
    /// (outside the engine lock) and submits the stamped batch to the
    /// completion router, which delivers it on this thread once it is
    /// next in engine order. Transactions whose grants hit a storage
    /// error are aborted, cascading until no new failures appear.
    ///
    /// Invariant: every sequence number taken under [`ProtocolStage`] is
    /// submitted exactly once — an empty batch and each cascading-abort
    /// batch below included — or the router holds every later batch
    /// forever.
    fn dispatch(&self, actions: Vec<ServerAction>, seq: u64, ack_lsn: Lsn, t0: Instant) {
        let mut failed: Vec<TxnId> = Vec::new();
        let msgs = self.attach_batch(actions, ack_lsn, t0, &mut failed);
        self.completion
            .submit_batch(seq, msgs, &self.ports, &self.metrics);
        while let Some(txn) = failed.pop() {
            let (outcome, seq) = {
                let mut g = self.protocol.lock();
                let outcome = g.engine.abort_txn(txn, AbortReason::Server);
                self.maybe_check(&g.engine);
                let seq = g.next_seq;
                g.next_seq += 1;
                (outcome, seq)
            };
            let msgs = self.attach_batch(outcome.actions, ack_lsn, t0, &mut failed);
            self.completion
                .submit_batch(seq, msgs, &self.ports, &self.metrics);
        }
    }

    /// Attaches data to each outbound message; commit acks pass through
    /// as [`OutMsg::Ack`] carrying the batch watermark. A message whose
    /// attach fails is dropped and its transaction recorded in `failed`;
    /// the subsequent server-side abort tells the client.
    ///
    /// Payloads are memoized per batch: when one engine batch grants the
    /// same page (or object) to several clients — read grants after a
    /// commit releases a lock, callback-completion fan-out — the bytes
    /// are copied out of the store once and shared via [`SharedBytes`].
    fn attach_batch(
        &self,
        actions: Vec<ServerAction>,
        ack_lsn: Lsn,
        t0: Instant,
        failed: &mut Vec<TxnId>,
    ) -> Vec<(ClientId, OutMsg)> {
        let mut pages: HashMap<PageId, SharedBytes> = HashMap::new();
        let mut objects: HashMap<Oid, Option<SharedBytes>> = HashMap::new();
        let mut msgs = Vec::with_capacity(actions.len());
        for action in actions {
            let (to, msg) = match action {
                ServerAction::AckCommit { to, txn } => {
                    msgs.push((to, OutMsg::Ack { txn, ack_lsn, t0 }));
                    continue;
                }
                ServerAction::Send { to, msg } => (to, msg),
            };
            match self.attach_data(msg, &mut pages, &mut objects) {
                Ok(env) => msgs.push((to, OutMsg::Env(env))),
                Err((txn, e)) => {
                    eprintln!("fgs-server: attach for {txn} failed: {e}; aborting");
                    if !failed.contains(&txn) {
                        failed.push(txn);
                    }
                }
            }
        }
        msgs
    }

    /// Attaches page images / object bytes to grants, consulting the
    /// per-batch memo before touching the store. Control messages pass
    /// through untouched.
    fn attach_data(
        &self,
        msg: ServerMsg,
        pages: &mut HashMap<PageId, SharedBytes>,
        objects: &mut HashMap<Oid, Option<SharedBytes>>,
    ) -> Result<ToClient, (TxnId, std::io::Error)> {
        let (page_image, object_bytes) = match &msg {
            ServerMsg::ReadGranted { txn, oid, data }
            | ServerMsg::WriteGranted { txn, oid, data, .. } => {
                let image = match data {
                    DataGrant::Page { page, .. } => Some(match pages.get(page) {
                        Some(shared) => Arc::clone(shared),
                        None => {
                            let img =
                                Arc::new(self.store.page_image(*page).map_err(|e| (*txn, e))?);
                            pages.insert(*page, Arc::clone(&img));
                            img
                        }
                    }),
                    _ => None,
                };
                let bytes = match data {
                    DataGrant::Page { .. } | DataGrant::Object { .. } => match objects.get(oid) {
                        Some(shared) => shared.clone(),
                        None => {
                            let b = self
                                .store
                                .read_object(*oid)
                                .map_err(|e| (*txn, e))?
                                .map(Arc::new);
                            objects.insert(*oid, b.clone());
                            b
                        }
                    },
                    DataGrant::None => None,
                };
                (image, bytes)
            }
            _ => (None, None),
        };
        Ok(ToClient {
            msg,
            page_image,
            object_bytes,
        })
    }

    fn maybe_check(&self, engine: &ServerEngine) {
        if cfg!(debug_assertions) || self.paranoid {
            engine.check_invariants();
        }
    }
}

/// A run may deliver to clients that answer with requests of their own,
/// which this thread then runs too; the nesting is bounded by the client
/// count, as a client's outbox has one server at a time. The log writer
/// runs the replies its deliveries produce this way without ever
/// blocking on itself: an append waits only for a sealed segment with no
/// [`WalHold`](fgs_pagestore::WalHold), which only the writer's own
/// seal → write step leaves, and it delivers after that step.
impl Serve for ServerRuntime {
    fn serve(&self, batch: Vec<ToServer>) -> bool {
        let admitted = self.runs.fetch_add(1, Ordering::AcqRel) & CLOSED == 0;
        if admitted {
            self.handle_batch(batch);
        }
        if self.runs.fetch_sub(1, Ordering::AcqRel) == CLOSED | 1 {
            // The last run out of a closed server: the writer's final
            // cycle may go.
            self.kick_log_writer();
        }
        admitted
    }
}

/// Retries a storage operation through bounded transient faults. The
/// fault-injecting disk guarantees a bounded number of induced errors, so
/// a handful of retries separates "the disk hiccuped" from "the disk is
/// gone" — only the latter escapes and aborts the commit server-side.
fn retry_io<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    const ATTEMPTS: usize = 8;
    let mut last = None;
    for _ in 0..ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

/// The durability stage's thread body: the dedicated log writer. Each
/// turn coalesces every commit registered since the last one into a
/// single seal → write → force cycle, then advances the completion
/// router's durable watermark — releasing parked commit acks through
/// the normal delivery path. Runs until [`ServerRuntime::close`],
/// finishing with one final cycle so every registered commit is durable
/// and acked before exit.
pub(crate) fn log_writer_loop(runtime: &ServerRuntime) {
    let mut handled: Lsn = 0;
    let mut carried: u64 = 0;
    loop {
        let (durable, stop) = runtime.writer_turn(&mut handled, &mut carried);
        runtime
            .completion
            .advance(durable, &runtime.ports, &runtime.metrics);
        if stop {
            return;
        }
    }
}

/// The completion router on its own, deterministically: engine order
/// restored from out-of-order submissions, empty batches, and acks
/// against the durable watermark.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ClientPort;

    /// Records every message it is handed, in delivery order.
    #[derive(Default)]
    struct RecordingPort(Mutex<Vec<ServerMsg>>);

    impl ClientPort for RecordingPort {
        fn deliver(&self, env: ToClient) -> bool {
            self.0.lock().push(env.msg);
            true
        }

        fn close(&self) {}
    }

    struct Rig {
        router: CompletionRouter,
        ports: PortMap,
        metrics: PipelineMetrics,
        seen: Vec<Arc<RecordingPort>>,
    }

    impl Rig {
        fn new(clients: u16) -> Rig {
            let ports = PortMap::new(clients);
            let seen = (0..clients)
                .map(|c| {
                    let port = Arc::new(RecordingPort::default());
                    ports.register_port(Some(c), port.clone()).unwrap();
                    port
                })
                .collect();
            Rig {
                router: CompletionRouter::new(),
                ports,
                metrics: PipelineMetrics::new(),
                seen,
            }
        }

        fn submit(&self, seq: u64, msgs: Vec<(ClientId, OutMsg)>) {
            self.router
                .submit_batch(seq, msgs, &self.ports, &self.metrics);
        }

        fn advance(&self, durable: Lsn) {
            self.router.advance(durable, &self.ports, &self.metrics);
        }

        fn seen(&self, client: usize) -> Vec<ServerMsg> {
            self.seen[client].0.lock().clone()
        }
    }

    fn txn(client: u16, n: u64) -> TxnId {
        TxnId::new(ClientId(client), n)
    }

    /// An envelope tagged by `(client, n)`, and what the client sees.
    fn env(client: u16, n: u64) -> (ClientId, OutMsg) {
        let env = ToClient {
            msg: done(client, n),
            page_image: None,
            object_bytes: None,
        };
        (ClientId(client), OutMsg::Env(env))
    }

    fn done(client: u16, n: u64) -> ServerMsg {
        ServerMsg::AbortDone {
            txn: txn(client, n),
        }
    }

    fn ack(client: u16, n: u64, ack_lsn: Lsn) -> (ClientId, OutMsg) {
        let t0 = Instant::now();
        let txn = txn(client, n);
        (ClientId(client), OutMsg::Ack { txn, ack_lsn, t0 })
    }

    #[test]
    fn router_restores_engine_order_across_out_of_order_submits() {
        let rig = Rig::new(2);
        // Seq 1 arrives first: it is held, nothing goes out.
        rig.submit(1, vec![env(0, 2), env(1, 2)]);
        assert!(rig.seen(0).is_empty() && rig.seen(1).is_empty());
        // Seq 0 releases both batches, in seq order for each client.
        rig.submit(0, vec![env(1, 1), env(0, 1)]);
        assert_eq!(rig.seen(0), vec![done(0, 1), done(0, 2)]);
        assert_eq!(rig.seen(1), vec![done(1, 1), done(1, 2)]);
        // An empty batch still takes its place in the sequence: seq 3
        // waits for it, and goes out once it arrives.
        rig.submit(3, vec![env(0, 3)]);
        assert_eq!(rig.seen(0).len(), 2);
        rig.submit(2, Vec::new());
        assert_eq!(rig.seen(0), vec![done(0, 1), done(0, 2), done(0, 3)]);
    }

    #[test]
    fn router_releases_an_already_durable_ack_on_submit() {
        let rig = Rig::new(2);
        rig.advance(100);
        // Client 0's ack is below the watermark: the submitting call
        // delivers it. Client 1's is above: it parks, and the envelope
        // queued behind it waits with it.
        rig.submit(0, vec![ack(0, 1, 100), ack(1, 1, 200), env(1, 2)]);
        let commit_done = |client| ServerMsg::CommitDone {
            txn: txn(client, 1),
        };
        assert_eq!(rig.seen(0), vec![commit_done(0)]);
        assert!(rig.seen(1).is_empty());
        rig.advance(200);
        assert_eq!(rig.seen(1), vec![commit_done(1), done(1, 2)]);
        assert_eq!(rig.metrics.deferred_acks.load(Ordering::Relaxed), 1);
    }

    /// 1 µs, 2 µs, …, 1000 µs: the exact p50 is 500 µs and the p99
    /// 990 µs. Each estimate must land within one sub-bucket of the
    /// truth; the old power-of-two buckets put the p50 at 393 µs.
    #[test]
    fn latency_quantiles_land_within_one_sub_bucket() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(us * 1_000);
        }
        for (q, exact_us) in [(0.50, 500u64), (0.99, 990)] {
            let (_, width_ns) = latency_bucket_span(latency_bucket(exact_us * 1_000));
            let got = h.quantile_us(q);
            assert!(
                got.abs_diff(exact_us) * 1_000 <= width_ns,
                "p{q}: {got} µs, exact {exact_us} µs, sub-bucket {width_ns} ns"
            );
        }
        // The buckets tile the range: each starts where the last ended.
        for idx in 1..LATENCY_BUCKETS {
            let (low, _) = latency_bucket_span(idx);
            let (prev_low, prev_width) = latency_bucket_span(idx - 1);
            assert_eq!(low, prev_low + prev_width, "bucket {idx}");
            assert_eq!(latency_bucket(low), idx);
        }
    }
}

/// Model checking for the asynchronous durability pipeline, run only
/// under `RUSTFLAGS="--cfg loom"` (see DESIGN.md §"Lock ordering and
/// concurrency invariants"). The [`LogWriter`] and [`CompletionRouter`]
/// mutexes and condvar resolve to `loom::sync` types through
/// [`fgs_core::sync`], so the explored schedules drive the production
/// paths: append + request hand-off, the writer's seal/write/force
/// cycle, watermark advancement, and the router's reorder and barrier
/// queues with the out-of-lock delivery protocol.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use crate::transport::ClientPort;
    use fgs_core::{Protocol, TxnId};
    use fgs_pagestore::{MemDisk, Wal};
    use loom::thread;
    use std::sync::Arc;

    /// A port that records every message in delivery order and checks
    /// the WAL rule at the moment of delivery: a `CommitDone` must never
    /// arrive before its commit record's watermark is durable.
    struct AckCheckPort {
        wal: Arc<Wal>,
        expect: Mutex<Vec<(TxnId, Lsn)>>,
        delivered: Mutex<Vec<ServerMsg>>,
    }

    impl ClientPort for AckCheckPort {
        fn deliver(&self, env: ToClient) -> bool {
            if let ServerMsg::CommitDone { txn } = env.msg {
                let expect = self.expect.lock();
                let (_, ack_lsn) = *expect
                    .iter()
                    .find(|(t, _)| *t == txn)
                    .expect("ack was registered");
                assert!(
                    self.wal.flushed() >= ack_lsn,
                    "CommitDone for {txn} delivered before its watermark"
                );
            }
            self.delivered.lock().push(env.msg);
            true
        }

        fn close(&self) {}
    }

    /// A runtime whose clients `0..n` all deliver to one checking port.
    fn runtime(n: u16) -> (Arc<ServerRuntime>, Arc<AckCheckPort>) {
        // Commit forcing never touches data pages; an empty store is
        // enough, and no engine state is exercised by the writer/router.
        let store = Store::new(Arc::new(MemDisk::new(256)), 8, 1000);
        let engine = ServerEngine::new(Protocol::Ps, 8);
        let rt = Arc::new(ServerRuntime::new(engine, store, false, n));
        let port = Arc::new(AckCheckPort {
            wal: Arc::clone(rt.store().wal()),
            expect: Mutex::new(Vec::new()),
            delivered: Mutex::new(Vec::new()),
        });
        for c in 0..n {
            let dyn_port: Arc<dyn ClientPort> = port.clone();
            rt.ports().register_port(Some(c), dyn_port).unwrap();
        }
        (rt, port)
    }

    fn spawn_writer(rt: &Arc<ServerRuntime>) -> thread::JoinHandle<()> {
        let rt = Arc::clone(rt);
        thread::spawn(move || log_writer_loop(&rt))
    }

    /// Appends `txn`'s commit record and returns its ack, registered
    /// with the checking port and the writer as a run would.
    fn append_ack(rt: &ServerRuntime, port: &AckCheckPort, txn: TxnId) -> OutMsg {
        rt.store().begin(txn);
        rt.store().append_commit(txn);
        let ack_lsn = rt.store().wal().len();
        port.expect.lock().push((txn, ack_lsn));
        rt.writer.request(ack_lsn, 1);
        OutMsg::Ack {
            txn,
            ack_lsn,
            t0: Instant::now(),
        }
    }

    /// N concurrent committers append + register + take a sequence
    /// number + submit their ack; the dedicated writer cycles until
    /// stopped. Every ack must be delivered, only after its watermark,
    /// and accounted exactly once.
    fn run_pipeline(n: u16) {
        let (rt, port) = runtime(n);
        let writer = spawn_writer(&rt);
        let committers: Vec<_> = (0..n)
            .map(|c| {
                let rt = Arc::clone(&rt);
                let port = Arc::clone(&port);
                thread::spawn(move || {
                    let ack = append_ack(&rt, &port, TxnId::new(ClientId(c), 1));
                    let seq = {
                        let mut g = rt.protocol.lock();
                        g.next_seq += 1;
                        g.next_seq - 1
                    };
                    rt.completion.submit_batch(
                        seq,
                        vec![(ClientId(c), ack)],
                        &rt.ports,
                        &rt.metrics,
                    );
                })
            })
            .collect();
        for t in committers {
            t.join().unwrap();
        }
        rt.close();
        writer.join().unwrap();
        let delivered = port.delivered.lock();
        assert_eq!(delivered.len(), usize::from(n), "every ack delivered");
        let stats = rt.store().stats();
        assert_eq!(stats.commits, u64::from(n), "each commit counted once");
        assert!(
            stats.log_forces <= u64::from(n),
            "coalescing never forces more than once per commit"
        );
        assert_eq!(
            rt.store().wal().flushed(),
            rt.store().wal().len(),
            "final writer cycle forced everything"
        );
    }

    #[test]
    fn async_durability_acks_after_watermark() {
        loom::model(|| run_pipeline(3));
    }

    #[test]
    fn async_durability_single_committer() {
        loom::model(|| run_pipeline(1));
    }

    /// Two runs submit seq 0 (an envelope, then an ack) and seq 1 (an
    /// envelope) to the same client concurrently while the writer
    /// advances the watermark. Whichever submit lands first and
    /// whichever thread ends up delivering, the client must see all
    /// three messages in seq order, the ack only once durable.
    #[test]
    fn out_of_order_submits_keep_engine_order() {
        loom::model(|| {
            let (rt, port) = runtime(1);
            let client = ClientId(0);
            let ack = append_ack(&rt, &port, TxnId::new(client, 2));
            let env = |n| ToClient {
                msg: ServerMsg::AbortDone {
                    txn: TxnId::new(client, n),
                },
                page_image: None,
                object_bytes: None,
            };
            let writer = spawn_writer(&rt);
            let submit = |seq: u64, msgs: Vec<OutMsg>| {
                let rt = Arc::clone(&rt);
                let msgs: Vec<_> = msgs.into_iter().map(|m| (client, m)).collect();
                thread::spawn(move || {
                    rt.completion
                        .submit_batch(seq, msgs, &rt.ports, &rt.metrics)
                })
            };
            let second = submit(1, vec![OutMsg::Env(env(3))]);
            let first = submit(0, vec![OutMsg::Env(env(1)), ack]);
            first.join().unwrap();
            second.join().unwrap();
            rt.close();
            writer.join().unwrap();
            let seen: Vec<u64> = port
                .delivered
                .lock()
                .iter()
                .map(|m| match m {
                    ServerMsg::AbortDone { txn } | ServerMsg::CommitDone { txn } => txn.seq,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(seen, vec![1, 2, 3], "lost or reordered delivery");
        });
    }
}
