//! The server runtime: a run-to-completion request path over the
//! protocol engine and the logged page store.
//!
//! The old runtime was one thread holding one big mutex across the whole
//! request path (durability, protocol, data attach, send). This one
//! splits the path into stages with independent synchronization:
//!
//! * **Runs** — whoever produces one of a client's requests carries it
//!   through every stage below, delivery included, on its own thread
//!   ([`Serve::serve`]): the client's caller or deliverer on the channel
//!   transport, the connection's reader over TCP. One producer at a time
//!   per client keeps its requests FIFO; different clients run
//!   concurrently.
//! * **Durability (append)** — commit data is installed into the store
//!   and the commit records *appended* before the engine releases locks;
//!   the force comes last, after delivery is under way. Early lock
//!   release is safe under the WAL rule: any transaction that reads the
//!   released state appends its own commit record *after* these, so its
//!   ack watermark covers them (log order).
//! * **Protocol** — the engine itself stays single-writer under a small
//!   mutex held only for the in-memory state transition; a global
//!   sequence number is assigned under the same lock, capturing the
//!   engine's serialization order.
//! * **Attach** — page images / object bytes are copied out of the store
//!   *outside* the engine lock (the store has its own sharded
//!   synchronization). A storage error here aborts the affected
//!   transaction ([`AbortReason::Server`]) instead of panicking.
//! * **Completion** — the [`CompletionRouter`] restores the engine's
//!   order and delivers. A run submits its stamped messages; they wait
//!   until every lower sequence number has been submitted, then join
//!   their clients' queues and go out on the submitting run's
//!   thread, so every client observes the engine's order even though
//!   attaches finish out of order. Each commit ack is held until the
//!   durable watermark passes its LSN, then emitted as `CommitDone`; a
//!   pending ack is a *barrier* for later messages to the same client,
//!   so the engine's per-client order survives the deferral.
//! * **Durability (force)** — a run that appended commit records makes
//!   them durable itself: it claims the log force, runs one seal → write
//!   → force cycle over the WAL tail ([`fgs_pagestore::Wal`]'s staged
//!   API) and advances the router's durable watermark, delivering the
//!   acks it released — its own included. One cycle is in flight at a
//!   time; a run that finds one waits it out, and every commit appended
//!   meanwhile rides the next cycle together. Group commit needs neither
//!   a thread nor a timed gather.

use crate::transport::{PortMap, Serve};
use crate::wire::{SharedBytes, ToClient, ToServer};
use fgs_core::server::{ServerAction, ServerEngine, ServerStats};
use fgs_core::sync::{Condvar, Mutex};
use fgs_core::{AbortReason, ClientId, DataGrant, Oid, PageId, Request, ServerMsg, TxnId};
use fgs_pagestore::{Lsn, Store, StoreStats, WalHold};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Backpressure cap on the WAL's active append buffer. A run blocks
/// appending only when the active buffer holds this much *and* the
/// sealed shadow segment is still being written — i.e. the log device
/// is more than two full buffers behind the workload.
const APPEND_CAP: usize = 1 << 20;

/// The protocol stage: the engine plus the global send-order sequence.
/// Everything in here is touched only under the one (small) mutex.
struct ProtocolStage {
    engine: ServerEngine,
    /// Next run's sequence number; assigned under the engine lock so the
    /// completion router can restore the engine's serialization order.
    next_seq: u64,
}

/// One outbound item after the dispatch stage: a ready envelope, or a
/// commit ack that must wait for the durable watermark.
pub(crate) enum OutMsg {
    /// Deliverable as-is (unless queued behind a pending ack).
    Env(ToClient),
    /// Becomes `CommitDone` once the durable watermark reaches `ack_lsn`
    /// (the WAL tail right after the commit's append — covering its own
    /// records *and* every record its reads could depend on).
    Ack {
        /// The committed transaction.
        txn: TxnId,
        /// Watermark the durable horizon must reach before the ack.
        ack_lsn: Lsn,
        /// Request arrival, for end-to-end commit latency.
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

/// Per-stage timing and traffic counters for the server pipeline, all
/// relaxed atomics (observability only; never ordering-bearing). Merged
/// into [`StoreStats`] by [`ServerRuntime::store_stats`].
pub(crate) struct PipelineMetrics {
    durability_ns: AtomicU64,
    protocol_ns: AtomicU64,
    dispatch_ns: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_hold_ns: AtomicU64,
    lock_acquisitions: AtomicU64,
    requests: AtomicU64,
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
            requests: AtomicU64::new(0),
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
        // One request per run: both inbound fields count requests.
        stats.dispatch_batches = self.requests.load(Ordering::Relaxed);
        stats.dispatch_batch_msgs = stats.dispatch_batches;
        stats.send_batches = self.send_batches.load(Ordering::Relaxed);
        stats.send_batch_msgs = self.send_batch_msgs.load(Ordering::Relaxed);
        stats.deferred_acks = self.deferred_acks.load(Ordering::Relaxed);
        stats.commit_p50_us = self.commit_latency.quantile_us(0.50);
        stats.commit_p99_us = self.commit_latency.quantile_us(0.99);
        stats.commit_latency_samples = self.commit_latency.samples();
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

/// Router state: the engine-order cursor and the runs parked ahead of
/// it, the durable watermark and who is forcing the log toward the next
/// one, and the per-client barrier queues.
struct CompletionState {
    /// The next sequence number to move into the client queues.
    next_seq: u64,
    /// Submitted runs' messages whose sequence number is above `next_seq`.
    held: HashMap<u64, Vec<(ClientId, OutMsg)>>,
    /// The log's durable watermark as of the last finished force cycle.
    durable: Lsn,
    /// A run holds the log force: it is between its
    /// [`claim_force`](CompletionRouter::claim_force) and its
    /// [`advance`](CompletionRouter::advance).
    forcing: bool,
    clients: HashMap<ClientId, ClientQueue>,
}

/// The completion stage: the one place outbound messages are ordered.
/// Runs submit their messages stamped with the sequence number taken
/// under [`ProtocolStage`]; they join the per-client queues only once
/// every lower number has, so each client sees messages in the engine's
/// order. `CommitDone` for a registered ack is emitted only once the
/// durable watermark passes the ack's LSN, preserving the WAL rule
/// without parking the run that submitted it. Envelopes that arrive
/// behind a pending ack wait with it (per-client order); clients with
/// nothing pending pass straight through to delivery.
///
/// The router also arbitrates the log force, beside the watermark it
/// gates on: at most one run forces at a time, and runs whose records a
/// cycle in flight may have missed wait on `forced` for it to end.
///
/// Invariant: `CompletionState` is never held across
/// [`deliver`](crate::transport::ClientPort::deliver) — a
/// port write is I/O; the per-client `releasing` flag orders concurrent
/// deliverers instead.
pub(crate) struct CompletionRouter {
    state: Mutex<CompletionState>,
    forced: Condvar,
}

impl CompletionRouter {
    fn new() -> CompletionRouter {
        CompletionRouter {
            state: Mutex::new(CompletionState {
                next_seq: 0,
                held: HashMap::new(),
                durable: 0,
                forcing: false,
                clients: HashMap::new(),
            }),
            forced: Condvar::new(),
        }
    }

    /// Run side: submits the messages stamped `seq` (possibly none) and,
    /// if they are next in engine order, moves them and every
    /// consecutive held run's into the per-client queues, then delivers
    /// every client touched on the calling thread. Messages that are not
    /// yet next stay held; the run that submits the missing sequence
    /// number delivers them. Each sequence number must be submitted
    /// exactly once.
    pub(crate) fn submit(
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
                // by item keeps it.
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

    /// Forcer side: claims the log force for watermark `target`. While
    /// another run forces, waits for its cycle to end. Returns `None` once
    /// the durable watermark covers `target` — the cycle that covered it
    /// delivers what it released — and otherwise takes the force and
    /// returns the watermark it starts from; the caller runs one cycle and
    /// ends the claim with [`advance`](Self::advance).
    ///
    /// A run waits out at most two cycles: the one in flight may have
    /// sealed the tail before this run appended, but any cycle claimed
    /// after it seals this run's records too.
    fn claim_force(&self, target: Lsn) -> Option<Lsn> {
        let mut g = self.state.lock();
        while g.forcing && g.durable < target {
            self.forced.wait(&mut g);
        }
        if g.durable >= target {
            return None;
        }
        g.forcing = true;
        Some(g.durable)
    }

    /// Forcer side: ends a claimed force at watermark `durable`, waking
    /// the runs that wait on it, and delivers every newly releasable
    /// prefix on the calling thread. A run that forces therefore never
    /// delivers while it holds the force: a client that answers a
    /// delivery with a commit may claim the force in turn.
    fn advance(&self, durable: Lsn, ports: &PortMap, metrics: &PipelineMetrics) {
        let clients: Vec<ClientId> = {
            let mut g = self.state.lock();
            g.durable = g.durable.max(durable);
            g.forcing = false;
            self.forced.notify_all();
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
    /// passed (each ack becoming its `CommitDone`). Returns an empty prefix
    /// when nothing is ready — or when another thread is already
    /// delivering for this client (the `releasing` flag; that thread's
    /// drain loop will pick up whatever we just made ready). A non-empty
    /// return transfers the flag to the caller, who must deliver the
    /// prefix and then [`finish_release`](Self::finish_release).
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
                for env in run {
                    if !port.deliver(env) {
                        break;
                    }
                }
            }
            self.finish_release(client);
            // The watermark (or the queue) may have moved while we were
            // delivering; loop to release what became ready.
        }
    }
}

/// State shared between the request runs, the transports and the
/// introspection APIs.
pub(crate) struct ServerRuntime {
    protocol: Mutex<ProtocolStage>,
    store: Store,
    completion: CompletionRouter,
    /// Live client ports, resolved per delivery, so TCP clients may come
    /// and go without the pipeline noticing.
    ports: Arc<PortMap>,
    metrics: PipelineMetrics,
    /// Commits whose record is appended but not yet accounted durable.
    /// Counted before the record is appended, and taken by the first
    /// cycle that moves the durable watermark, so each commit is counted
    /// exactly once, by the force that covered it or an earlier one.
    pending_commits: AtomicU64,
    /// Refuses every later run.
    closed: AtomicBool,
    /// Run engine invariant checks after every request even in release.
    paranoid: bool,
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
            completion: CompletionRouter::new(),
            ports: Arc::new(PortMap::new(port_limit)),
            metrics: PipelineMetrics::new(),
            pending_commits: AtomicU64::new(0),
            closed: AtomicBool::new(false),
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

    /// Durability counters plus the pipeline's timing/traffic counters.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let mut stats = self.store.stats();
        self.metrics.fill(&mut stats);
        stats
    }

    // -- the log force --------------------------------------------------

    /// Forces the log through watermark `target` on the calling thread:
    /// claims the force ([`CompletionRouter::claim_force`]), runs one
    /// seal → write → force cycle over the WAL tail and accounts the
    /// commits it made durable. Returns the watermark the caller must
    /// [`advance`](CompletionRouter::advance) the router to, which ends
    /// the claim and delivers; `None` when another run's cycle covered
    /// `target`.
    ///
    /// One cycle per call and never a timed gather: coalescing comes from
    /// the double-buffered tail — every commit appended while a cycle is
    /// in flight rides the next one. A gather would tax every ack with
    /// the wait and convoy closed-loop workloads, whose withheld clients
    /// are the ones who would supply the next commit. Under a chaos hold
    /// the cycle makes no progress and the acks stay parked until
    /// [`set_wal_hold`](Self::set_wal_hold) changes it.
    fn force(&self, target: Lsn) -> Option<Lsn> {
        let from = self.completion.claim_force(target)?;
        let wal = self.store.wal();
        let before = wal.flushed();
        wal.seal();
        wal.write_sealed();
        let durable = wal.force_written();
        if durable > from {
            let commits = self.pending_commits.swap(0, Ordering::Relaxed);
            if commits > 0 {
                self.store.account_durable(commits, durable > before);
            }
        }
        Some(durable)
    }

    /// Forces the log through `target` and delivers what that releases,
    /// on the calling thread.
    fn make_durable(&self, target: Lsn) {
        if let Some(durable) = self.force(target) {
            self.completion.advance(durable, &self.ports, &self.metrics);
        }
    }

    /// Engages (or clears) a chaos [`WalHold`], then catches up: a cycle
    /// under a hold leaves its acks parked, so every change forces what
    /// it can and delivers the acks that became durable — under a hold,
    /// those a synchronous flush (a checkpoint) covered.
    pub(crate) fn set_wal_hold(&self, hold: WalHold) {
        self.store.wal().set_hold(hold);
        self.make_durable(self.store.wal().len());
    }

    /// Closes the server: every later run is refused. Runs in flight
    /// finish on their own threads, each forcing its own commits.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    // -- the request pipeline -----------------------------------------

    /// Runs one of a client's requests through the pipeline stages on
    /// the calling thread.
    ///
    /// Durability first — but only the *append* half: a commit's updates
    /// are installed and its commit record appended before the engine
    /// releases any lock, and its watermark is the WAL tail, covering the
    /// appended records *and* everything a read-only commit could have
    /// read. Then the protocol stage runs the request under the lock, and
    /// the dispatch stage attaches payloads outside it and submits the
    /// messages, whose acks park in the completion router. Last, a commit
    /// forces the log through its watermark ([`force`](Self::force)) and
    /// delivers the acks that released.
    fn handle(&self, env: ToServer) {
        let t_start = Instant::now();
        PipelineMetrics::add(&self.metrics.requests, 1);

        // Durability stage: install + append, no force. A read-only
        // commit (no shipped data) has nothing to install; its ack still
        // gates on the watermark so every commit its reads observed is
        // durable first.
        let mut commit = false;
        let mut failed = None;
        if let ToServer::Req {
            req: Request::Commit { txn, .. },
            commit_data,
            ..
        } = &env
        {
            commit = true;
            if !commit_data.is_empty() {
                if let Err(e) = self.install_commit_data(*txn, commit_data) {
                    eprintln!("fgs-server: commit install for {txn} failed: {e}; aborting");
                    commit = false;
                    failed = Some(*txn);
                }
            }
        }
        // Everything the commit appended and everything its reads depend
        // on sits at or below the tail right now.
        let ack_lsn = commit.then(|| self.store.wal().len());
        let t_durable = Instant::now();

        // Protocol stage: the in-memory state transition, single-writer.
        let (actions, seq) = {
            let mut g = self.protocol.lock();
            let t_locked = Instant::now();
            let outcome = match (env, failed) {
                (_, Some(txn)) => g.engine.abort_txn(txn, AbortReason::Server),
                (ToServer::Req { from, req, .. }, None) => g.engine.handle(from, req),
                (ToServer::Disconnect { from }, None) => g.engine.client_gone(from),
            };
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
            (outcome.actions, seq)
        };
        let t_protocol = Instant::now();

        // Dispatch stage: attach payloads outside the lock, deliver.
        self.dispatch(actions, seq, ack_lsn.unwrap_or(0), t_start);
        let t_dispatched = Instant::now();

        // Durability stage, force half: make the commit's ack durable,
        // then deliver it (and whatever else the force released).
        let durable = ack_lsn.and_then(|lsn| self.force(lsn));
        let t_forced = Instant::now();
        if let Some(durable) = durable {
            self.completion.advance(durable, &self.ports, &self.metrics);
        }

        let t_done = Instant::now();
        PipelineMetrics::add(
            &self.metrics.durability_ns,
            ((t_durable - t_start) + (t_forced - t_dispatched)).as_nanos() as u64,
        );
        PipelineMetrics::add(
            &self.metrics.protocol_ns,
            (t_protocol - t_durable).as_nanos() as u64,
        );
        PipelineMetrics::add(
            &self.metrics.dispatch_ns,
            ((t_dispatched - t_protocol) + (t_done - t_forced)).as_nanos() as u64,
        );
    }

    /// Installs a commit's dirty objects and appends its commit record.
    /// On an install error the store-side updates are rolled back.
    fn install_commit_data(
        &self,
        txn: TxnId,
        commit_data: &[(fgs_core::Oid, Vec<u8>)],
    ) -> std::io::Result<()> {
        self.store.begin(txn);
        for (oid, bytes) in commit_data {
            if let Err(e) = retry_io(|| self.store.update_object(txn, *oid, bytes)) {
                if let Err(undo) = retry_io(|| self.store.abort(txn)) {
                    eprintln!("fgs-server: rollback of {txn} failed: {undo}");
                }
                return Err(e);
            }
        }
        // Counted before the record is appended, so the first cycle that
        // forces the record durable finds the count (see `force`).
        self.pending_commits.fetch_add(1, Ordering::Relaxed);
        self.store.append_commit(txn);
        Ok(())
    }

    /// Attach + delivery stage: copies data payloads out of the store
    /// (outside the engine lock) and submits the stamped messages to the
    /// completion router, which delivers them on this thread once they
    /// are next in engine order. Transactions whose grants hit a storage
    /// error are aborted, cascading until no new failures appear.
    ///
    /// Invariant: every sequence number taken under [`ProtocolStage`] is
    /// submitted exactly once — an empty run and each cascading abort
    /// below included — or the router holds every later run forever.
    fn dispatch(&self, actions: Vec<ServerAction>, seq: u64, ack_lsn: Lsn, t0: Instant) {
        let mut failed: Vec<TxnId> = Vec::new();
        let msgs = self.attach(actions, ack_lsn, t0, &mut failed);
        self.completion
            .submit(seq, msgs, &self.ports, &self.metrics);
        while let Some(txn) = failed.pop() {
            let (outcome, seq) = {
                let mut g = self.protocol.lock();
                let outcome = g.engine.abort_txn(txn, AbortReason::Server);
                self.maybe_check(&g.engine);
                let seq = g.next_seq;
                g.next_seq += 1;
                (outcome, seq)
            };
            let msgs = self.attach(outcome.actions, ack_lsn, t0, &mut failed);
            self.completion
                .submit(seq, msgs, &self.ports, &self.metrics);
        }
    }

    /// Attaches data to each outbound message; commit acks pass through
    /// as [`OutMsg::Ack`] carrying the request's watermark. A message whose
    /// attach fails is dropped and its transaction recorded in `failed`;
    /// the subsequent server-side abort tells the client.
    ///
    /// Payloads are memoized per request: when one request's outcome
    /// grants the same page (or object) to several clients — read grants
    /// after a commit releases a lock, callback-completion fan-out — the
    /// bytes are copied out of the store once and shared via
    /// [`SharedBytes`].
    fn attach(
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
    /// per-request memo before touching the store. Control messages pass
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
/// count, as a client's outbox has one server at a time. A nested run
/// never waits on its own thread: a run delivers only after it has given
/// up the log force ([`CompletionRouter::advance`]), and an append waits
/// only for a sealed segment with no [`WalHold`], which only a forcing
/// run's seal → write step leaves, with no delivery in between.
impl Serve for ServerRuntime {
    fn serve(&self, env: ToServer) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        self.handle(env);
        true
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

/// The completion router on its own, deterministically: engine order
/// restored from out-of-order submissions, empty submissions, and acks
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
            self.router.submit(seq, msgs, &self.ports, &self.metrics);
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
        // Seq 0 releases both submissions, in seq order for each client.
        rig.submit(0, vec![env(1, 1), env(0, 1)]);
        assert_eq!(rig.seen(0), vec![done(0, 1), done(0, 2)]);
        assert_eq!(rig.seen(1), vec![done(1, 1), done(1, 2)]);
        // An empty submission still takes its place in the sequence: seq 3
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

/// Model checking for committer-forced durability, run only under
/// `RUSTFLAGS="--cfg loom"` (see DESIGN.md §"Lock ordering and
/// concurrency invariants"). The [`CompletionRouter`] mutex and its
/// `forced` condvar resolve to `loom::sync` types through
/// [`fgs_core::sync`], so the explored schedules drive the production
/// paths: append and commit counting, the force claim, the
/// seal/write/force cycle, watermark advancement, hold changes and their
/// catch-up, and the router's reorder and barrier queues with the
/// out-of-lock delivery protocol.
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
        // enough, and no engine state is exercised by the force/router.
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

    /// Installs `txn` (no objects) and appends its commit record as a
    /// run's durability pre-pass does, and returns its ack, registered
    /// with the checking port, with its watermark.
    fn append_ack(rt: &ServerRuntime, port: &AckCheckPort, txn: TxnId) -> (OutMsg, Lsn) {
        rt.install_commit_data(txn, &[]).unwrap();
        let ack_lsn = rt.store().wal().len();
        port.expect.lock().push((txn, ack_lsn));
        let ack = OutMsg::Ack {
            txn,
            ack_lsn,
            t0: Instant::now(),
        };
        (ack, ack_lsn)
    }

    /// A committer for client `c`: appends, takes a sequence number,
    /// submits its ack and forces through its watermark, as a run does.
    fn spawn_committer(
        rt: &Arc<ServerRuntime>,
        port: &Arc<AckCheckPort>,
        c: u16,
    ) -> thread::JoinHandle<()> {
        let (rt, port) = (Arc::clone(rt), Arc::clone(port));
        thread::spawn(move || {
            let (ack, ack_lsn) = append_ack(&rt, &port, TxnId::new(ClientId(c), 1));
            let seq = {
                let mut g = rt.protocol.lock();
                g.next_seq += 1;
                g.next_seq - 1
            };
            rt.completion
                .submit(seq, vec![(ClientId(c), ack)], &rt.ports, &rt.metrics);
            rt.make_durable(ack_lsn);
        })
    }

    /// After every thread is done: each of `n` acks delivered, each
    /// commit counted once, at most `max_forces` physical forces, and
    /// the whole log durable — no commit stranded behind a force nobody
    /// ran.
    fn assert_settled(rt: &ServerRuntime, port: &AckCheckPort, n: u16, max_forces: u64) {
        let delivered = port.delivered.lock();
        assert_eq!(delivered.len(), usize::from(n), "every ack delivered");
        let stats = rt.store().stats();
        assert_eq!(stats.commits, u64::from(n), "each commit counted once");
        assert!(
            stats.log_forces <= max_forces,
            "{} forces for {n} commits",
            stats.log_forces
        );
        assert_eq!(
            rt.store().wal().flushed(),
            rt.store().wal().len(),
            "the committers' forces left a tail"
        );
    }

    /// N concurrent committers, each forcing its own commit: every ack is
    /// delivered, only after its watermark, and accounted exactly once.
    fn run_pipeline(n: u16) {
        let (rt, port) = runtime(n);
        let committers: Vec<_> = (0..n).map(|c| spawn_committer(&rt, &port, c)).collect();
        for t in committers {
            t.join().unwrap();
        }
        // Each run forces at most once, for its own records.
        assert_settled(&rt, &port, n, u64::from(n));
    }

    #[test]
    fn async_durability_acks_after_watermark() {
        loom::model(|| run_pipeline(3));
    }

    #[test]
    fn async_durability_single_committer() {
        loom::model(|| run_pipeline(1));
    }

    /// Two committers race a thread that engages a hold and releases it.
    /// A cycle under the hold makes no progress and leaves its acks
    /// parked; the release's catch-up must deliver them, and no ack may
    /// go out before its watermark whichever way the three interleave.
    #[test]
    fn a_hold_change_neither_leaks_nor_strands_an_ack() {
        for hold in [
            WalHold::BeforeSeal,
            WalHold::BeforeWrite,
            WalHold::BeforeForce,
        ] {
            loom::model(move || {
                let (rt, port) = runtime(2);
                let committers: Vec<_> = (0..2).map(|c| spawn_committer(&rt, &port, c)).collect();
                let holder = {
                    let rt = Arc::clone(&rt);
                    thread::spawn(move || {
                        rt.set_wal_hold(hold);
                        rt.set_wal_hold(WalHold::None);
                    })
                };
                holder.join().unwrap();
                for t in committers {
                    t.join().unwrap();
                }
                // The release's catch-up may force once more (a record
                // appended mid-install, say), the engaging one never.
                assert_settled(&rt, &port, 2, 3);
            });
        }
    }

    /// Two runs submit seq 0 (an envelope, then an ack) and seq 1 (an
    /// envelope) to the same client concurrently while a third committer
    /// forces the log past the ack. Whichever submit lands first and
    /// whichever thread ends up delivering, the client must see all
    /// three messages in seq order, the ack only once durable.
    #[test]
    fn out_of_order_submits_keep_engine_order() {
        loom::model(|| {
            let (rt, port) = runtime(1);
            let client = ClientId(0);
            let (ack, ack_lsn) = append_ack(&rt, &port, TxnId::new(client, 2));
            let env = |n| ToClient {
                msg: ServerMsg::AbortDone {
                    txn: TxnId::new(client, n),
                },
                page_image: None,
                object_bytes: None,
            };
            let submit = |seq: u64, msgs: Vec<OutMsg>| {
                let rt = Arc::clone(&rt);
                let msgs: Vec<_> = msgs.into_iter().map(|m| (client, m)).collect();
                thread::spawn(move || rt.completion.submit(seq, msgs, &rt.ports, &rt.metrics))
            };
            let second = submit(1, vec![OutMsg::Env(env(3))]);
            let first = submit(0, vec![OutMsg::Env(env(1)), ack]);
            let forcer = {
                let rt = Arc::clone(&rt);
                thread::spawn(move || rt.make_durable(ack_lsn))
            };
            first.join().unwrap();
            second.join().unwrap();
            forcer.join().unwrap();
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
