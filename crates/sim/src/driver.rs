//! The discrete-event driver: wires the protocol engines (`fgs-core`) to
//! the resource model (`fgs-simkernel`) under the paper's Table-1 costs.
//!
//! One simulated system = one server (CPU, buffer pool, disks) + N client
//! workstations (CPU, cache, transaction source) + a FIFO network. Each
//! client runs transactions back to back (closed system): generate a
//! reference string, process object references one at a time — charging
//! client CPU per object, sending requests on misses/lock needs — then
//! commit. Every message costs CPU at both endpoints plus wire time; every
//! server buffer miss costs a disk access; commits cost a log force.

use crate::buffer::ServerBuffer;
use crate::config::{RunConfig, SystemConfig};
use crate::metrics::RunMetrics;
use fgs_core::client::{ClientAction, ClientEngine, TxnOutcome};
use fgs_core::server::{ServerAction, ServerEngine};
use fgs_core::{ClientId, Cost, DataGrant, PageId, Protocol, Request, ServerMsg, TxnId};
use fgs_simkernel::{
    BatchMeans, Calendar, Cpu, CpuClass, Duration, FifoServer, Pcg32, SimTime, Tally,
};
use fgs_workload::{ReferenceString, WorkloadGen, WorkloadSpec};
use std::collections::{BTreeMap, HashMap};

/// Calendar events.
#[derive(Debug)]
enum Ev {
    /// A client CPU may have completed a request (generation-guarded).
    ClientCpu { c: usize, gen: u64 },
    /// The server CPU may have completed a request.
    ServerCpu { gen: u64 },
    /// A message finished its wire time.
    NetDone { msg: u64 },
    /// A server disk finished reading a page.
    DiskReadDone { page: PageId },
    /// The commit log force for a `CommitDone` message finished.
    LogForceDone { msg: u64 },
    /// A client's think time expired: submit the next transaction.
    ThinkDone { c: usize },
    /// A deadlock victim's restart delay expired: resubmit.
    RestartDue { c: usize },
}

/// CPU-job continuations, keyed by job token.
#[derive(Debug)]
enum Cont {
    /// Pure accounting charge.
    Noop,
    /// A message finished its send-side CPU: enter the network.
    MsgSent(u64),
    /// A message finished its receive-side CPU: deliver it.
    MsgReceived(u64),
    /// The server finished protocol processing: carry out the actions.
    ServerWork {
        actions: Vec<ServerAction>,
        pinned: Vec<PageId>,
    },
    /// A client finished processing an object reference (guarded by the
    /// transaction sequence so stale completions after an abort are
    /// ignored).
    ClientProc { c: usize, seq: u64 },
}

#[derive(Debug)]
enum Payload {
    ToServer {
        from: ClientId,
        req: Request,
    },
    ToClient {
        to: ClientId,
        msg: ServerMsg,
        seq: u64,
    },
}

#[derive(Debug)]
struct Msg {
    payload: Payload,
    bytes: u32,
}

/// Work waiting on a server disk read.
#[derive(Debug)]
enum AfterRead {
    /// Part of a multi-page request prefetch (ticket into `multi_wait`).
    Ticket(u64),
    /// An outgoing message whose page payload needed fetching.
    Dispatch(u64),
}

struct Client {
    engine: ClientEngine,
    refs: ReferenceString,
    idx: usize,
    txn_seq: u64,
    started_first: SimTime,
    resubmitting: bool,
    /// Reorder buffer for server messages (per-pair FIFO restored after
    /// disk-delayed sends).
    next_in_seq: u64,
    held: BTreeMap<u64, ServerMsg>,
    /// When the outstanding access request was sent (lock-wait metric).
    access_sent: Option<SimTime>,
}

/// The assembled simulation.
pub struct Simulator {
    protocol: Protocol,
    sys: SystemConfig,
    run: RunConfig,
    gen: WorkloadGen,
    cal: Calendar<Ev>,
    server: ServerEngine,
    buffer: ServerBuffer,
    server_cpu: Cpu,
    client_cpus: Vec<Cpu>,
    disks: Vec<FifoServer>,
    network: FifoServer,
    clients: Vec<Client>,
    out_seq: Vec<u64>,
    conts: HashMap<u64, Cont>,
    msgs: HashMap<u64, Msg>,
    in_flight: HashMap<PageId, Vec<AfterRead>>,
    multi_wait: HashMap<u64, (usize, ClientId, Request)>,
    next_token: u64,
    workload_rngs: Vec<Pcg32>,
    disk_rng: Pcg32,
    // measurements
    commits: u64,
    aborts: u64,
    messages: u64,
    batch_commits: Vec<u64>,
    response: Tally,
    remote_access: Tally,
    events_processed: u64,
    /// Most events ever pending in the calendar, and the sum over every
    /// processed event of the pending count it was popped from.
    cal_peak: usize,
    cal_depth_sum: u64,
}

impl Simulator {
    /// Builds a simulator for one (protocol, workload, system) point.
    pub fn new(protocol: Protocol, spec: WorkloadSpec, sys: SystemConfig, run: RunConfig) -> Self {
        sys.validate();
        run.validate();
        let gen = WorkloadGen::new(spec, sys.num_clients);
        let spec = gen.spec();
        let opp = spec.objects_per_page;
        let db_pages = spec.db_pages;
        let client_buf = sys.client_buf_pages(db_pages);
        let server_buf = sys.server_buf_pages(db_pages);
        let n = sys.num_clients as usize;
        let seed = run.seed;
        Simulator {
            protocol,
            server: ServerEngine::new(protocol, opp),
            buffer: ServerBuffer::new(server_buf),
            server_cpu: Cpu::new(sys.server_mips),
            client_cpus: (0..n).map(|_| Cpu::new(sys.client_mips)).collect(),
            disks: (0..sys.server_disks).map(|_| FifoServer::new()).collect(),
            network: FifoServer::new(),
            clients: (0..n)
                .map(|i| Client {
                    engine: ClientEngine::new(ClientId(i as u16), protocol, opp, client_buf),
                    refs: Vec::new(),
                    idx: 0,
                    txn_seq: 0,
                    started_first: SimTime::ZERO,
                    resubmitting: false,
                    next_in_seq: 0,
                    held: BTreeMap::new(),
                    access_sent: None,
                })
                .collect(),
            out_seq: vec![0; n],
            cal: Calendar::new(),
            conts: HashMap::new(),
            msgs: HashMap::new(),
            in_flight: HashMap::new(),
            multi_wait: HashMap::new(),
            next_token: 1,
            workload_rngs: (0..n).map(|i| Pcg32::new(seed, 100 + i as u64)).collect(),
            disk_rng: Pcg32::new(seed, 7),
            commits: 0,
            aborts: 0,
            messages: 0,
            batch_commits: vec![0; run.batches],
            response: Tally::new(),
            remote_access: Tally::new(),
            events_processed: 0,
            cal_peak: 0,
            cal_depth_sum: 0,
            gen,
            sys,
            run,
        }
    }

    /// Runs to completion and reports the measured metrics.
    pub fn run(mut self) -> RunMetrics {
        let end = SimTime::from_secs(self.run.duration);
        for c in 0..self.clients.len() {
            self.start_txn(c);
        }
        while let Some(t) = self.cal.peek_time() {
            if t > end {
                break;
            }
            let depth = self.cal.len();
            self.cal_peak = self.cal_peak.max(depth);
            self.cal_depth_sum += depth as u64;
            let (_, ev) = self.cal.pop().expect("peeked");
            self.handle_event(ev);
            self.events_processed += 1;
            #[cfg(debug_assertions)]
            if self.events_processed % 4096 == 0 {
                self.server.check_invariants();
            }
        }
        if std::env::var_os("FGS_SIM_DEBUG").is_some() {
            eprintln!(
                "events={} cal_peak={} cal_mean={:.2} msgs={} commits={}",
                self.events_processed,
                self.cal_peak,
                self.cal_depth_sum as f64 / self.events_processed.max(1) as f64,
                self.messages,
                self.commits
            );
        }
        self.finish(end)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::ClientCpu { c, gen } => {
                let now = self.cal.now();
                // Stale events (superseded by a later submit) must not
                // re-arm: the current generation already has its event.
                if let Some(done) = self.client_cpus[c].complete(now, gen) {
                    self.arm_client_cpu(c);
                    for token in done {
                        self.run_cont(token);
                    }
                }
            }
            Ev::ServerCpu { gen } => {
                let now = self.cal.now();
                if let Some(done) = self.server_cpu.complete(now, gen) {
                    self.arm_server_cpu();
                    for token in done {
                        self.run_cont(token);
                    }
                }
            }
            Ev::NetDone { msg } => self.on_net_done(msg),
            Ev::DiskReadDone { page } => self.on_disk_read_done(page),
            Ev::LogForceDone { msg } => self.enter_send_cpu(msg),
            Ev::ThinkDone { c } | Ev::RestartDue { c } => self.start_txn(c),
        }
    }

    fn run_cont(&mut self, token: u64) {
        let cont = self.conts.remove(&token).expect("continuation registered");
        match cont {
            Cont::Noop => {}
            Cont::MsgSent(id) => {
                let bytes = self.msgs[&id].bytes;
                let wire = Duration::from_secs(self.sys.wire_secs(bytes));
                let done = self.network.submit(self.cal.now(), wire);
                self.cal.schedule(done, Ev::NetDone { msg: id });
            }
            Cont::MsgReceived(id) => self.deliver(id),
            Cont::ServerWork { actions, pinned } => {
                for a in actions {
                    match a {
                        // The completion stage of the simulated server:
                        // WAL — force the log, then acknowledge commit.
                        ServerAction::AckCommit { to, txn } => {
                            let id = self.stage_server_msg(to, ServerMsg::CommitDone { txn });
                            self.charge_server(self.sys.disk_overhead_inst);
                            let done = self.disk_io();
                            self.cal.schedule(done, Ev::LogForceDone { msg: id });
                        }
                        ServerAction::Send { to, msg } => self.server_send(to, msg),
                    }
                }
                for p in pinned {
                    self.buffer.unpin(p);
                }
            }
            Cont::ClientProc { c, seq } => {
                // Ignore stale completions from a transaction that was
                // aborted mid-processing.
                if self.clients[c].txn_seq == seq && self.clients[c].engine.has_active_txn() {
                    self.step(c);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    fn start_txn(&mut self, c: usize) {
        let now = self.cal.now();
        let cl = &mut self.clients[c];
        cl.txn_seq += 1;
        let txn = TxnId::new(ClientId(c as u16), cl.txn_seq);
        if !cl.resubmitting {
            cl.refs = self
                .gen
                .gen_transaction(c as u16, &mut self.workload_rngs[c]);
            cl.started_first = now;
        }
        cl.idx = 0;
        cl.engine.begin(txn);
        self.step(c);
    }

    /// Advances client `c`'s transaction: next reference, or commit.
    fn step(&mut self, c: usize) {
        let cl = &mut self.clients[c];
        let outcome = if cl.idx >= cl.refs.len() {
            cl.engine.commit()
        } else {
            let r = cl.refs[cl.idx];
            cl.engine.access(r.oid, r.write)
        };
        self.dispatch_client(c, outcome.actions, outcome.cost);
    }

    fn dispatch_client(&mut self, c: usize, actions: Vec<ClientAction>, cost: Cost) {
        // Lock/copy/merge work is charged with the first CPU job this
        // outcome generates (or a standalone charge if there is none).
        let mut extra = self.cost_inst(cost);
        for a in actions {
            match a {
                ClientAction::Send(req) => {
                    if matches!(req, Request::Read { .. } | Request::Write { .. }) {
                        self.clients[c].access_sent.get_or_insert(self.cal.now());
                    }
                    let inst = std::mem::take(&mut extra);
                    self.client_send(c, req, inst);
                }
                ClientAction::AccessReady { write, .. } => {
                    let now = self.cal.now();
                    let cl = &mut self.clients[c];
                    if let Some(sent) = cl.access_sent.take() {
                        if now.as_secs() >= self.run.warmup {
                            self.remote_access.record((now - sent).as_secs() * 1e3);
                        }
                    }
                    cl.idx += 1;
                    let seq = cl.txn_seq;
                    let inst = self.sys.object_proc_inst * if write { 2.0 } else { 1.0 }
                        + std::mem::take(&mut extra);
                    self.submit_client_job(c, inst, CpuClass::User, Cont::ClientProc { c, seq });
                }
                ClientAction::TxnEnded { outcome, .. } => self.on_txn_ended(c, outcome),
                ClientAction::DroppedPage { .. } | ClientAction::DroppedObject { .. } => {}
            }
        }
        if extra > 0.0 {
            self.submit_client_job(c, extra, CpuClass::System, Cont::Noop);
        }
    }

    fn on_txn_ended(&mut self, c: usize, outcome: TxnOutcome) {
        let now = self.cal.now();
        match outcome {
            TxnOutcome::Committed => {
                self.commits += 1;
                let warmup = self.run.warmup;
                if now.as_secs() >= warmup {
                    let blen = self.run.measured_secs() / self.run.batches as f64;
                    let idx =
                        (((now.as_secs() - warmup) / blen) as usize).min(self.run.batches - 1);
                    self.batch_commits[idx] += 1;
                    self.response
                        .record((now - self.clients[c].started_first).as_secs() * 1000.0);
                }
                self.clients[c].resubmitting = false;
                let think = self.sys.think_time;
                self.cal
                    .schedule(now + Duration::from_secs(think), Ev::ThinkDone { c });
            }
            TxnOutcome::Deadlocked => {
                self.aborts += 1;
                self.clients[c].access_sent = None;
                self.clients[c].resubmitting = true;
                self.cal.schedule(
                    now + Duration::from_secs(self.sys.restart_delay),
                    Ev::RestartDue { c },
                );
            }
            TxnOutcome::Aborted => {
                // The simulator never aborts voluntarily.
                unreachable!("voluntary abort in simulation");
            }
        }
    }

    fn client_send(&mut self, c: usize, req: Request, extra_inst: f64) {
        let bytes = self.request_bytes(&req);
        let id = self.next_token();
        self.msgs.insert(
            id,
            Msg {
                payload: Payload::ToServer {
                    from: ClientId(c as u16),
                    req,
                },
                bytes,
            },
        );
        self.messages += 1;
        let inst = self.sys.msg_inst(bytes) + extra_inst;
        self.submit_client_job(c, inst, CpuClass::System, Cont::MsgSent(id));
    }

    /// Delivers a server→client message in per-pair FIFO order, holding
    /// early arrivals until their predecessors land.
    fn client_deliver(&mut self, c: usize, seq: u64, msg: ServerMsg) {
        self.clients[c].held.insert(seq, msg);
        loop {
            let cl = &mut self.clients[c];
            let next = cl.next_in_seq;
            let Some(msg) = cl.held.remove(&next) else {
                break;
            };
            cl.next_in_seq += 1;
            let outcome = cl.engine.handle_server(msg);
            self.dispatch_client(c, outcome.actions, outcome.cost);
        }
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    fn server_receive(&mut self, from: ClientId, req: Request) {
        let needed = self.pages_needed(&req);
        let missing: Vec<PageId> = needed
            .into_iter()
            .filter(|&p| !self.buffer.probe(p))
            .collect();
        if missing.is_empty() {
            self.server_process(from, req);
            return;
        }
        let ticket = self.next_token();
        self.multi_wait.insert(ticket, (missing.len(), from, req));
        for p in missing {
            self.charge_server(self.sys.disk_overhead_inst);
            let entry = self.in_flight.entry(p).or_default();
            let first = entry.is_empty();
            entry.push(AfterRead::Ticket(ticket));
            if first {
                let done = self.disk_io();
                self.cal.schedule(done, Ev::DiskReadDone { page: p });
            }
        }
    }

    fn server_process(&mut self, from: ClientId, req: Request) {
        // Commit: install the shipped (or read-modified) pages dirty.
        let mut extra_inst = 0.0;
        if let Request::Commit { writes, .. } = &req {
            let pages: Vec<PageId> = writes.iter().map(|w| w.page).collect();
            for p in pages {
                for victim in self.buffer.install(p, true) {
                    self.write_back(victim);
                }
            }
            if self.sys.redo_at_server {
                // §6.1: the server repeats every committed update instead
                // of merging shipped copies.
                let slots: u32 = writes.iter().map(|w| w.slots.len() as u32).sum();
                extra_inst += f64::from(slots) * 2.0 * self.sys.object_proc_inst;
            }
        }
        let outcome = self.server.handle(from, req);
        let inst = self.cost_inst(outcome.cost) + extra_inst;
        // Pin every page about to be shipped so it cannot be evicted
        // between now and the send.
        let mut pinned = Vec::new();
        for a in &outcome.actions {
            let ServerAction::Send { msg, .. } = a else {
                continue; // commit acks carry no payload
            };
            if let Some(p) = Self::page_payload(msg) {
                if self.buffer.contains(p) {
                    self.buffer.pin(p);
                    pinned.push(p);
                }
            }
        }
        self.submit_server_job(
            inst,
            CpuClass::System,
            Cont::ServerWork {
                actions: outcome.actions,
                pinned,
            },
        );
    }

    fn on_disk_read_done(&mut self, page: PageId) {
        for victim in self.buffer.install(page, false) {
            self.write_back(victim);
        }
        let waiters = self.in_flight.remove(&page).unwrap_or_default();
        for w in waiters {
            match w {
                AfterRead::Ticket(t) => {
                    let entry = self.multi_wait.get_mut(&t).expect("ticket live");
                    entry.0 -= 1;
                    if entry.0 == 0 {
                        let (_, from, req) = self.multi_wait.remove(&t).expect("ticket live");
                        self.server_process(from, req);
                    }
                }
                AfterRead::Dispatch(id) => self.enter_send_cpu(id),
            }
        }
    }

    /// Registers an outgoing server message (assigning its per-client
    /// sequence number immediately so ordering is preserved even when the
    /// actual send is delayed by disk I/O).
    fn stage_server_msg(&mut self, to: ClientId, msg: ServerMsg) -> u64 {
        let bytes = self.server_msg_bytes(&msg);
        let seq = self.out_seq[to.0 as usize];
        self.out_seq[to.0 as usize] += 1;
        let id = self.next_token();
        self.msgs.insert(
            id,
            Msg {
                payload: Payload::ToClient { to, msg, seq },
                bytes,
            },
        );
        self.messages += 1;
        id
    }

    fn server_send(&mut self, to: ClientId, msg: ServerMsg) {
        let page = Self::page_payload(&msg);
        let id = self.stage_server_msg(to, msg);
        if let Some(p) = page {
            if !self.buffer.probe(p) {
                // Shipping a page the buffer no longer holds: fetch first.
                self.charge_server(self.sys.disk_overhead_inst);
                let entry = self.in_flight.entry(p).or_default();
                let first = entry.is_empty();
                entry.push(AfterRead::Dispatch(id));
                if first {
                    let done = self.disk_io();
                    self.cal.schedule(done, Ev::DiskReadDone { page: p });
                }
                return;
            }
        }
        self.enter_send_cpu(id);
    }

    fn enter_send_cpu(&mut self, id: u64) {
        let msg = &self.msgs[&id];
        let inst = self.sys.msg_inst(msg.bytes);
        match msg.payload {
            Payload::ToClient { .. } => {
                self.submit_server_job(inst, CpuClass::System, Cont::MsgSent(id))
            }
            Payload::ToServer { .. } => unreachable!("client sends enter their own CPU"),
        }
    }

    fn on_net_done(&mut self, id: u64) {
        let msg = &self.msgs[&id];
        let inst = self.sys.msg_inst(msg.bytes);
        match &msg.payload {
            Payload::ToServer { .. } => {
                self.submit_server_job(inst, CpuClass::System, Cont::MsgReceived(id));
            }
            Payload::ToClient { to, .. } => {
                let c = to.0 as usize;
                self.submit_client_job(c, inst, CpuClass::System, Cont::MsgReceived(id));
            }
        }
    }

    fn deliver(&mut self, id: u64) {
        let msg = self.msgs.remove(&id).expect("message staged");
        match msg.payload {
            Payload::ToServer { from, req } => self.server_receive(from, req),
            Payload::ToClient { to, msg, seq } => self.client_deliver(to.0 as usize, seq, msg),
        }
    }

    // ------------------------------------------------------------------
    // Resources
    // ------------------------------------------------------------------

    fn submit_client_job(&mut self, c: usize, inst: f64, class: CpuClass, cont: Cont) {
        let token = self.next_token();
        self.conts.insert(token, cont);
        let now = self.cal.now();
        self.client_cpus[c].submit(now, token, inst, class);
        self.arm_client_cpu(c);
    }

    fn submit_server_job(&mut self, inst: f64, class: CpuClass, cont: Cont) {
        let token = self.next_token();
        self.conts.insert(token, cont);
        let now = self.cal.now();
        self.server_cpu.submit(now, token, inst, class);
        self.arm_server_cpu();
    }

    /// Standalone server CPU charge with no continuation.
    fn charge_server(&mut self, inst: f64) {
        self.submit_server_job(inst, CpuClass::System, Cont::Noop);
    }

    fn arm_client_cpu(&mut self, c: usize) {
        let now = self.cal.now();
        if let Some((t, gen)) = self.client_cpus[c].completion_event(now) {
            self.cal.schedule(t.max(now), Ev::ClientCpu { c, gen });
        }
    }

    fn arm_server_cpu(&mut self) {
        let now = self.cal.now();
        if let Some((t, gen)) = self.server_cpu.completion_event(now) {
            self.cal.schedule(t.max(now), Ev::ServerCpu { gen });
        }
    }

    /// One disk access on a uniformly chosen disk; returns completion time.
    fn disk_io(&mut self) -> SimTime {
        let d = self.disk_rng.below(self.disks.len() as u32) as usize;
        let service = self
            .disk_rng
            .uniform(self.sys.min_disk_time, self.sys.max_disk_time);
        self.disks[d].submit(self.cal.now(), Duration::from_secs(service))
    }

    /// A dirty-page write-back (fire and forget) plus its CPU overhead.
    fn write_back(&mut self, _page: PageId) {
        self.charge_server(self.sys.disk_overhead_inst);
        let _ = self.disk_io();
    }

    // ------------------------------------------------------------------
    // Sizing helpers
    // ------------------------------------------------------------------

    fn cost_inst(&self, cost: Cost) -> f64 {
        f64::from(cost.lock_ops) * self.sys.lock_inst
            + f64::from(cost.copy_ops) * self.sys.register_copy_inst
            + f64::from(cost.merged_objects) * self.sys.copy_merge_inst
    }

    fn object_bytes(&self) -> u32 {
        self.sys.object_bytes(self.gen.spec().objects_per_page)
    }

    fn request_bytes(&self, req: &Request) -> u32 {
        let payload = match req {
            Request::Commit { writes, .. } => {
                if self.protocol == Protocol::Os {
                    writes.iter().map(|w| w.slots.len() as u32).sum::<u32>() * self.object_bytes()
                } else {
                    writes.len() as u32 * self.sys.page_size
                }
            }
            _ => 0,
        };
        self.sys.control_msg_bytes + payload
    }

    fn server_msg_bytes(&self, msg: &ServerMsg) -> u32 {
        let payload = match msg {
            ServerMsg::ReadGranted { data, .. } | ServerMsg::WriteGranted { data, .. } => {
                match data {
                    DataGrant::Page { .. } => self.sys.page_size,
                    DataGrant::Object { .. } => self.object_bytes(),
                    DataGrant::None => 0,
                }
            }
            _ => 0,
        };
        self.sys.control_msg_bytes + payload
    }

    /// Pages the server must have resident before handling `req`.
    fn pages_needed(&self, req: &Request) -> Vec<PageId> {
        match req {
            Request::Read { oid, .. } => vec![oid.page],
            Request::Write {
                oid,
                need_copy: true,
                ..
            } => vec![oid.page],
            // The object server installs committed objects into their
            // pages: absent pages must be read (read-modify-write).
            Request::Commit { writes, .. } if self.protocol == Protocol::Os => {
                writes.iter().map(|w| w.page).collect()
            }
            _ => Vec::new(),
        }
    }

    fn page_payload(msg: &ServerMsg) -> Option<PageId> {
        match msg {
            ServerMsg::ReadGranted { data, .. } | ServerMsg::WriteGranted { data, .. } => {
                match data {
                    DataGrant::Page { page, .. } => Some(*page),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn next_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn finish(self, end: SimTime) -> RunMetrics {
        let measured = self.run.measured_secs();
        let blen = measured / self.run.batches as f64;
        let mut bm = BatchMeans::new();
        for &c in &self.batch_commits {
            bm.record_batch(c as f64 / blen);
        }
        let ci = bm.confidence().expect(">=2 batches");
        let span = end.as_secs().max(f64::MIN_POSITIVE);
        let measured_commits: u64 = self.batch_commits.iter().sum();
        let client_util: f64 = self
            .client_cpus
            .iter()
            .map(|c| c.busy_time().as_secs() / span)
            .sum::<f64>()
            / self.client_cpus.len() as f64;
        let disk_util: f64 = self
            .disks
            .iter()
            .map(|d| d.busy_time().as_secs() / span)
            .sum::<f64>()
            / self.disks.len() as f64;
        let (hits, misses) = (self.buffer.hits(), self.buffer.misses());
        let (mut chits, mut cmisses) = (0u64, 0u64);
        let mut callbacks_recv = 0u64;
        for cl in &self.clients {
            let s = cl.engine.stats();
            chits += s.hits;
            cmisses += s.misses;
            callbacks_recv += s.callbacks_received;
        }
        let _ = callbacks_recv;
        let sstats = self.server.stats();
        let grants = sstats.page_grants + sstats.obj_grants;
        let spec = self.gen.spec();
        RunMetrics {
            protocol: self.protocol.name().to_string(),
            workload: spec.name.to_string(),
            write_prob: spec.hot_write_prob,
            throughput: ci.mean,
            throughput_ci: ci.half_width,
            response_ms: self.response.mean(),
            remote_access_ms: self.remote_access.mean(),
            restarts_per_commit: self.aborts as f64 / measured_commits.max(1) as f64,
            commits: measured_commits,
            aborts: self.aborts,
            msgs_per_commit: self.messages as f64 / self.commits.max(1) as f64,
            server_cpu_util: self.server_cpu.busy_time().as_secs() / span,
            client_cpu_util: client_util,
            disk_util,
            net_util: self.network.busy_time().as_secs() / span,
            server_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
            client_hit_rate: chits as f64 / (chits + cmisses).max(1) as f64,
            callbacks: sstats.callbacks_sent,
            deescalations: sstats.deescalations,
            page_grant_frac: sstats.page_grants as f64 / grants.max(1) as f64,
        }
    }
}
