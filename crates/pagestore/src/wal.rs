//! The write-ahead log.
//!
//! The engine follows the paper's steal/no-force discipline: committed
//! updates need not be on disk pages (redo comes from the log) and dirty
//! pages may be written before commit (undo comes from before-images). The
//! log is a single append-only byte stream; an LSN is a byte offset.
//!
//! Record wire format: `len: u32 | crc: u32 | body` where the body is a
//! tag byte plus fields. A torn tail (bad length/CRC) cleanly ends replay.
//!
//! # Staged durability
//!
//! The log tail is double-buffered for the staged durability pipeline
//! (DESIGN.md §16). Appends land in the *active* buffer and return
//! immediately; a force cycle — in the server, run by one committing
//! thread at a time — walks the tail through three explicit stages:
//!
//! ```text
//! append → [active] --seal()--> [sealed] --write_sealed()--> [written]
//!                                              --force_written()--> durable
//! ```
//!
//! * [`Wal::seal`] swaps the active buffer out as the sealed shadow
//!   segment (at most one outstanding) and leaves appenders a fresh
//!   active buffer, so they never wait for the device.
//! * [`Wal::write_sealed`] moves the sealed segment onto the written
//!   log image (the device write).
//! * [`Wal::force_written`] advances the durable watermark over
//!   everything written (the force/fsync). A record at LSN `l` is
//!   durable exactly when `flushed() > l`.
//!
//! The synchronous paths ([`Wal::flush`], [`Wal::force_up_to`]) collapse
//! all three stages in one call; they serve bare stores, checkpoints,
//! buffer-pool eviction (the WAL rule for steals), and abort replay, and
//! coalesce with the staged cycle via the shared durable horizon.
//!
//! Backpressure: when an append cap is set ([`Wal::set_append_cap`]) and
//! the active buffer is full while a sealed segment is still being
//! drained — both buffers full — appenders block until the cycle
//! finishes the device write. Without a cap appends never block.
//!
//! [`WalHold`] freezes the staged pipeline at a chosen boundary so the
//! chaos harness can capture crash images with bytes parked
//! appended-not-sealed, sealed-not-written, or written-not-forced.

use crate::sync::{Condvar, Mutex};
use fgs_core::{Oid, PageId, SlotId, TxnId};

/// A log sequence number: byte offset of a record in the log stream.
pub type Lsn = u64;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// An object update with before/after images.
    Update {
        /// The updating transaction.
        txn: TxnId,
        /// The updated object.
        oid: Oid,
        /// Image before the update (empty = object did not exist).
        before: Vec<u8>,
        /// Image after the update.
        after: Vec<u8>,
    },
    /// A record was forwarded from its home slot to an overflow location
    /// (a size-changing update overflowed its page, §6 of the paper).
    Forward {
        /// The updating transaction.
        txn: TxnId,
        /// The object's home (where the stub now lives).
        from: Oid,
        /// The overflow location holding the bytes.
        to: Oid,
        /// The home slot's content before the stub replaced it.
        home_before: Vec<u8>,
    },
    /// Commit (durable once this record is flushed).
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// Abort (all of the transaction's updates are undone).
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Update { txn, .. }
            | LogRecord::Forward { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => *txn,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            LogRecord::Begin { txn } => {
                b.push(0);
                enc_txn(&mut b, *txn);
            }
            LogRecord::Update {
                txn,
                oid,
                before,
                after,
            } => {
                b.push(1);
                enc_txn(&mut b, *txn);
                b.extend_from_slice(&oid.page.0.to_le_bytes());
                b.extend_from_slice(&oid.slot.to_le_bytes());
                b.extend_from_slice(&(before.len() as u32).to_le_bytes());
                b.extend_from_slice(before);
                b.extend_from_slice(&(after.len() as u32).to_le_bytes());
                b.extend_from_slice(after);
            }
            LogRecord::Forward {
                txn,
                from,
                to,
                home_before,
            } => {
                b.push(4);
                enc_txn(&mut b, *txn);
                for oid in [from, to] {
                    b.extend_from_slice(&oid.page.0.to_le_bytes());
                    b.extend_from_slice(&oid.slot.to_le_bytes());
                }
                b.extend_from_slice(&(home_before.len() as u32).to_le_bytes());
                b.extend_from_slice(home_before);
            }
            LogRecord::Commit { txn } => {
                b.push(2);
                enc_txn(&mut b, *txn);
            }
            LogRecord::Abort { txn } => {
                b.push(3);
                enc_txn(&mut b, *txn);
            }
        }
        b
    }

    fn decode(body: &[u8]) -> Option<LogRecord> {
        let (&tag, rest) = body.split_first()?;
        match tag {
            0 => Some(LogRecord::Begin {
                txn: dec_txn(rest)?.0,
            }),
            1 => {
                let (txn, rest) = dec_txn(rest)?;
                if rest.len() < 6 {
                    return None;
                }
                let page = u32::from_le_bytes(rest[0..4].try_into().ok()?);
                let slot = u16::from_le_bytes(rest[4..6].try_into().ok()?);
                let rest = &rest[6..];
                let (before, rest) = dec_bytes(rest)?;
                let (after, rest) = dec_bytes(rest)?;
                if !rest.is_empty() {
                    return None;
                }
                Some(LogRecord::Update {
                    txn,
                    oid: Oid::new(PageId(page), slot as SlotId),
                    before,
                    after,
                })
            }
            2 => Some(LogRecord::Commit {
                txn: dec_txn(rest)?.0,
            }),
            3 => Some(LogRecord::Abort {
                txn: dec_txn(rest)?.0,
            }),
            4 => {
                let (txn, rest) = dec_txn(rest)?;
                if rest.len() < 12 {
                    return None;
                }
                let dec_oid = |b: &[u8]| -> Option<Oid> {
                    Some(Oid::new(
                        PageId(u32::from_le_bytes(b[0..4].try_into().ok()?)),
                        u16::from_le_bytes(b[4..6].try_into().ok()?) as SlotId,
                    ))
                };
                let from = dec_oid(&rest[0..6])?;
                let to = dec_oid(&rest[6..12])?;
                let (home_before, rest) = dec_bytes(&rest[12..])?;
                if !rest.is_empty() {
                    return None;
                }
                Some(LogRecord::Forward {
                    txn,
                    from,
                    to,
                    home_before,
                })
            }
            _ => None,
        }
    }
}

fn enc_txn(b: &mut Vec<u8>, t: TxnId) {
    b.extend_from_slice(&t.client.0.to_le_bytes());
    b.extend_from_slice(&t.seq.to_le_bytes());
}

fn dec_txn(b: &[u8]) -> Option<(TxnId, &[u8])> {
    if b.len() < 10 {
        return None;
    }
    let client = u16::from_le_bytes(b[0..2].try_into().ok()?);
    let seq = u64::from_le_bytes(b[2..10].try_into().ok()?);
    Some((TxnId::new(fgs_core::ClientId(client), seq), &b[10..]))
}

fn dec_bytes(b: &[u8]) -> Option<(Vec<u8>, &[u8])> {
    if b.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(b[0..4].try_into().ok()?) as usize;
    if b.len() < 4 + len {
        return None;
    }
    Some((b[4..4 + len].to_vec(), &b[4 + len..]))
}

/// A small, fast CRC-32 (IEEE) used to detect torn log tails.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A freeze point for the staged durability pipeline, used by the chaos
/// harness to capture crash images with the tail parked between stages.
///
/// While a hold other than [`WalHold::None`] is set, the stepwise
/// force-cycle API ([`Wal::seal`] / [`Wal::write_sealed`] /
/// [`Wal::force_written`]) no-ops and appends never block on
/// backpressure (so a crashing run can still drain and shut down). The
/// synchronous paths ([`Wal::flush`], [`Wal::force_up_to`]) are *not*
/// gated — they model a checkpoint's or a steal's own I/O, not the
/// stalled commit force — so a held state is best-effort the instant
/// other threads keep running; the harness engages the hold right
/// before capturing the crash image.
///
/// Engaging a hold also *manufactures* the named state from whatever is
/// buffered, so the crash image deterministically exercises that stage:
/// `BeforeWrite` seals the active buffer first (sealed-not-written),
/// `BeforeForce` seals and writes it (written-not-forced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WalHold {
    /// No hold: the pipeline runs normally.
    #[default]
    None,
    /// Freeze with appended bytes still in the active buffer.
    BeforeSeal,
    /// Seal the active buffer, then freeze before the device write.
    BeforeWrite,
    /// Seal and write, then freeze before the force: the written image
    /// runs ahead of the durable watermark.
    BeforeForce,
}

/// An append-only in-memory log with a staged, double-buffered tail and
/// an explicit durable watermark.
///
/// Durability boundary: bytes up to `flushed()` have reached stable
/// storage (callers persist them through their own channel — the engine
/// snapshots the buffer). Crash simulation truncates to the durable
/// watermark plus an optional torn tail ([`Wal::crash_bytes`]).
#[derive(Debug, Default)]
pub struct Wal {
    inner: Mutex<WalInner>,
    /// Signals backpressured appenders when the sealed segment drains
    /// (and hold changes, so a crashing run never wedges an appender).
    space: Condvar,
}

#[derive(Debug)]
struct WalInner {
    /// The written log image: what the device has seen. The durable
    /// prefix is `durable`; `written[durable..]` is written-not-forced.
    written: Vec<u8>,
    /// Durable watermark: bytes of `written` covered by a force.
    durable: u64,
    /// The sealed shadow segment the force cycle is draining (at most one
    /// outstanding — this is the second buffer of the pair).
    sealed: Option<Vec<u8>>,
    /// The active append buffer.
    active: Vec<u8>,
    /// Physical forces (durable-watermark advances; no-ops not counted).
    forces: u64,
    /// Active-buffer seals performed (stepwise API only).
    seals: u64,
    /// Sealed-segment device writes performed (stepwise API only).
    writes: u64,
    /// Soft cap on the active buffer for backpressure; `usize::MAX`
    /// (the default) never blocks an append.
    cap: usize,
    /// Chaos freeze point; see [`WalHold`].
    hold: WalHold,
}

impl Default for WalInner {
    fn default() -> Self {
        WalInner {
            written: Vec::new(),
            durable: 0,
            sealed: None,
            active: Vec::new(),
            forces: 0,
            seals: 0,
            writes: 0,
            cap: usize::MAX,
            hold: WalHold::None,
        }
    }
}

impl WalInner {
    /// Total appended bytes: the LSN the next append will receive.
    fn tail(&self) -> u64 {
        self.written.len() as u64
            + self.sealed.as_ref().map_or(0, |s| s.len() as u64)
            + self.active.len() as u64
    }

    /// Moves the active buffer into the sealed slot (if free and
    /// non-empty). Used by both the stepwise path and hold engagement.
    fn seal_active(&mut self) -> bool {
        if self.sealed.is_some() || self.active.is_empty() {
            return false;
        }
        self.sealed = Some(std::mem::take(&mut self.active));
        self.seals += 1;
        true
    }

    /// Appends the sealed segment to the written image (if any).
    fn write_sealed_segment(&mut self) -> bool {
        match self.sealed.take() {
            Some(mut s) => {
                self.written.append(&mut s);
                self.writes += 1;
                true
            }
            None => false,
        }
    }

    /// Drains both buffers onto the written image (synchronous paths;
    /// not counted as stepwise seals/writes).
    fn drain_all(&mut self) {
        if let Some(mut s) = self.sealed.take() {
            self.written.append(&mut s);
        }
        self.written.append(&mut self.active);
    }

    /// Advances the durable watermark over the written image. Returns
    /// whether this was a physical force.
    fn force(&mut self) -> bool {
        if self.durable < self.written.len() as u64 {
            self.durable = self.written.len() as u64;
            self.forces += 1;
            true
        } else {
            false
        }
    }
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a log from a recovered byte image (everything in it is
    /// considered flushed).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let durable = bytes.len() as u64;
        Wal {
            inner: Mutex::new(WalInner {
                written: bytes,
                durable,
                ..WalInner::default()
            }),
            space: Condvar::new(),
        }
    }

    /// Sets the active-buffer backpressure cap: an append blocks while
    /// the active buffer holds at least `cap` bytes *and* a sealed
    /// segment is still draining (both buffers full). The server runtime,
    /// whose committers run the staged cycle, sets this; bare stores keep
    /// the default (`usize::MAX`, never block — nothing ever stays
    /// sealed).
    pub fn set_append_cap(&self, cap: usize) {
        self.inner.lock().cap = cap.max(1);
        self.space.notify_all();
    }

    /// Appends a record, returning its LSN. The record is *not* durable
    /// until a flush covers it. Blocks only under backpressure (see
    /// [`Wal::set_append_cap`]).
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let body = rec.encode();
        let mut g = self.inner.lock();
        while g.active.len() >= g.cap && g.sealed.is_some() && g.hold == WalHold::None {
            self.space.wait(&mut g);
        }
        let lsn = g.tail();
        g.active
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        g.active.extend_from_slice(&crc32(&body).to_le_bytes());
        g.active.extend_from_slice(&body);
        lsn
    }

    // -- stepwise API (one force cycle at a time) -----------------------

    /// Seals the active buffer as the shadow segment, handing appenders a
    /// fresh one. Returns `false` when there is nothing to seal, a sealed
    /// segment is still outstanding, or a [`WalHold`] is engaged.
    pub fn seal(&self) -> bool {
        let mut g = self.inner.lock();
        if g.hold != WalHold::None {
            return false;
        }
        g.seal_active()
    }

    /// Writes the sealed segment onto the log image (the device write),
    /// freeing the shadow buffer — this is what releases backpressured
    /// appenders. Returns `false` with nothing sealed or under a hold.
    pub fn write_sealed(&self) -> bool {
        let mut g = self.inner.lock();
        if g.hold != WalHold::None {
            return false;
        }
        let wrote = g.write_sealed_segment();
        if wrote {
            self.space.notify_all();
        }
        wrote
    }

    /// Forces everything written: advances the durable watermark to the
    /// end of the written image (no-op under a hold) and returns the
    /// watermark. Completion acks gate on the returned value.
    pub fn force_written(&self) -> u64 {
        let mut g = self.inner.lock();
        if g.hold == WalHold::None {
            g.force();
        }
        g.durable
    }

    /// Engages (or clears) a chaos freeze point, manufacturing the named
    /// buffer state first — see [`WalHold`].
    pub fn set_hold(&self, hold: WalHold) {
        let mut g = self.inner.lock();
        match hold {
            // A hold can strand a sealed segment: `BeforeWrite` makes one,
            // and any hold can catch a cycle between its seal and its
            // write. Write it out on release, so the single catch-up
            // cycle the release runs can seal — and force — what was
            // appended under the hold; otherwise that cycle only drains
            // the stranded segment and the acks of those appends wait
            // for the next commit.
            WalHold::None => {
                g.write_sealed_segment();
            }
            WalHold::BeforeSeal => {}
            WalHold::BeforeWrite => {
                g.seal_active();
            }
            WalHold::BeforeForce => {
                g.seal_active();
                g.write_sealed_segment();
            }
        }
        g.hold = hold;
        // Never leave an appender wedged behind a frozen cycle.
        self.space.notify_all();
    }

    // -- synchronous paths ----------------------------------------------

    /// Advances the durable horizon to cover everything appended so far
    /// (the log force at commit): drains both buffers onto the written
    /// image and forces. Returns the new horizon.
    pub fn flush(&self) -> u64 {
        let mut g = self.inner.lock();
        g.drain_all();
        g.force();
        self.space.notify_all();
        g.durable
    }

    /// Forces the log far enough to make the record at `lsn` durable,
    /// coalescing with forces already performed by concurrent committers.
    /// Returns `true` if this call performed a physical force, `false` if
    /// an earlier force already covered `lsn` (the group-commit fast path).
    ///
    /// Because an LSN is the byte offset where a record *starts*, the
    /// record is durable exactly when `flushed() > lsn`.
    pub fn force_up_to(&self, lsn: Lsn) -> bool {
        let mut g = self.inner.lock();
        // Already covered, or nothing appended beyond the durable horizon
        // (an `lsn` at or past the tail names no record yet): no-op.
        if g.durable > lsn || g.durable == g.tail() {
            return false;
        }
        g.drain_all();
        let forced = g.force();
        self.space.notify_all();
        forced
    }

    // -- introspection --------------------------------------------------

    /// The durable horizon in bytes.
    pub fn flushed(&self) -> u64 {
        self.inner.lock().durable
    }

    /// Number of physical log forces performed (no-op flushes excluded);
    /// the denominator of the group-commit batching ratio.
    pub fn forces(&self) -> u64 {
        self.inner.lock().forces
    }

    /// Active-buffer seals performed by the stepwise cycle.
    pub fn seals(&self) -> u64 {
        self.inner.lock().seals
    }

    /// Sealed-segment device writes performed by the stepwise cycle.
    pub fn segment_writes(&self) -> u64 {
        self.inner.lock().writes
    }

    /// Total appended bytes (≥ flushed); the LSN one past the last
    /// appended record — the watermark a completion ack must wait for.
    pub fn len(&self) -> u64 {
        self.inner.lock().tail()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the *durable* prefix, as a crash would leave it.
    pub fn durable_bytes(&self) -> Vec<u8> {
        let g = self.inner.lock();
        g.written[..g.durable as usize].to_vec()
    }

    /// A crash image of the log: the durable prefix plus up to `extra`
    /// bytes of the not-yet-durable remainder — written-not-forced bytes
    /// first, then the sealed segment, then the active buffer, exactly
    /// the order a real device would have seen them — as a disk that
    /// tore mid-write would leave it. `extra = 0` is the strict durable
    /// horizon; a nonzero `extra` usually ends mid-record, which replay
    /// must (and does) discard via the length/CRC framing.
    pub fn crash_bytes(&self, extra: usize) -> Vec<u8> {
        let g = self.inner.lock();
        let mut out = g.written[..g.durable as usize].to_vec();
        let mut budget = extra;
        let mut take = |bytes: &[u8], budget: &mut usize| {
            let n = (*budget).min(bytes.len());
            out.extend_from_slice(&bytes[..n]);
            *budget -= n;
        };
        take(&g.written[g.durable as usize..], &mut budget);
        if let Some(s) = &g.sealed {
            take(s, &mut budget);
        }
        take(&g.active, &mut budget);
        out
    }

    /// Replays the durable prefix, yielding `(lsn, record)` pairs. Stops
    /// cleanly at a torn or corrupt tail.
    pub fn replay(&self) -> Vec<(Lsn, LogRecord)> {
        let bytes = self.durable_bytes();
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("crc"));
            let body_start = pos + 8;
            if body_start + len > bytes.len() {
                break; // torn tail
            }
            let body = &bytes[body_start..body_start + len];
            if crc32(body) != crc {
                break; // corrupt tail
            }
            match LogRecord::decode(body) {
                Some(rec) => out.push((pos as u64, rec)),
                None => break,
            }
            pos = body_start + len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgs_core::ClientId;

    fn txn(c: u16, s: u64) -> TxnId {
        TxnId::new(ClientId(c), s)
    }

    fn update(c: u16) -> LogRecord {
        LogRecord::Update {
            txn: txn(c, 1),
            oid: Oid::new(PageId(7), 3),
            before: vec![1, 2, 3],
            after: vec![9, 9],
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let wal = Wal::new();
        let records = vec![
            LogRecord::Begin { txn: txn(1, 1) },
            update(1),
            LogRecord::Commit { txn: txn(1, 1) },
            LogRecord::Abort { txn: txn(2, 5) },
        ];
        for r in &records {
            wal.append(r);
        }
        wal.flush();
        let replayed: Vec<LogRecord> = wal.replay().into_iter().map(|(_, r)| r).collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn unflushed_tail_is_not_durable() {
        let wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        wal.flush();
        wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        // No flush: the commit is lost at a crash.
        assert_eq!(wal.replay().len(), 1);
        wal.flush();
        assert_eq!(wal.replay().len(), 2);
    }

    #[test]
    fn lsns_are_monotonic_offsets() {
        let wal = Wal::new();
        let a = wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        let b = wal.append(&update(1));
        assert_eq!(a, 0);
        assert!(b > a);
        wal.flush();
        let lsns: Vec<Lsn> = wal.replay().into_iter().map(|(l, _)| l).collect();
        assert_eq!(lsns, vec![a, b]);
    }

    #[test]
    fn corrupt_tail_stops_replay() {
        let wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        wal.flush();
        let mut bytes = wal.durable_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a byte inside the last record body
        let recovered = Wal::from_bytes(bytes);
        assert_eq!(recovered.replay().len(), 1, "corrupt record dropped");
    }

    #[test]
    fn torn_tail_stops_replay() {
        let wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        wal.append(&update(1));
        wal.flush();
        let mut bytes = wal.durable_bytes();
        bytes.truncate(bytes.len() - 3);
        let recovered = Wal::from_bytes(bytes);
        assert_eq!(recovered.replay().len(), 1);
    }

    #[test]
    fn force_up_to_coalesces() {
        let wal = Wal::new();
        let a = wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        let b = wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        assert!(wal.force_up_to(b), "first force is physical");
        assert!(!wal.force_up_to(a), "earlier lsn already covered");
        assert!(!wal.force_up_to(b), "own lsn already covered");
        assert_eq!(wal.forces(), 1);
        wal.flush(); // nothing new appended: not a physical force
        assert_eq!(wal.forces(), 1);
        wal.append(&update(1));
        wal.flush();
        assert_eq!(wal.forces(), 2);
    }

    #[test]
    fn stepwise_cycle_reaches_durability() {
        let wal = Wal::new();
        let a = wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        let b = wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        assert_eq!(wal.flushed(), 0, "append alone is not durable");
        assert!(wal.seal());
        assert!(!wal.seal(), "shadow segment already outstanding");
        assert_eq!(wal.flushed(), 0, "sealing is not durability");
        assert!(wal.write_sealed());
        assert!(!wal.write_sealed(), "nothing sealed any more");
        assert_eq!(wal.flushed(), 0, "writing is not durability");
        let durable = wal.force_written();
        assert!(durable > b && durable == wal.len());
        assert_eq!(wal.forces(), 1);
        assert_eq!(wal.seals(), 1);
        assert_eq!(wal.segment_writes(), 1);
        // New appends land in the fresh active buffer and replay after
        // the first cycle's records.
        let c = wal.append(&update(1));
        assert!(c > b);
        assert!(wal.seal() && wal.write_sealed());
        wal.force_written();
        let lsns: Vec<Lsn> = wal.replay().into_iter().map(|(l, _)| l).collect();
        assert_eq!(lsns, vec![a, b, c]);
    }

    #[test]
    fn double_buffering_appends_while_sealed() {
        let wal = Wal::new();
        let a = wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        assert!(wal.seal());
        // The shadow segment is outstanding; appends go to the fresh
        // active buffer and LSNs stay monotonic across the pair.
        let b = wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        assert!(b > a);
        assert!(wal.write_sealed());
        assert!(wal.seal() && wal.write_sealed());
        wal.force_written();
        assert_eq!(wal.replay().len(), 2);
    }

    #[test]
    fn sync_flush_subsumes_outstanding_stages() {
        let wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        wal.seal();
        wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        // One synchronous flush drains sealed + active and forces.
        wal.flush();
        assert_eq!(wal.flushed(), wal.len());
        assert_eq!(wal.replay().len(), 2);
    }

    #[test]
    fn hold_freezes_each_stage_and_crash_bytes_sees_the_remainder() {
        for hold in [
            WalHold::BeforeSeal,
            WalHold::BeforeWrite,
            WalHold::BeforeForce,
        ] {
            let wal = Wal::new();
            wal.append(&LogRecord::Begin { txn: txn(1, 1) });
            wal.flush();
            let durable = wal.flushed();
            wal.append(&LogRecord::Commit { txn: txn(1, 1) });
            wal.set_hold(hold);
            // The stepwise pipeline is frozen: nothing becomes durable.
            wal.seal();
            wal.write_sealed();
            wal.force_written();
            assert_eq!(wal.flushed(), durable, "{hold:?}: watermark advanced");
            // The strict crash image ends at the durable horizon; a torn
            // tail exposes the parked bytes wherever they sit.
            assert_eq!(wal.crash_bytes(0).len() as u64, durable);
            let full = wal.crash_bytes(usize::MAX);
            assert_eq!(full.len() as u64, wal.len(), "{hold:?}: remainder lost");
            // Appends keep landing under the hold. Releasing it lets one
            // cycle make all of it durable, those appends included.
            wal.append(&LogRecord::Begin { txn: txn(1, 2) });
            wal.set_hold(WalHold::None);
            wal.seal();
            wal.write_sealed();
            wal.force_written();
            assert_eq!(wal.flushed(), wal.len(), "{hold:?}: one cycle left a tail");
            assert_eq!(wal.replay().len(), 3);
        }
    }

    #[test]
    fn backpressure_blocks_only_with_both_buffers_full() {
        let wal = Wal::new();
        wal.set_append_cap(1);
        // Active over cap but nothing sealed: appends must not block.
        wal.append(&LogRecord::Begin { txn: txn(1, 1) });
        wal.append(&LogRecord::Commit { txn: txn(1, 1) });
        wal.seal();
        // Both buffers full now; a concurrent cycle's write releases the
        // appender. (Single-threaded here: write first, then append.)
        wal.write_sealed();
        let c = wal.append(&update(1));
        let durable = wal.force_written();
        assert!(durable > 0 && durable <= c, "only the written image forced");
        wal.flush();
        assert_eq!(wal.replay().len(), 3);
    }

    #[test]
    fn crc_reference_value() {
        // Pin the CRC-32/IEEE implementation ("123456789" → 0xCBF43926).
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }
}
