// Fixture: a well-behaved module that follows the declared lock order
// (LogWriterState -> ProtocolStage -> PoolShard -> WalInner -> Disk) everywhere.
// fgs-lint must report nothing here.

struct LogWriterState {
    pending: Vec<u64>,
}

struct ProtocolStage {
    engine: u32,
}

struct PoolInner {
    frames: Vec<u8>,
}

struct WalInner {
    buf: Vec<u8>,
}

struct Srv {
    gc: Mutex<LogWriterState>,
    protocol: Mutex<ProtocolStage>,
    shard0: Mutex<PoolInner>,
    wal: Mutex<WalInner>,
}

impl Srv {
    fn full_descent(&self) {
        let g = self.gc.lock();
        let p = self.protocol.lock();
        drop(p);
        let s = self.shard0.lock();
        let w = self.wal.lock();
        drop(w);
        drop(s);
        drop(g);
    }

    fn scoped_blocks(&self) {
        {
            let w = self.wal.lock();
            let _ = w;
        }
        let g = self.gc.lock();
        drop(g);
    }

    fn temp_guard_then_lower(&self) -> usize {
        let n = self.wal.lock().buf.len();
        let g = self.gc.lock();
        drop(g);
        n
    }
}

impl WalInner {
    fn reset(&mut self) {
        self.buf.clear();
    }
}

impl Srv {
    /// Shares its name with `WalInner::reset`, but takes the WAL lock.
    fn reset(&self) {
        let w = self.wal.lock();
        drop(w);
    }

    /// A method called on a guard resolves to the guarded struct's
    /// (`WalInner::reset`), not to every same-named method.
    fn method_on_a_guard(&self) {
        let mut w = self.wal.lock();
        w.reset();
        drop(w);
    }
}
