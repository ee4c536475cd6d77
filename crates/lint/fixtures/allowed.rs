// Fixture: the same violations as inversion.rs / io_under_protocol.rs but
// suppressed through the escape hatches — the `#[allow_lock_order]`
// attribute and `fgs-lint: allow(...)` directives. Must lint clean.

struct ClientRuntime {
    outbox: Vec<u64>,
}

struct ProtocolStage {
    engine: u32,
}

struct WalInner {
    buf: Vec<u8>,
}

struct Srv {
    client: Mutex<ClientRuntime>,
    protocol: Mutex<ProtocolStage>,
    wal: Mutex<WalInner>,
}

impl Srv {
    #[allow_lock_order]
    fn audited_inversion(&self) {
        let w = self.wal.lock();
        let c = self.client.lock();
        drop(c);
        drop(w);
    }

    fn line_scoped_allow(&self) {
        let w = self.wal.lock();
        // fgs-lint: allow(lock_order)
        let c = self.client.lock();
        drop(c);
        drop(w);
    }

    // fgs-lint: allow(io_under_protocol)
    fn audited_io(&self, tx: &Sender<u64>) {
        let g = self.protocol.lock();
        tx.send(7);
        drop(c);
    }
}
