// Fixture: escape hatches that no longer suppress anything. fgs-lint
// must flag both the stale directive and the stale attribute
// (unused_allow) — the code below is clean, so the annotations are rot.

struct ClientRuntime {
    outbox: Vec<u64>,
}

struct WalInner {
    buf: Vec<u8>,
}

struct Srv {
    client: Mutex<ClientRuntime>,
    wal: Mutex<WalInner>,
}

impl Srv {
    // fgs-lint: allow(lock_order)
    fn fine(&self) {
        let c = self.client.lock();
        let w = self.wal.lock();
        drop(w);
        drop(c);
    }

    #[allow_lock_order]
    fn also_fine(&self) {
        let c = self.client.lock();
        drop(c);
    }
}
