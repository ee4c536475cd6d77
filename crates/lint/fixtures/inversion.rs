// Fixture: deliberate lock-order inversions. fgs-lint must flag both the
// direct inversion and the transitive one through `helper`, naming the
// offending lock pair.

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
    fn direct_inversion(&self) {
        let w = self.wal.lock();
        let c = self.client.lock();
        drop(c);
        drop(w);
    }

    fn helper(&self) {
        let c = self.client.lock();
        drop(c);
    }

    fn transitive_inversion(&self) {
        let w = self.wal.lock();
        self.helper();
        drop(w);
    }
}
