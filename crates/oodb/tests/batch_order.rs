//! Ordering guarantees of the request and delivery paths: a client's
//! requests run one at a time, in the order it sent them, and the
//! completion router hands each client its messages in engine order —
//! neither may reorder.
//!
//! Two properties are exercised, explicitly over **both** transports
//! (the channel backend's per-client outboxes and TCP's per-connection
//! reader threads have different reordering opportunities):
//!
//! 1. **Per-connection FIFO**: one client's dependent request stream
//!    (each transaction reads the value the previous one wrote) always
//!    sees its own prefix.
//! 2. **No transaction-addressed reorder**: under callback protocols
//!    (PS-AA, PS-OO) the server interleaves callbacks to a client with
//!    grants for that client's own requests; any swap corrupts the
//!    client cache-consistency state. With `paranoid` set, the engine's
//!    invariants are checked after **every** request, so a reorder fails
//!    loudly rather than as a downstream wrong value.
//!
//! The workload hammers a small hot set so callbacks are constant
//! traffic.

use fgs_core::{Oid, PageId, Protocol};
use fgs_oodb::{EngineConfig, Oodb, TransportKind, TxnError};
use std::sync::Arc;

const CLIENTS: u16 = 6;
const TXNS_PER_CLIENT: u64 = 50;

/// `FGS_SEED` in the environment, or a fixed default; failures print the
/// seed so any run can be reproduced.
fn base_seed() -> u64 {
    match std::env::var("FGS_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("FGS_SEED must be a u64, got {v:?}")),
        Err(_) => 0xB47C_09D3,
    }
}

fn config(protocol: Protocol, transport: TransportKind) -> EngineConfig {
    EngineConfig {
        protocol,
        db_pages: 8,
        objects_per_page: 4,
        object_size: 16,
        page_size: 512,
        n_clients: CLIENTS,
        client_cache_pages: 4,
        server_pool_pages: 8,
        paranoid: true, // invariant-check every request
        transport,
        ..EngineConfig::default()
    }
}

fn decode(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().expect("stamp"))
}

fn encode(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v
}

/// Seeded multi-client stress: every client interleaves (a) a private
/// counter it alone advances — each transaction must read exactly the
/// value its predecessor committed, which fails on any per-connection
/// reorder — and (b) read-modify-writes on a hot shared set, which keeps
/// callback traffic flowing between the same client/server pairs.
fn run_ordering_stress(protocol: Protocol, transport: TransportKind) {
    let seed = base_seed();
    let db = Arc::new(Oodb::open(config(protocol, transport)).unwrap());
    let hot: Vec<Oid> = (0..2u32)
        .flat_map(|p| (0..4u16).map(move |s| Oid::new(PageId(p), s)))
        .collect();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let db = db.clone();
            let hot = hot.clone();
            scope.spawn(move || {
                let s = db.session(c);
                // Private counter: one object on a page this client owns.
                let own = Oid::new(PageId(2 + u32::from(c) / 4), c % 4);
                let mut x = seed.wrapping_mul(u64::from(c) + 1) | 1;
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for i in 0..TXNS_PER_CLIENT {
                    let shared = hot[(rand() % 8) as usize];
                    let res: Result<(), TxnError> = s.run_txn(200, |txn| {
                        // FIFO sentinel: nobody else writes `own`, so a
                        // run that reordered this connection's requests
                        // surfaces as a wrong read right here.
                        let v = decode(&txn.read(own)?);
                        assert_eq!(
                            v, i,
                            "{protocol}/{transport:?} FGS_SEED={seed}: client {c} \
                             saw {v} before txn {i}"
                        );
                        txn.write(own, encode(i + 1))?;
                        let sv = decode(&txn.read(shared)?);
                        txn.write(shared, encode(sv + 1))?;
                        Ok(())
                    });
                    res.unwrap_or_else(|e| panic!("{protocol}/{transport:?} FGS_SEED={seed}: {e}"));
                }
            });
        }
    });
    // Every client committed all its transactions exactly once.
    let s = db.session(0);
    s.begin().unwrap();
    for c in 0..CLIENTS {
        let own = Oid::new(PageId(2 + u32::from(c) / 4), c % 4);
        assert_eq!(
            decode(&s.read(own).unwrap()),
            TXNS_PER_CLIENT,
            "{protocol}/{transport:?} FGS_SEED={seed}: client {c} lost a commit"
        );
    }
    let total: u64 = hot.iter().map(|&o| decode(&s.read(o).unwrap())).sum();
    s.commit().unwrap();
    assert_eq!(
        total,
        u64::from(CLIENTS) * TXNS_PER_CLIENT,
        "{protocol}/{transport:?} FGS_SEED={seed}: shared increments lost or duplicated"
    );
    db.check_server_invariants();
}

#[test]
fn batched_dispatch_preserves_order_channel() {
    for protocol in [Protocol::Ps, Protocol::PsAa, Protocol::PsOo] {
        run_ordering_stress(protocol, TransportKind::Channel);
    }
}

#[test]
fn batched_dispatch_preserves_order_tcp() {
    for protocol in [Protocol::Ps, Protocol::PsAa, Protocol::PsOo] {
        run_ordering_stress(protocol, TransportKind::Tcp);
    }
}
