//! The four benchmark workloads: what each client runs, against which
//! engine configuration, and why. Names are permanent — results are
//! keyed by them.

use fgs_core::{Oid, PageId, Protocol};
use fgs_oodb::{EngineConfig, TransportKind};
use fgs_simkernel::Pcg32;
use fgs_workload::{
    AccessPattern, AccessRef, ColdRange, HotRange, Locality, WorkloadGen, WorkloadSpec, DB_PAGES,
    OBJECTS_PER_PAGE,
};

/// Bytes per object; the first eight hold the u64 counter every write
/// increments.
pub const OBJECT_SIZE: usize = 128;
/// Server buffer pool: half the database, as in the paper's Table 1.
pub const SERVER_POOL_PAGES: usize = 625;
/// The paper's client cache: a quarter of the database.
const PAPER_CACHE_PAGES: usize = 312;
/// `fetch_cold`: pages per transaction and the deliberately tiny cache.
const COLD_TXN_PAGES: u32 = 8;
const COLD_CACHE_PAGES: usize = 16;
/// `commit_short`: the page every client reads one object of.
const SHARED_PAGE: u32 = DB_PAGES - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CommitShort,
    FetchCold,
    PrivateCached,
    HiconContend,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CommitShort,
        Workload::FetchCold,
        Workload::PrivateCached,
        Workload::HiconContend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitShort => "commit_short",
            Workload::FetchCold => "fetch_cold",
            Workload::PrivateCached => "private_cached",
            Workload::HiconContend => "hicon_contend",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generator threads (= engine clients), given the CPUs the run may
    /// use. Uncontended workloads run one client: a single chain of
    /// hand-offs, nothing to overlap. Contention needs company: one
    /// client per CPU, at least two and at most four.
    pub fn clients(self, cpus: usize) -> u16 {
        match self {
            Workload::HiconContend => cpus.clamp(2, 4) as u16,
            _ => 1,
        }
    }

    /// Whether the run confines itself to one CPU. A one-client closed
    /// loop is a chain of thread hand-offs with nothing to run in
    /// parallel; spread over the CPUs of a small VM each hand-off wakes
    /// a halted vCPU at 5-10x the cost of a same-CPU switch, at random
    /// (README, "Sizing"). The contended workload keeps every CPU: its
    /// clients and the server's stages do overlap.
    pub fn pinned(self) -> bool {
        !matches!(self, Workload::HiconContend)
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Workload::FetchCold => TransportKind::Tcp,
            _ => TransportKind::Channel,
        }
    }

    fn client_cache_pages(self) -> usize {
        match self {
            Workload::FetchCold => COLD_CACHE_PAGES,
            _ => PAPER_CACHE_PAGES,
        }
    }

    /// The engine under test: PS-AA over the paper's database shape.
    pub fn engine_config(self, clients: u16) -> EngineConfig {
        EngineConfig {
            protocol: Protocol::PsAa,
            db_pages: DB_PAGES,
            objects_per_page: OBJECTS_PER_PAGE,
            object_size: OBJECT_SIZE,
            n_clients: clients,
            client_cache_pages: self.client_cache_pages(),
            server_pool_pages: SERVER_POOL_PAGES,
            transport: self.transport(),
            ..EngineConfig::default()
        }
    }

    /// Client cache as a fraction of the database (the simulator's unit).
    pub fn client_buf_frac(self) -> f64 {
        self.client_cache_pages() as f64 / f64::from(DB_PAGES)
    }

    /// The paper-model cell this workload corresponds to, for the
    /// sim ↔ engine cross-check. `commit_short` has none: its fixed
    /// "two writes on one page, one read on another" shape is not
    /// expressible as a Table-2 reference-string spec.
    pub fn sim_spec(self) -> Option<WorkloadSpec> {
        match self {
            Workload::CommitShort => None,
            Workload::FetchCold => Some(WorkloadSpec {
                name: "FETCH_COLD",
                db_pages: DB_PAGES,
                objects_per_page: OBJECTS_PER_PAGE,
                trans_size_pages: COLD_TXN_PAGES,
                page_locality: (1, 1),
                access_pattern: AccessPattern::Unclustered,
                hot: HotRange::None,
                hot_access_prob: 0.0,
                hot_write_prob: 0.0,
                cold_write_prob: 0.0,
                cold: ColdRange::WholeDb,
                remap: None,
            }),
            Workload::PrivateCached => Some(WorkloadSpec::private(Locality::High, 0.2)),
            Workload::HiconContend => Some(WorkloadSpec::hicon(Locality::Low, 0.1)),
        }
    }
}

/// One client's seeded transaction stream. The engine sees only what
/// this generates; the same `(seed, client)` gives the same stream.
pub struct TxnSource {
    client: u16,
    rng: Pcg32,
    gen: Option<WorkloadGen>,
    /// `commit_short`: this client's private page, drawn from the seed.
    own_page: u32,
}

impl TxnSource {
    pub fn new(workload: Workload, seed: u64, client: u16, clients: u16) -> TxnSource {
        let mut rng = Pcg32::new(seed, u64::from(client));
        let gen = workload.sim_spec().map(|s| WorkloadGen::new(s, clients));
        // Private pages are spaced so no two clients ever share one.
        let lanes = SHARED_PAGE / u32::from(clients);
        let own_page = u32::from(client) * lanes + rng.below(lanes);
        TxnSource {
            client,
            rng,
            gen,
            own_page,
        }
    }

    /// The next transaction's reference string (a write is a
    /// read-modify-write of the object's counter).
    pub fn next_txn(&mut self) -> Vec<AccessRef> {
        match &self.gen {
            Some(gen) => gen.gen_transaction(self.client, &mut self.rng),
            // commit_short, the one shape with no spec.
            None => {
                let slots = usize::from(OBJECTS_PER_PAGE);
                let own = self.rng.sample_without_replacement(slots, 2);
                let shared = self.rng.below(slots as u32) as u16;
                vec![
                    AccessRef {
                        oid: Oid::new(PageId(self.own_page), own[0] as u16),
                        write: true,
                    },
                    AccessRef {
                        oid: Oid::new(PageId(self.own_page), own[1] as u16),
                        write: true,
                    },
                    AccessRef {
                        oid: Oid::new(PageId(SHARED_PAGE), shared),
                        write: false,
                    },
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_stream() {
        for w in Workload::ALL {
            let clients = w.clients(2);
            let mut a = TxnSource::new(w, 7, 0, clients);
            let mut b = TxnSource::new(w, 7, 0, clients);
            let mut c = TxnSource::new(w, 8, 0, clients);
            let (ta, tb) = (a.next_txn(), b.next_txn());
            assert_eq!(ta, tb, "{}", w.name());
            // A different seed moves at least one of three transactions.
            let more_a = [ta, a.next_txn(), a.next_txn()];
            let more_c = [c.next_txn(), c.next_txn(), c.next_txn()];
            assert_ne!(more_a, more_c, "{}", w.name());
        }
    }

    #[test]
    fn shapes_are_as_documented() {
        let mut s = TxnSource::new(Workload::CommitShort, 1, 0, 1);
        let t = s.next_txn();
        assert_eq!(t.iter().filter(|a| a.write).count(), 2);
        assert_eq!(t[0].oid.page, t[1].oid.page);
        assert_ne!(t[0].oid.slot, t[1].oid.slot);
        assert_eq!(t[2].oid.page, PageId(SHARED_PAGE));

        let mut s = TxnSource::new(Workload::FetchCold, 1, 0, 1);
        let t = s.next_txn();
        let pages: HashSet<_> = t.iter().map(|a| a.oid.page).collect();
        assert_eq!((t.len(), pages.len()), (8, 8));
        assert!(t.iter().all(|a| !a.write));

        for clients in [2u16, 4] {
            let pages: HashSet<u32> = (0..clients)
                .map(|c| TxnSource::new(Workload::CommitShort, 3, c, clients).own_page)
                .collect();
            assert_eq!(pages.len(), usize::from(clients));
            assert!(!pages.contains(&SHARED_PAGE));
        }
    }

    #[test]
    fn contended_workload_sizes_to_the_host() {
        assert_eq!(Workload::HiconContend.clients(1), 2);
        assert_eq!(Workload::HiconContend.clients(2), 2);
        assert_eq!(Workload::HiconContend.clients(16), 4);
        assert_eq!(Workload::FetchCold.clients(16), 1);
    }
}
