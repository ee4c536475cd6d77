//! The server's waits-for graph for deadlock detection.
//!
//! Edges run from a blocked transaction to the transactions it waits for:
//! lock holders, write requests in their callback phase, earlier conflicting
//! queue entries, and — for callbacks answered `Busy` — the remote
//! transactions whose client-managed read locks defer the callback. The
//! graph is tiny (at most one blocked transaction per client), so plain DFS
//! cycle detection on every edge change is cheap. Edges are kept ordered,
//! so the DFS — and with it the victim, when several cycles run through
//! the blocked transaction — is a function of the graph alone, not of a
//! process's hash keys.

use crate::ids::TxnId;
use std::collections::{BTreeMap, BTreeSet};

/// A waits-for graph over transactions.
#[derive(Debug, Default)]
pub struct WaitsFor {
    edges: BTreeMap<TxnId, BTreeSet<TxnId>>,
}

impl WaitsFor {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the out-edges of `from` with `to`.
    pub fn set_edges(&mut self, from: TxnId, to: BTreeSet<TxnId>) {
        if to.is_empty() {
            self.edges.remove(&from);
        } else {
            self.edges.insert(from, to);
        }
    }

    /// Adds edges from `from` to each of `to` (keeping existing ones).
    pub fn add_edges<I: IntoIterator<Item = TxnId>>(&mut self, from: TxnId, to: I) {
        let entry = self.edges.entry(from).or_default();
        entry.extend(to);
        entry.remove(&from); // self-edges are meaningless
        if entry.is_empty() {
            self.edges.remove(&from);
        }
    }

    /// Removes `txn` entirely: its out-edges and all in-edges pointing at it.
    pub fn remove_txn(&mut self, txn: TxnId) {
        self.edges.remove(&txn);
        self.edges.retain(|_, to| {
            to.remove(&txn);
            !to.is_empty()
        });
    }

    /// Drops the out-edges of `from` (it is no longer blocked).
    pub fn clear_edges(&mut self, from: TxnId) {
        self.edges.remove(&from);
    }

    /// The transactions `from` currently waits for.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn blockers(&self, from: TxnId) -> Option<&BTreeSet<TxnId>> {
        self.edges.get(&from)
    }

    /// Finds a cycle reachable from `start`, returning its member
    /// transactions, or `None` if `start` cannot reach a cycle through
    /// itself.
    ///
    /// Only cycles *containing* `start` matter for the caller: any other
    /// cycle already existed before `start` blocked and was (or will be)
    /// detected from its own members.
    pub fn find_cycle(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let mut path = vec![start];
        let mut on_path: BTreeSet<TxnId> = [start].into();
        let mut visited: BTreeSet<TxnId> = BTreeSet::new();
        self.dfs(start, start, &mut path, &mut on_path, &mut visited)
    }

    fn dfs(
        &self,
        start: TxnId,
        node: TxnId,
        path: &mut Vec<TxnId>,
        on_path: &mut BTreeSet<TxnId>,
        visited: &mut BTreeSet<TxnId>,
    ) -> Option<Vec<TxnId>> {
        if let Some(nexts) = self.edges.get(&node) {
            for &next in nexts {
                if next == start {
                    return Some(path.clone());
                }
                if on_path.contains(&next) || visited.contains(&next) {
                    // A cycle not through `start`, or an exhausted branch.
                    continue;
                }
                path.push(next);
                on_path.insert(next);
                if let Some(cycle) = self.dfs(start, next, path, on_path, visited) {
                    return Some(cycle);
                }
                on_path.remove(&next);
                path.pop();
                visited.insert(next);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn t(n: u16) -> TxnId {
        TxnId::new(ClientId(n), 1)
    }

    #[test]
    fn no_cycle_in_chain() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(3)]);
        assert!(g.find_cycle(t(1)).is_none());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(1)]);
        let cycle = g.find_cycle(t(1)).expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn three_cycle_detected_from_any_member() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(3)]);
        g.add_edges(t(3), [t(1)]);
        for start in [t(1), t(2), t(3)] {
            let cycle = g.find_cycle(start).expect("cycle");
            assert_eq!(cycle.len(), 3);
        }
    }

    #[test]
    fn cycle_not_containing_start_is_ignored() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(3)]);
        g.add_edges(t(3), [t(2)]);
        assert!(g.find_cycle(t(1)).is_none(), "cycle excludes start");
        assert!(g.find_cycle(t(2)).is_some());
    }

    #[test]
    fn removing_txn_breaks_cycle() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(1)]);
        g.remove_txn(t(2));
        assert!(g.find_cycle(t(1)).is_none());
        assert!(g.blockers(t(1)).is_none(), "in-edges removed too");
    }

    #[test]
    fn set_edges_replaces() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2), t(3)]);
        g.set_edges(t(1), [t(4)].into());
        assert_eq!(g.blockers(t(1)).unwrap().len(), 1);
        g.set_edges(t(1), BTreeSet::new());
        assert!(g.blockers(t(1)).is_none());
    }

    #[test]
    fn self_edges_dropped() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(1)]);
        assert!(g.blockers(t(1)).is_none());
        assert!(g.find_cycle(t(1)).is_none());
    }

    #[test]
    fn diamond_with_cycle_on_one_branch() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2), t(3)]);
        g.add_edges(t(2), [t(4)]);
        g.add_edges(t(3), [t(1)]);
        let cycle = g.find_cycle(t(1)).expect("via t3");
        assert!(cycle.contains(&t(3)));
    }
}
