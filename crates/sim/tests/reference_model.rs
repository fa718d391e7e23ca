//! Property tests of the engine against the definitional channel model.
//!
//! [`Audit`] recomputes each round from the definition — *for every node*,
//! count transmitting neighbors; deliver iff the node listens and the count
//! is exactly one — and panics on the first callback, callback order, view
//! bit or frontier where the engine differs. The properties below drive it
//! with random transmission scripts on random graphs.

use proptest::prelude::*;
use rn_graph::{Graph, NodeId};
use rn_sim::testing::Audit;
use rn_sim::{CollisionModel, Protocol, Round, RunStats, Simulator, TxBuf};

/// A scripted protocol: transmits exactly the given `(round, node, msg)`
/// triples and records everything it observes.
#[derive(Debug, Clone)]
struct Scripted {
    /// sends[r] = list of (node, msg) transmitting in round r.
    sends: Vec<Vec<(NodeId, u64)>>,
    received: Vec<(Round, NodeId, NodeId, u64)>,
    collisions: Vec<(Round, NodeId)>,
}

impl Scripted {
    fn new(sends: Vec<Vec<(NodeId, u64)>>) -> Scripted {
        Scripted { sends, received: Vec::new(), collisions: Vec::new() }
    }
}

impl Protocol for Scripted {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        if let Some(batch) = self.sends.get(round as usize) {
            for &(u, m) in batch {
                tx.send(u, m);
            }
        }
    }

    fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &u64) {
        self.received.push((round, node, from, *msg));
    }

    fn collision(&mut self, round: Round, node: NodeId) {
        self.collisions.push((round, node));
    }
}

/// Runs the script audited; returns the engine's stats and the protocol.
fn audited(g: &Graph, sends: &[Vec<(NodeId, u64)>], model: CollisionModel) -> (RunStats, Scripted) {
    let mut p = Audit::new(Scripted::new(sends.to_vec()), g, model, None);
    let mut sim = Simulator::new(g, model, 1);
    let stats = sim.run(&mut p, sends.len() as u64);
    assert_eq!(stats.metrics, p.metrics(), "engine metrics diverge from the definition");
    p.check_last_touched(sim.last_touched());
    (stats, p.into_inner())
}

/// Strategy: a connected graph and a 1–6 round transmission script with
/// each node transmitting at most once per round.
fn arb_scenario() -> impl Strategy<Value = (Graph, Vec<Vec<(NodeId, u64)>>)> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 1..n as u32).prop_map(move |(u, k)| {
            let v = (u + k) % n as u32;
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        });
        let graph = proptest::collection::vec(edge, 0..40).prop_map(move |mut edges| {
            for v in 1..n as u32 {
                edges.push((v - 1, v));
            }
            Graph::from_edges(n, &edges).expect("valid")
        });
        let round = proptest::collection::btree_map(0..n as u32, 0u64..100, 0..=n)
            .prop_map(|m| m.into_iter().collect::<Vec<(NodeId, u64)>>());
        let script = proptest::collection::vec(round, 1..6);
        (graph, script)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_reference_no_cd((g, sends) in arb_scenario()) {
        let (_, p) = audited(&g, &sends, CollisionModel::NoCollisionDetection);
        prop_assert!(p.collisions.is_empty(), "no CD notifications in the no-CD model");
        // Every delivery carries the message its sender queued that round.
        for &(r, _, from, msg) in &p.received {
            prop_assert!(sends[r as usize].contains(&(from, msg)));
        }
    }

    #[test]
    fn engine_matches_reference_cd((g, sends) in arb_scenario()) {
        let (stats, p) = audited(&g, &sends, CollisionModel::CollisionDetection);
        prop_assert_eq!(p.collisions.len() as u64, stats.metrics.collisions);
        for &(r, _, from, msg) in &p.received {
            prop_assert!(sends[r as usize].contains(&(from, msg)));
        }
    }

    #[test]
    fn metrics_match_reference_counts((g, sends) in arb_scenario()) {
        let (nocd, _) = audited(&g, &sends, CollisionModel::NoCollisionDetection);
        let (cd, _) = audited(&g, &sends, CollisionModel::CollisionDetection);
        prop_assert_eq!(nocd.metrics, cd.metrics, "CD changes observations, not counts");
        let total_tx: usize = sends.iter().map(|b| b.len()).sum();
        prop_assert_eq!(nocd.metrics.transmissions, total_tx as u64);
    }
}
