//! Property tests for the schedule substrate: tree well-formedness,
//! conflict-freeness of the slot coloring, and executor correctness on
//! arbitrary connected graphs and clusterings.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rn_cluster::Partition;
use rn_graph::{Graph, NodeId, INVALID_NODE};
use rn_schedule::{Downcast, PipelinedDowncast, SlotPolicy, TreeSchedule, Upcast};
use rn_sim::{CollisionModel, Simulator};

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 1..n as u32).prop_map(move |(u, k)| {
            let v = (u + k) % n as u32;
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        });
        proptest::collection::vec(edge, 0..70).prop_map(move |mut edges| {
            for v in 1..n as u32 {
                edges.push((v - 1, v));
            }
            Graph::from_edges(n, &edges).expect("valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trees_are_well_formed(g in arb_connected_graph(), seed in any::<u64>(),
                             beta_milli in 50u32..900) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let part = Partition::compute(&g, beta_milli as f64 / 1000.0, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        for v in g.nodes() {
            let p = sched.parent(v);
            if p == INVALID_NODE {
                prop_assert!(part.is_center(v));
                prop_assert_eq!(sched.depth(v), 0);
            } else {
                prop_assert!(g.has_edge(v, p));
                prop_assert_eq!(sched.depth(v), sched.depth(p) + 1);
                prop_assert_eq!(sched.cluster(v), sched.cluster(p));
                prop_assert!(sched.children(p).contains(&v));
            }
        }
        // nodes_at_depth partitions the node set.
        let total: usize =
            (0..=sched.max_depth()).map(|d| sched.nodes_at_depth(d).len()).sum();
        prop_assert_eq!(total, g.n());
    }

    #[test]
    fn transmitter_lists_equal_the_filtered_layer_scan(
        g in arb_connected_graph(), seed in any::<u64>(), beta_milli in 50u32..900,
    ) {
        // Each list must equal a scan of its layer in id order, filtered on
        // the slot: the same nodes in the same order, for any window width.
        let mut rng = SmallRng::seed_from_u64(seed);
        let part = Partition::compute(&g, beta_milli as f64 / 1000.0, &mut rng);
        for policy in [SlotPolicy::Auto, SlotPolicy::Fixed(1), SlotPolicy::Fixed(5)] {
            let sched = TreeSchedule::build(&g, &part, policy);
            let scan = |d: u32, slot: &dyn Fn(NodeId) -> u32, s: u32| -> Vec<NodeId> {
                g.nodes().filter(|&v| sched.depth(v) == d && slot(v) == s).collect()
            };
            for d in 0..=sched.max_depth() + 1 {
                for s in 0..=sched.window() {
                    prop_assert_eq!(
                        sched.down_transmitters(d, s),
                        &scan(d, &|v| sched.down_slot(v), s)[..],
                        "down d={} s={} {:?}", d, s, policy
                    );
                    prop_assert_eq!(
                        sched.up_transmitters(d, s),
                        &scan(d, &|v| sched.up_slot(v), s)[..],
                        "up d={} s={} {:?}", d, s, policy
                    );
                }
                // "No slot" (`u32::MAX`) is not a slot: nobody sends in it.
                prop_assert!(sched.down_transmitters(d, u32::MAX).is_empty());
                prop_assert!(sched.up_transmitters(d, u32::MAX).is_empty());
            }
            // nodes_at_depth still partitions the node set by depth.
            let mut seen = vec![false; g.n()];
            for d in 0..=sched.max_depth() {
                for &v in sched.nodes_at_depth(d) {
                    prop_assert_eq!(sched.depth(v), d);
                    prop_assert!(!seen[v as usize], "node {} listed twice", v);
                    seen[v as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&x| x), "every node listed");
        }
    }

    #[test]
    fn coloring_is_conflict_free_unless_overflowed(
        g in arb_connected_graph(), seed in any::<u64>(), beta_milli in 50u32..900,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let part = Partition::compute(&g, beta_milli as f64 / 1000.0, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        if sched.overflow() == 0 {
            prop_assert_eq!(sched.conflict_violations(&g), 0);
        }
    }

    #[test]
    fn downcast_serves_exactly_the_ball_on_single_cluster(
        g in arb_connected_graph(), radius in 1u32..12,
    ) {
        let mut rng = SmallRng::seed_from_u64(1);
        let part = Partition::compute(&g, 1e-9, &mut rng);
        prop_assume!(part.num_clusters() == 1);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let mut dc = Downcast::from_center_values(&sched, radius, &[Some(7)]);
        let budget = dc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 2);
        sim.run(&mut dc, budget);
        for v in g.nodes() {
            prop_assert_eq!(
                dc.value_of(v).is_some(),
                sched.depth(v) <= radius.min(sched.max_depth()),
                "node {} depth {}", v, sched.depth(v)
            );
        }
    }

    #[test]
    fn upcast_always_reports_a_true_participant_value(
        g in arb_connected_graph(), seed in any::<u64>(),
    ) {
        // The convergecast result at each center must be a value some
        // participant actually held — never fabricated, never from another
        // cluster.
        let mut rng = SmallRng::seed_from_u64(seed);
        let part = Partition::compute(&g, 0.4, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let mut participating: Vec<Option<u64>> = vec![None; g.n()];
        for v in g.nodes() {
            if v % 3 == 0 {
                participating[v as usize] = Some(1000 + v as u64);
            }
        }
        let mut uc = Upcast::new(&sched, sched.max_depth(), participating.clone());
        let budget = uc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 3);
        sim.run(&mut uc, budget);
        for &c in part.centers() {
            if let Some(x) = uc.value_of(c) {
                let idx = part.cluster_index(c);
                let legal = part
                    .members(idx)
                    .iter()
                    .filter_map(|&m| participating[m as usize])
                    .any(|p| p == x)
                    || participating[c as usize] == Some(x);
                prop_assert!(legal, "center {} reported foreign/fabricated {}", c, x);
            }
        }
    }

    #[test]
    fn pipeline_delivers_everything_on_single_cluster(
        g in arb_connected_graph(), k in 1usize..6,
    ) {
        let mut rng = SmallRng::seed_from_u64(5);
        let part = Partition::compute(&g, 1e-9, &mut rng);
        prop_assume!(part.num_clusters() == 1);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let msgs: Vec<u64> = (0..k as u64).map(|i| 50 + i).collect();
        let mut p =
            PipelinedDowncast::new(&sched, sched.max_depth(), std::slice::from_ref(&msgs));
        let budget = p.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 6);
        sim.run(&mut p, budget);
        for v in g.nodes() {
            for (m, &expect) in msgs.iter().enumerate() {
                prop_assert_eq!(p.value_of(v, m as u32), Some(expect),
                    "node {} message {}", v, m);
            }
        }
    }
}
