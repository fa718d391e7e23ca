//! [`Runnable`] scenario + [`ProtocolFamily`] registration for the cluster
//! sub-protocol: `partition(BETA)` runs the **distributed** Partition(β)
//! construction as a real radio protocol and reports its cost and quality
//! as a [`TrialRecord`] — so the registry can measure the primitive the
//! paper's headline algorithms are built from, on the same footing (same
//! topologies, collision models and fault plans) as the algorithms
//! themselves.

use crate::distributed::{Announce, DistributedPartition, DistributedPartitionConfig};
use crate::partition::{Partition, ValidateScratch};
use crate::shifts::ExponentialShifts;
use rn_graph::{Graph, NodeId};
use rn_sim::family::{ParsedArgs, ProtocolFamily};
use rn_sim::{
    CollisionModel, FaultSchedule, NetParams, Runnable, Simulator, TrialPool, TrialRecord, TxBuf,
};

/// `partition(BETA)`: one trial runs the discretized Haeupler–Wajc race
/// ([`DistributedPartition`]) to its full phase budget, extracts the
/// clustering, and scores it.
///
/// * `rounds` — the radio rounds the construction consumed (its
///   `O(log³ n / β)` budget), plus the channel metrics;
/// * `completed` — whether the extracted clustering is a *valid* §2.1
///   partition with **no repairs**: every node adopted a claim, every used
///   center is its own center, and each cluster is connected with strong
///   center distances (checked by [`crate::Partition::validate`]). Collisions
///   losing announcements — or faults silencing nodes — surface as
///   incomplete trials, which is exactly the quality signal the cell's
///   `completed` column is for.
#[derive(Debug, Clone)]
pub struct PartitionScenario {
    /// The clustering parameter β ∈ [`ExponentialShifts::MIN_BETA`, 1].
    pub beta: f64,
    /// Registry name (e.g. `"partition(0.5)"`).
    pub label: String,
}

impl PartitionScenario {
    /// A scenario for `beta`, named `partition(BETA)`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `(0, 1]` or is below
    /// [`ExponentialShifts::MIN_BETA`].
    pub fn new(beta: f64) -> PartitionScenario {
        assert!(
            beta > 0.0 && beta <= 1.0 && beta.is_finite(),
            "partition beta {beta} not in (0, 1]"
        );
        assert!(
            beta >= ExponentialShifts::MIN_BETA,
            "partition beta {beta:e} below MIN_BETA = {:e}",
            ExponentialShifts::MIN_BETA
        );
        PartitionScenario { beta, label: format!("partition({beta})") }
    }
}

impl Runnable for PartitionScenario {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn run_trial_pooled(
        &self,
        g: &Graph,
        net: NetParams,
        model: CollisionModel,
        seed: u64,
        faults: Option<&FaultSchedule>,
        pool: &mut TrialPool,
    ) -> TrialRecord {
        let (engine, st) = pool.parts(PartitionPool::default);
        let config = DistributedPartitionConfig::default();
        match &mut st.protocol {
            Some(p) => p.reset(net, self.beta, config, seed),
            slot @ None => *slot = Some(DistributedPartition::new(net, self.beta, config, seed)),
        }
        let p = st.protocol.as_mut().expect("slot was just filled");
        let budget = p.total_rounds();
        st.tx.clear();
        st.tx.reserve(g.n());
        let mut sim = Simulator::reuse(engine, g, model, seed, faults.cloned());
        let stats = sim.run_with_buf(p, &mut st.tx, budget);
        let partition = st.partition.get_or_insert_with(|| Partition::shell(self.beta));
        let repairs = p.extract_partition(partition, &mut st.used, &mut st.idx);
        let valid = repairs == 0 && partition.validate_pooled(g, &mut st.validate).is_ok();
        TrialRecord::new(valid, stats.rounds, stats.metrics)
    }
}

/// Per-worker reusable state behind [`PartitionScenario`]'s pooled trials:
/// the protocol (re-armed in place per trial), the transmission buffer, the
/// extracted partition slot, and the extraction/validation scratch.
#[derive(Debug, Default)]
struct PartitionPool {
    protocol: Option<DistributedPartition>,
    tx: TxBuf<Announce>,
    partition: Option<Partition>,
    used: Vec<NodeId>,
    idx: Vec<u32>,
    validate: ValidateScratch,
}

/// `partition(BETA)` — the family registration.
pub struct PartitionFamily;

impl PartitionFamily {
    fn parse_beta(args: Option<&str>) -> Result<f64, String> {
        let a = args.ok_or("partition needs a beta argument, e.g. partition(0.5)")?;
        let beta: f64 = a.parse().map_err(|_| format!("partition: {a:?} is not a number"))?;
        if !(beta > 0.0 && beta <= 1.0 && beta.is_finite()) {
            return Err(format!("partition: beta {a} not in (0, 1]"));
        }
        if beta < ExponentialShifts::MIN_BETA {
            return Err(format!(
                "partition: beta {a} below the floor {:e}",
                ExponentialShifts::MIN_BETA
            ));
        }
        Ok(beta)
    }
}

impl ProtocolFamily for PartitionFamily {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn grammar(&self) -> &'static str {
        "partition(BETA)"
    }

    fn about(&self) -> &'static str {
        "distributed Partition(beta) construction; completed = valid clustering"
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("0.5")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let beta = PartitionFamily::parse_beta(args)?;
        Ok(ParsedArgs::with_args(beta.to_string()))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        _overrides: &[(&'static rn_sim::OverrideSpec, f64)],
        _label: &str,
    ) -> Box<dyn Runnable> {
        let beta = PartitionFamily::parse_beta(args).expect("canonical partition args");
        Box::new(PartitionScenario::new(beta))
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&PartitionFamily]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_sim::testing::cold_trial;
    use rn_sim::FaultPlan;

    const NOCD: CollisionModel = CollisionModel::NoCollisionDetection;

    #[test]
    fn partition_scenario_runs_and_scores_validity() {
        let g = generators::grid(10, 10);
        let s = PartitionScenario::new(0.5);
        assert_eq!(s.name(), "partition(0.5)");
        let r = cold_trial(&s, &g, NOCD, 7, &FaultPlan::none());
        assert!(r.rounds > 0, "the construction consumes radio rounds");
        assert!(r.metrics.transmissions > 0, "announcements really go on the air");
        // Determinism in the trial seed.
        assert_eq!(r, cold_trial(&s, &g, NOCD, 7, &FaultPlan::none()));
    }

    #[test]
    fn partition_scenario_fails_honestly_when_jammed_flat() {
        let g = generators::grid(6, 6);
        let s = PartitionScenario::new(0.5);
        // Every node jamming: no announcement survives, so nodes fall back
        // to singletons — still a valid partition? No: nodes never adopt a
        // claim and become singleton centers, which *is* §2.1-valid. The
        // honest failure signal is the repair/validity path under partial
        // jamming; under total jamming every node is its own center and the
        // trial may legitimately complete. What must never happen is a
        // panic — the scenario degrades, it does not crash.
        let r = cold_trial(&s, &g, NOCD, 3, &FaultPlan::jam(36, 1.0));
        assert_eq!(r.metrics.deliveries, 0, "nothing is ever delivered under total jamming");
    }

    #[test]
    fn pooled_trials_match_fresh_trials_exactly() {
        let g = generators::grid(10, 10);
        let net = NetParams::of_graph(&g);
        let s = PartitionScenario::new(0.5);
        // A cold pool's first trial builds the protocol and partition; the
        // carried pool re-arms them. Records must not tell the two apart.
        let mut pool = TrialPool::new();
        for seed in 0..3 {
            let cold = cold_trial(&s, &g, NOCD, seed, &FaultPlan::none());
            let carried = s.run_trial_pooled(&g, net, NOCD, seed, None, &mut pool);
            assert_eq!(cold, carried, "seed {seed}");
        }
    }

    #[test]
    fn family_parses_and_canonicalizes_beta() {
        let f = PartitionFamily;
        let p = f.parse_args(Some("0.50")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("0.5"), "beta canonicalizes via f64 Display");
        assert!(f.parse_args(None).is_err());
        assert!(f.parse_args(Some("0")).is_err());
        assert!(f.parse_args(Some("1.5")).is_err());
        assert!(f.parse_args(Some("x")).is_err());
        let r = f.instantiate(Some("0.25"), &[], "partition(0.25)");
        assert_eq!(r.name(), "partition(0.25)");
    }

    #[test]
    #[should_panic(expected = "not in (0, 1]")]
    fn scenario_rejects_out_of_range_beta() {
        PartitionScenario::new(0.0);
    }

    #[test]
    fn family_rejects_beta_below_the_floor() {
        let f = PartitionFamily;
        for tiny in ["5e-324", "1e-300", "9.99e-13"] {
            let err = f.parse_args(Some(tiny)).expect_err(tiny);
            assert!(err.contains("below the floor"), "{tiny}: {err}");
        }
        let floor = ExponentialShifts::MIN_BETA.to_string();
        assert!(f.parse_args(Some(&floor)).is_ok(), "the floor itself parses");
    }

    #[test]
    #[should_panic(expected = "below MIN_BETA")]
    fn scenario_rejects_beta_below_the_floor() {
        PartitionScenario::new(5e-324);
    }
}
