//! The [`Runnable`] protocol-factory trait: the uniform entry point every
//! algorithm crate implements so campaigns can cross *any* protocol with
//! *any* topology and collision model without naming either in code.
//!
//! A `Runnable` is a self-contained scenario: given a graph, the network
//! knowledge ([`NetParams`]) the model grants nodes, a collision model and a
//! trial seed, it sets up its protocol (sources, parameters, budgets), runs
//! it to completion or budget exhaustion, and reports one machine-readable
//! [`TrialRecord`]. Implementations live next to their algorithms —
//! `rn_core` (Compete / broadcast / leader election), `rn_baselines` (BGI,
//! truncated decay, binary-search leader election), `rn_decay` (raw
//! multi-source decay) — and are registered by name in `rn_bench`'s scenario
//! registry.

use crate::engine::SimScratch;
use crate::faults::FaultSchedule;
use crate::{CollisionModel, Metrics, NetParams};
use rn_graph::Graph;
use std::any::Any;

/// Per-worker reusable trial state: one [`SimScratch`] of engine scratch
/// plus one type-erased slot for whatever protocol/scenario state the
/// scenario's [`Runnable::run_trial_pooled`] wants to carry across trials
/// (protocol bitsets, value vectors, transmission buffers, …).
///
/// Campaign executors keep one pool per `(worker, topology, protocol)` so a
/// multi-trial cell allocates its state once and every further trial runs
/// allocation-free. A one-off trial passes [`TrialPool::new`]: a cold pool's
/// first trial builds its state with the constructors, a warm pool resets
/// it, and the record is the same either way. The pool is plain data —
/// dropping it is always safe.
#[derive(Debug, Default)]
pub struct TrialPool {
    engine: SimScratch,
    protocol: Option<Box<dyn Any + Send>>,
}

impl TrialPool {
    /// An empty pool; the first pooled trial populates it.
    pub fn new() -> TrialPool {
        TrialPool::default()
    }

    /// Splits the pool into its engine scratch and the scenario-state slot,
    /// creating the latter with `make` when the pool is fresh or was last
    /// used by a scenario with a different state type.
    pub fn parts<T: Send + 'static>(
        &mut self,
        make: impl FnOnce() -> T,
    ) -> (&mut SimScratch, &mut T) {
        if !self.protocol.as_deref().is_some_and(|b| b.is::<T>()) {
            self.protocol = Some(Box::new(make()));
        }
        let state = self
            .protocol
            .as_deref_mut()
            .and_then(|b| b.downcast_mut::<T>())
            .expect("slot was just ensured to hold a T");
        (&mut self.engine, state)
    }
}

/// Machine-readable outcome of one scenario trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialRecord {
    /// Whether the scenario reached its goal (all informed, unique leader,
    /// …) within its budget.
    pub completed: bool,
    /// Rounds consumed, including any charged precomputation.
    pub rounds: u64,
    /// Channel statistics, when the scenario runs packet-level through the
    /// simulator (scenarios that only account rounds leave this zeroed).
    pub metrics: Metrics,
    /// Whether [`TrialRecord::metrics`] holds real channel statistics.
    /// `false` for rounds-accounted scenarios (e.g. `binsearch_le`), whose
    /// zeroed `Metrics` are a placeholder, not a sample — aggregators must
    /// not fold them into delivery/collision/transmission distributions.
    pub metrics_recorded: bool,
}

impl TrialRecord {
    /// A record for a packet-level run: rounds and metrics from the
    /// simulator, plus the goal predicate.
    pub fn new(completed: bool, rounds: u64, metrics: Metrics) -> TrialRecord {
        TrialRecord { completed, rounds, metrics, metrics_recorded: true }
    }

    /// A record for a rounds-accounted run with no channel metrics.
    pub fn rounds_only(completed: bool, rounds: u64) -> TrialRecord {
        TrialRecord { completed, rounds, metrics: Metrics::default(), metrics_recorded: false }
    }
}

/// A named, repeatable scenario: one protocol family plus its setup policy,
/// runnable on any graph under any collision model.
///
/// Implementations must be cheap to construct and reusable across trials —
/// [`Runnable::run_trial_pooled`] takes `&self` and is called concurrently
/// from the campaign runner's worker threads (hence the `Send + Sync`
/// supertraits). All randomness must derive from the passed `seed` so a
/// `(scenario, graph, model, seed, faults)` tuple pins the trial exactly.
pub trait Runnable: Send + Sync {
    /// The scenario's stable registry name (e.g. `"leader_election"`,
    /// `"binsearch_le(bgi)"`). Used in tables, JSON results and CLI specs.
    fn name(&self) -> String;

    /// The collision model a trial actually runs under when `requested` is
    /// asked for. Most scenarios honor the request (the default); scenarios
    /// whose probe dictates a fixed model (e.g. a beep wave needs collision
    /// detection) override this so campaign records stay truthful — the
    /// campaign runner records and passes the *effective* model.
    fn effective_model(&self, requested: CollisionModel) -> CollisionModel {
        requested
    }

    /// Runs one trial of the scenario on `g` — the single trial method.
    ///
    /// `net` carries the `n`/`D` knowledge the model grants every node
    /// (callers typically derive it from `g`); `model` selects the collision
    /// semantics the channel enforces and is always the value
    /// [`Runnable::effective_model`] mapped the caller's request to.
    /// `faults` is the trial's schedule from [`FaultPlan::schedule_for`]
    /// (`None` = fault-free); implementations hand it to every
    /// [`crate::Simulator`] they build — fault injection is explicit
    /// parameter passing, never ambient state.
    ///
    /// Scenario state lives in `pool` (see [`TrialPool`]): the record must
    /// not depend on what the pool held before, so a cold pool and one
    /// carried across any other trials give byte-identical records.
    /// Scenarios with nothing to carry ignore the pool.
    ///
    /// [`FaultPlan::schedule_for`]: crate::FaultPlan::schedule_for
    fn run_trial_pooled(
        &self,
        g: &Graph,
        net: NetParams,
        model: CollisionModel,
        seed: u64,
        faults: Option<&FaultSchedule>,
        pool: &mut TrialPool,
    ) -> TrialRecord;
}

// Campaign executors move boxed scenarios across worker threads; this fails
// to compile if the trait object ever stops being `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn Runnable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::testing::{cold_trial, NaiveFlood};
    use crate::Simulator;
    use rn_graph::generators;

    /// A minimal in-crate Runnable over the testing flood protocol; it
    /// carries no state, so it ignores the pool.
    struct FloodScenario;

    impl Runnable for FloodScenario {
        fn name(&self) -> String {
            "naive_flood".into()
        }

        fn run_trial_pooled(
            &self,
            g: &Graph,
            net: NetParams,
            model: CollisionModel,
            seed: u64,
            faults: Option<&FaultSchedule>,
            _pool: &mut TrialPool,
        ) -> TrialRecord {
            let mut p = NaiveFlood::new(g.n(), 0);
            let mut sim = Simulator::with_faults(g, model, seed, faults.cloned());
            let stats = sim.run(&mut p, 4 * net.diameter() as u64 + 8);
            TrialRecord::new(p.informed_count() == g.n(), stats.rounds, stats.metrics)
        }
    }

    #[test]
    fn runnable_objects_are_usable_through_dyn() {
        let g = generators::path(8);
        let scenario: Box<dyn Runnable> = Box::new(FloodScenario);
        assert_eq!(scenario.name(), "naive_flood");
        // A path floods fine (each frontier node is alone); a record with
        // metrics comes back.
        let nocd = CollisionModel::NoCollisionDetection;
        let r = cold_trial(&*scenario, &g, nocd, 1, &FaultPlan::none());
        assert!(r.completed);
        assert!(r.rounds > 0);
        assert!(r.metrics.deliveries > 0);
    }

    #[test]
    fn fault_free_plan_has_no_schedule_and_jam_degrades() {
        let g = generators::path(12);
        let nocd = CollisionModel::NoCollisionDetection;
        assert!(FaultPlan::none().schedule_for(g.n(), 1).is_none());
        // Half the path jamming at probability 1 makes completion
        // impossible: every non-source segment is fenced off eventually.
        let jam = FaultPlan::jam(12, 1.0);
        let jammed = cold_trial(&FloodScenario, &g, nocd, 1, &jam);
        assert!(!jammed.completed, "no false completion when every node jams");
        // Determinism: the same (seed, plan) reproduces the trial exactly.
        assert_eq!(jammed, cold_trial(&FloodScenario, &g, nocd, 1, &jam));
    }

    #[test]
    fn trial_record_constructors() {
        let r = TrialRecord::rounds_only(true, 42);
        assert!(r.completed);
        assert_eq!(r.rounds, 42);
        assert_eq!(r.metrics, Metrics::default());
        assert!(!r.metrics_recorded, "rounds-only records carry placeholder metrics");
        let m = TrialRecord::new(true, 7, Metrics::default());
        assert!(m.metrics_recorded, "packet-level records carry real metrics");
    }
}
