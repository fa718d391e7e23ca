//! The executable channel specification, plus minimal protocols for testing
//! the engine and composing fixtures.
//!
//! [`Audit`] wraps any protocol and recomputes every round from the model's
//! definition, straight from the graph: a listening node receives iff
//! exactly one neighbor transmits. It panics on the first place the
//! [`crate::Simulator`] disagrees with the definition — a callback, its
//! order, a [`RoundView`] bit or the round's frontier.
//!
//! The fixtures are deliberately simple: they let tests construct exact
//! channel configurations (who transmits when) and observe exact outcomes.
//! [`cold_trial`] runs one scenario trial the way a one-off caller would.

use crate::engine::{CollisionModel, Metrics, RoundView};
use crate::faults::{FaultPlan, FaultSchedule};
use crate::protocol::{Protocol, Round, TxBuf};
use crate::{NetParams, Runnable, TrialPool, TrialRecord};
use rn_graph::{Graph, NodeId};

/// One protocol callback the specification expects, in engine order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Deliver { node: NodeId, from: NodeId },
    Collision { node: NodeId },
}

/// A protocol wrapper that audits the engine against the channel model's
/// definition, round by round.
///
/// `Audit` forwards every callback to the wrapped protocol unchanged, so a
/// run behaves exactly as the bare protocol would. Alongside, after each
/// [`Protocol::transmit`] it recomputes the round by brute force from its
/// own copy of the graph, collision model and fault schedule:
///
/// * **Effective transmitters**, in order: the protocol's [`TxBuf`] entries
///   that [`FaultSchedule::suppresses_tx`] lets through, then each jammer in
///   [`FaultSchedule::jammer_ids`] order for which
///   [`FaultSchedule::jam_fires`].
/// * **Reception**: for every node, the number of its neighbors that are
///   effective transmitters. A node that is not transmitting and not
///   [`FaultSchedule::is_down`] receives iff that number is one — unless the
///   one is a jammer, whose lone noise burst is garbage. Two or more is a
///   collision, reported through [`Protocol::collision`] only under
///   [`CollisionModel::CollisionDetection`].
/// * **Callback order**: listeners in first-touch order — walk the effective
///   transmitters in order, and each transmitter's neighbors in adjacency
///   order; a listener's callback comes at its first appearance.
/// * **[`RoundView`]**: `heard` is "one or more transmitting neighbors",
///   `collided` is "two or more", `transmitted` is "effective transmitter",
///   `down` is [`FaultSchedule::is_down`], and the frontier is the heard set
///   (unordered, no repeats).
///
/// Any divergence panics with the round and node. After a run,
/// [`Audit::metrics`] holds the specification's counts for the audited
/// rounds and [`Audit::check_last_touched`] audits
/// [`crate::Simulator::last_touched`].
///
/// Fault coins are keyed by the engine's global round. A run on a fresh
/// simulator starts at global round 0; for a later run on the same
/// simulator, pass [`crate::Simulator::round`] to [`Audit::starting_at`].
///
/// The audit costs `O(n + m)` per round, so it is meant for small graphs.
///
/// # Example
///
/// ```
/// use rn_graph::generators;
/// use rn_sim::testing::{Audit, NaiveFlood};
/// use rn_sim::{CollisionModel, Simulator};
///
/// let g = generators::grid(4, 4);
/// let model = CollisionModel::NoCollisionDetection;
/// let mut p = Audit::new(NaiveFlood::new(g.n(), 0), &g, model, None);
/// let mut sim = Simulator::new(&g, model, 1);
/// let stats = sim.run(&mut p, 12);
/// assert_eq!(stats.metrics, p.metrics());
/// p.check_last_touched(sim.last_touched());
/// ```
#[derive(Debug)]
pub struct Audit<'g, P> {
    inner: P,
    graph: &'g Graph,
    model: CollisionModel,
    faults: Option<&'g FaultSchedule>,
    start: Round,
    /// The protocol-local round last audited.
    round: Round,
    /// Whether `round` has been transmitted but not yet ended.
    in_round: bool,
    /// Effective transmitters of the round, protocol entries first; `true`
    /// marks a jammer's noise burst.
    active: Vec<(NodeId, bool)>,
    /// Per node: index into `active` when the node effectively transmits.
    tx_index: Vec<Option<usize>>,
    /// Per node: number of transmitting neighbors.
    energy: Vec<u32>,
    /// Listeners in first-touch order (the heard set).
    touched: Vec<NodeId>,
    seen: Vec<bool>,
    expected: Vec<Expect>,
    cursor: usize,
    metrics: Metrics,
}

impl<'g, P: Protocol> Audit<'g, P> {
    /// Audits `inner` against the channel over `graph` under `model` and
    /// `faults` — the graph, model and schedule the engine should be
    /// running.
    pub fn new(
        inner: P,
        graph: &'g Graph,
        model: CollisionModel,
        faults: Option<&'g FaultSchedule>,
    ) -> Audit<'g, P> {
        let n = graph.n();
        Audit {
            inner,
            graph,
            model,
            faults,
            start: 0,
            round: 0,
            in_round: false,
            active: Vec::new(),
            tx_index: vec![None; n],
            energy: vec![0; n],
            touched: Vec::new(),
            seen: vec![false; n],
            expected: Vec::new(),
            cursor: 0,
            metrics: Metrics::default(),
        }
    }

    /// Sets the engine's global round at which the audited run starts (the
    /// round fault coins are drawn for); the default is 0.
    pub fn starting_at(mut self, global: Round) -> Audit<'g, P> {
        self.start = global;
        self
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the audit, returning the wrapped protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The specification's channel counts over the audited rounds: compare
    /// with the engine's [`crate::RunStats::metrics`].
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Checks the engine's [`crate::Simulator::last_touched`] after a run:
    /// it must hold the last audited round's heard set, each node once.
    ///
    /// # Panics
    ///
    /// Panics when `touched` is not that set.
    pub fn check_last_touched(&self, touched: &[NodeId]) {
        assert_same_set("last_touched", self.round, touched, &self.touched);
    }

    fn global(&self, local: Round) -> Round {
        self.start + local
    }

    /// The definitional round: effective transmitters, per-node energy,
    /// first-touch listener order and the callbacks it implies.
    fn predict(&mut self, local: Round, tx: &TxBuf<P::Msg>) {
        let global = self.global(local);
        for &(u, _) in &self.active {
            self.tx_index[u as usize] = None;
        }
        self.active.clear();
        for &(u, _) in tx.entries() {
            if !self.faults.is_some_and(|f| f.suppresses_tx(global, u)) {
                self.active.push((u, false));
            }
        }
        if let Some(f) = self.faults {
            for &j in f.jammer_ids() {
                if f.jam_fires(global, j) {
                    self.active.push((j, true));
                }
            }
        }
        for (i, &(u, _)) in self.active.iter().enumerate() {
            self.tx_index[u as usize] = Some(i);
        }

        // Reception by definition: every node counts its own transmitting
        // neighbors.
        for v in self.graph.nodes() {
            self.energy[v as usize] = self
                .graph
                .neighbors(v)
                .iter()
                .filter(|&&w| self.tx_index[w as usize].is_some())
                .count() as u32;
        }

        // Listener order: first touch over the transmitters' adjacency.
        for &v in &self.touched {
            self.seen[v as usize] = false;
        }
        self.touched.clear();
        for &(u, _) in &self.active {
            for &v in self.graph.neighbors(u) {
                if !std::mem::replace(&mut self.seen[v as usize], true) {
                    self.touched.push(v);
                }
            }
        }

        self.expected.clear();
        self.cursor = 0;
        for &v in &self.touched {
            let listening = self.tx_index[v as usize].is_none()
                && !self.faults.is_some_and(|f| f.is_down(global, v));
            if !listening {
                continue;
            }
            if self.energy[v as usize] == 1 {
                let &from = self
                    .graph
                    .neighbors(v)
                    .iter()
                    .find(|&&w| self.tx_index[w as usize].is_some())
                    .expect("one transmitting neighbor");
                let (_, noise) = self.active[self.tx_index[from as usize].expect("transmits")];
                if !noise {
                    self.expected.push(Expect::Deliver { node: v, from });
                    self.metrics.deliveries += 1;
                }
            } else {
                self.metrics.collisions += 1;
                if self.model == CollisionModel::CollisionDetection {
                    self.expected.push(Expect::Collision { node: v });
                }
            }
        }
        self.metrics.transmissions += self.active.len() as u64;
        self.metrics.rounds += 1;
    }

    /// Checks one engine callback against the next expected one.
    fn observe(&mut self, round: Round, got: Expect) {
        assert!(
            self.in_round && self.round == round,
            "audit: callback {got:?} outside round {round}"
        );
        let want = self.expected.get(self.cursor);
        assert_eq!(
            want,
            Some(&got),
            "audit: round {round} callback #{} diverges from the channel definition",
            self.cursor
        );
        self.cursor += 1;
    }

    /// Checks the engine's end-of-round view against the definition.
    fn check_view(&self, round: Round, view: &RoundView<'_>) {
        let global = self.global(round);
        for v in self.graph.nodes() {
            let energy = self.energy[v as usize];
            let want = (
                energy >= 1,
                energy >= 2,
                self.tx_index[v as usize].is_some(),
                self.faults.is_some_and(|f| f.is_down(global, v)),
            );
            let got = (view.heard(v), view.collided(v), view.transmitted(v), view.down(v));
            assert_eq!(
                got, want,
                "audit: round {round} view of node {v} (heard, collided, transmitted, down)"
            );
        }
        assert_same_set("frontier", round, view.frontier(), &self.touched);
    }
}

/// Panics unless `got` lists exactly the nodes of `want`, each once.
fn assert_same_set(what: &str, round: Round, got: &[NodeId], want: &[NodeId]) {
    let mut got = got.to_vec();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "audit: round {round} {what} is not the heard set");
}

impl<P: Protocol> Protocol for Audit<'_, P> {
    type Msg = P::Msg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<P::Msg>) {
        assert!(!self.in_round, "audit: round {} ended without round_end", self.round);
        self.inner.transmit(round, tx);
        self.predict(round, tx);
        self.round = round;
        self.in_round = true;
    }

    fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &P::Msg) {
        self.observe(round, Expect::Deliver { node, from });
        self.inner.deliver(round, node, from, msg);
    }

    fn collision(&mut self, round: Round, node: NodeId) {
        self.observe(round, Expect::Collision { node });
        self.inner.collision(round, node);
    }

    fn round_end(&mut self, round: Round, view: &RoundView<'_>) {
        assert!(
            self.in_round && self.round == round,
            "audit: round_end for round {round} outside it"
        );
        self.in_round = false;
        assert_eq!(
            self.cursor,
            self.expected.len(),
            "audit: round {round} missed callbacks from #{}: {:?}",
            self.cursor,
            &self.expected[self.cursor..]
        );
        self.check_view(round, view);
        self.inner.round_end(round, view);
    }

    fn done(&self, round: Round) -> bool {
        self.inner.done(round)
    }
}

/// A protocol where nobody ever transmits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silence;

impl Protocol for Silence {
    type Msg = u64;

    fn transmit(&mut self, _round: Round, _tx: &mut TxBuf<u64>) {}

    fn deliver(&mut self, _round: Round, _node: NodeId, _from: NodeId, _msg: &u64) {}
}

/// Transmits a fixed set of `(node, message)` pairs in round 0, then stays
/// silent; records everything every node receives and every collision
/// notification (CD model).
#[derive(Debug, Clone)]
pub struct OneShot {
    sends: Vec<(NodeId, u64)>,
    received: Vec<Vec<(NodeId, u64)>>,
    collisions: Vec<u32>,
}

impl OneShot {
    /// Creates the fixture for an `n`-node network.
    pub fn new(n: usize, sends: Vec<(NodeId, u64)>) -> OneShot {
        OneShot { sends, received: vec![Vec::new(); n], collisions: vec![0; n] }
    }

    /// Messages received by `node`, in delivery order.
    pub fn received(&self, node: NodeId) -> &[(NodeId, u64)] {
        &self.received[node as usize]
    }

    /// Collision notifications seen by `node` (CD model only).
    pub fn collisions(&self, node: NodeId) -> u32 {
        self.collisions[node as usize]
    }
}

impl Protocol for OneShot {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        if round == 0 {
            for &(u, m) in &self.sends {
                tx.send(u, m);
            }
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, from: NodeId, msg: &u64) {
        self.received[node as usize].push((from, *msg));
    }

    fn collision(&mut self, _round: Round, node: NodeId) {
        self.collisions[node as usize] += 1;
    }
}

/// A single node transmitting the same message every round. Counts how many
/// rounds it has been asked to act in (used to verify interleaving).
#[derive(Debug, Clone)]
pub struct EveryRound {
    node: NodeId,
    msg: u64,
    rounds_seen: u64,
}

impl EveryRound {
    /// `node` transmits `msg` every round.
    pub fn new(node: NodeId, msg: u64) -> EveryRound {
        EveryRound { node, msg, rounds_seen: 0 }
    }

    /// Number of `transmit` calls observed.
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }
}

impl Protocol for EveryRound {
    type Msg = u64;

    fn transmit(&mut self, _round: Round, tx: &mut TxBuf<u64>) {
        self.rounds_seen += 1;
        tx.send(self.node, self.msg);
    }

    fn deliver(&mut self, _round: Round, _node: NodeId, _from: NodeId, _msg: &u64) {}
}

/// Naive flooding: the source transmits in round 0; every node transmits in
/// the round after it first receives. On trees and paths this succeeds; on
/// dense graphs it collides — both behaviors are useful fixtures.
#[derive(Debug, Clone)]
pub struct NaiveFlood {
    /// Round in which each node is due to transmit (source: round 0;
    /// receivers: the round after first reception). `None` = uninformed.
    transmit_at: Vec<Option<Round>>,
}

impl NaiveFlood {
    /// Creates a flood from `source` on an `n`-node network.
    pub fn new(n: usize, source: NodeId) -> NaiveFlood {
        let mut transmit_at = vec![None; n];
        transmit_at[source as usize] = Some(0);
        NaiveFlood { transmit_at }
    }

    /// Whether `node` has received (or originated) the flood.
    pub fn is_informed(&self, node: NodeId) -> bool {
        self.transmit_at[node as usize].is_some()
    }

    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.transmit_at.iter().filter(|x| x.is_some()).count()
    }
}

impl Protocol for NaiveFlood {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        for (v, &at) in self.transmit_at.iter().enumerate() {
            if at == Some(round) {
                tx.send(v as NodeId, 1);
            }
        }
    }

    fn deliver(&mut self, round: Round, node: NodeId, _from: NodeId, _msg: &u64) {
        let slot = &mut self.transmit_at[node as usize];
        if slot.is_none() {
            *slot = Some(round + 1);
        }
    }
}

/// One trial of `scenario` on `g` on a cold [`TrialPool`], with `net`
/// taken from the graph and `plan` resolved by [`FaultPlan::schedule_for`]
/// as the campaign executor resolves it — the shorthand scenario tests use.
pub fn cold_trial(
    scenario: &dyn Runnable,
    g: &Graph,
    model: CollisionModel,
    seed: u64,
    plan: &FaultPlan,
) -> TrialRecord {
    let schedule = plan.schedule_for(g.n(), seed);
    let net = NetParams::of_graph(g);
    scenario.run_trial_pooled(g, net, model, seed, schedule.as_ref(), &mut TrialPool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use rn_graph::generators;

    /// Floods `engine_graph` under `engine_model` / `engine_faults`, audited
    /// against a possibly different channel description.
    fn audit_mismatch(
        engine_graph: &Graph,
        engine_model: CollisionModel,
        engine_faults: Option<FaultSchedule>,
        spec_graph: &Graph,
        spec_model: CollisionModel,
        spec_faults: Option<&FaultSchedule>,
    ) {
        let mut p =
            Audit::new(NaiveFlood::new(spec_graph.n(), 0), spec_graph, spec_model, spec_faults);
        let mut sim = Simulator::with_faults(engine_graph, engine_model, 1, engine_faults);
        sim.run(&mut p, 12);
    }

    #[test]
    fn audit_passes_the_engine_on_its_own_channel() {
        let g = generators::cycle(8);
        let model = CollisionModel::CollisionDetection;
        let faults = FaultSchedule::new(8, vec![3], 0.5, 0.2, 0.05, 4);
        audit_mismatch(&g, model, Some(faults.clone()), &g, model, Some(&faults));
    }

    #[test]
    #[should_panic(expected = "audit:")]
    fn audit_rejects_a_graph_with_one_extra_edge() {
        // The source's first transmission reaches node 5 only in the spec.
        let g = generators::path(6);
        let mut edges: Vec<(NodeId, NodeId)> = (1..6).map(|v| (v - 1, v)).collect();
        edges.push((0, 5));
        let spec = Graph::from_edges(6, &edges).expect("valid graph");
        let model = CollisionModel::NoCollisionDetection;
        audit_mismatch(&g, model, None, &spec, model, None);
    }

    #[test]
    #[should_panic(expected = "audit:")]
    fn audit_rejects_cd_callbacks_the_engine_does_not_make() {
        // On a 4-cycle the flood's second round collides at the antipode;
        // only a CD channel reports it.
        let g = generators::cycle(4);
        audit_mismatch(
            &g,
            CollisionModel::NoCollisionDetection,
            None,
            &g,
            CollisionModel::CollisionDetection,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "audit:")]
    fn audit_rejects_a_fault_schedule_the_engine_was_not_given() {
        // An always-firing jammer transmits in the spec only.
        let g = generators::path(6);
        let faults = FaultSchedule::new(6, vec![3], 1.0, 0.0, 0.0, 1);
        let model = CollisionModel::NoCollisionDetection;
        audit_mismatch(&g, model, None, &g, model, Some(&faults));
    }

    #[test]
    fn naive_flood_crosses_a_path() {
        let g = generators::path(6);
        let mut p = NaiveFlood::new(6, 0);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 3);
        sim.run(&mut p, 10);
        assert_eq!(p.informed_count(), 6);
    }

    #[test]
    fn naive_flood_stalls_on_even_cycles() {
        // On a 4-cycle, the two neighbors of the source get informed in round
        // 0 and both transmit in round 1: permanent collision at the antipode.
        let g = generators::cycle(4);
        let mut p = NaiveFlood::new(4, 0);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 3);
        sim.run(&mut p, 20);
        assert_eq!(p.informed_count(), 3, "antipodal node starves under collisions");
        assert!(!p.is_informed(2));
    }
}
