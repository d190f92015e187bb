//! §5: vertex cover in the **broadcast model** — maximal edge packing in
//! O(Δ² + Δ·log\*W) rounds on G itself, by simulating the §4 algorithm on
//! the incidence structure of G.
//!
//! The edge-packing instance (G, w) becomes a fractional-packing instance
//! (H, w) with `f = 2, k = Δ`: node v ↦ subset node s(v), edge e ↦ element
//! u(e). Elements are *not* physical entities, so each node v replays them:
//! v broadcasts the **full history** `h(v, i−1)` of s(v)'s §4 messages every
//! round; from its own history and a received neighbour history it can
//! re-simulate the shared element — and because the element treats its two
//! neighbours symmetrically (broadcast model), v never needs to know *which*
//! neighbour a history came from. This costs message size (the paper:
//! "without increasing the number of communication rounds, but at the cost
//! of increasing message complexity") — experiment E4 measures exactly that
//! blowup via the engine's bit instrumentation.
//!
//! Implementation note: element states are memoized by history *value*
//! (`HashMap<Vec<ScMsg>, state>`), which is broadcast-legal — the state is a
//! pure function of the unordered pair of endpoint histories — and avoids
//! the O(T) re-simulation per edge per round.
//!
//! Determinism note: the memo tables are keyed lookups only — nothing ever
//! *iterates* a `HashMap` here. Outputs (`elem_info`, message order) are
//! produced by walking `incoming` in port order and sorting collected
//! multisets, so `RandomState` never reaches a `Trace` or an output. The
//! `anonet-lint` `determinism` check enforces this; the waivers below each
//! assert membership-only use.

use crate::sc_bcast::{ScConfig, ScMsg, ScNode, ScOutput};
use crate::vc_pn::VcInstance;
use anonet_bigmath::PackingValue;
use anonet_sim::{
    run_engine, BcastAlgorithm, Broadcast, EngineOptions, Graph, MessageSize, SimError, Trace,
};
use std::collections::HashMap;

/// Global configuration: the §4 configuration of the derived instance
/// (`f = 2`, `k = Δ`).
#[derive(Clone, Debug)]
pub struct VcBcastConfig {
    /// Configuration of the simulated §4 run.
    pub sc: ScConfig,
}

impl VcBcastConfig {
    /// Builds the configuration for bounds Δ and W.
    pub fn new(delta: usize, max_weight: u64) -> VcBcastConfig {
        VcBcastConfig { sc: ScConfig::new(2, delta.max(1), max_weight) }
    }

    /// Total rounds on G: one more than the simulated §4 schedule (after
    /// G-round i, each node knows its subset's messages through §4-round i;
    /// the final §4 receive happens at G-round T+1).
    pub fn total_rounds(&self) -> u64 {
        self.sc.total_rounds() + 1
    }
}

/// One node of G simulating its subset node and incident elements.
pub struct VcBcastNode<V: PackingValue> {
    /// Simulator for s(v).
    subset: ScNode<V>,
    /// `h(v, i)`: messages s(v) sent in §4-rounds 1..=i.
    history: Vec<ScMsg<V>>,
    /// Element states after §4-round (i−1) receives, keyed by the
    /// neighbour's history value.
    memo: HashMap<Vec<ScMsg<V>>, ScNode<V>>, // lint: allow(determinism) — membership-only memo: get/insert by history value, never iterated
    /// Collected element outputs (multiset, sorted) at the end.
    elem_info: Vec<(V, bool)>,
    /// The subset's final output.
    in_cover: Option<bool>,
}

/// Output of a §5 node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcBcastOutput<V> {
    /// Whether s(v) is saturated, i.e. v joins the vertex cover.
    pub in_cover: bool,
    /// Per incident element (unattributed multiset, sorted): final `(y,
    /// saturated)` — enough to reconstruct Σy and check maximality globally.
    pub elem_info: Vec<(V, bool)>,
}

/// History message: all §4 messages the sender's subset node has broadcast.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct HistoryMsg<V: PackingValue>(pub Vec<ScMsg<V>>);

impl<V: PackingValue> MessageSize for HistoryMsg<V> {
    fn approx_bits(&self) -> u64 {
        64 + self.0.iter().map(MessageSize::approx_bits).sum::<u64>()
    }
}

impl<V: PackingValue> BcastAlgorithm for VcBcastNode<V> {
    type Msg = HistoryMsg<V>;
    type Input = u64; // node weight
    type Output = VcBcastOutput<V>;
    type Config = VcBcastConfig;

    fn init(cfg: &VcBcastConfig, degree: usize, input: &u64) -> Self {
        VcBcastNode {
            subset: ScNode::init(&cfg.sc, degree, &Some(*input)),
            history: Vec::new(),
            memo: HashMap::new(), // lint: allow(determinism) — membership-only memo, never iterated
            elem_info: Vec::new(),
            in_cover: None,
        }
    }

    fn send(&self, _cfg: &VcBcastConfig, _round: u64) -> HistoryMsg<V> {
        HistoryMsg(self.history.clone())
    }

    fn receive(
        &mut self,
        cfg: &VcBcastConfig,
        round: u64,
        incoming: &[&HistoryMsg<V>],
    ) -> Option<VcBcastOutput<V>> {
        let total = cfg.sc.total_rounds();
        let t = round - 1; // the §4 round whose receive we can now perform

        if t >= 1 {
            let mut new_memo: HashMap<Vec<ScMsg<V>>, ScNode<V>> = HashMap::new(); // lint: allow(determinism) — membership-only memo, never iterated
            let mut elem_msgs: Vec<ScMsg<V>> = Vec::with_capacity(incoming.len());
            // Per distinct history value: the element's round-t broadcast and
            // (at the end) its output. Results are replayed once per
            // *occurrence* — neighbours with identical histories host
            // distinct but identically-behaving elements.
            type Replayed<V> = (ScMsg<V>, Option<(V, bool)>);
            let mut computed: HashMap<&Vec<ScMsg<V>>, Replayed<V>> = HashMap::new(); // lint: allow(determinism) — keyed lookups only; replay order follows `incoming` port order

            for h in incoming.iter().map(|m| &m.0) {
                debug_assert_eq!(h.len() as u64, t, "history length mismatch");
                if !computed.contains_key(h) {
                    // State after t−1 receives: fresh for t = 1, memoized
                    // prefix otherwise.
                    let mut st = if t == 1 {
                        ScNode::<V>::init(&cfg.sc, 2, &None)
                    } else {
                        self.memo
                            .get(&h[..(t - 1) as usize])
                            .expect("prefix state memoized last round")
                            .clone()
                    };
                    // The element's §4-round-t broadcast …
                    let msg_t = st.send(&cfg.sc, t);
                    // … and its round-t receive: the sorted pair of its two
                    // endpoint subsets' round-t messages.
                    let own = &self.history[(t - 1) as usize];
                    let theirs = &h[(t - 1) as usize];
                    let pair = if own <= theirs { [own, theirs] } else { [theirs, own] };
                    let out = st.receive(&cfg.sc, t, &pair);
                    let info = if t == total {
                        match out {
                            Some(ScOutput::Element { y, saturated }) => Some((y, saturated)),
                            _ => panic!("element must output at §4-round {total}"),
                        }
                    } else {
                        None
                    };
                    computed.insert(h, (msg_t, info));
                    new_memo.insert(h.clone(), st);
                }
                let (msg, info) = &computed[h];
                elem_msgs.push(msg.clone());
                if let Some(info) = info {
                    self.elem_info.push(info.clone());
                }
            }
            // Feed s(v) its §4-round-t receive (canonically sorted multiset).
            elem_msgs.sort();
            let refs: Vec<&ScMsg<V>> = elem_msgs.iter().collect();
            let out = self.subset.receive(&cfg.sc, t, &refs);
            if t == total {
                let Some(ScOutput::Subset { in_cover }) = out else {
                    panic!("subset must output at §4-round {total}");
                };
                self.in_cover = Some(in_cover);
            }
            self.memo = new_memo;
        }

        if t < total {
            // Advance s(v): its §4-round-(t+1) broadcast.
            let next = self.subset.send(&cfg.sc, t + 1);
            self.history.push(next);
            None
        } else {
            self.elem_info.sort();
            Some(VcBcastOutput {
                in_cover: self.in_cover.expect("set at t == total"),
                elem_info: self.elem_info.clone(),
            })
        }
    }
}

/// Result of a §5 run on G.
#[derive(Clone, Debug)]
pub struct VcBcastRun<V> {
    /// 2-approximate vertex cover by node id.
    pub cover: Vec<bool>,
    /// Σ y(e) over all edges (each element reported once per endpoint, so
    /// the per-node sums are halved).
    pub dual_value: V,
    /// Whether every simulated element ended saturated (Theorem 2 says yes —
    /// asserted by tests; exposed for the experiment harness).
    pub all_saturated: bool,
    /// Engine instrumentation — this is where the §5 message-size blowup
    /// shows up.
    pub trace: Trace,
}

/// Runs the §5 broadcast-model vertex cover on one instance under `opts`
/// (worker threads, frontier skipping) — the one run entry of §5.
pub fn run_vc_broadcast<V: PackingValue>(
    inst: VcInstance<'_>,
    opts: EngineOptions,
) -> Result<VcBcastRun<V>, SimError> {
    let cfg = VcBcastConfig::new(inst.delta, inst.max_weight);
    let res = run_engine::<VcBcastNode<V>, Broadcast>(
        inst.graph,
        &cfg,
        inst.weights,
        cfg.total_rounds(),
        opts,
    )?;
    let cover = res.outputs.iter().map(|o| o.in_cover).collect();
    let mut double_dual = V::zero();
    let mut all_saturated = true;
    for o in &res.outputs {
        for (y, sat) in &o.elem_info {
            double_dual = double_dual.add(y);
            all_saturated &= *sat;
        }
    }
    let dual_value = double_dual.div(&V::from_u64(2));
    Ok(VcBcastRun { cover, dual_value, all_saturated, trace: res.trace })
}

/// Builds the §5 incidence instance explicitly (for the equivalence tests and
/// the E4 experiment): subsets = nodes of G (in id order, port order of
/// members = port order of G), elements = edges of G.
pub fn incidence_instance(g: &Graph, weights: &[u64]) -> anonet_sim::SetCoverInstance {
    let members: Vec<Vec<usize>> =
        (0..g.n()).map(|v| g.arc_range(v).map(|a| g.edge_of(a)).collect()).collect();
    anonet_sim::SetCoverInstance::new(g.m(), &members, weights.to_vec())
        .expect("incidence instance of a valid graph is valid")
}
