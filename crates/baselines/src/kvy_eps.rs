//! The (2+ε)-approximation primal–dual baseline (Table 1 rows \[16\]/\[21\]+\[14\]
//! technique family): anonymous, weighted, with running time growing as the
//! weights and 1/ε grow — the "safe algorithm" of Papadimitriou–Yannakakis /
//! Khuller–Vishkin–Young adapted to synchronous message passing.
//!
//! Every round each *active* node offers `r(v)/deg_act(v)` to its active
//! edges and each active edge accepts the smaller offer. A node freezes once
//! `y[v] ≥ (1−ε)·w_v` and joins the cover; an edge is done when an endpoint
//! froze. Cover weight ≤ Σ_C y(v)/(1−ε) ≤ (2/(1−ε))·OPT.
//!
//! Unlike the paper's §3, termination is data-dependent — the head-to-head
//! experiment (E1) shows the round count climbing with W while §3 stays at
//! its fixed O(Δ + log\*W) schedule.

use anonet_bigmath::PackingValue;
use anonet_core::vc_pn::{fold_vc_outputs, VcOutput, VcRun};
use anonet_sim::{
    run_engine, EngineOptions, Graph, MessageSize, PnAlgorithm, PortNumbering, SimError,
};

/// Global configuration.
#[derive(Clone, Debug)]
pub struct KvyConfig {
    /// The slack ε as a rational `eps_num / eps_den` (0 < ε < 1).
    pub eps_num: u64,
    /// Denominator of ε.
    pub eps_den: u64,
}

/// Wire messages: offers and freeze notifications.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum KvyMsg<V> {
    /// No content.
    #[default]
    Nil,
    /// My offer for this round (None once frozen), and whether I froze.
    Offer(Option<V>, bool),
}

impl<V: PackingValue> MessageSize for KvyMsg<V> {
    fn approx_bits(&self) -> u64 {
        match self {
            KvyMsg::Nil => 0,
            KvyMsg::Offer(o, _) => 2 + o.as_ref().map_or(0, |v| v.wire_bits()),
        }
    }
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct KvyNode<V> {
    w: V,
    y_total: V,
    y: Vec<V>,
    threshold: V, // (1-ε)·w
    frozen: bool,
    /// Round at which this node froze (it halts one round later, after the
    /// freeze flag has been delivered to every neighbour).
    frozen_at: Option<u64>,
    nb_frozen: Vec<bool>,
}

impl<V: PackingValue> KvyNode<V> {
    fn active_ports(&self) -> Vec<usize> {
        (0..self.y.len()).filter(|&p| !self.frozen && !self.nb_frozen[p]).collect()
    }
}

impl<V: PackingValue> PnAlgorithm for KvyNode<V> {
    type Msg = KvyMsg<V>;
    type Input = u64;
    type Output = VcOutput<V>;
    type Config = KvyConfig;

    fn init(cfg: &KvyConfig, degree: usize, input: &u64) -> Self {
        let w = V::from_u64(*input);
        let eps = V::from_u64(cfg.eps_num).div(&V::from_u64(cfg.eps_den));
        let threshold = w.mul(&V::one().sub(&eps));
        KvyNode {
            w,
            y_total: V::zero(),
            y: vec![V::zero(); degree],
            threshold,
            frozen: false,
            frozen_at: None,
            nb_frozen: vec![false; degree],
        }
    }

    fn send(&self, _cfg: &KvyConfig, _round: u64, out: &mut [KvyMsg<V>]) {
        let active = self.active_ports();
        let offer = if self.frozen || active.is_empty() {
            None
        } else {
            Some(self.w.sub(&self.y_total).div(&V::from_u64(active.len() as u64)))
        };
        for (p, m) in out.iter_mut().enumerate() {
            let o = if active.contains(&p) { offer.clone() } else { None };
            *m = KvyMsg::Offer(o, self.frozen);
        }
    }

    fn receive(
        &mut self,
        _cfg: &KvyConfig,
        round: u64,
        incoming: &[&KvyMsg<V>],
    ) -> Option<VcOutput<V>> {
        let active = self.active_ports();
        let my_offer = if self.frozen || active.is_empty() {
            None
        } else {
            Some(self.w.sub(&self.y_total).div(&V::from_u64(active.len() as u64)))
        };
        for (p, m) in incoming.iter().enumerate() {
            // Nil comes only from halted neighbours; a neighbour halts only
            // when frozen or when all *its* neighbours (including us) froze —
            // either way the edge is resolved, so treat it as a frozen flag.
            let (their_offer, their_frozen) = match m {
                KvyMsg::Offer(o, f) => (o.as_ref(), *f),
                KvyMsg::Nil => (None, true),
            };
            if let (Some(mine), Some(theirs), false) =
                (my_offer.as_ref(), their_offer, self.nb_frozen[p])
            {
                if active.contains(&p) {
                    let inc = mine.min(theirs).clone();
                    self.y[p] = self.y[p].add(&inc);
                    self.y_total = self.y_total.add(&inc);
                }
            }
            self.nb_frozen[p] = self.nb_frozen[p] || their_frozen;
        }
        if !self.frozen && self.y_total >= self.threshold {
            self.frozen = true;
            self.frozen_at = Some(round);
        }
        // Halt when (a) frozen and the flag has been delivered (one round
        // after freezing), or (b) every incident edge is resolved by a
        // frozen neighbour.
        let done = match self.frozen_at {
            Some(r) => round > r,
            None => (0..self.y.len()).all(|p| self.nb_frozen[p]),
        };
        done.then(|| VcOutput { in_cover: self.frozen, y: self.y.clone() })
    }
}

/// Runs the (2+ε) primal–dual baseline. The cover is the frozen set, the
/// packing (feasible, (1−ε)-maximal) is folded by §3's [`fold_vc_outputs`],
/// and the round count is data-dependent.
pub fn run_kvy<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    eps_num: u64,
    eps_den: u64,
    max_rounds: u64,
) -> Result<VcRun<V>, SimError> {
    assert!(eps_num >= 1 && eps_num < eps_den, "need 0 < ε < 1");
    let cfg = KvyConfig { eps_num, eps_den };
    let opts = EngineOptions::default();
    let res = run_engine::<KvyNode<V>, PortNumbering>(g, &cfg, weights, max_rounds, opts)?;
    let (cover, packing) = fold_vc_outputs(g, &res.outputs);
    Ok(VcRun { packing, cover, trace: res.trace })
}
