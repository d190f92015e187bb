//! The folklore **k-approximation** for set cover (§2, §6): each element
//! joins an adjacent subset of minimum weight; all chosen subsets form the
//! cover. Two rounds in the port-numbering model (ties broken by smallest
//! port — which is why this one needs ports while §4 does not).
//!
//! Together with §4's f-approximation this realises the paper's
//! `p = min{f, k}` upper bound, which §6 proves optimal for deterministic
//! port-numbering (and even strictly local unique-identifier) algorithms.

use anonet_bigmath::PackingValue;
use anonet_sim::{
    run_engine, EngineOptions, MessageSize, PnAlgorithm, PortNumbering, SetCoverInstance, SimError,
    Trace,
};

/// Messages: subset weights downstream, element choices upstream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TrivialMsg {
    /// No content.
    #[default]
    Nil,
    /// Subset → element: my weight.
    Weight(u64),
    /// Element → subset: "I choose you".
    Choose,
}

impl MessageSize for TrivialMsg {
    fn approx_bits(&self) -> u64 {
        match self {
            TrivialMsg::Nil | TrivialMsg::Choose => 1,
            TrivialMsg::Weight(_) => 64,
        }
    }
}

/// Node state for the trivial algorithm.
#[derive(Clone, Debug)]
pub enum TrivialNode {
    /// Subset node: weight and whether anyone chose it.
    Subset {
        /// The subset weight.
        weight: u64,
        /// Set when some element chooses this subset.
        chosen: bool,
    },
    /// Element node: the port of the chosen subset.
    Element {
        /// Port of the minimum-weight neighbour (min port on ties).
        pick: Option<usize>,
    },
}

/// Output: cover membership for subsets; the chosen port for elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrivialOutput {
    /// Subset node result.
    Subset {
        /// Whether the subset is in the cover.
        in_cover: bool,
    },
    /// Element node result.
    Element {
        /// The port of the subset this element chose.
        chosen_port: usize,
    },
}

/// Marker for the config (none needed beyond the model).
pub struct TrivialConfig;

impl PnAlgorithm for TrivialNode {
    type Msg = TrivialMsg;
    type Input = Option<u64>;
    type Output = TrivialOutput;
    type Config = TrivialConfig;

    fn init(_cfg: &TrivialConfig, _degree: usize, input: &Option<u64>) -> Self {
        match input {
            Some(w) => TrivialNode::Subset { weight: *w, chosen: false },
            None => TrivialNode::Element { pick: None },
        }
    }

    fn send(&self, _cfg: &TrivialConfig, round: u64, out: &mut [TrivialMsg]) {
        match (self, round) {
            (TrivialNode::Subset { weight, .. }, 1) => {
                for m in out.iter_mut() {
                    *m = TrivialMsg::Weight(*weight);
                }
            }
            (TrivialNode::Element { pick: Some(p) }, 2) => {
                out[*p] = TrivialMsg::Choose;
            }
            _ => {}
        }
    }

    fn receive(
        &mut self,
        _cfg: &TrivialConfig,
        round: u64,
        incoming: &[&TrivialMsg],
    ) -> Option<TrivialOutput> {
        match (&mut *self, round) {
            (TrivialNode::Element { pick }, 1) => {
                // Min weight, ties by min port (iteration order).
                let mut best: Option<(u64, usize)> = None;
                for (p, m) in incoming.iter().enumerate() {
                    if let TrivialMsg::Weight(w) = m {
                        if best.is_none() || *w < best.unwrap().0 {
                            best = Some((*w, p));
                        }
                    }
                }
                *pick = best.map(|(_, p)| p);
                None
            }
            (TrivialNode::Subset { chosen, .. }, 2) => {
                *chosen = incoming.iter().any(|m| matches!(m, TrivialMsg::Choose));
                Some(TrivialOutput::Subset { in_cover: *chosen })
            }
            (TrivialNode::Element { pick }, 2) => {
                Some(TrivialOutput::Element { chosen_port: pick.unwrap_or(0) })
            }
            _ => None,
        }
    }
}

/// Result of the trivial algorithm.
#[derive(Clone, Debug)]
pub struct TrivialRun {
    /// Cover membership by subset index.
    pub cover: Vec<bool>,
    /// Engine instrumentation (always 2 rounds).
    pub trace: Trace,
}

/// Runs the trivial k-approximation on a set-cover instance.
pub fn run_trivial(inst: &SetCoverInstance) -> Result<TrivialRun, SimError> {
    let inputs: Vec<Option<u64>> =
        (0..inst.graph.n()).map(|v| inst.is_subset(v).then(|| inst.weights[v])).collect();
    let opts = EngineOptions::default();
    let res =
        run_engine::<TrivialNode, PortNumbering>(&inst.graph, &TrivialConfig, &inputs, 2, opts)?;
    let cover = (0..inst.n_subsets)
        .map(|s| matches!(res.outputs[s], TrivialOutput::Subset { in_cover: true }))
        .collect();
    Ok(TrivialRun { cover, trace: res.trace })
}

/// The k-approximation bound certificate: `w(C) ≤ k · OPT` holds because
/// every chosen subset is charged to an element whose cheapest neighbour it
/// is. This helper verifies the *weaker, instance-checkable* statement
/// `w(C) ≤ Σ_u min_{s ∋ u} w_s` used in the experiments.
pub fn trivial_bound<V: PackingValue>(inst: &SetCoverInstance, cover: &[bool]) -> (V, V) {
    let cover_weight = V::from_u64(inst.cover_weight(cover));
    let mut bound = V::zero();
    for u in 0..inst.n_elements() {
        let min_w = inst.containing(u).map(|s| inst.weights[s]).min().expect("coverable");
        bound = bound.add(&V::from_u64(min_w));
    }
    (cover_weight, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::BigRat;

    fn inst() -> SetCoverInstance {
        // s0 = {e0, e1} w=5, s1 = {e1, e2} w=2, s2 = {e2} w=9.
        SetCoverInstance::new(3, &[vec![0, 1], vec![1, 2], vec![2]], vec![5, 2, 9]).unwrap()
    }

    #[test]
    fn picks_min_weight_neighbours() {
        let i = inst();
        let run = run_trivial(&i).unwrap();
        // e0 must pick s0 (only option); e1 picks s1 (2 < 5); e2 picks s1.
        assert_eq!(run.cover, vec![true, true, false]);
        assert!(i.is_cover(&run.cover));
        assert_eq!(run.trace.rounds, 2);
    }

    #[test]
    fn bound_holds() {
        let i = inst();
        let run = run_trivial(&i).unwrap();
        let (w, bound) = trivial_bound::<BigRat>(&i, &run.cover);
        assert!(w <= bound, "w(C) = {w} > Σ min = {bound}");
    }

    #[test]
    fn ties_broken_by_port() {
        // Element 0 sees two subsets of equal weight; picks port 0's subset.
        let i = SetCoverInstance::new(1, &[vec![0], vec![0]], vec![3, 3]).unwrap();
        let run = run_trivial(&i).unwrap();
        assert_eq!(run.cover, vec![true, false]);
    }

    #[test]
    fn covers_always() {
        let i = anonet_gen_like_instance();
        let run = run_trivial(&i).unwrap();
        assert!(i.is_cover(&run.cover));
    }

    fn anonet_gen_like_instance() -> SetCoverInstance {
        // Deterministic small instance exercising shared elements.
        SetCoverInstance::new(
            6,
            &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5], vec![1, 4]],
            vec![7, 1, 4, 2, 2],
        )
        .unwrap()
    }
}
