//! The client-side correctness gate: every reply is checked against the
//! instances the client generated, not against numbers the server supplies.
//!
//! Per instance it checks that
//! - the returned cover covers every edge (vertex cover) or element (set cover);
//! - the cover weight the client recomputes equals the certificate's;
//! - `w(C) ≤ factor · Σy` holds in exact arithmetic
//!   (`canon::certificate_bound_holds`) with the factor the problem fixes;
//! - `trace.rounds` equals the paper's schedule length for the declared
//!   bounds (`VcConfig::total_rounds` / `ScConfig::total_rounds`), which
//!   holds every response to the round bound that does not depend on n.

use crate::workload::{Inst, Item};
use anonet_bigmath::PackingValue;
use anonet_core::canon;
use anonet_service::{InstanceResult, SolveResponse, Solved};

/// Exact per-instance facts summed over the replies that passed the gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Instances checked.
    pub instances: u64,
    /// Σ rounds.
    pub rounds: u64,
    /// Σ messages.
    pub messages: u64,
    /// Σ payload bits.
    pub bits: u64,
    /// Σ of each instance's largest message, in bits.
    pub max_msg_bits: u64,
    /// Σ of the wire size of each certificate's dual Σy, in bits.
    pub dual_bits: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, o: &Tally) {
        self.instances += o.instances;
        self.rounds += o.rounds;
        self.messages += o.messages;
        self.bits += o.bits;
        self.max_msg_bits += o.max_msg_bits;
        self.dual_bits += o.dual_bits;
    }
}

/// Checks one reply to `item`. `cache_on` says whether cached answers are
/// allowed at all.
pub fn check(item: &Item, resp: &SolveResponse, cache_on: bool) -> Result<Tally, String> {
    let results = match resp {
        SolveResponse::Ok(r) => r,
        SolveResponse::Busy { queue_len, .. } => return Err(format!("busy (queue {queue_len})")),
        SolveResponse::Malformed(m) => return Err(format!("malformed: {m}")),
        SolveResponse::Unsupported(m) => return Err(format!("unsupported: {m}")),
    };
    if results.len() != item.insts.len() {
        return Err(format!("{} results for {} instances", results.len(), item.insts.len()));
    }
    let mut tally = Tally::default();
    for (i, res) in results.iter().enumerate() {
        let s = match res {
            InstanceResult::Solved(s) => s,
            InstanceResult::Error(e) => return Err(format!("instance {i}: {e}")),
        };
        check_instance(&item.insts[i], item.rounds, s).map_err(|e| format!("instance {i}: {e}"))?;
        if s.from_cache && !cache_on {
            return Err(format!("instance {i}: served from cache on a cache-bypass request"));
        }
        tally.instances += 1;
        tally.rounds += s.trace.rounds;
        tally.messages += s.trace.messages;
        tally.bits += s.trace.bits;
        tally.max_msg_bits += s.trace.max_message_bits;
        tally.dual_bits += s.certificate.dual_value.wire_bits();
    }
    Ok(tally)
}

fn check_instance(inst: &Inst, rounds: u64, s: &Solved) -> Result<(), String> {
    let (covers, weight) = match inst {
        Inst::Vc { graph, weights } => {
            if s.cover.len() != graph.n() {
                return Err(format!("cover has {} entries for {} nodes", s.cover.len(), graph.n()));
            }
            let covers = graph.edge_iter().all(|(_, u, v)| s.cover[u] || s.cover[v]);
            let weight = (0..graph.n()).filter(|&v| s.cover[v]).map(|v| weights[v]).sum();
            (covers, weight)
        }
        Inst::Sc(sc) => {
            if s.cover.len() != sc.n_subsets {
                return Err(format!(
                    "cover has {} entries for {} subsets",
                    s.cover.len(),
                    sc.n_subsets
                ));
            }
            (sc.is_cover(&s.cover), sc.cover_weight(&s.cover))
        }
    };
    if !covers {
        return Err("the returned cover leaves an edge or element uncovered".into());
    }
    if weight != s.certificate.cover_weight {
        return Err(format!(
            "cover weight {weight} differs from the certificate's {}",
            s.certificate.cover_weight
        ));
    }
    if s.certificate.factor != inst.factor() {
        return Err(format!(
            "certificate factor {} instead of {}",
            s.certificate.factor,
            inst.factor()
        ));
    }
    if !canon::certificate_bound_holds(&s.certificate) {
        return Err("w(C) > factor · Σy".into());
    }
    if s.trace.is_async || s.trace.rounds != rounds {
        return Err(format!("{} rounds where the schedule fixes {rounds}", s.trace.rounds));
    }
    Ok(())
}
