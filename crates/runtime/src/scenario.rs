//! Named network scenarios: ready-made [`NetworkConfig`]s for the regimes
//! the experiments and benchmarks exercise, so "run §3 over a flaky WAN"
//! is one function call away. Every scenario is parameterised by a seed and
//! nothing else — the rest of the configuration is part of the scenario's
//! definition, which keeps experiment scripts comparable across PRs.

use crate::config::{ChurnPlan, DelayModel, NetworkConfig};
use anonet_selfstab::FaultPlan;

/// Zero delay, no loss, FIFO: the regime in which the runtime is
/// property-tested bit-identical to the synchronous engine.
pub fn ideal() -> NetworkConfig {
    NetworkConfig::ideal()
}

/// A fast homogeneous cluster: constant 2-tick links, lossless, FIFO.
pub fn datacenter(seed: u64) -> NetworkConfig {
    NetworkConfig::ideal().with_delays(DelayModel::Constant(2)).with_seed(seed)
}

/// A heterogeneous wide-area network: per-link base latency 20..=120 ticks
/// plus 10 ticks of per-message jitter, non-FIFO, lossless.
pub fn wan(seed: u64) -> NetworkConfig {
    NetworkConfig::ideal()
        .with_delays(DelayModel::PerLink { lo: 20, hi: 120, jitter: 10 })
        .non_fifo()
        .with_seed(seed)
}

/// A lossy radio-like network: geometric latency (mean 8), 5% loss on every
/// transmission, retransmit every 32 ticks, non-FIFO.
pub fn lossy_radio(seed: u64) -> NetworkConfig {
    NetworkConfig::ideal()
        .with_delays(DelayModel::Exponential { mean: 8 })
        .with_loss(0.05, 32)
        .non_fifo()
        .with_seed(seed)
}

/// [`lossy_radio`] plus crash/restart churn: at scripted rounds `2` and `5`
/// (scaled by 64 ticks per round), 20% of nodes crash for 96 ticks. The
/// [`FaultPlan`] is the same scripting type the self-stabilization
/// experiments use.
pub fn churny_radio(seed: u64) -> NetworkConfig {
    lossy_radio(seed).with_churn(ChurnPlan {
        plan: FaultPlan { rounds: vec![2, 5], fraction: 0.2, seed: seed ^ 0x5EED },
        round_ticks: 64,
        downtime: 96,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_async_engine;
    use anonet_sim::{Graph, PnAlgorithm, PortNumbering};

    #[test]
    fn scenarios_are_well_formed() {
        assert!(!ideal().needs_timers());
        assert!(!datacenter(1).needs_timers());
        assert!(!wan(2).needs_timers());
        assert!(wan(2).delays.can_reorder());
        assert!(lossy_radio(3).needs_timers());
        let churny = churny_radio(4);
        assert!(churny.churn.is_some());
        assert_eq!(churny.loss.rto, 32);
    }

    /// Minimal fixed-schedule gossip used to exercise the presets.
    struct Gossip {
        acc: u64,
        budget: u64,
    }

    impl PnAlgorithm for Gossip {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Config = u64;

        fn init(cfg: &u64, degree: usize, input: &u64) -> Self {
            Gossip { acc: *input ^ degree as u64, budget: *cfg }
        }
        fn send(&self, _cfg: &u64, round: u64, out: &mut [u64]) {
            for (p, o) in out.iter_mut().enumerate() {
                *o = self.acc.wrapping_add(round).rotate_left(p as u32);
            }
        }
        fn receive(&mut self, _cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
            for &&m in incoming {
                self.acc = self.acc.rotate_left(7).wrapping_add(m);
            }
            (round >= self.budget).then_some(self.acc)
        }
    }

    fn net_for(name: &str, seed: u64) -> crate::config::NetworkConfig {
        match name {
            "ideal" => ideal(),
            "datacenter" => datacenter(seed),
            "wan" => wan(seed),
            "lossy_radio" => lossy_radio(seed),
            "churny_radio" => churny_radio(seed),
            other => panic!("unknown preset {other}"),
        }
    }

    const PRESETS: [&str; 5] = ["ideal", "datacenter", "wan", "lossy_radio", "churny_radio"];

    #[test]
    fn every_preset_is_seed_deterministic() {
        // Same preset + same seed ⇒ identical outputs AND identical full
        // AsyncTrace, including the event-sequence digest — the compact
        // witness that the entire event schedule replayed bit-for-bit.
        let edges: Vec<(usize, usize)> = (0..12).map(|v| (v, (v + 1) % 12)).collect();
        let g = Graph::from_edges(12, &edges).unwrap();
        let inputs: Vec<u64> = (0..12u64).collect();
        for preset in PRESETS {
            let a =
                run_async_engine::<Gossip, PortNumbering>(&g, &6, &inputs, 8, &net_for(preset, 99))
                    .unwrap();
            let b =
                run_async_engine::<Gossip, PortNumbering>(&g, &6, &inputs, 8, &net_for(preset, 99))
                    .unwrap();
            assert_eq!(a.outputs, b.outputs, "{preset}: outputs");
            assert_eq!(a.trace, b.trace, "{preset}: full AsyncTrace incl. event_hash");
        }
    }

    #[test]
    fn randomized_presets_depend_on_the_seed() {
        // The seeded presets must actually consume the seed: two seeds give
        // different event schedules (ideal/datacenter are deterministic
        // regardless of seed, so they are excluded).
        let edges: Vec<(usize, usize)> = (0..12).map(|v| (v, (v + 1) % 12)).collect();
        let g = Graph::from_edges(12, &edges).unwrap();
        let inputs: Vec<u64> = (0..12u64).collect();
        for preset in ["wan", "lossy_radio", "churny_radio"] {
            let a =
                run_async_engine::<Gossip, PortNumbering>(&g, &6, &inputs, 8, &net_for(preset, 1))
                    .unwrap();
            let b =
                run_async_engine::<Gossip, PortNumbering>(&g, &6, &inputs, 8, &net_for(preset, 2))
                    .unwrap();
            assert_ne!(a.trace.event_hash, b.trace.event_hash, "{preset}: seed ignored?");
            // Outputs are nevertheless identical — the synchronizer
            // guarantee — so determinism differences live in the schedule.
            assert_eq!(a.outputs, b.outputs, "{preset}: outputs must not depend on the seed");
        }
    }
}
