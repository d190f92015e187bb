//! Self-stabilization experiments: the transformed §3 edge-packing algorithm
//! recovers the correct (fault-free) output within T+1 rounds after faults
//! stop, from *any* corruption.

use anonet_bigmath::BigRat;
use anonet_core::vc_pn::{run_edge_packing, EdgePackingNode, VcConfig, VcInstance, VcOutput};
use anonet_gen::{family, Rng, WeightSpec};
use anonet_selfstab::{strike, SelfStabConfig, SelfStabHarness};
use anonet_sim::EngineOptions;

type Node = EdgePackingNode<BigRat>;

/// Runs the transformed §3 algorithm under the given fault rounds and
/// returns the first round at which all outputs match the reference and stay
/// matched through the horizon.
fn stabilization_round(
    g: &anonet_sim::Graph,
    weights: &[u64],
    fault_rounds: &[u64],
    seed: u64,
) -> (u64, u64) {
    let reference: Vec<VcOutput<BigRat>> = {
        let run = run_edge_packing::<BigRat>(VcInstance::new(g, weights), EngineOptions::default())
            .unwrap();
        // Reconstruct per-node outputs from the run for comparison.
        (0..g.n())
            .map(|v| VcOutput {
                in_cover: run.cover[v],
                y: g.arc_range(v).map(|a| run.packing.y[g.edge_of(a)].clone()).collect(),
            })
            .collect()
    };

    let delta = g.max_degree();
    let wmax = weights.iter().copied().max().unwrap_or(1);
    let inner = VcConfig::new(delta, wmax);
    let t = inner.total_rounds();
    let last_fault = fault_rounds.iter().copied().max().unwrap_or(0);
    let horizon = last_fault + 2 * t + 4;
    let cfg = SelfStabConfig { inner, t_rounds: t, horizon };

    let mut harness = SelfStabHarness::<Node>::new(g, &cfg, weights);
    let mut rng = Rng::new(seed);
    let mut correct_at: Vec<bool> = Vec::new();
    for round in 1..=horizon {
        let hit = fault_rounds.contains(&round);
        harness.step_with_faults(|nodes| {
            if hit {
                strike(nodes, 0.5, &mut rng);
            }
        });
        let outs = harness.outputs();
        let all_correct = outs.iter().zip(&reference).all(|(o, r)| o.as_ref() == Some(r));
        correct_at.push(all_correct);
    }
    // First round after which correctness holds for good.
    let mut stable_from = horizon + 1;
    for r in (0..correct_at.len()).rev() {
        if correct_at[r] {
            stable_from = r as u64 + 1;
        } else {
            break;
        }
    }
    (stable_from, t)
}

#[test]
fn clean_start_stabilizes_within_t_plus_one() {
    let g = family::cycle(8);
    let w = WeightSpec::Uniform(9).draw_many(8, 3);
    let (stable, t) = stabilization_round(&g, &w, &[], 1);
    assert!(stable <= t + 1, "stabilized at {stable}, bound {}", t + 1);
}

#[test]
fn single_burst_recovers() {
    let g = family::petersen();
    let w = WeightSpec::Uniform(12).draw_many(10, 7);
    for seed in 0..3u64 {
        let fault_round = 5;
        let (stable, t) = stabilization_round(&g, &w, &[fault_round], seed);
        assert!(
            stable <= fault_round + t + 1,
            "seed {seed}: stabilized at {stable}, fault at {fault_round}, bound {}",
            fault_round + t + 1
        );
    }
}

#[test]
fn repeated_bursts_recover_after_last() {
    let g = family::grid(3, 3);
    let w = WeightSpec::Uniform(6).draw_many(9, 11);
    let faults = vec![2, 7, 13];
    let (stable, t) = stabilization_round(&g, &w, &faults, 5);
    assert!(stable <= 13 + t + 1, "stabilized at {stable}, last fault at 13, bound {}", 13 + t + 1);
}

#[test]
fn outputs_match_reference_exactly_after_stabilization() {
    // Not just cover bits: the full packing values agree with the fault-free
    // §3 execution (determinism survives the transformer).
    let g = family::star(4);
    let w = vec![5, 2, 2, 2, 2];
    let (stable, _) = stabilization_round(&g, &w, &[3], 9);
    assert!(stable < u64::MAX);
}
