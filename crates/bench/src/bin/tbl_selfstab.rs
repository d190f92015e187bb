//! **E11 — self-stabilization**: the \[23\]-transformed §3 algorithm recovers
//! the exact fault-free output within T+1 rounds of the last fault, under
//! repeated adversarial state corruption.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin tbl_selfstab`

use anonet_bench::md_table;
use anonet_bigmath::BigRat;
use anonet_core::vc_pn::{run_edge_packing, EdgePackingNode, VcConfig, VcInstance, VcOutput};
use anonet_gen::{family, Rng, WeightSpec};
use anonet_selfstab::{strike, SelfStabConfig, SelfStabHarness};
use anonet_sim::EngineOptions;

type Node = EdgePackingNode<BigRat>;

fn main() {
    let mut rows = Vec::new();
    for (name, g, faults) in [
        ("cycle-8, 1 burst", family::cycle(8), vec![4u64]),
        ("petersen, 1 burst", family::petersen(), vec![6]),
        ("grid 3×3, 3 bursts", family::grid(3, 3), vec![2, 9, 15]),
        ("star-5, clean start", family::star(5), vec![]),
    ] {
        let w = WeightSpec::Uniform(9).draw_many(g.n(), 77);
        let reference: Vec<VcOutput<BigRat>> = {
            let run = run_edge_packing::<BigRat>(VcInstance::new(&g, &w), EngineOptions::default())
                .unwrap();
            (0..g.n())
                .map(|v| VcOutput {
                    in_cover: run.cover[v],
                    y: g.arc_range(v).map(|a| run.packing.y[g.edge_of(a)].clone()).collect(),
                })
                .collect()
        };
        let inner = VcConfig::new(g.max_degree(), w.iter().copied().max().unwrap());
        let t = inner.total_rounds();
        let last = faults.iter().copied().max().unwrap_or(0);
        let horizon = last + 2 * t + 4;
        let cfg = SelfStabConfig { inner, t_rounds: t, horizon };
        let mut h = SelfStabHarness::<Node>::new(&g, &cfg, &w);
        let mut rng = Rng::new(5);
        let mut correct = Vec::new();
        for round in 1..=horizon {
            let hit = faults.contains(&round);
            h.step_with_faults(|nodes| {
                if hit {
                    strike(nodes, 0.6, &mut rng);
                }
            });
            let ok = h.outputs().iter().zip(&reference).all(|(o, r)| o.as_ref() == Some(r));
            correct.push(ok);
        }
        let mut stable_from = horizon + 1;
        for r in (0..correct.len()).rev() {
            if correct[r] {
                stable_from = r as u64 + 1;
            } else {
                break;
            }
        }
        let bound = last + t + 1;
        rows.push(vec![
            name.to_string(),
            t.to_string(),
            format!("{faults:?}"),
            stable_from.to_string(),
            bound.to_string(),
            (stable_from <= bound).to_string(),
        ]);
    }
    md_table(
        "E11 — self-stabilization of the transformed §3 algorithm (60% of nodes scrambled per burst)",
        &["instance", "T (inner rounds)", "fault rounds", "stable from round", "bound last+T+1", "within bound"],
        &rows,
    );
    println!(
        "\nThe transformer is the [23] layered recomputation; recovery is to the *exact* \
         fault-free output (full packing values, not just cover bits)."
    );
}
