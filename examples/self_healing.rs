//! Self-healing monitoring: the §3 algorithm wrapped in the [23]
//! self-stabilization transformer survives arbitrary memory corruption and
//! re-converges to the exact fault-free answer within T+1 rounds.
//!
//! Run with: `cargo run --example self_healing`

use anonet::bigmath::BigRat;
use anonet::core::vc_pn::{run_edge_packing, EdgePackingNode, VcConfig, VcInstance, VcOutput};
use anonet::gen::{family, Rng, WeightSpec};
use anonet::selfstab::{strike, SelfStabConfig, SelfStabHarness};
use anonet::sim::EngineOptions;

type Node = EdgePackingNode<BigRat>;

fn main() {
    let g = family::petersen();
    let w = WeightSpec::Uniform(9).draw_many(10, 7);

    // Fault-free reference output.
    let reference: Vec<VcOutput<BigRat>> = {
        let run = run_edge_packing::<BigRat>(VcInstance::new(&g, &w), EngineOptions::default())
            .expect("reference run");
        (0..g.n())
            .map(|v| VcOutput {
                in_cover: run.cover[v],
                y: g.arc_range(v).map(|a| run.packing.y[g.edge_of(a)].clone()).collect(),
            })
            .collect()
    };

    let inner = VcConfig::new(g.max_degree(), *w.iter().max().unwrap());
    let t = inner.total_rounds();
    let horizon = 3 * t;
    let cfg = SelfStabConfig { inner, t_rounds: t, horizon };
    let mut harness = SelfStabHarness::<Node>::new(&g, &cfg, &w);
    let mut rng = Rng::new(13);

    println!("inner §3 schedule T = {t} rounds; corrupting 70% of nodes at round {t}\n");
    for round in 1..=horizon {
        let strike_now = round == t;
        harness.step_with_faults(|nodes| {
            if strike_now {
                strike(nodes, 0.7, &mut rng);
            }
        });
        let correct =
            harness.outputs().iter().zip(&reference).filter(|(o, r)| o.as_ref() == Some(r)).count();
        let recovered = correct == g.n() && round > t;
        if round % 5 == 0 || strike_now || recovered {
            println!(
                "round {round:3}: {correct:2}/{} nodes agree with the fault-free output{}",
                g.n(),
                if strike_now { "   <- adversary strikes" } else { "" }
            );
        }
        if recovered {
            println!(
                "\nre-stabilized at round {round} — within the guaranteed {} (= fault + T + 1)",
                t + t + 1
            );
            break;
        }
    }
}
