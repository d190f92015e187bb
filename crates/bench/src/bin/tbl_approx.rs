//! **E5 — approximation guarantees**: certified ratios (w(C)/Σy, machine-
//! checked ≤ 2 resp. ≤ f) and true ratios against the exact optimum for both
//! core algorithms, across instance families.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin tbl_approx`

use anonet_bench::{cover_weight, f3, fmax, md_table, mean};
use anonet_bigmath::BigRat;
use anonet_core::certify::{certify_set_cover, certify_vertex_cover};
use anonet_core::sc_bcast::{run_fractional_packing, ScInstance};
use anonet_core::trivial::run_trivial;
use anonet_core::vc_pn::{run_edge_packing, VcInstance};
use anonet_exact::{greedy_set_cover, min_weight_set_cover, min_weight_vertex_cover};
use anonet_gen::{family, setcover, WeightSpec};
use anonet_sim::EngineOptions;

fn main() {
    vc_table();
    sc_table();
}

fn vc_table() {
    let mut rows = Vec::new();
    type GraphCase = (&'static str, Box<dyn Fn(u64) -> anonet_sim::Graph>, WeightSpec);
    let cases: Vec<GraphCase> = vec![
        ("cycle-16 / unit", Box::new(|_| family::cycle(16)), WeightSpec::Unit),
        ("petersen / U(100)", Box::new(|_| family::petersen()), WeightSpec::Uniform(100)),
        (
            "gnp(18,.3,Δ4) / U(50)",
            Box::new(|s| family::gnp_capped(18, 0.3, 4, s)),
            WeightSpec::Uniform(50),
        ),
        (
            "regular(16,3) / bimodal",
            Box::new(|s| family::random_regular(16, 3, s)),
            WeightSpec::Bimodal { w: 1000, cheap_prob: 0.4 },
        ),
        (
            "tree(17,4) / U(30)",
            Box::new(|s| family::random_tree(17, 4, s)),
            WeightSpec::Uniform(30),
        ),
    ];
    for (name, gen, spec) in cases {
        let mut true_ratios = Vec::new();
        let mut cert_ratios = Vec::new();
        for seed in 0..8u64 {
            let g = gen(seed);
            let w = spec.draw_many(g.n(), seed + 500);
            let run = run_edge_packing::<BigRat>(VcInstance::new(&g, &w), EngineOptions::default())
                .unwrap();
            let cert = certify_vertex_cover(&g, &w, &run.packing, &run.cover).unwrap();
            cert_ratios.push(cert.certified_ratio());
            let opt = min_weight_vertex_cover(&g, &w).weight;
            if opt > 0 {
                true_ratios.push(cover_weight(&run.cover, &w) as f64 / opt as f64);
            }
        }
        rows.push(vec![
            name.to_string(),
            f3(mean(&true_ratios)),
            f3(fmax(&true_ratios)),
            f3(mean(&cert_ratios)),
            "2.000".to_string(),
        ]);
    }
    md_table(
        "E5a — §3 vertex cover: true ratio vs exact OPT and certified ratio w(C)/Σy (8 seeds)",
        &["instance family", "mean true ratio", "max true ratio", "mean certified", "guarantee"],
        &rows,
    );
}

fn sc_table() {
    let mut rows = Vec::new();
    for (name, f, k, wspec) in [
        ("random (f2,k3) unit", 2usize, 3usize, WeightSpec::Unit),
        ("random (f2,k4) U(20)", 2, 4, WeightSpec::Uniform(20)),
        ("random (f3,k3) U(50)", 3, 3, WeightSpec::Uniform(50)),
    ] {
        let mut true_ratios = Vec::new();
        let mut cert_ratios = Vec::new();
        let mut greedy_ratios = Vec::new();
        let mut trivial_ratios = Vec::new();
        for seed in 0..6u64 {
            let inst = setcover::random_bounded(14, 10, f, k, wspec, seed);
            let run =
                run_fractional_packing::<BigRat>(ScInstance::new(&inst), EngineOptions::default())
                    .unwrap();
            let cert = certify_set_cover(&inst, &run.packing, &run.cover).unwrap();
            cert_ratios.push(cert.certified_ratio());
            let opt = min_weight_set_cover(&inst).weight.max(1);
            true_ratios.push(inst.cover_weight(&run.cover) as f64 / opt as f64);
            let greedy = greedy_set_cover(&inst);
            greedy_ratios.push(inst.cover_weight(&greedy) as f64 / opt as f64);
            let triv = run_trivial(&inst).unwrap();
            trivial_ratios.push(inst.cover_weight(&triv.cover) as f64 / opt as f64);
        }
        rows.push(vec![
            name.to_string(),
            format!("{f}"),
            f3(mean(&true_ratios)),
            f3(fmax(&true_ratios)),
            f3(mean(&cert_ratios)),
            f3(mean(&greedy_ratios)),
            f3(mean(&trivial_ratios)),
        ]);
    }
    md_table(
        "E5b — §4 set cover: f-approx vs exact OPT; greedy and trivial-k as classical context (6 seeds)",
        &[
            "instance family",
            "f (guarantee)",
            "mean true ratio",
            "max true ratio",
            "mean certified",
            "greedy ratio",
            "trivial-k ratio",
        ],
        &rows,
    );
}
