//! **E2 — Theorem 1 shape**: round complexity of the §3 edge-packing
//! algorithm is O(Δ + log\*W) — linear in Δ, essentially flat in W (log\* of
//! any physical W is ≤ 5), and independent of n.
//!
//! Each sweep builds all of its instances up front and fans them out with
//! [`run_edge_packing_many`], so the whole experiment
//! uses one worker pool instead of one engine at a time.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin fig_rounds_vc`

use anonet_bench::md_table;
use anonet_bigmath::BigRat;
use anonet_core::encode::log_star;
use anonet_core::vc_pn::{run_edge_packing_many, VcConfig, VcInstance, VcRun};
use anonet_gen::{family, WeightSpec};
use anonet_sim::Graph;

const THREADS: usize = 4;

fn main() {
    delta_sweep();
    weight_sweep();
    n_sweep();
}

/// Batch-runs one instance per (graph, weights, Δ, W) tuple.
fn run_sweep(cases: &[(Graph, Vec<u64>, usize, u64)]) -> Vec<VcRun<BigRat>> {
    let instances: Vec<VcInstance<'_>> =
        cases.iter().map(|(g, w, d, wb)| VcInstance::with_bounds(g, w, *d, *wb)).collect();
    run_edge_packing_many::<BigRat>(&instances, THREADS)
        .into_iter()
        .map(|r| r.expect("fixed schedule always completes"))
        .collect()
}

fn delta_sweep() {
    let w_bound = 1u64 << 16;
    let deltas = [1usize, 2, 3, 4, 6, 8, 10, 12];
    let cases: Vec<(Graph, Vec<u64>, usize, u64)> = deltas
        .iter()
        .map(|&delta| {
            let n = 60.max(2 * (delta + 1));
            let n = if n * delta % 2 == 1 { n + 1 } else { n };
            let g = family::random_regular(n, delta, 7);
            let w = WeightSpec::Uniform(w_bound).draw_many(n, 11);
            (g, w, delta, w_bound)
        })
        .collect();
    let runs = run_sweep(&cases);
    let mut rows = Vec::new();
    for (&delta, ((g, w, _, _), run)) in deltas.iter().zip(cases.iter().zip(&runs)) {
        let cfg = VcConfig::new(delta, w_bound);
        assert!(run.packing.is_maximal(g, w));
        rows.push(vec![
            delta.to_string(),
            run.trace.rounds.to_string(),
            format!("8Δ+T+8 = {}", 8 * delta as u64 + cfg.cv_steps as u64 + 8),
            cfg.cv_steps.to_string(),
            format!("{:.2}", run.trace.rounds as f64 / delta.max(1) as f64),
        ]);
    }
    md_table(
        "E2a — rounds vs Δ (d-regular, W = 2^16): linear in Δ",
        &["Δ", "measured rounds", "schedule formula", "T_cv", "rounds/Δ"],
        &rows,
    );
}

fn weight_sweep() {
    let delta = 4usize;
    let w_bounds = [1u64, 1 << 4, 1 << 16, 1 << 32, u64::MAX];
    let cases: Vec<(Graph, Vec<u64>, usize, u64)> = w_bounds
        .iter()
        .map(|&w_bound| {
            let g = family::random_regular(40, delta, 3);
            let w = WeightSpec::Uniform(w_bound).draw_many(40, 5);
            (g, w, delta, w_bound)
        })
        .collect();
    let runs = run_sweep(&cases);
    let mut rows = Vec::new();
    for (&w_bound, ((g, w, _, _), run)) in w_bounds.iter().zip(cases.iter().zip(&runs)) {
        let cfg = VcConfig::new(delta, w_bound);
        assert!(run.packing.is_maximal(g, w));
        rows.push(vec![
            format!("2^{}", 64 - w_bound.leading_zeros().min(63)),
            run.trace.rounds.to_string(),
            cfg.cv_steps.to_string(),
            log_star(w_bound as f64).to_string(),
            run.trace.max_message_bits.to_string(),
        ]);
    }
    md_table(
        "E2b — rounds vs W (Δ = 4): the log*W term is essentially constant",
        &["W ≈", "measured rounds", "T_cv", "log*W", "max msg bits"],
        &rows,
    );
}

fn n_sweep() {
    let (delta, w_bound) = (4usize, 1u64 << 16);
    let ns = [32usize, 128, 512, 2048, 8192];
    let cases: Vec<(Graph, Vec<u64>, usize, u64)> = ns
        .iter()
        .map(|&n| {
            let g = family::random_regular(n, delta, 9);
            let w = WeightSpec::Uniform(w_bound).draw_many(n, 13);
            (g, w, delta, w_bound)
        })
        .collect();
    let runs = run_sweep(&cases);
    let mut rows = Vec::new();
    for (&n, ((g, w, _, _), run)) in ns.iter().zip(cases.iter().zip(&runs)) {
        assert!(run.packing.is_maximal(g, w));
        rows.push(vec![n.to_string(), run.trace.rounds.to_string()]);
    }
    md_table(
        "E2c — rounds vs n (Δ = 4, W = 2^16): strictly local — independent of n",
        &["n", "measured rounds"],
        &rows,
    );
}
