//! A sensor-coverage planning scenario for the §4 set-cover algorithm in the
//! **broadcast model** — no port numbering at all.
//!
//! A field of monitoring stations (subsets, weighted by operating cost) each
//! covers the grid cells within its sensing radius (elements). Stations and
//! cells run the same anonymous program over dumb radio broadcast; the
//! saturated stations form an f-approximate minimum-cost cover, where f is
//! the maximum number of stations overlapping one cell.
//!
//! Run with: `cargo run --release --example coverage_planning`

use anonet::bigmath::BigRat;
use anonet::core::certify::certify_set_cover;
use anonet::core::sc_bcast::{run_fractional_packing, ScConfig, ScInstance};
use anonet::core::trivial::run_trivial;
use anonet::exact::min_weight_set_cover;
use anonet::gen::{setcover, WeightSpec};
use anonet::sim::EngineOptions;

fn main() {
    // 15×12 cell grid; stations every 3 cells covering radius 2 (Chebyshev).
    let inst = setcover::grid_coverage(15, 12, 3, 2, WeightSpec::Uniform(50), 99);
    let (f, k) = (inst.f(), inst.k());
    println!(
        "{} stations, {} cells, overlap f = {f}, station size k = {k}",
        inst.n_subsets,
        inst.n_elements()
    );

    let run = run_fractional_packing::<BigRat>(ScInstance::new(&inst), EngineOptions::default())
        .expect("run completes");
    let cert = certify_set_cover(&inst, &run.packing, &run.cover).expect("certified");
    let chosen = run.cover.iter().filter(|&&b| b).count();
    println!(
        "§4 broadcast algorithm: {chosen} stations, cost {}, certified ratio ≤ {:.3} \
         (guarantee f = {f}), rounds = {} (schedule {})",
        cert.cover_weight,
        cert.certified_ratio(),
        run.trace.rounds,
        ScConfig::new(f, k, inst.max_weight()).total_rounds(),
    );

    // The folklore k-approximation (2 rounds, but a much weaker guarantee
    // when stations are large).
    let triv = run_trivial(&inst).expect("trivial run");
    println!(
        "trivial k-approx: {} stations, cost {} (guarantee k = {k}), 2 rounds",
        triv.cover.iter().filter(|&&b| b).count(),
        inst.cover_weight(&triv.cover),
    );

    // Exact optimum for scale (the instance is small enough).
    let opt = min_weight_set_cover(&inst);
    println!(
        "exact optimum: cost {} → true §4 ratio {:.3}",
        opt.weight,
        cert.cover_weight as f64 / opt.weight as f64
    );
}
