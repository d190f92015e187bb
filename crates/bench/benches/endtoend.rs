//! End-to-end Criterion benchmarks: complete §3 / §4 / §5 runs on fixed
//! instances, with both exact value types, plus the main baselines — the
//! wall-clock counterpart of the round-count experiments.

use anonet_baselines::{run_id_edge_packing, run_ps3};
use anonet_bigmath::{BigRat, Rat128};
use anonet_core::sc_bcast::{run_fractional_packing, ScInstance};
use anonet_core::vc_bcast::run_vc_broadcast;
use anonet_core::vc_pn::{run_edge_packing, run_edge_packing_many, VcInstance};
use anonet_gen::{family, setcover, WeightSpec};
use anonet_sim::{EngineOptions, Graph};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_vc(c: &mut Criterion) {
    let opts = EngineOptions::default();
    let mut group = c.benchmark_group("edge_packing");
    group.sample_size(20);
    let g = family::random_regular(64, 4, 5);
    let w = WeightSpec::Uniform(1 << 12).draw_many(64, 9);
    group.bench_function("sec3_bigrat_n64_d4", |b| {
        b.iter(|| {
            run_edge_packing::<BigRat>(VcInstance::new(black_box(&g), black_box(&w)), opts).unwrap()
        })
    });
    group.bench_function("sec3_rat128_n64_d4", |b| {
        b.iter(|| {
            run_edge_packing::<Rat128>(VcInstance::new(black_box(&g), black_box(&w)), opts).unwrap()
        })
    });
    let ids: Vec<u64> = (1..=64).collect();
    group.bench_function("id_forest_n64_d4", |b| {
        b.iter(|| run_id_edge_packing::<BigRat>(black_box(&g), black_box(&w), &ids, 64).unwrap())
    });
    // Every iteration after the first reuses the engine's per-thread
    // scratch — the short-run regime the served path lives in.
    let delta = g.max_degree();
    group.bench_function("ps3_n64_d4", |b| b.iter(|| run_ps3(black_box(&g), delta).unwrap()));
    group.finish();
}

fn bench_sc(c: &mut Criterion) {
    let opts = EngineOptions::default();
    let mut group = c.benchmark_group("fractional_packing");
    group.sample_size(10);
    let inst = setcover::random_bounded(24, 16, 2, 3, WeightSpec::Uniform(64), 3);
    group.bench_function("sec4_bigrat_f2_k3", |b| {
        b.iter(|| {
            run_fractional_packing::<BigRat>(ScInstance::new(black_box(&inst)), opts).unwrap()
        })
    });
    let g = family::cycle(12);
    let w = vec![5u64; 12];
    group.bench_function("sec5_broadcast_cycle12", |b| {
        b.iter(|| {
            run_vc_broadcast::<BigRat>(VcInstance::new(black_box(&g), black_box(&w)), opts).unwrap()
        })
    });
    group.finish();
}

/// The "serve many requests" shape: 16 independent §3 instances fanned out
/// by `run_edge_packing_many`, sequential vs 4 workers.
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_packing_batch");
    group.sample_size(10);
    let cases: Vec<(Graph, Vec<u64>)> = (0..16)
        .map(|i| {
            let g = family::random_regular(64, 4, 40 + i);
            let w = WeightSpec::Uniform(1 << 12).draw_many(64, 50 + i);
            (g, w)
        })
        .collect();
    let instances: Vec<VcInstance<'_>> = cases.iter().map(|(g, w)| VcInstance::new(g, w)).collect();
    for threads in [1usize, 4] {
        group.bench_function(format!("sec3_rat128_x16_t{threads}"), |b| {
            b.iter(|| {
                let runs = run_edge_packing_many::<Rat128>(black_box(&instances), threads);
                assert!(runs.iter().all(|r| r.is_ok()));
                runs.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vc, bench_sc, bench_batch);
criterion_main!(benches);
