//! **E13** — asynchronous runtime throughput: events per second through the
//! discrete-event loop, the α-synchronizer's overhead relative to the
//! synchronous engine on the same workload, and the cost of loss with
//! retransmission.

use anonet_bench::{halting_inputs, HaltingGossip};
use anonet_gen::family;
use anonet_runtime::{run_async_engine, DelayModel, NetworkConfig};
use anonet_sim::{run_engine, EngineOptions, Graph, PortNumbering};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// Ideal network event-loop throughput vs the synchronous engine on the
/// same workload and graph: the direct measure of synchronizer overhead.
fn bench_ideal_vs_sync(c: &mut Criterion) {
    let opts = EngineOptions::default();
    let mut group = c.benchmark_group("runtime_ideal");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let g: Graph = family::random_regular(n, 8, 7);
        let inputs = halting_inputs(n, |_| 10);
        group.bench_with_input(BenchmarkId::new("sync_engine", n), &g, |b, g| {
            b.iter(|| {
                let res = run_engine::<HaltingGossip, PortNumbering>(
                    black_box(g),
                    &(),
                    &inputs,
                    12,
                    opts,
                )
                .unwrap();
                res.trace.rounds
            })
        });
        group.bench_with_input(BenchmarkId::new("async_ideal", n), &g, |b, g| {
            let net = NetworkConfig::ideal();
            b.iter(|| {
                let res = run_async_engine::<HaltingGossip, PortNumbering>(
                    black_box(g),
                    &(),
                    &inputs,
                    12,
                    &net,
                )
                .unwrap();
                res.trace.events
            })
        });
    }
    group.finish();
}

/// Event throughput under jitter and loss: every transmission takes a delay
/// sample and a loss coin flip, and drops trigger timer-driven retransmission.
fn bench_adverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_adverse");
    group.sample_size(10);
    let n = 1_000usize;
    let g: Graph = family::random_regular(n, 8, 7);
    let inputs = halting_inputs(n, |_| 10);
    let configs: Vec<(&str, NetworkConfig)> = vec![
        (
            "jitter",
            NetworkConfig::ideal().with_delays(DelayModel::Uniform { lo: 0, hi: 16 }).non_fifo(),
        ),
        (
            "loss2pct",
            NetworkConfig::ideal()
                .with_delays(DelayModel::Uniform { lo: 0, hi: 16 })
                .with_loss(0.02, 24)
                .non_fifo(),
        ),
    ];
    for (name, net) in configs {
        group.bench_function(BenchmarkId::new("n1000_d8", name), |b| {
            b.iter(|| {
                let res =
                    run_async_engine::<HaltingGossip, PortNumbering>(&g, &(), &inputs, 12, &net)
                        .unwrap();
                black_box(res.trace.events)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ideal_vs_sync, bench_adverse);
criterion_main!(benches);
