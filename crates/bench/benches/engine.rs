//! **E12** — engine throughput and parallel scalability: synchronous rounds
//! per second on large graphs, sequential vs scoped-thread execution, the
//! halted-frontier skipping win, and batched multi-instance throughput.

use anonet_bench::{halting_inputs, HaltingGossip};
use anonet_gen::family;
use anonet_sim::pool::fan_out;
use anonet_sim::{run_engine, EngineOptions, Graph, PnAlgorithm, PnEngine, PortNumbering};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// A light per-node workload: gossip the running maximum of neighbour ids.
struct Gossip {
    best: u64,
}

impl PnAlgorithm for Gossip {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = ();

    fn init(_: &(), _degree: usize, input: &u64) -> Self {
        Gossip { best: *input }
    }
    fn send(&self, _: &(), _round: u64, out: &mut [u64]) {
        for m in out {
            *m = self.best;
        }
    }
    fn receive(&mut self, _: &(), _round: u64, incoming: &[&u64]) -> Option<u64> {
        for &&m in incoming {
            self.best = self.best.max(m);
        }
        None // driven externally
    }
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rounds");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let g: Graph = family::random_regular(n, 8, 7);
        let inputs: Vec<u64> = (0..n as u64).collect();
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), threads),
                &threads,
                |bch, &t| {
                    bch.iter(|| {
                        let mut engine = PnEngine::<Gossip>::new(&g, &(), &inputs, t).unwrap();
                        for _ in 0..5 {
                            black_box(engine.step());
                        }
                        engine.trace().rounds
                    })
                },
            );
        }
    }
    group.finish();
}

/// 95% of nodes halt after round 1; the rest run 40 more rounds. With
/// frontier skipping the per-round cost tracks the collapsed frontier.
fn bench_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_frontier");
    group.sample_size(10);
    let n = 10_000usize;
    let g: Graph = family::random_regular(n, 8, 7);
    let inputs = halting_inputs(n, |v| if v % 20 == 0 { 40 } else { 1 });
    for (label, skip) in [("skip", true), ("sweep_all", false)] {
        group.bench_function(BenchmarkId::new("n10000_d8", label), |bch| {
            bch.iter(|| {
                let opts = EngineOptions { threads: 1, frontier_skipping: skip };
                let mut engine =
                    PnEngine::<HaltingGossip>::with_options(&g, &(), &inputs, opts).unwrap();
                while !engine.step() {}
                black_box(engine.trace().rounds)
            })
        });
    }
    group.finish();
}

/// Many small independent instances through one pool (`fan_out`): the
/// across-instance parallelism vs running them back to back.
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    let graphs: Vec<Graph> = (0..32).map(|i| family::random_regular(256, 4, 100 + i)).collect();
    let inputs = halting_inputs(256, |v| v % 12 + 1);
    let opts = EngineOptions::default();
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("x32_n256", threads), &threads, |bch, &t| {
            bch.iter(|| {
                let res = fan_out(t, graphs.iter().collect(), |_, g: &Graph| {
                    run_engine::<HaltingGossip, PortNumbering>(g, &(), &inputs, 64, opts)
                });
                black_box(res.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rounds, bench_frontier, bench_batch);
criterion_main!(benches);
