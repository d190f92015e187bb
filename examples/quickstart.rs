//! Quickstart: find a 2-approximate minimum-weight vertex cover of a small
//! weighted graph with the §3 algorithm, and check the certificate.
//!
//! Run with: `cargo run --example quickstart`

use anonet::bigmath::BigRat;
use anonet::core::certify::certify_vertex_cover;
use anonet::core::vc_pn::{run_edge_packing, EdgePackingNode, VcConfig, VcInstance};
use anonet::runtime::{run_async_engine, scenario};
use anonet::sim::{EngineOptions, Graph, PortNumbering};

fn main() {
    // A communication network: 6 anonymous devices, 7 links. Weights are the
    // cost of electing each device as a monitor.
    //
    //      1 ---- 2
    //     /|      |\
    //    0 |      | 5
    //     \|      |/
    //      3 ---- 4
    let graph =
        Graph::from_edges(6, &[(0, 1), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (4, 5)])
            .expect("simple graph");
    let weights = [3u64, 10, 2, 8, 5, 7];

    // Every node runs the same deterministic program; no identifiers, no
    // randomness — only its degree, its weight, and the global bounds (Δ, W).
    let run =
        run_edge_packing::<BigRat>(VcInstance::new(&graph, &weights), EngineOptions::default())
            .expect("run completes");

    println!("maximal edge packing y(e):");
    for (e, u, v) in graph.edge_iter() {
        println!("  y({{{u},{v}}}) = {}", run.packing.y[e]);
    }
    let chosen: Vec<usize> = (0..graph.n()).filter(|&v| run.cover[v]).collect();
    println!("\nvertex cover (saturated nodes): {chosen:?}");

    // The output carries its own proof of quality: w(C) ≤ 2·Σy ≤ 2·OPT.
    let cert = certify_vertex_cover(&graph, &weights, &run.packing, &run.cover)
        .expect("all §3 guarantees hold");
    println!(
        "cover weight = {}, dual bound Σy = {}, certified ratio ≤ {:.3} (guarantee: 2)",
        cert.cover_weight,
        cert.dual_value,
        cert.certified_ratio()
    );
    println!(
        "finished in {} synchronous rounds — a fixed schedule depending only on Δ = {} and W = {}",
        run.trace.rounds,
        graph.max_degree(),
        weights.iter().max().unwrap()
    );

    // Asynchrony for free: the same node program also runs on the
    // event-driven runtime, where links have latency and 5% of transmissions
    // are lost — an α-synchronizer (round tags + acks + retransmission)
    // makes the execution indistinguishable to the algorithm, so the cover
    // is bit-identical. See `examples/async_network.rs` for the full tour.
    let cfg = VcConfig::new(graph.max_degree(), *weights.iter().max().unwrap());
    let async_run = run_async_engine::<EdgePackingNode<BigRat>, PortNumbering>(
        &graph,
        &cfg,
        &weights,
        cfg.total_rounds(),
        &scenario::lossy_radio(42),
    )
    .expect("retransmission recovers every loss");
    let async_cover: Vec<bool> = async_run.outputs.iter().map(|o| o.in_cover).collect();
    assert_eq!(async_cover, run.cover, "asynchrony must not change the output");
    println!(
        "re-ran on a lossy asynchronous network: same cover, {} retransmissions, {} ticks",
        async_run.trace.retransmissions, async_run.trace.virtual_time
    );
}
