//! The §7 curiosity, live: broadcast algorithms produce perfectly symmetric
//! solutions without being told the symmetries — even on a rigid graph.
//!
//! Run with: `cargo run --example anonymous_symmetry`

use anonet::bigmath::BigRat;
use anonet::core::vc_bcast::run_vc_broadcast;
use anonet::core::vc_pn::{run_edge_packing, VcInstance};
use anonet::exact::iso::automorphism_count;
use anonet::gen::family;
use anonet::sim::cover::{check_lift_outputs, lift};
use anonet::sim::EngineOptions;

fn main() {
    let frucht = family::frucht();
    let unit = vec![1u64; frucht.n()];
    println!(
        "Frucht graph: 12 nodes, 18 edges, 3-regular, |Aut| = {} (rigid)",
        automorphism_count(&frucht)
    );

    // Broadcast model: the Frucht graph is covered by the 3-regular tree, and
    // a broadcast algorithm cannot tell them apart — so the only possible
    // maximal edge packing is y ≡ 1/3 everywhere, all nodes saturated.
    let bc = run_vc_broadcast::<BigRat>(VcInstance::new(&frucht, &unit), EngineOptions::default())
        .expect("run completes");
    println!(
        "broadcast (§5): cover = all {} nodes, Σy = {} (= 18 × 1/3) — forced symmetric",
        bc.cover.iter().filter(|&&b| b).count(),
        bc.dual_value
    );

    // Port numbering *may* break symmetry. On a path (not regular) the §3
    // algorithm picks a strict subset.
    let path = family::path(7);
    let run = run_edge_packing::<BigRat>(VcInstance::new(&path, &[1; 7]), EngineOptions::default())
        .expect("run completes");
    let chosen: Vec<usize> = (0..7).filter(|&v| run.cover[v]).collect();
    println!("\npath-7 with ports (§3): cover = {chosen:?} — symmetry broken by structure");

    // Covering maps: run the same algorithm on a 3-fold lift of the Petersen
    // graph. Every lifted node must copy its base node's output — a theorem
    // (§7 / covering-space argument) that the simulator turns into a check.
    let petersen = family::petersen();
    let w = vec![2u64; 10];
    let base = run_edge_packing::<BigRat>(VcInstance::new(&petersen, &w), EngineOptions::default())
        .expect("base run");
    let l = lift(&petersen, 3, 1234);
    let wl: Vec<u64> = (0..l.graph.n()).map(|vp| w[l.projection[vp]]).collect();
    let lifted =
        run_edge_packing::<BigRat>(VcInstance::new(&l.graph, &wl), EngineOptions::default())
            .expect("lift run");
    match check_lift_outputs(&l, &base.cover, &lifted.cover) {
        None => println!(
            "\nPetersen ×3 lift ({} nodes): every fibre copies its base output ✓",
            l.graph.n()
        ),
        Some(v) => unreachable!("lift node {v} disagreed — covering-map theorem violated"),
    }
}
