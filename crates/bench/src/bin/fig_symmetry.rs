//! **E8 — §7 symmetry**: broadcast-model outputs must respect every
//! automorphism *and every covering map* of the input. On the Frucht graph
//! (3-regular but rigid: |Aut| = 1) the broadcast algorithm still cannot
//! distinguish itself from the 3-regular tree, so the unweighted maximal
//! edge packing must be y ≡ 1/3 — whereas the port-numbering §3 algorithm
//! breaks the symmetry.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin fig_symmetry`

use anonet_bench::{cover_size, md_table};
use anonet_bigmath::BigRat;
use anonet_core::vc_bcast::run_vc_broadcast;
use anonet_core::vc_pn::{run_edge_packing, VcInstance};
use anonet_exact::iso::automorphism_count;
use anonet_gen::family;
use anonet_sim::cover::lift;
use anonet_sim::EngineOptions;

fn main() {
    symmetric_outputs();
    lift_invariance();
}

fn symmetric_outputs() {
    let mut rows = Vec::new();
    for (name, g) in [
        ("K4", family::complete(4)),
        ("Petersen", family::petersen()),
        ("Frucht (rigid!)", family::frucht()),
        ("cycle-7", family::cycle(7)),
    ] {
        let n = g.n();
        let m = g.m();
        let w = vec![1u64; n];
        let aut = automorphism_count(&g);

        let bc =
            run_vc_broadcast::<BigRat>(VcInstance::new(&g, &w), EngineOptions::default()).unwrap();
        let pn =
            run_edge_packing::<BigRat>(VcInstance::new(&g, &w), EngineOptions::default()).unwrap();
        // Broadcast: uniform y = w/Δ-regular ⇒ dual = m/deg for regular graphs.
        let distinct_pn: std::collections::BTreeSet<String> =
            pn.packing.y.iter().map(|y| y.to_string()).collect();
        rows.push(vec![
            name.to_string(),
            aut.to_string(),
            format!("{}/{}", cover_size(&bc.cover), n),
            bc.dual_value.to_string(),
            format!("{}/{}", cover_size(&pn.cover), n),
            format!("{} distinct y values", distinct_pn.len()),
        ]);
        let _ = m;
    }
    md_table(
        "E8a — broadcast model forces symmetric solutions (unit weights)",
        &["graph", "|Aut|", "broadcast cover", "broadcast Σy", "§3 PN cover", "§3 PN packing"],
        &rows,
    );
    println!(
        "\nFrucht: the broadcast output is all-saturated with Σy = 18·(1/3) = 6 even though \
         the graph has no non-trivial automorphism — it is covered by the 3-regular tree, \
         and the broadcast model cannot tell (§7). The PN algorithm may break symmetry."
    );
}

fn lift_invariance() {
    let mut rows = Vec::new();
    for (name, g, k) in [
        ("Petersen ×3", family::petersen(), 3usize),
        ("cycle-6 ×2", family::cycle(6), 2),
        ("K4 ×4", family::complete(4), 4),
    ] {
        let w = vec![2u64; g.n()];
        let base =
            run_edge_packing::<BigRat>(VcInstance::new(&g, &w), EngineOptions::default()).unwrap();
        let l = lift(&g, k, 99);
        let wl: Vec<u64> = (0..l.graph.n()).map(|vp| w[l.projection[vp]]).collect();
        let lifted =
            run_edge_packing::<BigRat>(VcInstance::new(&l.graph, &wl), EngineOptions::default())
                .unwrap();
        let fibrewise_equal =
            (0..l.graph.n()).all(|vp| lifted.cover[vp] == base.cover[l.projection[vp]]);
        rows.push(vec![
            name.to_string(),
            format!("{} → {}", g.n(), l.graph.n()),
            fibrewise_equal.to_string(),
        ]);
    }
    md_table(
        "E8b — covering-map invariance: lifted nodes copy their base node's output",
        &["lift", "nodes", "outputs fibre-wise equal"],
        &rows,
    );
}
