//! **E6/E7 — §6 lower bounds, executed**.
//!
//! E6 (Fig. 3): on the symmetric K_{p,p} every deterministic port-numbering
//! algorithm outputs all p subsets against OPT = 1 — the ratio is *exactly*
//! p = min{f, k}, matching the upper bounds (f-approx from §4, k-approx from
//! the trivial algorithm).
//!
//! E7 (Fig. 4): the local reduction from independent set in numbered
//! directed cycles — build H from an n-cycle, run a set-cover algorithm,
//! extract an independent set, and verify the §6 accounting
//! |I| ≥ nε/p² for ε = p − achieved-ratio.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin tbl_lower_bound`

use anonet_bench::{cover_size, f3, md_table};
use anonet_bigmath::BigRat;
use anonet_core::sc_bcast::{run_fractional_packing, ScInstance};
use anonet_core::trivial::run_trivial;
use anonet_exact::min_weight_set_cover;
use anonet_gen::reduction::{
    cycle_cover_instance, extract_independent_set, is_cycle_independent_set, optimum_size,
};
use anonet_gen::setcover::symmetric_kpp;
use anonet_sim::EngineOptions;

fn main() {
    fig3();
    fig4();
}

fn fig3() {
    let mut rows = Vec::new();
    for p in 2usize..=6 {
        let inst = symmetric_kpp(p, 1);
        let run =
            run_fractional_packing::<BigRat>(ScInstance::new(&inst), EngineOptions::default())
                .unwrap();
        let triv = run_trivial(&inst).unwrap();
        let opt = min_weight_set_cover(&inst).weight;
        assert_eq!(opt, 1);
        rows.push(vec![
            p.to_string(),
            format!("{} (f = {p})", cover_size(&run.cover)),
            format!("{} (k = {p})", cover_size(&triv.cover)),
            opt.to_string(),
            f3(cover_size(&run.cover) as f64 / opt as f64),
        ]);
    }
    md_table(
        "E6 (Fig. 3) — symmetric K_{p,p}: every PN-deterministic algorithm outputs all p subsets",
        &["p", "§4 cover size", "trivial cover size", "OPT", "achieved ratio = p"],
        &rows,
    );
    println!(
        "\nThe ratio equals p = min{{f, k}} exactly — the §6 lower bound is tight \
         against both the §4 f-approximation and the trivial k-approximation."
    );
}

fn fig4() {
    let p = 3usize;
    let mut rows = Vec::new();
    for n in [30usize, 60, 120, 240] {
        let inst = cycle_cover_instance(n, p);

        // The anonymous §4 algorithm: the instance is vertex-transitive, so it
        // must take every subset — ratio exactly p, nothing to extract. This
        // *is* the lower bound in action.
        let anon =
            run_fractional_packing::<BigRat>(ScInstance::new(&inst), EngineOptions::default())
                .unwrap();
        assert!(inst.is_cover(&anon.cover));

        // A hypothetical better-than-p algorithm, stood in for by the
        // centralized greedy: its sub-p ratio forces a large independent set
        // out of the extraction — exactly what Lemma 4 forbids for local
        // algorithms.
        let greedy = anonet_exact::greedy_set_cover(&inst);

        for (algo, cover) in [("§4 anonymous", &anon.cover), ("greedy (non-local)", &greedy)] {
            let c = cover_size(cover);
            let opt = optimum_size(n, p);
            let ratio = c as f64 / opt as f64;
            let eps = p as f64 - ratio;
            let is = extract_independent_set(n, cover);
            assert!(is_cycle_independent_set(n, &is), "extraction must be independent");
            let bound = (n as f64 * eps / (p * p) as f64).floor();
            rows.push(vec![
                n.to_string(),
                algo.to_string(),
                c.to_string(),
                opt.to_string(),
                f3(ratio),
                f3(eps),
                is.len().to_string(),
                f3(bound),
                (is.len() as f64 >= bound).to_string(),
            ]);
        }
    }
    md_table(
        "E7 (Fig. 4) — reduction pipeline on directed n-cycles (p = 3): extracted independent sets",
        &[
            "n",
            "cover source",
            "|C|",
            "OPT = ⌈n/p⌉",
            "ratio",
            "ε = p − ratio",
            "|I| extracted",
            "nε/p² bound",
            "|I| ≥ bound",
        ],
        &rows,
    );
    println!(
        "\nThe anonymous §4 run achieves ratio exactly p — it cannot do better on this \
         vertex-transitive instance, which is the §6 lower bound live. The greedy row \
         shows the contrapositive: any sub-p cover yields an independent set of size \
         ≥ nε/p², growing linearly in n — impossible for an O(1)-round algorithm \
         (Lemma 4), so no local algorithm can be a (p−ε)-approximation."
    );
}
