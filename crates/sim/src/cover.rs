//! Covering graphs (lifts) and the symmetry arguments of §7.
//!
//! A covering map φ: G' → G preserves degrees and port numbers; a
//! deterministic anonymous algorithm cannot distinguish a node v' of G' from
//! φ(v') in G, so outputs must satisfy `out(v') = out(φ(v'))` (see the
//! paper's §7 and Suomela's survey §5). [`lift`] builds a k-fold cover with
//! ports mirrored exactly, which turns that theorem into an executable
//! invariant: running any [`PnAlgorithm`](crate::model::PnAlgorithm) or
//! [`BcastAlgorithm`](crate::model::BcastAlgorithm) on the lift must
//! reproduce the base outputs fibre-wise. The engine tests (and the core
//! algorithm tests) rely on this.

use crate::graph::Graph;

/// A deterministic permutation source for lift fibres: a tiny splitmix64.
/// (Kept here so `sim` has no dependency on `gen`.)
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A k-fold covering graph of `base`, together with its covering map.
#[derive(Clone, Debug)]
pub struct Lift {
    /// The covering graph; node `v * k + i` is copy `i` of base node `v`.
    pub graph: Graph,
    /// `projection[v']` is the base node covered by lift node `v'`.
    pub projection: Vec<usize>,
    /// The fold count k.
    pub k: usize,
}

/// Builds a k-fold lift of `base`.
///
/// Each undirected base edge `{u, v}` is assigned a permutation σ of
/// `{0..k}` (derived deterministically from `seed`); copy `i` of `u` is
/// joined to copy `σ(i)` of `v`. Adjacency lists of the copies mirror the
/// base port order, so the projection preserves port numbers — the defining
/// property of a covering map in the port-numbering model.
///
/// With `seed = 0` every σ is the identity (k disjoint copies); other seeds
/// produce connected-ish twisted covers, which are the interesting case.
pub fn lift(base: &Graph, k: usize, seed: u64) -> Lift {
    assert!(k >= 1, "lift fold count must be at least 1");
    let n = base.n();
    // Permutation per undirected edge, oriented from the edge's min endpoint.
    let mut state = seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(seed);
    let sigmas: Vec<Vec<usize>> = (0..base.m())
        .map(|_| {
            let mut perm: Vec<usize> = (0..k).collect();
            if seed != 0 {
                // Fisher–Yates with splitmix64 draws.
                for i in (1..k).rev() {
                    let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
            }
            perm
        })
        .collect();

    // Inverse permutations, for traversing an edge from its max endpoint.
    let inverses: Vec<Vec<usize>> = sigmas
        .iter()
        .map(|sigma| {
            let mut inv = vec![0usize; k];
            for (i, &j) in sigma.iter().enumerate() {
                inv[j] = i;
            }
            inv
        })
        .collect();

    // σ maps copies of the min endpoint to copies of the max endpoint.
    // Adjacency entries are appended in base port order, so the projection
    // preserves port numbers.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n * k];
    for v in 0..n {
        for a in base.arc_range(v) {
            let u = base.head(a);
            let e = base.edge_of(a);
            let (lo, _) = base.edge(e);
            let map = if v == lo { &sigmas[e] } else { &inverses[e] };
            for i in 0..k {
                adj[v * k + i].push(u * k + map[i]);
            }
        }
    }
    let graph = Graph::from_adjacency(adj).expect("lift of a valid graph is valid");
    let projection = (0..n * k).map(|vp| vp / k).collect();
    Lift { graph, projection, k }
}

/// Checks the fibre-wise output property: `outputs_lift[v'] ==
/// outputs_base[projection(v')]` for all lift nodes. Returns the first
/// violating lift node, if any.
pub fn check_lift_outputs<O: PartialEq>(
    lift: &Lift,
    base_outputs: &[O],
    lift_outputs: &[O],
) -> Option<usize> {
    (0..lift.graph.n()).find(|&vp| lift_outputs[vp] != base_outputs[lift.projection[vp]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::PortNumbering;
    use crate::engine::{run_engine, EngineOptions};
    use crate::model::PnAlgorithm;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn identity_lift_is_disjoint_copies() {
        let g = cycle(5);
        let l = lift(&g, 3, 0);
        assert_eq!(l.graph.n(), 15);
        assert_eq!(l.graph.m(), 15);
        // Copy i of v connects only to copy i of neighbours.
        for vp in 0..l.graph.n() {
            for (_, up) in l.graph.neighbors(vp) {
                assert_eq!(vp % 3, up % 3);
            }
        }
    }

    #[test]
    fn lift_preserves_degrees_and_ports() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let l = lift(&g, 4, 42);
        assert_eq!(l.graph.n(), 16);
        assert_eq!(l.graph.m(), g.m() * 4);
        for vp in 0..l.graph.n() {
            let v = l.projection[vp];
            assert_eq!(l.graph.degree(vp), g.degree(v));
            // Port p of vp covers port p of v.
            for (p, up) in l.graph.neighbors(vp) {
                let (q, u) = g.neighbors(v).nth(p).unwrap();
                assert_eq!(p, q);
                assert_eq!(l.projection[up], u, "port {p} of lift node {vp}");
            }
        }
    }

    /// Any deterministic PN algorithm must produce fibre-wise equal outputs.
    struct DegreeEcho;
    impl PnAlgorithm for DegreeEcho {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Config = ();
        fn init(_: &(), degree: usize, input: &u64) -> Self {
            let _ = (degree, input);
            DegreeEcho
        }
        fn send(&self, _: &(), _round: u64, out: &mut [u64]) {
            for (p, o) in out.iter_mut().enumerate() {
                *o = p as u64;
            }
        }
        fn receive(&mut self, _: &(), _round: u64, incoming: &[&u64]) -> Option<u64> {
            Some(incoming.iter().map(|&&m| m + 1).sum())
        }
    }

    #[test]
    fn outputs_lift_fibrewise() {
        let opts = EngineOptions::default();
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let l = lift(&g, 3, 7);
        let base =
            run_engine::<DegreeEcho, PortNumbering>(&g, &(), &vec![0u64; g.n()], 5, opts).unwrap();
        let lifted = run_engine::<DegreeEcho, PortNumbering>(
            &l.graph,
            &(),
            &vec![0u64; l.graph.n()],
            5,
            opts,
        )
        .unwrap();
        assert_eq!(check_lift_outputs(&l, &base.outputs, &lifted.outputs), None);
    }
}
