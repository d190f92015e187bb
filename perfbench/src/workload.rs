//! The three served-path workloads: their shapes, the seeded corpus each
//! one sends, and the order in which a connection draws requests from it.
//!
//! Every workload uses W = 2¹⁰ uniform weights and gives each layer an
//! optimisation is likely to touch a workload where it does most of the
//! work and one where it does little:
//!
//! | workload    | dominant layers                          | bypassed          |
//! |-------------|------------------------------------------|-------------------|
//! | `pn_batch`  | §3 engine + `AutoRat`, pool fan-out      | cache             |
//! | `sc_batch`  | §4 broadcast delivery + arithmetic       | cache, certify    |
//! | `svc_reuse` | reactor, wire, queue, cache, telemetry   | fan-out           |
//!
//! A certification-bound workload (one `random_regular(512, 8)` instance
//! per request) is left out: a single engine thread with a large working
//! set swung with the host's load, its p50 moving 37% between two sets of
//! ten runs, more than any bound allows.

use anonet_core::canon;
use anonet_core::sc_bcast::ScConfig;
use anonet_core::vc_pn::VcConfig;
use anonet_gen::{family, setcover, Rng, WeightSpec};
use anonet_service::{SolveRequest, SolverId};
use anonet_sim::{Graph, SetCoverInstance};

/// The weight bound W every workload declares.
pub const MAX_WEIGHT: u64 = 1 << 10;

/// What one request carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// §3 `vc_pn` over `random_regular(n, d)` instances.
    Vc {
        /// Nodes per instance.
        n: usize,
        /// Regular degree (also the declared Δ).
        d: usize,
    },
    /// §4 `set_cover` over `random_bounded(elements, subsets, f, k)` instances.
    Sc {
        /// Elements per instance.
        elements: usize,
        /// Subsets per instance.
        subsets: usize,
        /// Declared element-frequency bound f.
        f: usize,
        /// Declared subset-size bound k.
        k: usize,
    },
}

/// A workload: request shape, server settings and client load.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name as `--workload` spells it.
    pub name: &'static str,
    /// Request shape.
    pub shape: Shape,
    /// Instances per request.
    pub per_req: usize,
    /// Distinct requests in the corpus (for `svc_reuse`, the reuse pool).
    pub corpus: usize,
    /// Closed-loop connections (capped at the machine's core count).
    pub conns: usize,
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// The server's batch-pool width per job.
    pub threads_per_job: usize,
    /// Result-cache capacity in entries; 0 sends every request with the
    /// cache-bypass flag.
    pub cache_cap: usize,
    /// Zipf exponent of the reuse draw; `None` cycles through the corpus.
    pub zipf: Option<f64>,
    /// Requests each connection sends during set-up, before timing starts.
    pub warmup: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 3] = [
    // The shape the engine profile was taken on: 32 small instances whose
    // batch fans out across the job's pool, so engine and `AutoRat`
    // arithmetic dominate and the pool's speed-up shows.
    Spec {
        name: "pn_batch",
        shape: Shape::Vc { n: 48, d: 4 },
        per_req: 32,
        corpus: 32,
        conns: 1,
        depth: 1,
        threads_per_job: 2,
        cache_cap: 0,
        zipf: None,
        warmup: 50,
    },
    // 821 broadcast rounds per instance: multiset canonicalisation and §4
    // arithmetic take nearly all the time, certification under 1%. The batch
    // fans out over two threads: on one, a run's p50 landed on either of two
    // host-load modes (spread 0.22 across seeds against 0.12 at width 2).
    Spec {
        name: "sc_batch",
        shape: Shape::Sc { elements: 48, subsets: 24, f: 2, k: 4 },
        per_req: 8,
        corpus: 64,
        conns: 1,
        depth: 1,
        threads_per_job: 2,
        cache_cap: 0,
        zipf: None,
        warmup: 12,
    },
    // Tiny requests drawn with skewed reuse from a pool 4× the cache, so
    // every run has hits, misses, inserts and evictions and the request
    // path (reactor, wire, queue, cache, telemetry) dominates.
    Spec {
        name: "svc_reuse",
        shape: Shape::Vc { n: 16, d: 3 },
        per_req: 1,
        corpus: 1024,
        conns: 2,
        depth: 4,
        threads_per_job: 1,
        cache_cap: 256,
        zipf: Some(1.0),
        warmup: 1024,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One instance as the client generated it — what the gate checks a reply
/// against, independent of the server's decoding of the blob.
#[derive(Clone, Debug)]
pub enum Inst {
    /// A vertex-cover instance.
    Vc {
        /// The graph.
        graph: Graph,
        /// Node weights.
        weights: Vec<u64>,
    },
    /// A set-cover instance.
    Sc(SetCoverInstance),
}

/// One request of the corpus with the facts its replies are checked against.
#[derive(Clone, Debug)]
pub struct Item {
    /// The request exactly as sent.
    pub req: SolveRequest,
    /// The instances the request's blobs encode, in order.
    pub insts: Vec<Inst>,
    /// The round count the paper's schedule fixes for this request's bounds.
    pub rounds: u64,
}

impl Inst {
    /// The certificate factor the problem fixes: 2 for vertex cover, the
    /// largest element frequency f for set cover.
    pub fn factor(&self) -> u64 {
        match self {
            Inst::Vc { .. } => 2,
            Inst::Sc(sc) => sc.f().max(1) as u64,
        }
    }
}

impl Spec {
    /// The request corpus for `seed`: the same seed gives the same bytes.
    pub fn corpus(&self, seed: u64) -> Vec<Item> {
        let weights = WeightSpec::Uniform(MAX_WEIGHT);
        let (solver, rounds) = match self.shape {
            Shape::Vc { d, .. } => (SolverId::VC_PN, VcConfig::new(d, MAX_WEIGHT).total_rounds()),
            Shape::Sc { f, k, .. } => {
                (SolverId::SET_COVER, ScConfig::new(f, k, MAX_WEIGHT).total_rounds())
            }
        };
        (0..self.corpus as u64)
            .map(|r| {
                let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(r * 1_000);
                let seeds = (0..self.per_req as u64).map(|i| base.wrapping_add(i));
                let (blobs, insts): (Vec<Vec<u8>>, Vec<Inst>) = match self.shape {
                    Shape::Vc { n, d } => seeds
                        .map(|s| {
                            let graph = family::random_regular(n, d, s);
                            let weights = weights.draw_many(n, s ^ 0xC0DE);
                            let blob = canon::encode_vc(&graph, &weights, d, MAX_WEIGHT);
                            (blob, Inst::Vc { graph, weights })
                        })
                        .unzip(),
                    Shape::Sc { elements, subsets, f, k } => seeds
                        .map(|s| {
                            let sc = setcover::random_bounded(elements, subsets, f, k, weights, s);
                            (canon::encode_sc(&sc, f, k, MAX_WEIGHT), Inst::Sc(sc))
                        })
                        .unzip(),
                };
                let req = SolveRequest::new(solver, blobs);
                Item { req: if self.cache_cap == 0 { req.no_cache() } else { req }, insts, rounds }
            })
            .collect()
    }

    /// The request order of connection `conn`: a seeded Zipf draw over a
    /// seeded popularity ranking for the reuse workload, a cycle through
    /// the corpus (from a per-connection offset) otherwise.
    pub fn picker(&self, seed: u64, conn: usize) -> Picker {
        let mut rng = Rng::new(seed ^ 0x5EED_0000 ^ (conn as u64) << 40);
        let draw = self.zipf.map(|s| {
            let rank = Rng::new(seed ^ 0xA11C_E000).permutation(self.corpus);
            let mut acc = 0.0;
            let cdf = (1..=self.corpus)
                .map(|r| {
                    acc += 1.0 / (r as f64).powf(s);
                    acc
                })
                .collect();
            ZipfDraw { cdf, rank }
        });
        let next = rng.index(self.corpus);
        Picker { rng, draw, next, len: self.corpus }
    }
}

struct ZipfDraw {
    /// Unnormalised cumulative weights of ranks 1..=len.
    cdf: Vec<f64>,
    /// Corpus index of each popularity rank.
    rank: Vec<usize>,
}

/// A connection's request order over the corpus.
pub struct Picker {
    rng: Rng,
    draw: Option<ZipfDraw>,
    next: usize,
    len: usize,
}

impl Picker {
    /// The corpus index of the next request.
    pub fn next_index(&mut self) -> usize {
        match &self.draw {
            Some(z) => {
                let total = z.cdf[z.cdf.len() - 1];
                let u = self.rng.f64() * total;
                let r = z.cdf.partition_point(|&c| c <= u).min(z.cdf.len() - 1);
                z.rank[r]
            }
            None => {
                let i = self.next;
                self.next = (self.next + 1) % self.len;
                i
            }
        }
    }
}
