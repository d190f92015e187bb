//! In-memory spans for the traced run, and the in-process replay of a
//! served request through the public functions the service worker calls.
//!
//! The spans are recorded from the benchmark's own code, around calls into
//! each layer; the program itself is not instrumented. One request id
//! joins a request's spans: the `client.solve` round trip over TCP, the
//! replay's layer calls, and the client check.

use crate::workload::Item;
use anonet_bigmath::{AutoRat, BigRat};
use anonet_core::canon::{self, ByteReader};
use anonet_core::certify::{certify_set_cover, certify_vertex_cover, Certificate};
use anonet_core::sc_bcast::{run_fractional_packing_many_with, ScInstance};
use anonet_core::vc_pn::{run_edge_packing_many, VcInstance};
use anonet_service::{wire, InstanceResult, SolveResponse, SolverId};
use anonet_sim::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Span names, one per layer boundary the replay crosses.
pub mod name {
    /// The whole request as the client thread handles it.
    pub const REQUEST: &str = "request";
    /// One solve round trip over loopback TCP, request sent to reply read.
    pub const SOLVE: &str = "client.solve";
    /// The client-side correctness gate.
    pub const CHECK: &str = "client.check";
    /// `wire::encode_solve_request`.
    pub const ENCODE_REQ: &str = "wire.encode_req";
    /// `wire::read_header` + `wire::decode_solve_request`.
    pub const DECODE_REQ: &str = "wire.decode_req";
    /// `canon::decode_vc` / `canon::decode_sc` over the request's blobs.
    pub const CANON: &str = "canon.decode";
    /// The batch engine entry point at width 1.
    pub const ENGINE_T1: &str = "engine.t1";
    /// The batch engine entry point at the workload's width.
    pub const ENGINE: &str = "engine";
    /// `certify_vertex_cover` / `certify_set_cover`.
    pub const CERTIFY: &str = "certify";
    /// Widening to `BigRat`, `wire::encode_solved_body` and the response frame.
    pub const ENCODE: &str = "encode";
    /// `wire::read_header` + `wire::decode_solve_response`.
    pub const DECODE_RESP: &str = "wire.decode_resp";
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Span id, unique within its request.
    pub id: u32,
    /// Id of the enclosing span (0 for a request's root).
    pub parent: u32,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

/// A thread's span buffer.
pub struct Spans {
    epoch: Instant,
    next_id: u32,
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer timing from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans { epoch, next_id: 0, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle for [`Spans::end`].
    pub fn begin(&mut self, req: u64, parent: u32, name: &'static str) -> usize {
        self.next_id += 1;
        let start_ns = self.now();
        self.spans.push(Span { req, id: self.next_id, parent, name, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Closes the span `begin` returned `handle` for.
    pub fn end(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.now();
    }

    /// The id of the span behind `handle`, for its children's `parent`.
    pub fn id(&self, handle: usize) -> u32 {
        self.spans[handle].id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let h = self.begin(req, parent, name);
        let out = f();
        self.end(h);
        out
    }
}

/// Per-name totals of self time (a span's duration minus the part its
/// children cover) and span counts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry((s.req, s.parent)).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let inner = child.get(&(s.req, s.id)).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(inner);
        e.1 += 1;
    }
    out
}

/// Renders spans as tab-separated lines: request, id, parent, name, start
/// and end in ns.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("req\tid\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Exact counts from one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replayed {
    /// Instances decoded, run, certified and encoded (cache misses).
    pub instances: u64,
    /// Σ rounds of the width-`w` engine runs.
    pub rounds: u64,
    /// Σ messages of the width-`w` engine runs.
    pub messages: u64,
}

impl Replayed {
    /// Adds another replay's counts.
    pub fn add(&mut self, o: &Replayed) {
        self.instances += o.instances;
        self.rounds += o.rounds;
        self.messages += o.messages;
    }
}

enum Decoded {
    Vc(Vec<canon::OwnedVcInstance>),
    Sc(Vec<canon::OwnedScInstance>),
}

type Solved = (Vec<bool>, Certificate<AutoRat>, Trace);

/// Replays `item` in process through the calls the worker makes for it,
/// one child span of `parent` per layer, and checks that the replay's
/// response bytes equal the served response `served`. Instances the server
/// answered from its cache are not recomputed, as the worker does not
/// recompute them. With `width > 1` the engine also runs at width 1, so the
/// pool's fan-out speed-up can be read off the two spans.
pub fn replay(
    sp: &mut Spans,
    req: u64,
    parent: u32,
    item: &Item,
    served: &SolveResponse,
    width: usize,
) -> Result<Replayed, String> {
    let SolveResponse::Ok(results) = served else {
        return Err("replay of a non-Ok response".into());
    };
    let bytes = sp.span(req, parent, name::ENCODE_REQ, || wire::encode_solve_request(&item.req));
    let decoded_req = sp.span(req, parent, name::DECODE_REQ, || {
        let mut r = ByteReader::new(&bytes);
        wire::read_header(&mut r)?;
        wire::decode_solve_request(&mut r)
    });
    let decoded_req = decoded_req.map_err(|e| format!("replayed request decode: {e}"))?;
    // Cached bodies are byte copies on the server; rebuild them here,
    // outside the layer spans. The other instances are replayed.
    let cached: Vec<Option<Vec<u8>>> = results
        .iter()
        .map(|r| match r {
            InstanceResult::Solved(s) if s.from_cache => {
                Some(wire::encode_solved_body(&s.cover, &s.certificate, &s.trace))
            }
            _ => None,
        })
        .collect();
    let missing: Vec<usize> = (0..cached.len()).filter(|&i| cached[i].is_none()).collect();

    let blobs: Vec<&[u8]> = missing.iter().map(|&i| &decoded_req.instances[i][..]).collect();
    let decoded = sp.span(req, parent, name::CANON, || {
        if decoded_req.solver == SolverId::SET_COVER {
            blobs
                .iter()
                .map(|b| canon::decode_sc(b))
                .collect::<Result<Vec<_>, _>>()
                .map(Decoded::Sc)
        } else {
            blobs
                .iter()
                .map(|b| canon::decode_vc(b))
                .collect::<Result<Vec<_>, _>>()
                .map(Decoded::Vc)
        }
    });
    let decoded = decoded.map_err(|e| format!("replayed canonical decode: {e}"))?;

    let solved: Vec<Solved> = match &decoded {
        Decoded::Vc(ds) => {
            let insts: Vec<VcInstance<'_>> = ds
                .iter()
                .map(|d| VcInstance::with_bounds(&d.graph, &d.weights, d.delta, d.max_weight))
                .collect();
            if width > 1 {
                sp.span(req, parent, name::ENGINE_T1, || {
                    black_box(run_edge_packing_many::<AutoRat>(&insts, 1))
                });
            }
            let runs = sp.span(req, parent, name::ENGINE, || {
                run_edge_packing_many::<AutoRat>(&insts, width)
            });
            let runs = runs
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("replayed engine run: {e}"))?;
            sp.span(req, parent, name::CERTIFY, || {
                ds.iter()
                    .zip(runs)
                    .map(|(d, vc)| {
                        let cert =
                            certify_vertex_cover(&d.graph, &d.weights, &vc.packing, &vc.cover)
                                .map_err(|e| format!("replayed certification: {e}"))?;
                        Ok((vc.cover, cert, vc.trace))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?
        }
        Decoded::Sc(ds) => {
            let insts: Vec<ScInstance<'_>> = ds
                .iter()
                .map(|d| ScInstance::with_bounds(&d.inst, d.f, d.k, d.max_weight))
                .collect();
            if width > 1 {
                sp.span(req, parent, name::ENGINE_T1, || {
                    black_box(run_fractional_packing_many_with::<AutoRat>(&insts, 1))
                });
            }
            let runs = sp.span(req, parent, name::ENGINE, || {
                run_fractional_packing_many_with::<AutoRat>(&insts, width)
            });
            let runs = runs
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("replayed engine run: {e}"))?;
            sp.span(req, parent, name::CERTIFY, || {
                ds.iter()
                    .zip(runs)
                    .map(|(d, sc)| {
                        let cert = certify_set_cover(&d.inst, &sc.packing, &sc.cover)
                            .map_err(|e| format!("replayed certification: {e}"))?;
                        Ok((sc.cover, cert, sc.trace))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?
        }
    };
    let out = Replayed {
        instances: solved.len() as u64,
        rounds: solved.iter().map(|s| s.2.rounds).sum(),
        messages: solved.iter().map(|s| s.2.messages).sum(),
    };

    let payload = sp.span(req, parent, name::ENCODE, || {
        let mut fresh = solved.into_iter().map(|(cover, cert, t)| {
            let cert = Certificate::<BigRat> {
                cover_weight: cert.cover_weight,
                dual_value: cert.dual_value.to_bigrat(),
                factor: cert.factor,
            };
            let t = wire::WireTrace {
                rounds: t.rounds,
                messages: t.messages,
                bits: t.total_bits,
                max_message_bits: t.max_message_bits,
                ..wire::WireTrace::default()
            };
            (false, wire::encode_solved_body(&cover, &cert, &t))
        });
        let bodies: Vec<Result<(bool, Vec<u8>), String>> = cached
            .into_iter()
            .map(|c| match c {
                Some(body) => Some((true, body)),
                None => fresh.next(),
            })
            .map(|b| b.ok_or_else(|| "replay produced too few results".to_string()))
            .collect();
        wire::encode_solve_response_raw(&bodies)
    });
    let redecoded = sp.span(req, parent, name::DECODE_RESP, || {
        let mut r = ByteReader::new(&payload);
        wire::read_header(&mut r)?;
        wire::decode_solve_response(&mut r)
    });
    redecoded.map_err(|e| format!("replayed response decode: {e}"))?;
    if payload != wire::encode_solve_response(served) {
        return Err("the in-process replay's response bytes differ from the served reply".into());
    }
    Ok(out)
}
