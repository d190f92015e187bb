//! Portfolio-wide integration tests: wire backward compatibility for the
//! legacy problem bytes, structured rejection of unknown solver ids in both
//! connection models, and cross-validation of every registered solver
//! against the exact branch-and-bound optimum and, for the fixed-schedule
//! solvers, against their exact round counts.

use anonet_baselines::ps3::PsConfig;
use anonet_core::canon::{certificate_bound_holds, ByteReader};
use anonet_core::sc_bcast::ScConfig;
use anonet_core::vc_bcast::VcBcastConfig;
use anonet_core::vc_pn::{VcConfig, VcInstance};
use anonet_exact::{is_vertex_cover, min_weight_set_cover, min_weight_vertex_cover};
use anonet_gen::{family, setcover, WeightSpec};
use anonet_service::portfolio::{self, InstanceKind};
use anonet_service::{
    client, wire, Client, ConnModel, InstanceResult, Server, ServiceConfig, SolveRequest,
    SolveResponse, SolverId,
};
use std::net::TcpStream;

fn start(conn_model: ConnModel) -> Server {
    let cfg = ServiceConfig { workers: 2, threads_per_job: 1, conn_model, ..Default::default() };
    Server::start("127.0.0.1:0", cfg).expect("bind loopback")
}

/// Sends one raw frame and reads one raw reply over a fresh connection.
fn raw_roundtrip(server: &Server, payload: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    wire::write_frame(&mut s, payload).expect("write frame");
    wire::read_frame(&mut s).expect("read frame").expect("server closed")
}

fn decode_response(reply: &[u8]) -> SolveResponse {
    let mut r = ByteReader::new(reply);
    let t = wire::read_header(&mut r).expect("header");
    assert_eq!(t, wire::MSG_SOLVE_RESPONSE);
    wire::decode_solve_response(&mut r).expect("decode response")
}

// ---------------------------------------------------------------------------
// Wire backward compatibility: the legacy `Problem` bytes 0/1/2 are now
// registry ids, and the frames they produce must be byte-identical to the
// pre-portfolio layout. The expected frames are pinned by hand below — if
// encode_solve_request drifts, this fails loudly.
// ---------------------------------------------------------------------------

/// Hand-builds the pre-portfolio solve-request payload: header
/// (`ANSV` | version 1 LE | msg type 1), problem byte, mode 0 (sync),
/// seed 0, flags 0, instance count, then length-prefixed blobs.
fn pinned_request_frame(problem_byte: u8, blobs: &[Vec<u8>]) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(b"ANSV");
    f.extend_from_slice(&1u16.to_le_bytes());
    f.push(1); // MSG_SOLVE_REQUEST
    f.push(problem_byte);
    f.push(0); // mode: sync
    f.extend_from_slice(&0u64.to_le_bytes()); // seed
    f.push(0); // flags
    f.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
    for b in blobs {
        f.extend_from_slice(&(b.len() as u32).to_le_bytes());
        f.extend_from_slice(b);
    }
    f
}

#[test]
fn legacy_problem_bytes_encode_byte_identically() {
    let g = family::cycle(8);
    let w = vec![2u64; 8];
    let vc_blobs: Vec<Vec<u8>> =
        client::vc_request(SolverId::VC_PN, &[VcInstance::new(&g, &w)]).instances.clone();
    let sc = setcover::random_bounded(6, 4, 2, 3, WeightSpec::Unit, 3);
    let sc_blobs: Vec<Vec<u8>> = client::sc_request(&[&sc]).instances.clone();

    for (solver, byte, blobs) in [
        (SolverId::VC_PN, 0u8, &vc_blobs),
        (SolverId::VC_BCAST, 1, &vc_blobs),
        (SolverId::SET_COVER, 2, &sc_blobs),
    ] {
        let req = SolveRequest::new(solver, blobs.clone());
        assert_eq!(
            wire::encode_solve_request(&req),
            pinned_request_frame(byte, blobs),
            "{}: encoded request drifted from the pinned legacy frame",
            solver.name()
        );
        // And the pinned bytes decode back to the same request.
        let pinned = pinned_request_frame(byte, blobs);
        let mut r = ByteReader::new(&pinned);
        assert_eq!(wire::read_header(&mut r).unwrap(), wire::MSG_SOLVE_REQUEST);
        let dec = wire::decode_solve_request(&mut r).expect("legacy frame must decode");
        assert_eq!(dec.solver, solver);
        assert_eq!(dec.instances, *blobs);
    }
}

#[test]
fn legacy_responses_are_byte_identical_across_conn_models() {
    let g = family::random_regular(16, 4, 5);
    let w = WeightSpec::Uniform(16).draw_many(16, 6);
    let req = client::vc_request(SolverId::VC_PN, &[VcInstance::new(&g, &w)]);
    let payload = wire::encode_solve_request(&req);

    let threads = start(ConnModel::Threads);
    let reactor = start(ConnModel::Reactor);
    let a = raw_roundtrip(&threads, &payload);
    let b = raw_roundtrip(&reactor, &payload);
    threads.shutdown();
    reactor.shutdown();
    assert_eq!(a, b, "the two connection models must serve identical response bytes");
    assert!(matches!(decode_response(&a), SolveResponse::Ok(_)));
}

// ---------------------------------------------------------------------------
// Unknown solver ids: a well-formed frame naming an out-of-registry id must
// come back as a structured `Unsupported` — never `Malformed`, never a
// closed connection or a hang — in both connection models.
// ---------------------------------------------------------------------------

#[test]
fn unknown_solver_id_is_unsupported_not_malformed() {
    let g = family::cycle(6);
    let w = vec![1u64; 6];
    let req = client::vc_request(SolverId::VC_PN, &[VcInstance::new(&g, &w)]);
    let mut payload = wire::encode_solve_request(&req);
    // Solver byte sits right after the 7-byte header (magic 4, version 2,
    // msg type 1).
    payload[7] = 99;

    for conn_model in [ConnModel::Threads, ConnModel::Reactor] {
        let server = start(conn_model);
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        wire::write_frame(&mut s, &payload).expect("write frame");
        let reply = wire::read_frame(&mut s).expect("read frame").expect("server closed");
        match decode_response(&reply) {
            SolveResponse::Unsupported(msg) => {
                assert_eq!(msg, "unknown solver id 99", "{conn_model:?}")
            }
            other => panic!("{conn_model:?}: expected Unsupported, got {other:?}"),
        }
        // The connection survives and keeps serving well-formed requests.
        wire::write_frame(&mut s, &wire::encode_solve_request(&req)).expect("write frame");
        let reply = wire::read_frame(&mut s).expect("read frame").expect("server closed");
        assert!(matches!(decode_response(&reply), SolveResponse::Ok(_)), "{conn_model:?}");

        // Telemetry classifies it as unsupported, not malformed, and no
        // per-solver counter moved for the unknown id.
        let snap = {
            let mut c = Client::connect(server.local_addr()).expect("metrics client");
            c.metrics().expect("metrics frame")
        };
        assert_eq!(snap.scalar("solve.kind.vc_pn"), Some(1), "{conn_model:?}");
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Cross-validation: every registered solver, across generator families,
// produces a valid cover whose weight respects the advertised factor against
// the exact optimum — and every reply's certificate re-checks client-side.
// ---------------------------------------------------------------------------

#[test]
fn portfolio_cross_validation_against_exact() {
    let server = start(ConnModel::Threads);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    // Sizes are kept small: the matrix below runs every solver on every
    // family, and the broadcast solver simulates rank-table
    // canonicalisation per round — n beyond ~12 costs whole seconds per
    // cell in debug builds without adding coverage.
    let families: Vec<(&str, anonet_sim::Graph)> = vec![
        ("cycle", family::cycle(10)),
        ("regular", family::random_regular(12, 4, 5)),
        ("gnp", family::gnp_capped(12, 0.2, 5, 7)),
        ("tree", family::random_tree(12, 4, 9)),
    ];
    let sc_instances: Vec<(&str, anonet_sim::SetCoverInstance)> = vec![
        ("sc_rand", setcover::random_bounded(12, 8, 2, 3, WeightSpec::Uniform(8), 11)),
        ("sc_kpp", setcover::symmetric_kpp(3, 4)),
    ];

    for desc in portfolio::solvers() {
        match desc.input {
            InstanceKind::VertexCover => {
                for (fam, g) in &families {
                    let w = if desc.weighted {
                        WeightSpec::Uniform(16).draw_many(g.n(), 13)
                    } else {
                        vec![1u64; g.n()]
                    };
                    let req = client::vc_request(desc.id, &[VcInstance::new(g, &w)]);
                    let resp = c.solve(&req).expect("solve");
                    let SolveResponse::Ok(results) = resp else {
                        panic!("{}/{fam}: non-Ok response", desc.name)
                    };
                    let InstanceResult::Solved(s) = &results[0] else {
                        panic!("{}/{fam}: instance error: {results:?}", desc.name)
                    };
                    assert!(
                        is_vertex_cover(g, &s.cover),
                        "{}/{fam}: served assignment is not a vertex cover",
                        desc.name
                    );
                    assert!(
                        certificate_bound_holds(&s.certificate),
                        "{}/{fam}: certificate failed the client-side re-check",
                        desc.name
                    );
                    let opt = min_weight_vertex_cover(g, &w).weight;
                    let cover_w: u64 = (0..g.n()).filter(|&v| s.cover[v]).map(|v| w[v]).sum();
                    assert_eq!(cover_w, s.certificate.cover_weight, "{}/{fam}", desc.name);
                    // The paper's schedules (and PS3's) are fixed by Δ and W:
                    // the served round count must be exactly that schedule.
                    let inst = VcInstance::new(g, &w);
                    let (delta, wmax) = (inst.delta, inst.max_weight);
                    let schedule = match desc.id {
                        SolverId::VC_PN => Some(VcConfig::new(delta, wmax).total_rounds()),
                        SolverId::VC_BCAST => Some(VcBcastConfig::new(delta, wmax).total_rounds()),
                        SolverId::VC_PS3 => Some(PsConfig { delta: delta.max(1) }.total_rounds()),
                        _ => None, // KVY and BCHS stop when the data says so
                    };
                    if let Some(rounds) = schedule {
                        assert_eq!(s.trace.rounds, rounds, "{}/{fam}: round count", desc.name);
                    }
                    assert!(
                        (cover_w as u128) * (desc.factor_den as u128)
                            <= (desc.factor_num as u128) * (opt as u128),
                        "{}/{fam}: w(C) = {cover_w} > {}/{} × OPT = {opt}",
                        desc.name,
                        desc.factor_num,
                        desc.factor_den
                    );
                }
            }
            InstanceKind::SetCover => {
                for (fam, inst) in &sc_instances {
                    let req = client::sc_request(&[inst]);
                    let resp = c.solve(&req).expect("solve");
                    let SolveResponse::Ok(results) = resp else {
                        panic!("{}/{fam}: non-Ok response", desc.name)
                    };
                    let InstanceResult::Solved(s) = &results[0] else {
                        panic!("{}/{fam}: instance error: {results:?}", desc.name)
                    };
                    assert!(
                        inst.is_cover(&s.cover),
                        "{}/{fam}: served assignment is not a set cover",
                        desc.name
                    );
                    assert!(certificate_bound_holds(&s.certificate), "{}/{fam}", desc.name);
                    assert_eq!(
                        inst.cover_weight(&s.cover),
                        s.certificate.cover_weight,
                        "{}/{fam}",
                        desc.name
                    );
                    let (f, k, wmax) = (inst.f().max(1), inst.k().max(1), inst.max_weight().max(1));
                    let rounds = ScConfig::new(f, k, wmax).total_rounds();
                    assert_eq!(s.trace.rounds, rounds, "{}/{fam}: round count", desc.name);
                    let opt = min_weight_set_cover(inst).weight;
                    assert!(
                        (s.certificate.cover_weight as u128)
                            <= (s.certificate.factor as u128) * (opt as u128),
                        "{}/{fam}: w(C) = {} > f = {} × OPT = {opt}",
                        desc.name,
                        s.certificate.cover_weight,
                        s.certificate.factor
                    );
                }
            }
        }
    }
    server.shutdown();
}

/// Any two vertex-cover solvers asked the *same* instance both return valid
/// covers — the portfolio's answers are interchangeable as covers, differing
/// only in weight and rounds.
#[test]
fn portfolio_solvers_agree_on_validity() {
    let server = start(ConnModel::Threads);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let g = family::random_regular(14, 4, 21);
    // Unit weights so the unweighted solver (PS3) is asked the literally
    // identical instance as the weighted ones.
    let w = vec![1u64; 14];
    let instances = [VcInstance::new(&g, &w)];

    let mut covers: Vec<(&'static str, Vec<bool>)> = Vec::new();
    for desc in portfolio::solvers().iter().filter(|d| d.input == InstanceKind::VertexCover) {
        let resp = c.solve(&client::vc_request(desc.id, &instances)).expect("solve");
        let SolveResponse::Ok(results) = resp else { panic!("{}: non-Ok", desc.name) };
        let InstanceResult::Solved(s) = &results[0] else {
            panic!("{}: instance error", desc.name)
        };
        covers.push((desc.name, s.cover.clone()));
    }
    assert!(covers.len() >= 4, "expected at least four vertex-cover solvers in the portfolio");
    for (name, cover) in &covers {
        assert!(is_vertex_cover(&g, cover), "{name}: invalid cover on the shared instance");
    }
    server.shutdown();
}
