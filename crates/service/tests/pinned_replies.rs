//! Pins the served reply bytes to recorded digests, so a change that moves
//! both connection models the same way (the differential test in
//! `reactor_model.rs` would not notice) still fails here. Plus the flight
//! recorder's outcome labels, read back from the debug dump.

use anonet_core::canon::{self, fnv64};
use anonet_gen::{family, setcover, WeightSpec};
use anonet_service::{
    client, wire, Client, ConnModel, Scenario, Server, ServiceConfig, SolveRequest, SolveResponse,
    SolverId,
};
use std::net::{SocketAddr, TcpStream};

fn start(model: ConnModel, threads_per_job: usize) -> Server {
    let cfg = ServiceConfig {
        conn_model: model,
        workers: 2,
        threads_per_job,
        ..ServiceConfig::default()
    };
    Server::start("127.0.0.1:0", cfg).expect("bind loopback")
}

/// The request stream of `reactor_model.rs`'s differential test, frame for
/// frame: every solver, cache hits, per-instance errors, an async scenario,
/// the `Unsupported` rejections and a malformed frame.
fn stream() -> Vec<Vec<u8>> {
    let g1 = family::petersen();
    let w1 = WeightSpec::Uniform(9).draw_many(10, 3);
    let g2 = family::grid(4, 3);
    let w2 = WeightSpec::LogUniform(1 << 10).draw_many(12, 5);
    let vc_blobs = vec![
        canon::encode_vc(&g1, &w1, g1.max_degree().max(1), 9),
        canon::encode_vc(&g2, &w2, g2.max_degree().max(1), 1 << 10),
        vec![0xFF; 3],
    ];
    let vc = SolveRequest::new(SolverId::VC_PN, vc_blobs);
    let sc_inst = setcover::random_bounded(14, 10, 2, 3, WeightSpec::Uniform(8), 21);
    let sc = client::sc_request(&[&sc_inst]);
    let bcast = SolveRequest::new(SolverId::VC_BCAST, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    let unit = canon::encode_vc(&g1, &[1u64; 10], g1.max_degree().max(1), 1);
    let ps3 = SolveRequest::new(SolverId::VC_PS3, vec![unit.clone()]);
    let kvy = SolveRequest::new(SolverId::VC_KVY, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    let bchs = SolveRequest::new(SolverId::VC_BCHS, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    let ps3_weighted = SolveRequest::new(SolverId::VC_PS3, vec![canon::encode_vc(&g1, &w1, 3, 9)]);
    let mut unknown_solver = wire::encode_solve_request(&ps3);
    unknown_solver[7] = 0xEE;
    vec![
        wire::encode_solve_request(&vc),
        wire::encode_solve_request(&vc),
        wire::encode_solve_request(&vc.clone().no_cache()),
        wire::encode_solve_request(&sc),
        wire::encode_solve_request(&bcast),
        wire::encode_solve_request(&ps3),
        wire::encode_solve_request(&kvy),
        wire::encode_solve_request(&bchs),
        wire::encode_solve_request(&ps3_weighted),
        unknown_solver,
        wire::encode_solve_request(&vc.clone().with_scenario(Scenario::LossyRadio, 42)),
        wire::encode_solve_request(&kvy.clone().with_scenario(Scenario::Ideal, 7)),
        wire::encode_solve_request(&bcast.clone().with_scenario(Scenario::Ideal, 1)),
        b"ANSVxxxxxx".to_vec(),
    ]
}

/// Sends `frames` in order on one connection and returns the reply frames.
fn roundtrip_raw(addr: SocketAddr, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    frames
        .iter()
        .map(|f| {
            wire::write_frame(&mut s, f).unwrap();
            wire::read_frame(&mut s).unwrap().expect("server must reply, not close")
        })
        .collect()
}

/// FNV-1a 64 of each reply of [`stream`]. A change that moves any reply
/// byte must update these on purpose, saying why.
const PINNED: [u64; 14] = [
    0x6d7dfeb8a9abd1e1,
    0x6391f1cd4055d059,
    0x6d7dfeb8a9abd1e1,
    0x222744f2c9b16c39,
    0xb147622302bd053b,
    0x185c6237f9ec4ead,
    0x905688300263e5a0,
    0x6aa0ef61b73f63db,
    0xd9015a33dbe8f7c9,
    0xdc54b20b1a3a9ef7,
    0x91e510c4d4201556,
    0x587303231bf82e53,
    0x2e13256ac8f4bb90,
    0xf4d877b2c574c308,
];

#[test]
fn replies_match_the_pinned_digests_under_both_models_and_widths() {
    let frames = stream();
    for model in [ConnModel::Threads, ConnModel::Reactor] {
        for width in [1, 2] {
            let server = start(model, width);
            let got: Vec<u64> =
                roundtrip_raw(server.local_addr(), &frames).iter().map(|r| fnv64(r)).collect();
            server.shutdown();
            for (i, (g, w)) in got.iter().zip(&PINNED).enumerate() {
                assert_eq!(
                    g, w,
                    "{model:?} t{width}: reply {i} moved ({g:#018x}, pinned {w:#018x})"
                );
            }
        }
    }
}

#[test]
fn a_mode_the_solver_rejects_is_recorded_unsupported() {
    let g = family::petersen();
    let blob = canon::encode_vc(&g, &[2u64; 10], 3, 2);
    let req = SolveRequest::new(SolverId::VC_KVY, vec![blob]).with_scenario(Scenario::Ideal, 7);
    for model in [ConnModel::Threads, ConnModel::Reactor] {
        let server = start(model, 1);
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(c.solve(&req).unwrap(), SolveResponse::Unsupported(_)), "{model:?}");
        let dump = c.debug_dump().unwrap();
        server.shutdown();
        let rec = dump
            .split("{\"t_unix_ms\"")
            .find(|r| r.contains("\"problem\":\"vc_kvy\""))
            .unwrap_or_else(|| panic!("{model:?}: no vc_kvy record in {dump}"));
        assert!(rec.contains("\"outcome\":\"unsupported\""), "{model:?}: {rec}");
    }
}
