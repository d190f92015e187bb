//! Self-test at tiny sizes: the gate rejects corrupted replies, and every
//! run emits exactly the metrics `BENCHMARK.json` names, with their units.

use super::*;
use anonet_service::{Client, InstanceResult, SolveResponse};
use workload::{Shape, SPECS};

/// `spec` shrunk so a run takes a fraction of a second.
fn tiny(spec: &Spec) -> Spec {
    let shape = match spec.shape {
        Shape::Vc { d, .. } => Shape::Vc { n: 16, d },
        Shape::Sc { f, k, .. } => Shape::Sc { elements: 12, subsets: 6, f, k },
    };
    let cache_cap = spec.cache_cap.min(4);
    Spec {
        shape,
        per_req: spec.per_req.min(4),
        corpus: if cache_cap > 0 { 4 * cache_cap } else { 2 },
        warmup: if cache_cap > 0 { 8 } else { 2 },
        cache_cap,
        ..*spec
    }
}

/// A real reply to the first request of `spec`'s tiny corpus.
fn served(spec: &Spec) -> (Item, SolveResponse) {
    let item = tiny(spec).corpus(7).swap_remove(0);
    let server = Server::start("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let resp = Client::connect(server.local_addr()).unwrap().solve(&item.req).unwrap();
    server.shutdown();
    (item, resp)
}

fn corrupt(resp: &SolveResponse, f: impl FnOnce(&mut anonet_service::Solved)) -> SolveResponse {
    let mut resp = resp.clone();
    let SolveResponse::Ok(results) = &mut resp else { panic!("expected an Ok reply") };
    let InstanceResult::Solved(s) = &mut results[0] else { panic!("expected a solved instance") };
    f(s);
    resp
}

#[test]
fn gate_rejects_corrupted_replies() {
    for spec in [&SPECS[0], &SPECS[1]] {
        let (item, resp) = served(spec);
        gate::check(&item, &resp, false).expect("an honest reply passes");
        for bit in 0..4 {
            let flipped = corrupt(&resp, |s| s.cover[bit] = !s.cover[bit]);
            assert!(gate::check(&item, &flipped, false).is_err(), "{}: cover bit {bit}", spec.name);
        }
        let inflated = corrupt(&resp, |s| s.certificate.cover_weight += 1);
        assert!(gate::check(&item, &inflated, false).is_err(), "{}: cover weight", spec.name);
        let rounds = corrupt(&resp, |s| s.trace.rounds -= 1);
        assert!(gate::check(&item, &rounds, false).is_err(), "{}: round count", spec.name);
        let cached = corrupt(&resp, |s| s.from_cache = true);
        assert!(gate::check(&item, &cached, false).is_err(), "{}: cache on bypass", spec.name);
    }
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    for spec in &SPECS {
        assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)), "{} listed", spec.name);
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for spec in &SPECS {
        for traced in [false, true] {
            let r = run(&tiny(spec), 3, Duration::from_millis(150), traced, Instant::now())
                .unwrap_or_else(|e| panic!("{} trace={traced}: {e}", spec.name));
            assert!(r.correct && r.failed == 0 && r.attempted > 0, "{}: {:?}", spec.name, r.errors);
            let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, table, "{} trace={traced}", spec.name);
            let line = measure::result_line(r.correct, r.attempted, r.failed, &r.metrics);
            for &(n, v, u) in &r.metrics {
                assert!(v.is_finite(), "{}: {n} = {v}", spec.name);
                let shown = format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v));
                assert!(line.contains(&shown), "{}: {shown} in {line}", spec.name);
            }
            if traced {
                assert!(!r.spans.is_empty(), "{}: traced run recorded spans", spec.name);
            }
        }
    }
}

#[test]
fn reuse_draw_repeats_per_seed_and_skews() {
    let spec = &SPECS[2];
    let draw = |seed| {
        let mut p = spec.picker(seed, 0);
        (0..4096).map(|_| p.next_index()).collect::<Vec<_>>()
    };
    assert_eq!(draw(5), draw(5));
    assert_ne!(draw(5), draw(6));
    let d = draw(5);
    let mut distinct = d.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() > spec.cache_cap && distinct.len() < d.len() / 2);
}
