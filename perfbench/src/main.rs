//! # perfbench — the served-path benchmark
//!
//! Starts a real `anonet_service::Server` (reactor connection model) on
//! loopback, drives it with its own closed-loop client connections, checks
//! every reply against the instances it sent, and prints one JSON result
//! line with the named metrics and their units.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pn_batch|sc_batch|svc_reuse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets up three times, each with a fresh server, corpus, connections
//! and warm-up, and reports the median as `setup_s`; the last set-up is the
//! one measured. With `--trace 0` it then times one closed-loop window and
//! reports the end-to-end metrics. With `--trace 1` it times an untraced
//! window (read for the server-side counters and as the tracing baseline)
//! and then a traced window that replays each request in process through
//! the layers' public functions, and reports the per-layer metrics; the
//! spans are written to `perfbench/out/`. Host and run metadata go on the
//! line before the result. A reply that fails the client-side gate fails
//! the run: the result line says `"correct": false` and the exit code is 1.
//!
//! The self-test, at tiny sizes, checks the gate against corrupted replies
//! and the emitted metric names and units against `BENCHMARK.json`:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

mod conn;
mod gate;
mod measure;
mod trace;
mod workload;

use anonet_obs::Snapshot;
use anonet_service::{wire, ConnModel, Server, ServiceConfig};
use conn::{drive, Conn, Stop, Window};
use gate::Tally;
use measure::{json_num, json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{name, Span};
use workload::{Item, Spec};

/// End-to-end metrics, reported by `--trace 0` runs.
const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by `--trace 1` runs.
const PER_LAYER: [(&str, &str); 30] = [
    ("client.verify_us_per_req", "us"),
    ("client.remainder_us_per_req", "us"),
    ("wire.encode_req_us", "us"),
    ("wire.decode_req_us", "us"),
    ("wire.decode_resp_us", "us"),
    ("wire.bytes_in_per_req", "bytes"),
    ("wire.bytes_out_per_req", "bytes"),
    ("net.readiness_batch_mean", "count"),
    ("net.epoll_wait_us_mean", "us"),
    ("server.queue_us_mean", "us"),
    ("server.solve_us_mean", "us"),
    ("server.total_us_mean", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.inserts_per_req", "count"),
    ("cache.evictions_per_req", "count"),
    ("canon.decode_us_per_inst", "us"),
    ("engine.us_per_inst", "us"),
    ("engine.ns_per_round", "ns"),
    ("engine.ns_per_msg", "ns"),
    ("engine.rounds_per_inst", "count"),
    ("engine.msgs_per_inst", "count"),
    ("engine.bits_per_inst", "bits"),
    ("engine.share", "ratio"),
    ("pool.fanout_speedup", "ratio"),
    ("certify.us_per_inst", "us"),
    ("certify.share", "ratio"),
    ("bigmath.dual_bits", "bits"),
    ("bigmath.max_msg_bits", "bits"),
    ("encode.us_per_inst", "us"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Parsed command line.
struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("invalid value for {flag}: {value}"));
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    Ok(Args { spec, seed, seconds, trace })
}

/// A fresh server with connected, warmed-up clients.
struct Bench {
    server: Server,
    conns: Vec<Conn>,
    corpus: Vec<Item>,
}

impl Bench {
    fn teardown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

fn setup(spec: &Spec, seed: u64, nconns: usize) -> Result<Bench, String> {
    let defaults = ServiceConfig::default();
    let cfg = ServiceConfig {
        workers: nconns,
        threads_per_job: spec.threads_per_job,
        cache_cap: if spec.cache_cap > 0 { spec.cache_cap } else { defaults.cache_cap },
        conn_model: ConnModel::Reactor,
        ..defaults
    };
    let server = Server::start("127.0.0.1:0", cfg).map_err(|e| format!("server start: {e}"))?;
    let corpus = spec.corpus(seed);
    let mut conns = (0..nconns)
        .map(|id| Conn::connect(server.local_addr(), id, spec.picker(seed, id), spec.depth))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let w = drive(&mut conns, &corpus, spec.cache_cap > 0, Stop::Count(spec.warmup), None);
    if w.failed > 0 {
        return Err(format!("warm-up failed: {}", w.errors.join("; ")));
    }
    Ok(Bench { server, conns, corpus })
}

/// Counter and histogram deltas between two metrics frames.
struct Delta<'a>(&'a Snapshot, &'a Snapshot);

impl Delta<'_> {
    fn scalar(&self, name: &str) -> f64 {
        let v = |s: &Snapshot| s.scalar(name).unwrap_or(0);
        v(self.1) as f64 - v(self.0) as f64
    }

    /// (count, sum) of the observations recorded between the two frames.
    fn histo(&self, name: &str) -> (f64, f64) {
        let v = |s: &Snapshot| s.histo(name).map_or((0, 0), |h| (h.count, h.sum));
        let (a, b) = (v(self.0), v(self.1));
        ((b.0 - a.0) as f64, (b.1 - a.1) as f64)
    }

    fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histo(name);
        div(sum, count)
    }
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// A finished run: what the result line and the metadata line report.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: String,
    errors: Vec<String>,
    spans: Vec<Span>,
}

/// Runs `spec` for one window of `window` (two with `traced`), timing the
/// first set-up from `started`.
fn run(
    spec: &Spec,
    seed: u64,
    window: Duration,
    traced: bool,
    started: Instant,
) -> Result<Report, String> {
    let nconns = spec.conns.min(measure::nproc()).max(1);
    let cache_on = spec.cache_cap > 0;
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    for i in 0..SETUPS {
        if let Some(old) = bench.take() {
            old.teardown();
        }
        let t0 = if i == 0 { started } else { Instant::now() };
        bench = Some(setup(spec, seed, nconns)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut b = bench.expect("at least one set-up");

    let metrics_of = |b: &mut Bench| b.conns[0].metrics().map_err(|e| format!("metrics: {e}"));
    let snap0 = metrics_of(&mut b)?;
    let cpu0 = measure::cpu_ms();
    let t0 = Instant::now();
    let mut w = drive(&mut b.conns, &b.corpus, cache_on, Stop::At(t0 + window), None);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = measure::cpu_ms() - cpu0;
    let snap1 = metrics_of(&mut b)?;

    let tw = if traced {
        let width =
            anonet_sim::pool::clamp_width(anonet_sim::pool::resolve_threads(spec.threads_per_job));
        let epoch = Instant::now();
        Some(drive(
            &mut b.conns,
            &b.corpus,
            cache_on,
            Stop::At(epoch + window),
            Some((epoch, width)),
        ))
    } else {
        None
    };
    b.teardown();

    let lat = sorted(std::mem::take(&mut w.lat_ns));
    let solved = lat.len() as f64;
    if lat.is_empty() {
        return Err(format!("no request completed: {}", w.errors.join("; ")));
    }
    let p50_ns = measure::quantile(&lat, 0.5) as f64;
    let p90_ns = measure::quantile(&lat, 0.9) as f64;
    let beyond_p90 = lat.iter().filter(|&&v| v as f64 > p90_ns).count();
    if beyond_p90 < 10 {
        eprintln!("perfbench: only {beyond_p90} samples beyond p90; lengthen --seconds");
    }
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (w.attempted, w.failed);
    let mut errors = w.errors;
    let mut spans = Vec::new();
    match tw {
        None => {
            values.insert("throughput_rps", solved / wall_s);
            values.insert("latency_p50_ms", p50_ns / 1e6);
            values.insert("latency_p90_ms", p90_ns / 1e6);
            values.insert("cpu_ms_per_req", cpu / solved);
            values.insert("peak_rss_mb", measure::peak_rss_mb());
            values.insert("setup_s", measure::median(&mut setup_s.clone()));
        }
        Some(tw) => {
            attempted += tw.attempted;
            failed += tw.failed;
            layer_metrics(&mut values, &Delta(&snap0, &snap1), &lat, &w.tally, &tw);
            errors.extend(tw.errors);
            spans = tw.spans;
        }
    }
    let table: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(n, u)| (n, *values.get(n).unwrap_or_else(|| panic!("metric {n} not computed")), u))
        .collect();

    let mut meta = String::from("{\"perfbench\": {\"workload\": ");
    json_str(&mut meta, spec.name);
    let _ = write!(
        meta,
        ", \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": ",
        window.as_secs_f64(),
        u8::from(traced),
        measure::nproc()
    );
    json_str(&mut meta, &measure::cpu_model());
    meta.push_str(", \"rustc\": ");
    json_str(&mut meta, env!("PERFBENCH_RUSTC_VERSION"));
    let _ = write!(
        meta,
        ", \"conns\": {nconns}, \"depth\": {}, \"threads_per_job\": {}, \"cache_cap\": {}, \
         \"requests_completed\": {}, \"samples_beyond_p90\": {beyond_p90}, \"setup_s_samples\": [{}]}}}}",
        spec.depth,
        spec.threads_per_job,
        spec.cache_cap,
        lat.len(),
        setup_s.iter().map(|&v| json_num(v)).collect::<Vec<_>>().join(", ")
    );
    Ok(Report { correct: failed == 0, attempted, failed, metrics, meta, errors, spans })
}

/// Fills the per-layer metrics from the untraced window's server deltas,
/// latencies and gate tallies, and the traced window's spans.
fn layer_metrics(
    v: &mut BTreeMap<&str, f64>,
    d: &Delta<'_>,
    lat: &[u64],
    tally: &Tally,
    tw: &Window,
) {
    let solved = lat.len() as f64;
    // The delta also holds the first metrics request itself: subtract its
    // frame sizes, which the encoder fixes exactly.
    let metrics_req = wire::encode_metrics_request().len() as f64;
    let metrics_resp = wire::encode_metrics_response(d.0).len() as f64;
    let server_total_us = div(d.histo("request.total_us").1, solved);
    let mean_lat_us = lat.iter().sum::<u64>() as f64 / solved / 1e3;
    v.insert("client.remainder_us_per_req", mean_lat_us - server_total_us);
    v.insert("wire.bytes_in_per_req", div(d.histo("request.bytes_in").1 - metrics_req, solved));
    v.insert("wire.bytes_out_per_req", div(d.histo("request.bytes_out").1 - metrics_resp, solved));
    v.insert("net.readiness_batch_mean", d.mean("net.readiness_batch"));
    v.insert("net.epoll_wait_us_mean", d.mean("net.epoll_wait_us"));
    v.insert("server.queue_us_mean", div(d.histo("phase.queue_us").1, solved));
    v.insert("server.solve_us_mean", div(d.histo("phase.solve_us").1, solved));
    v.insert("server.total_us_mean", server_total_us);
    let (hits, misses) = (d.scalar("cache_hits"), d.scalar("cache_misses"));
    let evictions = d.scalar("cache_evictions");
    v.insert("cache.hit_ratio", div(hits, hits + misses));
    v.insert("cache.inserts_per_req", div(d.scalar("cache_len") + evictions, solved));
    v.insert("cache.evictions_per_req", div(evictions, solved));

    let inst = tally.instances as f64;
    v.insert("engine.rounds_per_inst", div(tally.rounds as f64, inst));
    v.insert("engine.msgs_per_inst", div(tally.messages as f64, inst));
    v.insert("engine.bits_per_inst", div(tally.bits as f64, inst));
    v.insert("bigmath.dual_bits", div(tally.dual_bits as f64, inst));
    v.insert("bigmath.max_msg_bits", div(tally.max_msg_bits as f64, inst));

    let st = trace::self_times(&tw.spans);
    let ns = |n: &str| st.get(n).map_or(0.0, |&(t, _)| t as f64);
    let reqs = st.get(name::REQUEST).map_or(0.0, |&(_, c)| c as f64);
    let replayed = tw.replayed.instances as f64;
    v.insert("client.verify_us_per_req", div(ns(name::CHECK), reqs) / 1e3);
    v.insert("wire.encode_req_us", div(ns(name::ENCODE_REQ), reqs) / 1e3);
    v.insert("wire.decode_req_us", div(ns(name::DECODE_REQ), reqs) / 1e3);
    v.insert("wire.decode_resp_us", div(ns(name::DECODE_RESP), reqs) / 1e3);
    v.insert("canon.decode_us_per_inst", div(ns(name::CANON), replayed) / 1e3);
    v.insert("engine.us_per_inst", div(ns(name::ENGINE), replayed) / 1e3);
    v.insert("engine.ns_per_round", div(ns(name::ENGINE), tw.replayed.rounds as f64));
    v.insert("engine.ns_per_msg", div(ns(name::ENGINE), tw.replayed.messages as f64));
    v.insert("certify.us_per_inst", div(ns(name::CERTIFY), replayed) / 1e3);
    v.insert("encode.us_per_inst", div(ns(name::ENCODE), replayed) / 1e3);
    let served_path = ns(name::CANON) + ns(name::ENGINE) + ns(name::CERTIFY) + ns(name::ENCODE);
    v.insert("engine.share", div(ns(name::ENGINE), served_path));
    v.insert("certify.share", div(ns(name::CERTIFY), served_path));
    v.insert(
        "pool.fanout_speedup",
        if st.contains_key(name::ENGINE_T1) {
            div(ns(name::ENGINE_T1), ns(name::ENGINE))
        } else {
            1.0
        },
    );
    let traced_lat = sorted(
        tw.spans.iter().filter(|s| s.name == name::SOLVE).map(|s| s.end_ns - s.start_ns).collect(),
    );
    let overhead = if traced_lat.is_empty() {
        0.0
    } else {
        measure::quantile(&traced_lat, 0.5) as f64 / measure::quantile(lat, 0.5) as f64 - 1.0
    };
    v.insert("obs.trace_overhead_frac", overhead);
}

/// Spans written per traced run; the cache workload records far more.
const SPANS_WRITTEN: usize = 100_000;

/// Writes the traced run's earliest spans next to the benchmark's sources.
fn write_spans(spec: &Spec, seed: u64, spans: &mut [Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", spec.name));
    spans.sort_by_key(|s| s.start_ns);
    let shown = spans.len().min(SPANS_WRITTEN);
    let text =
        format!("# first {shown} of {} spans\n{}", spans.len(), trace::render(&spans[..shown]));
    std::fs::write(&path, text)?;
    Ok(path)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let mut report =
        match run(args.spec, args.seed, Duration::from_secs(args.seconds), args.trace, started) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        };
    if args.trace {
        match write_spans(args.spec, args.seed, &mut report.spans) {
            Ok(p) => {
                eprintln!("perfbench: {} spans written to {}", report.spans.len(), p.display())
            }
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for e in &report.errors {
        eprintln!("perfbench: failed request: {e}");
    }
    println!("{}", report.meta);
    println!(
        "{}",
        measure::result_line(report.correct, report.attempted, report.failed, &report.metrics)
    );
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
