//! The benchmark's client: closed-loop connections that keep a fixed number
//! of solve requests in flight, framed with the same `wire` calls as
//! `anonet_service::Client::solve`, and the loop that drives them.
//!
//! With one request in flight a connection behaves exactly like
//! `Client::solve`. The reuse workload keeps several in flight per
//! connection (the reactor answers pipelined requests in order), so both
//! cores stay busy and the measurement is not dominated by how fast the
//! host wakes an idle core.

use crate::gate::{self, Tally};
use crate::trace::{self, name, Replayed, Span, Spans};
use crate::workload::{Item, Picker};
use anonet_core::canon::ByteReader;
use anonet_obs::Snapshot;
use anonet_service::wire;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One closed-loop connection and its request order.
pub struct Conn {
    id: usize,
    stream: TcpStream,
    picker: Picker,
    depth: usize,
}

impl Conn {
    /// Connects to `addr`; `depth` requests stay in flight.
    pub fn connect(addr: SocketAddr, id: usize, picker: Picker, depth: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { id, stream, picker, depth: depth.max(1) })
    }

    /// Reads one reply frame, checks its message type, and decodes the body.
    fn read_reply<T>(
        &mut self,
        want: u8,
        decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, wire::WireError>,
    ) -> io::Result<T> {
        let reply = wire::read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let mut r = ByteReader::new(&reply);
        let t = wire::read_header(&mut r)?;
        if t != want {
            return Err(wire::WireError::BadMessageType(t).into());
        }
        Ok(decode(&mut r)?)
    }

    /// Fetches the server's metrics frame (nothing may be in flight).
    pub fn metrics(&mut self) -> io::Result<Snapshot> {
        wire::write_frame(&mut self.stream, &wire::encode_metrics_request())?;
        self.read_reply(wire::MSG_METRICS_RESPONSE, wire::decode_metrics_response)
    }
}

/// When a connection stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    Count(usize),
    /// At this instant; requests in flight then are still answered.
    At(Instant),
}

/// What the connections did in one window.
#[derive(Default)]
pub struct Window {
    /// Latency of every reply that passed the gate, in ns.
    pub lat_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: transport errors, `Busy`, `Malformed`,
    /// `Unsupported`, instance errors, or a reply the gate rejected.
    pub failed: u64,
    /// Gate tallies of the replies that passed.
    pub tally: Tally,
    /// Replay counts (traced windows).
    pub replayed: Replayed,
    /// Spans (traced windows).
    pub spans: Vec<Span>,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Window {
    fn merge(&mut self, o: Window) {
        self.lat_ns.extend(o.lat_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.tally.add(&o.tally);
        self.replayed.add(&o.replayed);
        self.spans.extend(o.spans);
        self.errors.extend(o.errors);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(msg);
        }
    }
}

/// Spans one connection records before it stops sending: this bounds a
/// traced window's memory (the cache workload would record millions).
const MAX_SPANS: usize = 250_000;

/// A request on the wire: its corpus index, send time, and (traced) the
/// handles of its root and `client.solve` spans.
struct InFlight {
    item: usize,
    sent: Instant,
    rid: u64,
    spans: Option<(usize, usize)>,
}

/// Runs every connection's closed loop on its own thread until `stop`.
/// `trace` carries the span epoch and the replay's engine width.
pub fn drive(
    conns: &mut [Conn],
    corpus: &[Item],
    cache_on: bool,
    stop: Stop,
    trace: Option<(Instant, usize)>,
) -> Window {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || drive_conn(c, corpus, cache_on, stop, trace)))
            .collect();
        let mut w = Window::default();
        for h in handles {
            w.merge(h.join().expect("connection thread panicked"));
        }
        w
    })
}

fn drive_conn(
    c: &mut Conn,
    corpus: &[Item],
    cache_on: bool,
    stop: Stop,
    trace: Option<(Instant, usize)>,
) -> Window {
    let mut w = Window::default();
    let mut sp = trace.map(|(epoch, _)| Spans::new(epoch));
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    loop {
        while inflight.len() < c.depth {
            let more = match stop {
                Stop::Count(n) => (w.attempted as usize) < n,
                Stop::At(t) => Instant::now() < t,
            } && sp.as_ref().is_none_or(|sp| sp.spans.len() < MAX_SPANS);
            if !more {
                break;
            }
            let item = c.picker.next_index();
            w.attempted += 1;
            let rid = ((c.id as u64 + 1) << 40) | w.attempted;
            let spans = sp.as_mut().map(|sp| {
                let root = sp.begin(rid, 0, name::REQUEST);
                (root, sp.begin(rid, sp.id(root), name::SOLVE))
            });
            let sent = Instant::now();
            let payload = wire::encode_solve_request(&corpus[item].req);
            if let Err(e) = wire::write_frame(&mut c.stream, &payload) {
                w.fail(format!("send: {e}"));
                return finish(w, sp);
            }
            inflight.push_back(InFlight { item, sent, rid, spans });
        }
        let Some(f) = inflight.pop_front() else { break };
        let resp = match c.read_reply(wire::MSG_SOLVE_RESPONSE, wire::decode_solve_response) {
            Ok(r) => r,
            Err(e) => {
                w.fail(format!("receive: {e}"));
                return finish(w, sp);
            }
        };
        let lat = f.sent.elapsed().as_nanos() as u64;
        let item = &corpus[f.item];
        let checked = match (&mut sp, f.spans) {
            (Some(sp), Some((root, solve))) => {
                sp.end(solve);
                let parent = sp.id(root);
                let width = trace.map_or(1, |t| t.1);
                let out = trace::replay(sp, f.rid, parent, item, &resp, width).and_then(|rep| {
                    let t =
                        sp.span(f.rid, parent, name::CHECK, || gate::check(item, &resp, cache_on));
                    t.map(|t| (t, rep))
                });
                sp.end(root);
                out
            }
            _ => gate::check(item, &resp, cache_on).map(|t| (t, Replayed::default())),
        };
        match checked {
            Ok((t, rep)) => {
                w.lat_ns.push(lat);
                w.tally.add(&t);
                w.replayed.add(&rep);
            }
            Err(e) => w.fail(e),
        }
    }
    finish(w, sp)
}

fn finish(mut w: Window, sp: Option<Spans>) -> Window {
    if let Some(sp) = sp {
        w.spans = sp.spans;
    }
    w
}
