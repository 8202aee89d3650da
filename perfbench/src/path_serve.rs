//! Serve path: fault set + pairs → answers over the wire, through
//! `ftc_net::server::Server` serving an archive opened the way
//! `ftc-server` opens it (`ServiceRegistry::open_path`).

use crate::inputs::{edge_pairs, fault_set, Bits, PairPool, Rng};
use crate::path_build::Build;
use crate::stats::{rung_for, OpStats, Samples, Timed};
use crate::trace;
use crate::{ms_since, prov, Check, Metrics};
use ftc_codes::{berlekamp_massey_into, BmScratch, DecodeScratch, ThresholdCodec};
use ftc_core::compressed::{open_path, AnyArchive};
use ftc_core::SessionScratch;
use ftc_field::{find_roots_into, Gf64, RootScratch};
use ftc_graph::connectivity::ConnectivityOracle;
use ftc_graph::Graph;
use ftc_net::client::Client;
use ftc_net::coalesce::CoalesceStats;
use ftc_net::histogram::LatencyHistogram;
use ftc_net::proto::{encode_request, encode_response_ok, RequestView};
use ftc_net::server::{Server, ServerConfig, ServerHandle};
use ftc_serve::{ConnectivityService, ServiceRegistry};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub const GRAPH_ID: &str = "g";
/// Graphs served side by side, each under its own id; requests spread
/// over them. A run's figures then rest on several graphs' structure
/// rather than on one: how costly a graph's heavy decodes are varies from
/// graph to graph by a third at p99.
pub const GRAPHS: usize = 4;
/// The served graphs: each built into a v2 archive, written to a file and
/// opened through `ServiceRegistry::open_path`, as `ftc-server` does.
pub struct Fleet {
    pub graphs: Vec<Graph>,
    pub ids: Vec<String>,
    pub archives: Vec<PathBuf>,
    pub services: Vec<ConnectivityService>,
    pub registry: Arc<ServiceRegistry>,
    /// Total v1 length and total v2 size of the archives.
    pub v1_bytes: usize,
    pub z_bytes: usize,
}

impl Fleet {
    /// Publishes `graphs` with fault budget `f`, archives under `dir`.
    pub fn publish(graphs: Vec<Graph>, f: usize, dir: &Path) -> Fleet {
        let registry = Arc::new(ServiceRegistry::new());
        let mut fleet = Fleet {
            graphs: Vec::new(),
            ids: Vec::new(),
            archives: Vec::new(),
            services: Vec::new(),
            registry: registry.clone(),
            v1_bytes: 0,
            z_bytes: 0,
        };
        for (j, g) in graphs.into_iter().enumerate() {
            // One build thread: a parallel compressed build stages a
            // varying number of levels at once, which would make the peak
            // RSS depend on thread timing.
            let (z, _) = Build::new(&g, f, 1).v2();
            let id = format!("{GRAPH_ID}{j}");
            let path = dir.join(format!("{id}.ftcz"));
            std::fs::write(&path, z.as_bytes()).expect("write archive");
            fleet.v1_bytes += z.view().expect("built v2 opens").v1_len();
            fleet.z_bytes += z.as_bytes().len();
            fleet.services.push(
                registry
                    .open_path(id.as_str(), &path)
                    .expect("served archive opens"),
            );
            fleet.graphs.push(g);
            fleet.ids.push(id);
            fleet.archives.push(path);
        }
        fleet
    }
}

/// The request stream of one serve run: every request carries a fault
/// set not sent before in the run, and a batch of 16 pairs.
pub struct Requests {
    seed: u64,
    f: usize,
    ids: Vec<String>,
    edges: Vec<Vec<(usize, usize)>>,
    pools: Vec<PairPool>,
}

/// Pairs per request.
pub const PAIRS_PER_REQUEST: usize = 16;

impl Requests {
    pub fn new(fleet: &Fleet, f: usize, seed: u64) -> Requests {
        let edges: Vec<_> = fleet.graphs.iter().map(edge_pairs).collect();
        let mut rng = Rng::derived(seed, 0x5E7);
        let pools = fleet
            .graphs
            .iter()
            .map(|g| PairPool::new(&mut rng, g.n(), 8192))
            .collect();
        Requests {
            seed,
            f,
            ids: fleet.ids.clone(),
            edges,
            pools,
        }
    }

    /// Graph, fault set and pair-batch index of request `i` of `phase`.
    fn request(&self, phase: u64, i: u64) -> (usize, Vec<(usize, usize)>, usize) {
        let index = (phase << 40) | i;
        let j = (i % self.edges.len() as u64) as usize;
        let faults = fault_set(&mut Rng::derived(self.seed, index), &self.edges[j], self.f);
        (j, faults, index as usize)
    }

    pub fn pairs(&self, graph: usize, batch: usize) -> Vec<(usize, usize)> {
        self.pools[graph].batch(batch, PAIRS_PER_REQUEST)
    }
}

/// One answered request, kept for the oracle check after the window.
pub struct Rec {
    pub req: u64,
    pub graph: usize,
    pub faults: Vec<(usize, usize)>,
    pub batch: usize,
    pub answers: Bits,
}

/// What one closed-loop window produced.
#[derive(Default)]
pub struct Loop {
    pub lat_ms: Timed,
    pub recs: Vec<Rec>,
    pub errors: u64,
    pub secs: f64,
}

impl Loop {
    pub fn attempted(&self) -> u64 {
        self.recs.len() as u64 + self.errors
    }
}

/// Client- and server-timed statistics of a wire run made of segments,
/// each on a fresh server so that its latency histogram holds exactly the
/// segment. Client statistics are calm quartiles over all whole seconds,
/// server statistics calm quartiles over the segments.
pub struct Segmented {
    pub loops: Vec<Loop>,
    pub client: OpStats,
    pub server: OpStats,
    pub served: u64,
    pub shed: u64,
}

/// Runs `segments` wire windows of `secs / segments` each, starting with
/// the already running `server` and a fresh server for every later one.
pub fn segmented(
    reqs: &Requests,
    fleet: &Fleet,
    server: Running,
    clients: usize,
    secs: f64,
    segments: usize,
) -> Segmented {
    let mut server = Some(server);
    let (mut loops, mut client, mut served) = (Vec::new(), Vec::new(), Vec::new());
    let (mut count, mut shed) = (0, 0);
    for k in 0..segments {
        let running = server
            .take()
            .unwrap_or_else(|| Running::start(fleet.registry.clone()));
        let (wire, delta) = wire_window(reqs, &running, k as u64, clients, secs / segments as f64);
        running.stop();
        let hist = &delta.served_ns;
        let tail = rung_for(hist.count() as usize, 99.0);
        served.push(OpStats {
            per_s: delta.served as f64 / wire.secs,
            p50: interpolated(hist, 0.5) / 1e6,
            tail: interpolated(hist, tail / 100.0) / 1e6,
        });
        client.extend(wire.lat_ms.seconds(wire.secs, 99.0));
        count += delta.served;
        shed += delta.shed();
        loops.push(wire);
    }
    let client = if client.is_empty() {
        // Segments shorter than a second: whole-segment statistics.
        let mut all = Timed::default();
        for l in &loops {
            all.extend(&l.lat_ms);
        }
        let secs: f64 = loops.iter().map(|l| l.secs).sum();
        OpStats::whole(&mut all.all(), all.len() as f64 / secs, 99.0)
    } else {
        OpStats::calm_of(&client)
    };
    Segmented {
        loops,
        client,
        server: OpStats::calm_of(&served),
        served: count,
        shed,
    }
}

/// Quantile `q` of a latency histogram, interpolated linearly within its
/// bucket by the target's rank among the bucket's samples. The histogram
/// reports bucket floors only (log-linear buckets, 32 per power of two),
/// which would make a steady figure read exactly the same run after run.
fn interpolated(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return f64::NAN;
    }
    // The histogram's own rank rule, and the floor of the bucket holding
    // a given 1-based rank.
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let floor_at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let lo = floor_at(rank);
    // First and last ranks in that bucket (floors rise with rank).
    let (mut a, mut b) = (1, rank);
    while a < b {
        let mid = (a + b) / 2;
        if floor_at(mid) < lo {
            a = mid + 1
        } else {
            b = mid
        }
    }
    let first = a;
    let (mut a, mut b) = (rank, n);
    while a < b {
        let mid = (a + b).div_ceil(2);
        if floor_at(mid) > lo {
            b = mid - 1
        } else {
            a = mid
        }
    }
    let last = a;
    // A bucket at or above 32 spans 2^(bit length - 5) values.
    let bits = u64::BITS - lo.leading_zeros();
    let width = if lo < 32 { 1 } else { 1u64 << (bits - 5) };
    lo as f64 + width as f64 * ((rank - first) as f64 + 0.5) / (last - first + 1) as f64
}

/// Runs `clients` closed-loop clients over loopback TCP, one connection
/// and one request in flight each, for `secs`.
fn closed_loop(reqs: &Requests, addr: SocketAddr, phase: u64, clients: usize, secs: f64) -> Loop {
    let counter = AtomicU64::new(0);
    let start = Instant::now();
    let parts: Vec<Loop> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let counter = &counter;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the loopback server");
                    let mut out = Loop::default();
                    while start.elapsed().as_secs_f64() < secs {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        let (graph, faults, batch) = reqs.request(phase, i);
                        let pairs = reqs.pairs(graph, batch);
                        let req = trace::next_req();
                        let t = Instant::now();
                        let result = {
                            let _op = trace::root("request", req);
                            client.query(&reqs.ids[graph], &faults, &pairs)
                        };
                        match result {
                            Ok(answers) => {
                                out.lat_ms.push(start.elapsed().as_secs_f64(), ms_since(t));
                                out.recs.push(Rec {
                                    req,
                                    graph,
                                    faults,
                                    batch,
                                    answers: Bits::pack(&answers),
                                });
                            }
                            Err(e) => {
                                out.errors += 1;
                                eprintln!("perfbench: request failed: {e}");
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Loop {
        secs: start.elapsed().as_secs_f64(),
        ..Loop::default()
    };
    for p in parts {
        all.lat_ms.extend(&p.lat_ms);
        all.recs.extend(p.recs);
        all.errors += p.errors;
    }
    all
}

/// A running in-process server.
pub struct Running {
    pub handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    pub fn start(registry: Arc<ServiceRegistry>) -> Running {
        let server = Server::bind(registry, "127.0.0.1:0", ServerConfig::default())
            .expect("bind a loopback port");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Running { handle, thread }
    }

    /// Drains and joins the server.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server exits cleanly");
    }
}

/// Server-side counters over one window.
pub struct ServerDelta {
    pub coalesce: CoalesceStats,
    pub served: u64,
    pub served_ns_sum: f64,
    pub shed_connections: u64,
    /// Service time of every request the server has answered, the
    /// window's included (frame receipt to answer encoded).
    pub served_ns: LatencyHistogram,
}

impl ServerDelta {
    /// Requests and connections the server shed.
    pub fn shed(&self) -> u64 {
        self.coalesce.shed + self.shed_connections
    }
}

fn snapshot(h: &ServerHandle) -> ServerDelta {
    let hist = h.served_latency();
    ServerDelta {
        coalesce: h.stats(),
        served: hist.count(),
        served_ns_sum: hist.mean() * hist.count() as f64,
        shed_connections: h.server_stats().shed_connections,
        served_ns: hist,
    }
}

/// Closed-loop clients over loopback TCP, one connection each.
pub fn wire_window(
    reqs: &Requests,
    server: &Running,
    phase: u64,
    clients: usize,
    secs: f64,
) -> (Loop, ServerDelta) {
    let before = snapshot(&server.handle);
    let out = closed_loop(reqs, server.handle.addr(), phase, clients, secs);
    let after = snapshot(&server.handle);
    let c = |f: fn(&CoalesceStats) -> u64| f(&after.coalesce) - f(&before.coalesce);
    let delta = ServerDelta {
        coalesce: CoalesceStats {
            requests: c(|s| s.requests),
            coalesced: c(|s| s.coalesced),
            batches: c(|s| s.batches),
            pairs: c(|s| s.pairs),
            shed: c(|s| s.shed),
        },
        served: after.served - before.served,
        served_ns_sum: after.served_ns_sum - before.served_ns_sum,
        shed_connections: after.shed_connections - before.shed_connections,
        served_ns: after.served_ns,
    };
    (out, delta)
}

/// Checks every recorded answer against the BFS oracle, one oracle
/// preparation per distinct (graph, fault set), split over `nproc`
/// threads. Returns the requests with at least one wrong answer, and how
/// many requests repeated a fault set.
fn verify(fleet: &Fleet, reqs: &Requests, loops: &[&Loop]) -> (u64, u64) {
    type Key<'a> = (usize, &'a [(usize, usize)]);
    let mut by_set: HashMap<Key, Vec<&Rec>> = HashMap::new();
    let mut sent = 0u64;
    for l in loops {
        for r in &l.recs {
            by_set.entry((r.graph, &r.faults)).or_default().push(r);
            sent += 1;
        }
    }
    let repeats = sent - by_set.len() as u64;
    let groups: Vec<_> = by_set.into_iter().collect();
    let chunk = groups.len().div_ceil(prov::nproc()).max(1);
    let wrong = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut oracles: Vec<_> =
                        fleet.graphs.iter().map(ConnectivityOracle::new).collect();
                    let mut wrong = 0;
                    for ((graph, faults), recs) in part {
                        let oracle = &mut oracles[*graph];
                        oracle.prepare_pairs(faults);
                        for r in recs {
                            let want: Vec<bool> = reqs
                                .pairs(*graph, r.batch)
                                .iter()
                                .map(|&(s, t)| oracle.connected(s, t))
                                .collect();
                            wrong += u64::from(r.answers != Bits::pack(&want));
                        }
                    }
                    wrong
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .sum()
    });
    (wrong, repeats)
}

/// Correctness of a serve run: every answer against the oracle; errors,
/// sheds and wrong answers fail. A repeated fault set breaks the
/// workload's premise and fails too.
pub fn check(fleet: &Fleet, reqs: &Requests, loops: &[&Loop], shed: u64) -> Check {
    let (wrong, repeats) = verify(fleet, reqs, loops);
    Check {
        attempted: loops.iter().map(|l| l.attempted()).sum(),
        failed: loops.iter().map(|l| l.errors).sum::<u64>() + wrong + shed + repeats,
    }
}

/// Per-layer metrics of the serve path: the traced wire window's server
/// counters and spans, then in-process replays of its requests.
pub fn layers(reqs: &Requests, fleet: &Fleet, wire: &Loop, delta: &ServerDelta, m: &mut Metrics) {
    let replay: Vec<&Rec> = wire.recs.iter().take(2000).collect();

    // The service end to end, uncontended; tied to the wire requests.
    let mut query_us = Samples::new();
    for r in &replay {
        let pairs = reqs.pairs(r.graph, r.batch);
        let t = Instant::now();
        let _s = trace::root("serve.query", r.req);
        let svc = &fleet.services[r.graph];
        std::hint::black_box(svc.query(&r.faults, &pairs).expect("replayed query"));
        query_us.push(ms_since(t) * 1e3);
    }
    m.put("serve.query_us_p50", query_us.median(), "us");
    m.put("serve.query_us_p99", query_us.pct(99.0), "us");

    // Session build and answering on the archive view itself.
    let views: Vec<_> = fleet
        .archives
        .iter()
        .map(
            |path| match open_path(path).expect("served archive opens") {
                AnyArchive::V2(view) => view,
                AnyArchive::V1(_) => panic!("served archives are v2"),
            },
        )
        .collect();
    let mut scratch = SessionScratch::new();
    let (mut session_us, mut cuts, mut answer_ns, mut answered) =
        (Samples::new(), Samples::new(), 0.0, 0usize);
    let mut out = Vec::new();
    for r in &replay {
        let view = &views[r.graph];
        let t = Instant::now();
        let session = {
            let _s = trace::root("core.session", trace::next_req());
            view.session_in(r.faults.iter().copied(), &mut scratch)
                .expect("replayed session")
        };
        session_us.push(ms_since(t) * 1e3);
        cuts.push(session.fragments().num_cuts() as f64);
        let pairs: Vec<_> = reqs
            .pairs(r.graph, r.batch)
            .into_iter()
            .map(|(s, t)| {
                let v = |x| view.vertex(x).ok().flatten().expect("pair vertex in range");
                (v(s), v(t))
            })
            .collect();
        let t = Instant::now();
        {
            let _s = trace::root("core.answer", trace::next_req());
            session
                .connected_many(&pairs, &mut out)
                .expect("replayed answers");
        }
        answer_ns += ms_since(t) * 1e6;
        answered += pairs.len();
        scratch.recycle(session);
    }
    m.put("core.session_us_p50", session_us.median(), "us");
    m.put("core.session_us_p99", session_us.pct(99.0), "us");
    m.put("core.cuts_per_session", cuts.mean(), "count");
    m.put("core.answer_ns_per_pair", answer_ns / answered as f64, "ns");

    decode_layers(views[0].k(), m);

    // Wire codec on this stream's frames.
    let frames: Vec<Vec<u8>> = replay
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            let pairs = reqs.pairs(r.graph, r.batch);
            encode_request(&mut buf, r.req, &reqs.ids[r.graph], 0, &r.faults, &pairs)
                .expect("frame fits");
            buf
        })
        .collect();
    let t = Instant::now();
    for f in &frames {
        let v = RequestView::parse(&f[4..]).expect("own frame parses");
        std::hint::black_box(v.faults().count() + v.pairs().count());
    }
    m.put(
        "net.proto_parse_us",
        ms_since(t) * 1e3 / frames.len() as f64,
        "us",
    );
    let mut buf = Vec::new();
    let t = Instant::now();
    for r in &replay {
        buf.clear();
        encode_response_ok(&mut buf, r.req, &r.answers.unpack(), None).expect("response fits");
        std::hint::black_box(&buf);
    }
    m.put(
        "net.proto_encode_us",
        ms_since(t) * 1e3 / replay.len() as f64,
        "us",
    );

    let requests = delta.coalesce.requests.max(1) as f64;
    m.put(
        "net.server_mean_ms",
        delta.served_ns_sum / delta.served.max(1) as f64 / 1e6,
        "ms",
    );
    m.put(
        "net.coalesced_frac",
        delta.coalesce.coalesced as f64 / requests,
        "frac",
    );
    m.put(
        "net.sessions_per_request",
        delta.coalesce.batches as f64 / requests,
        "ratio",
    );
    m.put("net.shed", delta.shed() as f64, "count");
    m.put("net.errors", wire.errors as f64, "count");
}

/// Decode, Berlekamp–Massey and root finding on syndromes of `d` edges
/// at threshold `k`, for `d = 1..=4`.
fn decode_layers(k: usize, m: &mut Metrics) {
    const NAMES: [[&str; 3]; 4] = [
        ["codes.decode_us_d1", "codes.bm_us_d1", ""],
        ["codes.decode_us_d2", "codes.bm_us_d2", "field.roots_us_d2"],
        ["codes.decode_us_d3", "codes.bm_us_d3", "field.roots_us_d3"],
        ["codes.decode_us_d4", "codes.bm_us_d4", "field.roots_us_d4"],
    ];
    let codec = ThresholdCodec::new(k);
    let mut rng = Rng::new(k as u64);
    let (mut ds, mut bs, mut rs) = (
        DecodeScratch::default(),
        BmScratch::default(),
        RootScratch::default(),
    );
    let (mut out, mut roots) = (Vec::new(), Vec::new());
    for (d, [decode, bm, root]) in (1..=4).zip(NAMES) {
        let syndromes: Vec<Vec<Gf64>> = (0..400)
            .map(|_| {
                let mut s = codec.zero_syndrome();
                let mut ids = HashSet::new();
                while ids.len() < d {
                    ids.insert(rng.next_u64() | 1);
                }
                for id in ids {
                    codec.accumulate_edge(&mut s, Gf64::new(id));
                }
                s
            })
            .collect();
        // The decoder's ladder first succeeds at the smallest power of
        // two ≥ d; Berlekamp–Massey and the root finder see that prefix.
        let prefix = 2 * d.next_power_of_two().min(k);
        let time_us = |f: &mut dyn FnMut(&[Gf64])| {
            let t = Instant::now();
            for s in &syndromes {
                f(s);
            }
            ms_since(t) * 1e3 / syndromes.len() as f64
        };
        let us = time_us(&mut |s| {
            codec
                .decode_adaptive_into(s, &mut ds, &mut out)
                .expect("decodable syndrome");
            assert_eq!(out.len(), d, "decoded the planted edges");
        });
        m.put(decode, us, "us");
        m.put(
            bm,
            time_us(&mut |s| {
                std::hint::black_box(berlekamp_massey_into(&s[..prefix], &mut bs));
            }),
            "us",
        );
        if d >= 2 {
            let locators: Vec<Vec<Gf64>> = syndromes
                .iter()
                .map(|s| {
                    berlekamp_massey_into(&s[..prefix], &mut bs);
                    bs.c.clone()
                })
                .collect();
            let t = Instant::now();
            for c in &locators {
                assert!(find_roots_into(c, &mut rs, &mut roots), "locator splits");
            }
            m.put(root, ms_since(t) * 1e3 / locators.len() as f64, "us");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_in_the_bucket_and_tracks_rank() {
        let mut h = LatencyHistogram::new();
        // 1000 samples spread over 100_000..130_000 ns, one magnitude.
        for i in 0..1000u64 {
            h.record(100_000 + 30 * i);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let exact = 100_000.0 + 30.0 * ((q * 1000.0_f64).ceil() - 1.0);
            let got = interpolated(&h, q);
            let floor = h.quantile(q) as f64;
            assert!(got >= floor, "q={q}: {got} below floor {floor}");
            // One bucket here is 2^12 = 4096 ns wide.
            assert!(got < floor + 4096.0, "q={q}: {got} past the bucket");
            assert!((got - exact).abs() < 4096.0, "q={q}: {got} vs {exact}");
        }
        assert!(interpolated(&h, 0.5) < interpolated(&h, 0.51));
        assert!(interpolated(&LatencyHistogram::new(), 0.5).is_nan());
        let mut one = LatencyHistogram::new();
        one.record(7);
        assert_eq!(interpolated(&one, 0.99), 7.5);
    }
}
