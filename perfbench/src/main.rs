//! End-to-end benchmark of the labeling scheme's build, serve and churn
//! paths, with a traced mode that breaks each path into its layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build|serve-distinct|churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The lines
//! before it print each metric with its unit and the provenance block.
//! NOTES.md beside this file says why each workload exists and which
//! end-to-end metric each layer metric should move.

mod inputs;
mod json;
mod path_build;
mod path_churn;
mod path_serve;
mod prov;
mod stats;
mod trace;

use ftc_graph::{generators, Graph};
use json::Json;
use path_build::Build;
use path_churn::Churn;
use path_serve::{Fleet, Requests, Running};
use stats::{median, OpStats, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Wire segments of a serve run, each on a fresh server.
const SEGMENTS: usize = 10;
/// Length of each probe window run on another path's inputs (traced
/// mode only).
const PROBE_SECS: f64 = 1.5;
/// Scratch space inside the checkout: temp archives and trace files.
const WORK_DIR: &str = ".perfbench";

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Operations attempted and failed (errors, sheds, wrong answers,
/// recovery divergence).
#[derive(Clone, Copy, Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics with units, in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name: both are bugs here.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(json::valid_name(name), "bad metric name {name:?}");
        assert!(
            self.items.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.items.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.items
                .iter()
                .map(|(n, v, u)| (n.clone(), Json::obj().with("value", *v).with("unit", *u)))
                .collect(),
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Build,
    ServeDistinct,
    Churn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Build, Workload::ServeDistinct, Workload::Churn];

    fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::ServeDistinct => "serve-distinct",
            Workload::Churn => "churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end metrics shared by every workload: `op` is the workload's
/// primary operation, `op2` its second one.
fn end_to_end(
    m: &mut Metrics,
    setup: &[f64],
    op: OpStats,
    op2: OpStats,
    archive_bytes: f64,
    archive_z_bytes: f64,
) {
    m.put("setup_s", median(setup), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("ops_per_s", op.per_s, "1/s");
    m.put("op_p50_ms", op.p50, "ms");
    m.put("op_tail_ms", op.tail, "ms");
    m.put("op2_per_s", op2.per_s, "1/s");
    m.put("op2_p50_ms", op2.p50, "ms");
    m.put("op2_tail_ms", op2.tail, "ms");
    m.put("archive_bytes", archive_bytes, "bytes");
    m.put("archive_z_bytes", archive_z_bytes, "bytes");
}

/// Traced-mode metrics of the workload's own path: the cost of tracing
/// (traced over untraced median of the primary op, minus one) and the
/// share of the primary op's spans that layer spans account for.
fn trace_metrics(
    m: &mut Metrics,
    untraced: &mut Samples,
    traced: &mut Samples,
    spans: &[trace::Span],
    op: &str,
) {
    m.put(
        "trace.overhead_frac",
        traced.median() / untraced.median() - 1.0,
        "frac",
    );
    m.put("trace.coverage", trace::coverage(spans, op), "frac");
}

struct Outcome {
    check: Check,
    metrics: Metrics,
    spans: Vec<trace::Span>,
    details: Json,
}

/// Each path's standard inputs: the graph of its workload and its fault
/// budget. The build and churn paths share one graph family.
const BUILD_F: usize = 2;
const SERVE_F: usize = 4;
const CHURN_F: usize = 2;
/// Threshold of the dynamic scheme (randomized halving hierarchy).
const CHURN_K: usize = 24;

fn large_graph(seed: u64) -> Graph {
    generators::random_connected(20_000, 10_000, seed)
}

/// The serve inputs: one small graph per served id.
fn small_graphs(seed: u64) -> Vec<Graph> {
    (0..path_serve::GRAPHS as u64)
        .map(|j| {
            generators::random_connected(2_000, 6_000, inputs::Rng::derived(seed, j).next_u64())
        })
        .collect()
}

/// Client threads and connections: two, or fewer on a smaller machine.
fn clients() -> usize {
    prov::nproc().min(2)
}

/// Traced mode measures every layer on every workload: the layers of
/// the paths the workload does not run are measured by a short traced
/// window of each such path on that path's standard inputs.
fn probes(
    own: Workload,
    seed: u64,
    dir: &Path,
    m: &mut Metrics,
    spans: &mut Vec<trace::Span>,
) -> Check {
    let mut check = Check::default();
    if own != Workload::Build {
        let g = large_graph(seed);
        let b = Build::new(&g, BUILD_F, prov::nproc());
        let w = path_build::window(&b, PROBE_SECS);
        let own = trace::take();
        path_build::layers(&b, &w, &own, dir, m);
        spans.extend(own);
        check.add(path_build::verify(&g, BUILD_F, seed, &w));
    }
    if own != Workload::ServeDistinct {
        let fleet = Fleet::publish(small_graphs(seed), SERVE_F, dir);
        let server = Running::start(fleet.registry.clone());
        let reqs = Requests::new(&fleet, SERVE_F, seed);
        let (wire, delta) = path_serve::wire_window(&reqs, &server, 0, clients(), PROBE_SECS);
        server.stop();
        path_serve::layers(&reqs, &fleet, &wire, &delta, m);
        spans.extend(trace::take());
        check.add(path_serve::check(&fleet, &reqs, &[&wire], delta.shed()));
    }
    if own != Workload::Churn {
        let g = large_graph(seed);
        let sub = dir.join("churn-probe");
        std::fs::create_dir_all(&sub).expect("probe dir");
        let mut c = Churn::setup(&g, CHURN_F, CHURN_K, seed, &sub);
        let w = c.window(PROBE_SECS);
        let own = trace::take();
        let (vc, recover_s, _) = c.verify(&[&w]);
        check.add(vc);
        c.layers(&w, &own, recover_s, m);
        spans.extend(own);
    }
    check
}

fn run_build(args: &Args, dir: &Path) -> Outcome {
    let threads = prov::nproc();
    let mut setup = Vec::new();
    let mut g = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let graph = large_graph(args.seed);
        std::hint::black_box(Build::new(&graph, BUILD_F, threads).v1());
        setup.push(ms_since(t) / 1e3);
        g = Some(graph);
    }
    let g = g.expect("set up at least once");
    let b = Build::new(&g, BUILD_F, threads);
    let mut m = Metrics::default();
    let mut spans = Vec::new();
    let secs = args.seconds as f64;
    let mut details = Json::obj();
    let mut check = Check::default();
    if args.trace {
        let mut w0 = path_build::window(&b, secs / 2.0);
        check.add(path_build::verify(&g, BUILD_F, args.seed, &w0));
        trace::set_enabled(true);
        let w = path_build::window(&b, secs / 2.0);
        let own = trace::take();
        path_build::layers(&b, &w, &own, dir, &mut m);
        let mut traced = trace::durations_ms(&own, "build.v1");
        trace_metrics(&mut m, &mut w0.v1_ms, &mut traced, &own, "build.v1");
        spans.extend(own);
        check.add(path_build::verify(&g, BUILD_F, args.seed, &w));
        drop((w0, w));
        check.add(probes(args.workload, args.seed, dir, &mut m, &mut spans));
    } else {
        let mut w = path_build::window(&b, secs);
        let v1_bytes = w.v1.as_ref().expect("built v1").as_bytes().len() as f64;
        let v2_bytes = w.v2.as_ref().expect("built v2").as_bytes().len() as f64;
        let (v1_per_s, v2_per_s) = (1e3 / w.v1_ms.mean(), 1e3 / w.v2_ms.mean());
        details = details
            .with("op", "build_store(Full)")
            .with("op_samples", w.v1_ms.len())
            .with("op2", "build_store_compressed(Full)")
            .with("op2_samples", w.v2_ms.len());
        end_to_end(
            &mut m,
            &setup,
            OpStats::whole(&mut w.v1_ms, v1_per_s, 50.0),
            OpStats::whole(&mut w.v2_ms, v2_per_s, 50.0),
            v1_bytes,
            v2_bytes,
        );
        check.add(path_build::verify(&g, BUILD_F, args.seed, &w));
    }
    Outcome {
        check,
        metrics: m,
        spans,
        details,
    }
}

fn run_serve(args: &Args, dir: &Path) -> Outcome {
    let mut setup = Vec::new();
    let mut state: Option<(Fleet, Running)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = state.take() {
            server.stop();
        }
        let t = Instant::now();
        let fleet = Fleet::publish(small_graphs(args.seed), SERVE_F, dir);
        let server = Running::start(fleet.registry.clone());
        setup.push(ms_since(t) / 1e3);
        state = Some((fleet, server));
    }
    let (fleet, server) = state.expect("set up at least once");
    let reqs = Requests::new(&fleet, SERVE_F, args.seed);
    let mut m = Metrics::default();
    let mut spans = Vec::new();
    let secs = args.seconds as f64;
    let mut details = Json::obj();
    let mut check;
    if args.trace {
        let (w0, d0) = path_serve::wire_window(&reqs, &server, 0, clients(), secs / 2.0);
        trace::set_enabled(true);
        let (wire, delta) = path_serve::wire_window(&reqs, &server, 1, clients(), secs / 2.0);
        server.stop();
        path_serve::layers(&reqs, &fleet, &wire, &delta, &mut m);
        let own = trace::take();
        trace_metrics(
            &mut m,
            &mut w0.lat_ms.all(),
            &mut wire.lat_ms.all(),
            &own,
            "request",
        );
        spans.extend(own);
        check = path_serve::check(&fleet, &reqs, &[&w0, &wire], d0.shed() + delta.shed());
        drop((w0, wire));
        check.add(probes(args.workload, args.seed, dir, &mut m, &mut spans));
    } else {
        let run = path_serve::segmented(&reqs, &fleet, server, clients(), secs, SEGMENTS);
        let samples: usize = run.loops.iter().map(|l| l.lat_ms.len()).sum();
        details = details
            .with(
                "op",
                "request over loopback TCP, client-timed (closed loop)",
            )
            .with("op_samples", samples)
            .with(
                "op2",
                "the same requests, server-timed: frame receipt to answer encoded",
            )
            .with("op2_samples", run.served)
            .with("segments", SEGMENTS)
            .with("pairs_per_request", path_serve::PAIRS_PER_REQUEST)
            .with("graphs", fleet.graphs.len());
        end_to_end(
            &mut m,
            &setup,
            run.client,
            run.server,
            fleet.v1_bytes as f64,
            fleet.z_bytes as f64,
        );
        let loops: Vec<&path_serve::Loop> = run.loops.iter().collect();
        check = path_serve::check(&fleet, &reqs, &loops, run.shed);
    }
    Outcome {
        check,
        metrics: m,
        spans,
        details,
    }
}

fn run_churn(args: &Args, dir: &Path) -> Outcome {
    let mut setup = Vec::new();
    let mut g = None;
    for r in 0..SETUPS {
        // Each set-up builds its scheme and writes its checkpoint anew.
        let sub = dir.join(format!("churn-{r}"));
        std::fs::create_dir_all(&sub).expect("churn dir");
        let t = Instant::now();
        let graph = large_graph(args.seed);
        drop(Churn::setup(&graph, CHURN_F, CHURN_K, args.seed, &sub));
        setup.push(ms_since(t) / 1e3);
        let _ = std::fs::remove_dir_all(&sub);
        g = Some(graph);
    }
    let g = g.expect("set up at least once");
    let sub = dir.join("churn");
    std::fs::create_dir_all(&sub).expect("churn dir");
    let mut c = Churn::setup(&g, CHURN_F, CHURN_K, args.seed, &sub);
    let mut m = Metrics::default();
    let mut spans = Vec::new();
    let secs = args.seconds as f64;
    let mut details = Json::obj();
    let mut check;
    if args.trace {
        let mut w0 = c.window(secs / 2.0);
        trace::set_enabled(true);
        let mut w = c.window(secs / 2.0);
        let own = trace::take();
        let (vc, recover_s, _) = c.verify(&[&w0, &w]);
        check = vc;
        c.layers(&w, &own, recover_s, &mut m);
        trace_metrics(&mut m, &mut w0.update_ms, &mut w.update_ms, &own, "update");
        spans.extend(own);
        drop(c);
        check.add(probes(args.workload, args.seed, dir, &mut m, &mut spans));
    } else {
        let mut w = c.window(secs);
        let (vc, _, mut recovered) = c.verify(&[&w]);
        check = vc;
        let archive_bytes = c.archive_bytes() as f64;
        let z_bytes = recovered.commit_compressed().as_bytes().len() as f64;
        details = details
            .with("op", "update: op, commit_service, swap")
            .with("op_samples", w.update_ms.len())
            .with(
                "op2",
                "read: ConnectivityService::query on the current generation",
            )
            .with("op2_samples", w.reads.lat_ms.len())
            .with("checkpoints", w.checkpoint_ms.len());
        let upd_per_s = w.update_ms.len() as f64 / w.secs;
        end_to_end(
            &mut m,
            &setup,
            OpStats::whole(&mut w.update_ms, upd_per_s, 75.0),
            w.reads.lat_ms.per_second(w.secs, 99.0),
            archive_bytes,
            z_bytes,
        );
    }
    Outcome {
        check,
        metrics: m,
        spans,
        details,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <build|serve-distinct|churn> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let dir: PathBuf = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let out = match args.workload {
        Workload::Build => run_build(&args, &dir),
        Workload::ServeDistinct => run_serve(&args, &dir),
        Workload::Churn => run_churn(&args, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves nothing behind unless a trace file is written below.
    let _ = std::fs::remove_dir(WORK_DIR);

    // A claim made on `seed` is re-checked on this one.
    let recheck = inputs::Rng::derived(args.seed, 0x2ECE).next_u64() >> 33;
    let mut details = out.details;
    if args.trace {
        let path =
            Path::new(WORK_DIR).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(WORK_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_json(&out.spans).render()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        details.set("trace_file", path.display().to_string());
        details.set("spans", out.spans.len());
    }
    for (name, value, unit) in &out.metrics.items {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        Json::obj()
            .with(
                "provenance",
                prov::block(
                    args.workload.name(),
                    args.seed,
                    recheck,
                    args.seconds,
                    args.trace
                )
            )
            .with("details", details)
            .render()
    );
    println!(
        "{}",
        Json::obj()
            .with("correct", out.check.failed == 0)
            .with("attempted", out.check.attempted)
            .with("failed", out.check.failed)
            .with("metrics", out.metrics.to_json())
            .render()
    );
    ExitCode::SUCCESS
}
