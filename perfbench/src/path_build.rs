//! Build path: graph → sealed archive, both formats.

use crate::inputs::{edge_pairs, fault_set, pairs, Rng};
use crate::stats::Samples;
use crate::trace;
use crate::{ms_since, Check, Metrics};
use ftc_codes::ThresholdCodec;
use ftc_core::auxgraph::AuxGraph;
use ftc_core::hierarchy::{build_hierarchy_with_threads, paper_threshold};
use ftc_core::{
    BuildDiagnostics, CompressedStore, EdgeEncoding, FtcScheme, LabelStore, Params, ThresholdPolicy,
};
use ftc_field::Gf64;
use ftc_graph::connectivity::ConnectivityOracle;
use ftc_graph::{Graph, RootedTree};
use ftc_serve::ConnectivityService;
use std::path::Path;
use std::time::Instant;

/// One build configuration: the calibrated deterministic ε-net scheme
/// (`k = 44f`) over `g`.
pub struct Build<'g> {
    pub g: &'g Graph,
    pub params: Params,
    pub threads: usize,
}

impl<'g> Build<'g> {
    pub fn new(g: &'g Graph, f: usize, threads: usize) -> Build<'g> {
        Build {
            g,
            params: Params::deterministic(f).with_threshold(ThresholdPolicy::Fixed(44 * f)),
            threads,
        }
    }

    pub fn v1(&self) -> (LabelStore, BuildDiagnostics) {
        FtcScheme::builder(self.g)
            .params(&self.params)
            .threads(self.threads)
            .build_store(EdgeEncoding::Full)
            .expect("calibrated build of a generated graph")
    }

    pub fn v2(&self) -> (CompressedStore, BuildDiagnostics) {
        FtcScheme::builder(self.g)
            .params(&self.params)
            .threads(self.threads)
            .build_store_compressed(EdgeEncoding::Full)
            .expect("calibrated build of a generated graph")
    }
}

/// What one build window produced.
pub struct Window {
    pub v1_ms: Samples,
    pub v2_ms: Samples,
    pub v1: Option<LabelStore>,
    pub v2: Option<CompressedStore>,
    pub diag: Option<BuildDiagnostics>,
    /// Builds whose bytes differed from the first build of their format.
    pub mismatched: u64,
}

/// Alternates `build_store` and `build_store_compressed` for `secs`
/// (at least two of each). Traced, each v1 build is followed by
/// replays of its first three stages, tied to it by request id.
pub fn window(b: &Build, secs: f64) -> Window {
    let mut w = Window {
        v1_ms: Samples::new(),
        v2_ms: Samples::new(),
        v1: None,
        v2: None,
        diag: None,
        mismatched: 0,
    };
    // v1 archives end in a checksum of everything before it; equal
    // trailers mean equal archives. v2 archives are compared whole.
    let mut first_trailer: Option<Vec<u8>> = None;
    let mut first_v2: Option<Vec<u8>> = None;
    let start = Instant::now();
    while w.v1_ms.len() < 2 || start.elapsed().as_secs_f64() < secs {
        let req = trace::next_req();
        w.v1 = None;
        let t = Instant::now();
        let (store, diag) = {
            let _op = trace::root("build.v1", req);
            b.v1()
        };
        w.v1_ms.push(ms_since(t));
        let bytes = store.as_bytes();
        let trailer = bytes[bytes.len().saturating_sub(8)..].to_vec();
        match &first_trailer {
            None => first_trailer = Some(trailer),
            Some(first) => w.mismatched += u64::from(*first != trailer),
        }
        if trace::enabled() {
            replay_stages(b, req);
        }
        w.v1 = Some(store);
        w.diag = Some(diag);

        w.v2 = None;
        let t = Instant::now();
        let (z, _) = {
            let _op = trace::root("build.v2", trace::next_req());
            b.v2()
        };
        w.v2_ms.push(ms_since(t));
        match &first_v2 {
            None => first_v2 = Some(z.as_bytes().to_vec()),
            Some(first) => w.mismatched += u64::from(first.as_slice() != z.as_bytes()),
        }
        w.v2 = Some(z);
    }
    w
}

/// Replays the BFS tree, auxiliary graph and hierarchy stages of one
/// build on the same inputs.
fn replay_stages(b: &Build, req: u64) {
    let tree = {
        let _s = trace::root("graph.bfs", req);
        RootedTree::bfs(b.g, 0)
    };
    let aux = {
        let _s = trace::root("core.auxgraph", req);
        AuxGraph::build_with_threads(b.g, &tree, b.threads)
    };
    let _s = trace::root("core.hierarchy", req);
    std::hint::black_box(build_hierarchy_with_threads(
        &aux,
        b.params.backend,
        paper_threshold(aux.nontree.len()),
        b.threads,
    ));
}

/// Answers 32 seeded fault sets × 64 pairs from both archives and checks
/// every answer against the BFS oracle. Counts every build attempted;
/// a wrong archive fails every build of its format, since all builds of
/// a format are byte-identical or counted in `mismatched`.
pub fn verify(g: &Graph, f: usize, seed: u64, w: &Window) -> Check {
    let mut check = Check {
        attempted: (w.v1_ms.len() + w.v2_ms.len()) as u64,
        failed: w.mismatched,
    };
    let edges = edge_pairs(g);
    let mut rng = Rng::derived(seed, 0xB1D);
    let queries: Vec<_> = (0..32)
        .map(|_| (fault_set(&mut rng, &edges, f), pairs(&mut rng, g.n(), 64)))
        .collect();
    let mut oracle = ConnectivityOracle::new(g);
    let expected: Vec<Vec<bool>> = queries
        .iter()
        .map(|(faults, ps)| {
            oracle.prepare_pairs(faults);
            ps.iter().map(|&(s, t)| oracle.connected(s, t)).collect()
        })
        .collect();
    let services = [
        (
            w.v1.as_ref()
                .map(|s| ConnectivityService::from_view(&s.view())),
            w.v1_ms.len(),
        ),
        (
            w.v2.as_ref()
                .map(|z| ConnectivityService::from_compressed(z.view().expect("built v2 opens"))),
            w.v2_ms.len(),
        ),
    ];
    for (svc, builds) in services {
        let ok = svc.is_some_and(|svc| {
            queries.iter().zip(&expected).all(|((faults, ps), want)| {
                svc.query(faults, ps).is_ok_and(|a| a.as_slice() == want)
            })
        });
        if !ok {
            check.failed += builds as u64;
        }
    }
    check
}

/// Per-layer metrics of the build path, from a traced window's spans and
/// probes run after it on the same inputs.
pub fn layers(b: &Build, w: &Window, spans: &[trace::Span], dir: &Path, m: &mut Metrics) {
    let med_s = |name: &str| trace::durations_ms(spans, name).median() / 1e3;
    let (bfs, aux, hier) = (
        med_s("graph.bfs"),
        med_s("core.auxgraph"),
        med_s("core.hierarchy"),
    );
    let v1_s = med_s("build.v1");
    m.put("graph.bfs_s", bfs, "s");
    m.put("core.auxgraph_s", aux, "s");
    m.put("core.hierarchy_s", hier, "s");
    m.put("core.encode_s", v1_s - bfs - aux - hier, "s");

    let serial = Build::new(b.g, b.params.f, 1);
    let mut t1 = Samples::new();
    for _ in 0..2 {
        let t = Instant::now();
        std::hint::black_box(serial.v1());
        t1.push(ms_since(t) / 1e3);
    }
    let t1 = t1.median();
    m.put("core.build_t1_s", t1, "s");
    m.put("core.build_scaling", t1 / v1_s, "x");

    let diag = w.diag.as_ref().expect("window built at least once");
    m.put("codes.fill_row_ns", fill_row_ns(diag.k), "ns");
    m.put("core.levels", diag.levels as f64, "count");
    m.put("core.k", diag.k as f64, "count");

    let v1 = w.v1.as_ref().expect("window built v1");
    let v2 = w.v2.as_ref().expect("window built v2");
    let (v1_len, v2_len) = (v1.as_bytes().len() as f64, v2.as_bytes().len() as f64);
    let t = Instant::now();
    std::hint::black_box(ftc_core::compressed::compress_archive(&v1.view()));
    m.put("compress.encode_s", ms_since(t) / 1e3, "s");
    m.put("compress.ratio", v1_len / v2_len, "x");
    m.put("store.bytes_per_edge", v1_len / b.g.m() as f64, "B");

    for (name, file, bytes) in [
        ("store.open_v1_ms", "probe.ftc", v1.as_bytes()),
        ("store.open_v2_ms", "probe.ftcz", v2.as_bytes()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, bytes).expect("write probe archive");
        let mut open = Samples::new();
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(
                ftc_core::compressed::open_path(&path).expect("probe archive opens"),
            );
            open.push(ms_since(t));
        }
        m.put(name, open.median(), "ms");
        let _ = std::fs::remove_file(&path);
    }
}

/// Mean time of one `ThresholdCodec::fill_edge_row` at threshold `k`.
fn fill_row_ns(k: usize) -> f64 {
    let codec = ThresholdCodec::new(k);
    let mut row = vec![Gf64::ZERO; codec.syndrome_len()];
    let mut rng = Rng::new(k as u64);
    let ids: Vec<Gf64> = (0..256).map(|_| Gf64::new(rng.next_u64() | 1)).collect();
    let mut calls = 0u64;
    let t = Instant::now();
    while t.elapsed().as_millis() < 50 {
        for &id in &ids {
            codec.fill_edge_row(&mut row, id);
            std::hint::black_box(&row);
        }
        calls += ids.len() as u64;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}
