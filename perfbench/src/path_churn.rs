//! Churn path: edge op → journaled, servable generation, with a reader
//! querying the registry's current generation at the same time.

use crate::inputs::{edge_pairs, fault_set, Bits, PairPool, Rng};
use crate::path_serve::GRAPH_ID;
use crate::stats::{Samples, Timed};
use crate::trace;
use crate::{ms_since, Check, Metrics};
use ftc_core::StdVfs;
use ftc_dyn::{DurableScheme, DynConfig, DynamicScheme, FsyncPolicy};
use ftc_graph::connectivity::ConnectivityOracle;
use ftc_graph::Graph;
use ftc_serve::ServiceRegistry;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Updates between two disk checkpoints.
const CHECKPOINT_EVERY: usize = 32;

/// A durable dynamic scheme serving through a registry.
pub struct Churn<'g> {
    g: &'g Graph,
    seed: u64,
    archive: PathBuf,
    durable: DurableScheme,
    registry: Arc<ServiceRegistry>,
    rng: Rng,
    /// Chords this run inserted and has not deleted; only these are
    /// ever deleted, so every update stays on the incremental path.
    live: Vec<(usize, usize)>,
    /// Every applied op in order: (insert?, u, v).
    ops: Vec<(bool, usize, usize)>,
    /// Registry generation → ops applied when it was published.
    generations: HashMap<u64, usize>,
    reads: Arc<Reads>,
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The reader's request stream: 64-pair batches under 16 rotating fault
/// sets of base edges (never deleted). Each generation draws its own 16
/// sets, so one run averages over many sets instead of resting on 16.
struct Reads {
    seed: u64,
    f: usize,
    edges: Vec<(usize, usize)>,
    pool: PairPool,
}

const READ_PAIRS: usize = 64;
const READ_SETS: u64 = 16;

impl Reads {
    fn set(&self, generation: u64, j: u64) -> Vec<(usize, usize)> {
        let mut rng = Rng::derived(self.seed ^ 0x5E75, generation * READ_SETS + j);
        fault_set(&mut rng, &self.edges, self.f)
    }
}

impl<'g> Churn<'g> {
    /// Builds the dynamic scheme, writes its base checkpoint and journal
    /// under `dir`, and publishes its first generation.
    pub fn setup(g: &'g Graph, f: usize, k: usize, seed: u64, dir: &Path) -> Churn<'g> {
        let mut cfg = DynConfig::new(f, k);
        cfg.seed = seed;
        let scheme = DynamicScheme::new(g, cfg).expect("dynamic scheme of a generated graph");
        let archive = dir.join("churn.ftc");
        let journal = ftc_dyn::default_journal_path(&archive);
        let mut durable = DurableScheme::create(
            Arc::new(StdVfs),
            &archive,
            &journal,
            scheme,
            FsyncPolicy::OnCommit,
        )
        .expect("create durable scheme");
        let registry = Arc::new(ServiceRegistry::new());
        registry.insert(GRAPH_ID, durable.commit_service().expect("first commit"));
        let generation = registry.generation(GRAPH_ID).expect("registered");
        let reads = Arc::new(Reads {
            seed,
            f,
            edges: edge_pairs(g),
            pool: PairPool::new(&mut Rng::derived(seed, 0xC4), g.n(), 4096),
        });
        Churn {
            g,
            seed,
            archive,
            durable,
            registry,
            rng: Rng::derived(seed, 0x09),
            live: Vec::new(),
            ops: Vec::new(),
            generations: HashMap::from([(generation, 0)]),
            reads,
        }
    }

    /// The next seeded op: insert a fresh chord, or delete one this run
    /// inserted.
    fn next_op(&mut self) -> (bool, usize, usize) {
        if self.live.len() < 8 || self.rng.below(2) == 0 {
            let n = self.g.n();
            loop {
                let (u, v) = (self.rng.below(n), self.rng.below(n));
                if u != v && !self.durable.scheme().has_edge(u, v) {
                    return (true, u.min(v), u.max(v));
                }
            }
        }
        let (u, v) = self.live.swap_remove(self.rng.below(self.live.len()));
        (false, u, v)
    }

    /// One update through swap: op, commit, publish, retire.
    fn update(&mut self, retire_ms: &Mutex<f64>) -> Result<(), String> {
        let op = self.next_op();
        let (insert, u, v) = op;
        {
            let _s = trace::span("dyn.op");
            if insert {
                self.durable.insert_edge(u, v)
            } else {
                self.durable.delete_edge(u, v)
            }
            .map_err(|e| e.to_string())?;
        }
        if insert {
            self.live.push((u, v));
        }
        self.ops.push(op);
        if trace::enabled() {
            // Commit syncs the journal itself; traced, the sync gets its
            // own span and the commit's sync finds nothing to do.
            let _s = trace::span("dyn.sync");
            self.durable.sync().map_err(|e| e.to_string())?;
        }
        let svc = {
            let _s = trace::span("dyn.commit");
            self.durable.commit_service().map_err(|e| e.to_string())?
        };
        // Holding the old generation across the swap moves its release
        // out of the registry's lock and into the retire span (or into
        // the reader, if it still holds it).
        let old = self.registry.get(GRAPH_ID);
        let generation = {
            let _s = trace::span("serve.swap");
            self.registry.swap(GRAPH_ID, svc)
        };
        self.generations.insert(generation, self.ops.len());
        let t = Instant::now();
        {
            let _s = trace::span("serve.retire");
            drop(old);
        }
        *retire_ms.lock().expect("retire total") += ms_since(t);
        Ok(())
    }

    /// Writer and reader together for `secs`.
    pub fn window(&mut self, secs: f64) -> Window {
        let stop = AtomicBool::new(false);
        let retire_ms = Mutex::new(0.0);
        let registry = self.registry.clone();
        let reads = self.reads.clone();
        let generation_of = |registry: &ServiceRegistry| loop {
            // A handle belongs to a generation when no swap landed
            // between the two reads around it.
            let g0 = registry.generation(GRAPH_ID);
            let svc = registry.get(GRAPH_ID);
            if g0 == registry.generation(GRAPH_ID) {
                return (g0.expect("registered"), svc.expect("registered"));
            }
        };
        let mut w = Window::default();
        let start = Instant::now();
        let reader = |stop: &AtomicBool, retire_ms: &Mutex<f64>| {
            let mut out = ReadLog::default();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let set = i as u64 % READ_SETS;
                let pairs = reads.pool.batch(i, READ_PAIRS);
                let req = trace::next_req();
                let t = Instant::now();
                let result = {
                    let _op = trace::root("read", req);
                    let (generation, svc) = generation_of(&registry);
                    let r = svc.query(&reads.set(generation, set), &pairs);
                    let t_drop = Instant::now();
                    {
                        let _s = trace::span("serve.retire");
                        drop(svc);
                    }
                    *retire_ms.lock().expect("retire total") += ms_since(t_drop);
                    r.map(|a| (generation, Bits::pack(a.as_slice())))
                };
                match result {
                    Ok((generation, answers)) => {
                        out.lat_ms.push(start.elapsed().as_secs_f64(), ms_since(t));
                        out.recs.push((generation, set, i, answers));
                    }
                    Err(e) => {
                        out.errors += 1;
                        eprintln!("perfbench: read failed: {e}");
                    }
                }
                i += 1;
            }
            out
        };
        let reads_out = std::thread::scope(|s| {
            let reader = s.spawn(|| reader(&stop, &retire_ms));
            // Stops the reader however the writer leaves this scope, so a
            // failing writer ends the run instead of waiting on it forever.
            let _stop = StopOnDrop(&stop);
            while start.elapsed().as_secs_f64() < secs {
                let req = trace::next_req();
                let t = Instant::now();
                let result = {
                    let _op = trace::root("update", req);
                    self.update(&retire_ms)
                };
                match result {
                    Ok(()) => w.update_ms.push(ms_since(t)),
                    Err(e) => {
                        w.errors += 1;
                        eprintln!("perfbench: update failed: {e}");
                    }
                }
                if self.ops.len().is_multiple_of(CHECKPOINT_EVERY) {
                    let t = Instant::now();
                    let _op = trace::root("checkpoint", trace::next_req());
                    match self.durable.commit() {
                        Ok(_) => w.checkpoint_ms.push(ms_since(t)),
                        Err(e) => {
                            w.errors += 1;
                            eprintln!("perfbench: checkpoint failed: {e}");
                        }
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread panicked")
        });
        w.secs = start.elapsed().as_secs_f64();
        w.reads = reads_out;
        w.retire_ms_total = retire_ms.into_inner().expect("retire total");
        w
    }

    /// After the windows: recovery from disk must reproduce the live edge
    /// set, the live edge set must match the applied ops, and every read
    /// answer must match the oracle at the generation it was served from,
    /// as must the final generation. Returns the check, the recovery
    /// time, and the recovered scheme.
    pub fn verify(&mut self, windows: &[&Window]) -> (Check, f64, DynamicScheme) {
        let mut failed = 0u64;
        self.durable.sync().expect("final journal sync");
        let live: BTreeSet<(usize, usize)> = self.durable.scheme().edge_pairs().collect();

        let mut model: BTreeSet<(usize, usize)> = self
            .g
            .edge_iter()
            .map(|(_, u, v)| (u.min(v), u.max(v)))
            .collect();
        for &(insert, u, v) in &self.ops {
            if insert {
                model.insert((u, v));
            } else {
                model.remove(&(u, v));
            }
        }
        failed += model.symmetric_difference(&live).count() as u64;

        let t = Instant::now();
        let (recovered, _) = DynamicScheme::recover(
            &self.archive,
            &ftc_dyn::default_journal_path(&self.archive),
            self.seed,
        )
        .expect("recover from disk");
        let recover_s = ms_since(t) / 1e3;
        let recovered_edges: BTreeSet<(usize, usize)> = recovered.edge_pairs().collect();
        failed += recovered_edges.symmetric_difference(&live).count() as u64;

        // Reads, grouped by (ops applied, fault set) and checked in op
        // order against the oracle with the ops replayed onto it.
        let mut groups: Vec<(usize, &ReadRec)> = Vec::new();
        for w in windows {
            for rec in &w.reads.recs {
                match self.generations.get(&rec.0) {
                    Some(&ops) => groups.push((ops, rec)),
                    None => failed += 1,
                }
            }
        }
        groups.sort_by_key(|&(ops, rec)| (ops, rec.0, rec.1));
        let mut oracle = ConnectivityOracle::new(self.g);
        let mut applied = 0;
        let mut prepared: Option<(u64, u64)> = None;
        let apply = |oracle: &mut ConnectivityOracle, upto: usize, applied: &mut usize| {
            for &(insert, u, v) in &self.ops[*applied..upto] {
                if insert {
                    oracle.add_edge(u, v);
                } else {
                    oracle.remove_edge(u, v);
                }
            }
            *applied = upto;
        };
        for (ops, (generation, set, batch, answers)) in groups {
            if prepared != Some((*generation, *set)) {
                apply(&mut oracle, ops, &mut applied);
                oracle.prepare_pairs(&self.reads.set(*generation, *set));
                prepared = Some((*generation, *set));
            }
            let want: Vec<bool> = self
                .reads
                .pool
                .batch(*batch, READ_PAIRS)
                .iter()
                .map(|&(s, t)| oracle.connected(s, t))
                .collect();
            failed += u64::from(*answers != Bits::pack(&want));
        }

        // The final generation, on fresh fault sets.
        apply(&mut oracle, self.ops.len(), &mut applied);
        let svc = self.registry.get(GRAPH_ID).expect("registered");
        let base = edge_pairs(self.g);
        let mut rng = Rng::derived(self.seed, 0xF1A);
        for _ in 0..32 {
            let faults = fault_set(&mut rng, &base, self.durable.scheme().f());
            let pairs = self.reads.pool.batch(rng.below(4096), READ_PAIRS);
            oracle.prepare_pairs(&faults);
            let ok = svc.query(&faults, &pairs).is_ok_and(|a| {
                pairs
                    .iter()
                    .zip(a.as_slice())
                    .all(|(&(s, t), &a)| oracle.connected(s, t) == a)
            });
            failed += u64::from(!ok);
        }

        let attempted = windows
            .iter()
            .map(|w| (w.update_ms.len() + w.reads.recs.len()) as u64 + w.errors + w.reads.errors)
            .sum::<u64>()
            + 32;
        let errors: u64 = windows.iter().map(|w| w.errors + w.reads.errors).sum();
        let check = Check {
            attempted,
            failed: failed + errors,
        };
        (check, recover_s, recovered)
    }

    /// Bytes of the last disk checkpoint.
    pub fn archive_bytes(&self) -> u64 {
        std::fs::metadata(&self.archive).map_or(0, |m| m.len())
    }

    /// Per-layer metrics of the churn path: the traced window's spans and
    /// the scheme's counters, then a few updates through the recycled
    /// commit path and the journal growth they cause.
    pub fn layers(&mut self, w: &Window, spans: &[trace::Span], recover_s: f64, m: &mut Metrics) {
        let med = |name: &str| trace::durations_ms(spans, name).median();
        m.put("dyn.op_us", med("dyn.op") * 1e3, "us");
        m.put("dyn.sync_ms", med("dyn.sync"), "ms");
        m.put("dyn.commit_ms", med("dyn.commit"), "ms");
        m.put("serve.swap_us", med("serve.swap") * 1e3, "us");
        m.put(
            "serve.retire_ms",
            w.retire_ms_total / w.update_ms.len().max(1) as f64,
            "ms",
        );
        let mut ckpt = w.checkpoint_ms.clone();
        if ckpt.is_empty() {
            // A short window may end before its first checkpoint.
            let t = Instant::now();
            self.durable.commit().expect("probe checkpoint");
            ckpt.push(ms_since(t));
        }
        m.put("dyn.checkpoint_ms", ckpt.median(), "ms");
        let stats = self.durable.stats();
        m.put(
            "dyn.rebuilds",
            (stats.structural_rebuilds + stats.slot_rebuilds) as f64,
            "count",
        );

        let journal = self.durable.journal_path().to_path_buf();
        let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        let before = len(&journal);
        let mut recycled = Samples::new();
        const PROBE_OPS: usize = 6;
        for i in 0..PROBE_OPS {
            let (insert, u, v) = self.next_op();
            if insert {
                self.durable.insert_edge(u, v).expect("probe insert");
                self.live.push((u, v));
            } else {
                self.durable.delete_edge(u, v).expect("probe delete");
            }
            self.ops.push((insert, u, v));
            let t = Instant::now();
            let store = self.durable.commit_store().expect("probe commit_store");
            self.durable.recycle(store);
            // The first commit allocates the buffer the rest recycle.
            if i > 0 {
                recycled.push(ms_since(t));
            }
        }
        m.put("dyn.commit_recycled_ms", recycled.median(), "ms");
        m.put(
            "dyn.journal_bytes_per_op",
            (len(&journal) - before) as f64 / PROBE_OPS as f64,
            "B",
        );
        m.put("dyn.recover_s", recover_s, "s");
    }
}

/// One read: generation, fault set index, batch, answers.
type ReadRec = (u64, u64, usize, Bits);

/// The reader's log.
#[derive(Default)]
pub struct ReadLog {
    pub lat_ms: Timed,
    pub recs: Vec<ReadRec>,
    pub errors: u64,
}

/// What one churn window produced.
#[derive(Default)]
pub struct Window {
    pub update_ms: Samples,
    pub checkpoint_ms: Samples,
    pub reads: ReadLog,
    pub errors: u64,
    pub secs: f64,
    /// Time spent releasing generations, on either thread.
    pub retire_ms_total: f64,
}
