//! The randomized whp-correct sketch scheme (Dory–Parter's second scheme,
//! Table 1 rows 1–2) — the baseline the paper de-randomizes.
//!
//! Identical framework to [`crate::FtcScheme`] (same auxiliary graph, same
//! ancestry labels, same fragment-merging decoder), but the outdetect
//! vectors are AGM linear sketches instead of Reed–Solomon syndrome
//! hierarchies. Labels are `O(log³ n)`-ish bits and each query is only
//! correct *with high probability*: a detection can fail (reported as
//! [`crate::QueryError::OutdetectFailed`]) or — with probability bounded by
//! the fingerprint width — return a phantom edge. Experiment E4 measures
//! this gap against the deterministic schemes' full query support.

use crate::auxgraph::AuxGraph;
use crate::error::BuildError;
use crate::labels::{
    DetectOutcome, EdgeLabel, EndpointIndex, LabelHeader, LabelSet, OutdetectVector, SizeReport,
    SlabDetect, VertexLabel,
};
use ftc_graph::{Graph, RootedTree};
use ftc_sketch::{AgmParams, AgmSketch, SketchBuilder};

/// An AGM sketch as an outdetect vector.
#[derive(Clone, Debug)]
pub struct AgmVector {
    params: AgmParams,
    sketch: AgmSketch,
}

/// Reusable detection state for [`AgmVector`] slabs: just the hash-family
/// parameters (sketch detection needs no decode buffers).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AgmDetector {
    params: Option<AgmParams>,
}

impl OutdetectVector for AgmVector {
    type Detector = AgmDetector;

    fn xor_in(&mut self, other: &Self) {
        assert_eq!(self.params, other.params, "mixed sketch families");
        self.sketch.xor_in(&other.sketch);
    }

    fn is_zero(&self) -> bool {
        self.sketch.is_zero()
    }

    fn detect(&self) -> DetectOutcome {
        if self.sketch.is_zero() {
            return DetectOutcome::Empty;
        }
        match SketchBuilder::new(self.params).detect(&self.sketch) {
            Some(id) => DetectOutcome::Edges(vec![id]),
            None => DetectOutcome::Failed,
        }
    }

    fn bits(&self) -> usize {
        self.params.sketch_bits()
    }

    fn slab_words(&self) -> usize {
        self.sketch.num_words()
    }

    fn accumulate_slab(&self, dst: &mut [u64]) {
        self.sketch.xor_into_words(dst);
    }

    fn configure_detector(&self, det: &mut AgmDetector) {
        det.params = Some(self.params);
    }

    fn detect_slab(det: &mut AgmDetector, words: &[u64], out: &mut Vec<u64>) -> SlabDetect {
        out.clear();
        if words.iter().all(|&w| w == 0) {
            return SlabDetect::Empty;
        }
        let params = det.params.expect("detector configured before use");
        match SketchBuilder::new(params).detect_words(words) {
            Some(id) => {
                out.push(id);
                SlabDetect::Edges
            }
            None => SlabDetect::Failed,
        }
    }
}

/// Parameters of the sketch baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchParams {
    /// Fault budget per query.
    pub f: usize,
    /// Independent sketch repetitions (failure probability decays
    /// geometrically).
    pub reps: usize,
    /// RNG seed for the hash family.
    pub seed: u64,
}

impl SketchParams {
    /// A sensible default: 8 repetitions.
    pub fn new(f: usize, seed: u64) -> SketchParams {
        SketchParams { f, reps: 8, seed }
    }
}

/// The built whp sketch labeling.
#[derive(Clone, Debug)]
pub struct SketchScheme {
    labels: LabelSet<AgmVector>,
    size: SizeReport,
}

impl SketchScheme {
    /// Builds the sketch labeling for `g`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::FtcScheme::build`].
    pub fn build(g: &Graph, params: &SketchParams) -> Result<SketchScheme, BuildError> {
        if params.f == 0 {
            return Err(BuildError::InvalidFaultBudget);
        }
        let tree = RootedTree::bfs(g, 0);
        let aux = AuxGraph::build(g, &tree);
        if aux.aux_n >= (1usize << 31) {
            return Err(BuildError::GraphTooLarge {
                aux_vertices: aux.aux_n,
            });
        }
        let agm_params =
            AgmParams::for_universe(aux.nontree.len().max(2), params.reps, params.seed);
        let builder = SketchBuilder::new(agm_params);

        // Per-vertex sketches of incident non-tree edges.
        let mut acc: Vec<AgmSketch> = vec![builder.empty(); aux.aux_n];
        for j in 0..aux.nontree.len() {
            let (a, b) = aux.nontree[j];
            let id = aux.nontree_code_id(j);
            builder.toggle_edge(&mut acc[a], id);
            builder.toggle_edge(&mut acc[b], id);
        }
        // Bottom-up subtree aggregation (same as the deterministic scheme).
        for &v in aux.tree.pre_order().iter().rev() {
            if let Some(p) = aux.tree.parent(v) {
                let child = acc[v].clone();
                acc[p].xor_in(&child);
            }
        }

        let header = LabelHeader {
            f: params.f as u32,
            aux_n: aux.aux_n as u32,
            tag: sketch_tag(g, params),
        };
        let vertex_labels: Vec<VertexLabel> = (0..g.n())
            .map(|v| VertexLabel {
                header,
                anc: aux.anc[v],
            })
            .collect();
        let mut edge_labels = Vec::with_capacity(g.m());
        for e in 0..g.m() {
            let lower = aux.sigma_lower[e];
            let upper = aux.tree.parent(lower).expect("σ(e) lower has a parent");
            edge_labels.push(EdgeLabel {
                header,
                anc_upper: aux.anc[upper],
                anc_lower: aux.anc[lower],
                vec: AgmVector {
                    params: agm_params,
                    sketch: acc[lower].clone(),
                },
            });
        }
        let edge_index = EndpointIndex::from_edges(g.edge_iter().map(|(_, u, v)| (u, v)));
        let labels = LabelSet {
            header,
            vertex_labels,
            edge_labels,
            edge_index,
        };
        let size = labels.size_report(0, agm_params.levels);
        Ok(SketchScheme { labels, size })
    }

    /// The labels.
    pub fn labels(&self) -> &LabelSet<AgmVector> {
        &self.labels
    }

    /// Label-size accounting.
    pub fn size_report(&self) -> SizeReport {
        self.size
    }
}

/// FNV-1a instance fingerprint (sketch flavor).
fn sketch_tag(g: &Graph, params: &SketchParams) -> u64 {
    let mut h = 0x84222325_cbf29ce4u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(g.n() as u64);
    eat(g.m() as u64);
    for (_, u, v) in g.edge_iter() {
        eat((u as u64) << 32 | v as u64);
    }
    eat(params.f as u64);
    eat(params.reps as u64);
    eat(params.seed);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_graph::connectivity::connected_avoiding;

    #[test]
    fn whp_scheme_matches_oracle_on_small_graphs() {
        let g = Graph::cycle(6);
        let scheme = SketchScheme::build(&g, &SketchParams::new(2, 42)).unwrap();
        let l = scheme.labels();
        let mut wrong = 0usize;
        let mut failed = 0usize;
        let mut total = 0usize;
        for a in 0..g.m() {
            for b in (a + 1)..g.m() {
                let queries = g.n() * g.n();
                match l.session([l.edge_label_by_id(a), l.edge_label_by_id(b)]) {
                    Err(_) => {
                        total += queries;
                        failed += queries;
                    }
                    Ok(session) => {
                        for s in 0..g.n() {
                            for t in 0..g.n() {
                                total += 1;
                                match session.connected(l.vertex_label(s), l.vertex_label(t)) {
                                    Ok(got) => {
                                        if got != connected_avoiding(&g, s, t, &[a, b]) {
                                            wrong += 1;
                                        }
                                    }
                                    Err(_) => failed += 1,
                                }
                            }
                        }
                    }
                }
            }
        }
        // whp correctness: with 8 reps on this tiny instance we expect
        // zero failures, but the contract is merely "rare".
        assert_eq!(wrong, 0, "sketch produced wrong answers");
        assert!(
            failed * 10 < total,
            "too many sketch failures: {failed}/{total}"
        );
    }

    #[test]
    fn size_report_is_populated() {
        let g = ftc_graph::generators::random_connected(20, 30, 1);
        let scheme = SketchScheme::build(&g, &SketchParams::new(2, 7)).unwrap();
        let size = scheme.size_report();
        assert_eq!(size.n, 20);
        assert!(size.edge_bits > 0);
    }

    #[test]
    fn zero_f_rejected() {
        let g = Graph::cycle(3);
        assert_eq!(
            SketchScheme::build(&g, &SketchParams::new(0, 1)).unwrap_err(),
            BuildError::InvalidFaultBudget
        );
    }
}
