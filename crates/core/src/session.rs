//! Session-based querying: prepare a fault set once, answer millions of
//! queries against it.
//!
//! The paper's related-work section observes that any f-FTC labeling is
//! also a *centralized connectivity oracle*: fix a fault set `F` once, pay
//! the Section 7.6 fragment-merging cost once, then answer every s–t query
//! in constant time. [`QuerySession`] is that oracle, shaped for serving
//! workloads:
//!
//! * construction performs the dedup/validation/fragment-splitting and
//!   runs the heap-ordered merge engine exactly once per affected
//!   component. The engine is *slab-backed*: every fragment's
//!   tree-boundary bitvector lives in one strided `u64` slab, every
//!   outdetect accumulator in one contiguous word arena, and fragment
//!   merges are row XORs — no per-fragment vectors are ever allocated;
//! * [`QuerySession::connected`] then answers from two precomputed
//!   lookup tables — point location into the laminar fragment family plus
//!   a flattened union-find — performing **zero heap allocations per
//!   query**; [`QuerySession::connected_many`] batches pairs into a
//!   caller-provided buffer;
//! * [`QuerySession::certified`] additionally returns the merge
//!   certificate as a borrowed slice, again without allocating;
//! * fault inputs are generic: owned [`EdgeLabel`]s, references, or
//!   zero-copy [`crate::serial::EdgeLabelView`]s straight over stored
//!   bytes — anything implementing [`EdgeLabelRead`] — and vertex
//!   arguments are anything implementing
//!   [`crate::labels::VertexLabelRead`].
//!
//! # Scratch reuse — the serving hot path
//!
//! A server building sessions at high rate threads a [`SessionScratch`]
//! through [`QuerySession::new_in`] (or [`LabelSet::session_in`] /
//! [`crate::store::LabelStoreView::session_in`]) and hands finished
//! sessions back via [`SessionScratch::recycle`]. The scratch owns every
//! buffer a build touches — the cutset slab, the accumulator arena, the
//! merge heap, fragment build tables, and the adaptive decoder's scratch —
//! so a warm build performs **zero heap allocations** end to end. The
//! plain entry points ([`QuerySession::new`], [`LabelSet::session`]) are
//! thin wrappers over a throwaway scratch.
//!
//! An **empty fault set is valid**: the session then answers via
//! ancestry component equality — the common production case of querying
//! a healthy network.
//!
//! # Example
//!
//! ```
//! use ftc_core::session::SessionScratch;
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//!
//! let g = Graph::cycle(6);
//! let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
//! let l = scheme.labels();
//!
//! // One session per fault set, any number of queries.
//! let faults = [l.edge_label(0, 1).unwrap(), l.edge_label(3, 4).unwrap()];
//! let session = l.session(faults).unwrap();
//! assert!(!session.connected(l.vertex_label(1), l.vertex_label(4)).unwrap());
//! assert!(session.connected(l.vertex_label(1), l.vertex_label(3)).unwrap());
//!
//! // Serving loop: recycle the session's storage into a scratch and
//! // rebuild for the next fault set without allocating.
//! let mut scratch = SessionScratch::new();
//! scratch.recycle(session);
//! let session = l.session_in([l.edge_label(2, 3).unwrap()], &mut scratch).unwrap();
//! assert!(session.connected(l.vertex_label(2), l.vertex_label(3)).unwrap());
//!
//! // Empty fault sets are the common production case and are valid.
//! let clean = l.session([] as [&ftc_core::EdgeLabel<ftc_core::RsVector>; 0]).unwrap();
//! assert!(clean.connected(l.vertex_label(0), l.vertex_label(5)).unwrap());
//! ```

use crate::ancestry::AncestryLabel;
use crate::auxgraph::AuxGraph;
use crate::error::QueryError;
use crate::fragments::{FragId, FragmentBuildScratch, Fragments};
use crate::labels::{
    EdgeLabel, EdgeLabelRead, LabelHeader, LabelSet, OutdetectVector, RsVector, SlabDetect,
    VertexLabelRead,
};
use ftc_graph::UnionFind;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem;

/// An owned connectivity certificate: the sequence of auxiliary-graph
/// non-tree edges (as `(pre, pre)` endpoint pairs) the engine merged
/// fragments along. Empty when `s` and `t` already share a fragment of
/// `T′ − F`. [`QuerySession::certified`] returns the certificate as a
/// borrowed slice; this alias is the owned form higher layers (routing,
/// serving) hand across call boundaries.
pub type Certificate = Vec<(u32, u32)>;

/// The fully-merged state of one component containing faults: a window
/// into the session's flattened `root_of_slot` / `certs` arenas.
#[derive(Clone, Copy, Debug)]
struct CompRef {
    /// Component ID (pre-order of the component root).
    comp: u32,
    /// Start of this component's certificate edges in `certs`.
    cert_at: u32,
    /// Number of certificate edges.
    cert_len: u32,
}

/// A prepared fault set: validates and fragments once, then answers any
/// number of `s–t` queries with zero per-query heap allocation.
///
/// Create via [`LabelSet::session`] (owned labels), [`QuerySession::new`]
/// (any [`EdgeLabelRead`] implementor, including byte-level views), or the
/// scratch-reusing `*_in` variants. See the [module docs](self) for the
/// full contract.
#[derive(Clone, Debug)]
pub struct QuerySession {
    /// The shared labeling header; `None` when the session was inferred
    /// from an empty fault set and accepts any single labeling.
    header: Option<LabelHeader>,
    /// Fragment decomposition of `T′ − F`.
    frag: Fragments,
    /// Per affected component (sorted by ID): window into the arenas.
    comps: Vec<CompRef>,
    /// Flattened union-find results: `comps.len()` rows of
    /// `num_cuts + 1` slots (`0..num_cuts` = cut fragments, `num_cuts` =
    /// the component's root fragment).
    root_of_slot: Vec<u32>,
    /// Concatenated per-component certificate edges (as `(pre, pre)`
    /// pairs), in the order the engine merged along them.
    certs: Vec<(u32, u32)>,
}

/// Reusable storage for building [`QuerySession`]s.
///
/// Owns every buffer a session build touches: fault ingestion tables, the
/// fragment build scratch, the merge engine's cutset slab / accumulator
/// arena / heap, the backend's decode scratch
/// ([`OutdetectVector::Detector`]), and — after
/// [`SessionScratch::recycle`] — the storage of a finished session. A
/// scratch that has served a fault set of some size serves any later
/// fault set of similar size with **zero heap allocations**.
///
/// The type parameter is the outdetect-vector backend; it defaults to the
/// deterministic [`RsVector`], which every serialized-label path uses.
#[derive(Debug)]
pub struct SessionScratch<V: OutdetectVector = RsVector> {
    /// Per supplied fault (pre-dedup): lower-endpoint ancestry label.
    anc: Vec<AncestryLabel>,
    /// Per supplied fault: flattened vector words, strided.
    fault_words: Vec<u64>,
    /// Sorted, deduplicated fault indices (cut order → ingestion order).
    order: Vec<u32>,
    /// Affected component IDs.
    comp_ids: Vec<u32>,
    /// Fragment build sweeps.
    frag_scratch: FragmentBuildScratch,
    /// Merge engine state.
    engine: EngineScratch<V>,
    /// Recycled session storage.
    spare_frag: Fragments,
    spare_comps: Vec<CompRef>,
    spare_slots: Vec<u32>,
    spare_certs: Vec<(u32, u32)>,
}

impl<V: OutdetectVector> Default for SessionScratch<V> {
    fn default() -> Self {
        SessionScratch {
            anc: Vec::new(),
            fault_words: Vec::new(),
            order: Vec::new(),
            comp_ids: Vec::new(),
            frag_scratch: FragmentBuildScratch::default(),
            engine: EngineScratch::default(),
            spare_frag: Fragments::default(),
            spare_comps: Vec::new(),
            spare_slots: Vec::new(),
            spare_certs: Vec::new(),
        }
    }
}

impl<V: OutdetectVector> SessionScratch<V> {
    /// An empty scratch. Buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a finished session's storage back into the scratch, so the
    /// next [`QuerySession::new_in`] can rebuild without allocating. Any
    /// previously recycled storage is dropped.
    pub fn recycle(&mut self, session: QuerySession) {
        self.spare_frag = session.frag;
        self.spare_comps = session.comps;
        self.spare_slots = session.root_of_slot;
        self.spare_certs = session.certs;
    }
}

impl QuerySession {
    /// Prepares a session for `faults` under the labeling identified by
    /// `header`. Accepts any iterable of [`EdgeLabelRead`] implementors —
    /// owned labels, references, or serialized-byte views — deduplicates
    /// them, and runs the merge engine to completion in every component
    /// containing a fault. An empty fault set is valid.
    ///
    /// # Errors
    ///
    /// * [`QueryError::MismatchedLabels`] if a fault label's header
    ///   differs from `header`, or its vector geometry from the first
    ///   fault's;
    /// * [`QueryError::TooManyFaults`] if more than `header.f` distinct
    ///   faults are supplied;
    /// * [`QueryError::OutdetectFailed`] on calibrated-threshold decode
    ///   failures.
    pub fn new<I>(header: LabelHeader, faults: I) -> Result<QuerySession, QueryError>
    where
        I: IntoIterator,
        I::Item: EdgeLabelRead,
    {
        Self::build_in(
            Some(header),
            faults,
            &mut SessionScratch::<<I::Item as EdgeLabelRead>::Vector>::default(),
        )
    }

    /// Like [`QuerySession::new`], but drawing every build buffer from
    /// `scratch` — the serving hot path. With a warm scratch (one that
    /// has built a session of similar size, plus the storage of a
    /// [`SessionScratch::recycle`]d session) the build performs **zero
    /// heap allocations**.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::new`].
    pub fn new_in<I>(
        header: LabelHeader,
        faults: I,
        scratch: &mut SessionScratch<<I::Item as EdgeLabelRead>::Vector>,
    ) -> Result<QuerySession, QueryError>
    where
        I: IntoIterator,
        I::Item: EdgeLabelRead,
    {
        Self::build_in(Some(header), faults, scratch)
    }

    /// Like [`QuerySession::new`], inferring the header from the first
    /// fault label. With an empty fault set the session has no header and
    /// answers for any single labeling via component equality.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::new`].
    pub fn from_faults<I>(faults: I) -> Result<QuerySession, QueryError>
    where
        I: IntoIterator,
        I::Item: EdgeLabelRead,
    {
        Self::build_in(
            None,
            faults,
            &mut SessionScratch::<<I::Item as EdgeLabelRead>::Vector>::default(),
        )
    }

    fn build_in<I>(
        header: Option<LabelHeader>,
        faults: I,
        s: &mut SessionScratch<<I::Item as EdgeLabelRead>::Vector>,
    ) -> Result<QuerySession, QueryError>
    where
        I: IntoIterator,
        I::Item: EdgeLabelRead,
    {
        let mut header = header;
        // Ingest: one pass copies each fault's lower ancestry label and
        // flattened vector words into the scratch, so the merge engine
        // never touches the (possibly byte-view) labels again.
        s.anc.clear();
        s.fault_words.clear();
        let mut w = 0usize;
        for e in faults {
            let h = e.header();
            match header {
                Some(hh) if hh != h => return Err(QueryError::MismatchedLabels),
                None => header = Some(h),
                _ => {}
            }
            if s.anc.is_empty() {
                w = e.slab_words();
                e.configure_detector(&mut s.engine.det);
            } else {
                // Equal slab widths do not imply equal geometry (an RS
                // row is k·levels words): compare configured detectors.
                let mut probe = Default::default();
                e.configure_detector(&mut probe);
                if probe != s.engine.det || e.slab_words() != w {
                    return Err(QueryError::MismatchedLabels);
                }
            }
            s.anc.push(e.anc_lower());
            let at = s.fault_words.len();
            s.fault_words.resize(at + w, 0);
            e.xor_into_slab(&mut s.fault_words[at..]);
        }

        // Deduplicate faults by σ(e)'s lower endpoint (unique per edge).
        s.order.clear();
        s.order.extend(0..s.anc.len() as u32);
        let anc = &s.anc;
        s.order.sort_unstable_by_key(|&i| anc[i as usize].pre);
        s.order.dedup_by_key(|i| anc[*i as usize].pre);
        if let Some(h) = header {
            if s.order.len() > h.f as usize {
                return Err(QueryError::TooManyFaults {
                    supplied: s.order.len(),
                    budget: h.f as usize,
                });
            }
        }

        // Fragment decomposition, rebuilt in recycled storage.
        let mut frag = mem::take(&mut s.spare_frag);
        frag.reset();
        frag.cuts_mut()
            .extend(s.order.iter().map(|&i| s.anc[i as usize]));
        frag.rebuild(&mut s.frag_scratch);
        debug_assert_eq!(frag.num_cuts(), s.order.len());

        s.comp_ids.clear();
        s.comp_ids.extend(frag.cuts().iter().map(|c| c.comp));
        s.comp_ids.sort_unstable();
        s.comp_ids.dedup();

        let mut comps = mem::take(&mut s.spare_comps);
        let mut slots = mem::take(&mut s.spare_slots);
        let mut certs = mem::take(&mut s.spare_certs);
        comps.clear();
        slots.clear();
        certs.clear();
        let aux_n = header.map_or(0, |h| h.aux_n as usize);
        let mut run = || -> Result<(), QueryError> {
            for idx in 0..s.comp_ids.len() {
                let comp = s.comp_ids[idx];
                let cert_at = certs.len() as u32;
                merge_component(
                    &frag,
                    comp,
                    aux_n,
                    w,
                    &s.fault_words,
                    &s.order,
                    &mut s.engine,
                    &mut slots,
                    &mut certs,
                )?;
                comps.push(CompRef {
                    comp,
                    cert_at,
                    cert_len: certs.len() as u32 - cert_at,
                });
            }
            Ok(())
        };
        if let Err(e) = run() {
            // Hand the storage back so the scratch stays warm.
            s.spare_frag = frag;
            s.spare_comps = comps;
            s.spare_slots = slots;
            s.spare_certs = certs;
            return Err(e);
        }
        Ok(QuerySession {
            header,
            frag,
            comps,
            root_of_slot: slots,
            certs,
        })
    }

    /// Answers a query that needs no session at all: `Some(connected)`
    /// for same-vertex or cross-component pairs, `None` when the full
    /// decoder is required. Callers that must answer trivial queries
    /// *before* fault validation (the historical free-function check
    /// order: budget errors never block a trivially-decidable pair) call
    /// this ahead of session construction.
    ///
    /// # Errors
    ///
    /// [`QueryError::MismatchedLabels`] if `s` and `t` belong to
    /// different labelings.
    pub fn trivial_answer<S, T>(s: &S, t: &T) -> Result<Option<bool>, QueryError>
    where
        S: VertexLabelRead,
        T: VertexLabelRead,
    {
        if s.header() != t.header() {
            return Err(QueryError::MismatchedLabels);
        }
        let (sa, ta) = (s.anc(), t.anc());
        if !sa.same_component(&ta) {
            return Ok(Some(false));
        }
        if sa.same_vertex(&ta) {
            return Ok(Some(true));
        }
        Ok(None)
    }

    /// The labeling header this session validates queries against
    /// (`None` only for header-less empty sessions from
    /// [`QuerySession::from_faults`]).
    pub fn header(&self) -> Option<LabelHeader> {
        self.header
    }

    /// Number of distinct prepared faults.
    pub fn num_faults(&self) -> usize {
        self.frag.num_cuts()
    }

    /// The fragment decomposition of `T′ − F` (the routing layer expands
    /// certificates against it).
    pub fn fragments(&self) -> &Fragments {
        &self.frag
    }

    /// Answers one s–t query in `O(log |F|)` time with zero heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`QueryError::MismatchedLabels`] if the vertex labels belong to a
    /// different labeling than the prepared faults (or to two different
    /// labelings).
    pub fn connected<S, T>(&self, s: S, t: T) -> Result<bool, QueryError>
    where
        S: VertexLabelRead,
        T: VertexLabelRead,
    {
        Ok(self.certified(s, t)?.is_some())
    }

    /// Answers a batch of s–t queries into a caller-provided buffer
    /// (cleared first; one `bool` per pair, in order). Zero heap
    /// allocation when `out` already has capacity for `pairs.len()`
    /// answers. Stops at the first invalid pair.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::connected`]; on error, `out`
    /// holds the answers of the pairs preceding the offending one.
    pub fn connected_many<S, T>(
        &self,
        pairs: &[(S, T)],
        out: &mut Vec<bool>,
    ) -> Result<(), QueryError>
    where
        S: VertexLabelRead,
        T: VertexLabelRead,
    {
        out.clear();
        out.reserve(pairs.len());
        for (s, t) in pairs {
            out.push(self.certified(s, t)?.is_some());
        }
        Ok(())
    }

    /// Like [`QuerySession::connected`], but returns the connectivity
    /// certificate as a borrowed slice: the auxiliary-graph non-tree
    /// edges (as `(pre, pre)` pairs) whose merges connect the fragments
    /// of the queried component. Empty when `s` and `t` already share a
    /// fragment of `T′ − F`; `None` when disconnected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::connected`].
    pub fn certified<S, T>(&self, s: S, t: T) -> Result<Option<&[(u32, u32)]>, QueryError>
    where
        S: VertexLabelRead,
        T: VertexLabelRead,
    {
        if s.header() != t.header() || self.header.is_some_and(|h| h != s.header()) {
            return Err(QueryError::MismatchedLabels);
        }
        let (sa, ta) = (s.anc(), t.anc());
        if !sa.same_component(&ta) {
            return Ok(None);
        }
        if sa.same_vertex(&ta) {
            return Ok(Some(&[]));
        }
        let Ok(ci) = self.comps.binary_search_by_key(&sa.comp, |c| c.comp) else {
            // No faults in this component: connectivity is untouched.
            return Ok(Some(&[]));
        };
        let (ss, ts) = (self.slot(&sa), self.slot(&ta));
        if ss == ts {
            return Ok(Some(&[])); // same fragment: connected within T′ − F
        }
        let stride = self.frag.num_cuts() + 1;
        let slots = &self.root_of_slot[ci * stride..(ci + 1) * stride];
        if slots[ss] == slots[ts] {
            let c = self.comps[ci];
            Ok(Some(
                &self.certs[c.cert_at as usize..(c.cert_at + c.cert_len) as usize],
            ))
        } else {
            Ok(None)
        }
    }

    /// Fragment slot of an ancestry label (`0..num_cuts` for cut
    /// fragments, `num_cuts` for root fragments).
    fn slot(&self, anc: &AncestryLabel) -> usize {
        match self.frag.locate(anc) {
            FragId::Cut(i) => i,
            FragId::Root(_) => self.frag.num_cuts(),
        }
    }
}

/// Adapter making `Borrow<EdgeLabel<V>>` items usable as fault inputs.
struct BorrowedFault<B, V>(B, PhantomData<fn() -> V>);

impl<B: Borrow<EdgeLabel<V>>, V: OutdetectVector> EdgeLabelRead for BorrowedFault<B, V> {
    type Vector = V;

    fn header(&self) -> LabelHeader {
        self.0.borrow().header
    }

    fn anc_upper(&self) -> AncestryLabel {
        self.0.borrow().anc_upper
    }

    fn anc_lower(&self) -> AncestryLabel {
        self.0.borrow().anc_lower
    }

    fn slab_words(&self) -> usize {
        self.0.borrow().vec.slab_words()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        self.0.borrow().vec.accumulate_slab(dst);
    }

    fn configure_detector(&self, det: &mut V::Detector) {
        self.0.borrow().vec.configure_detector(det);
    }
}

impl<V: OutdetectVector> LabelSet<V> {
    /// Opens a [`QuerySession`] over this labeling for the given fault
    /// set. Accepts owned labels, references, or anything else borrowing
    /// an [`EdgeLabel`] — no more hand-built `&[&EdgeLabel]` slices. An
    /// empty fault set is valid.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::new`].
    pub fn session<I>(&self, faults: I) -> Result<QuerySession, QueryError>
    where
        I: IntoIterator,
        I::Item: Borrow<EdgeLabel<V>>,
    {
        self.session_in(faults, &mut SessionScratch::default())
    }

    /// Scratch-reusing variant of [`LabelSet::session`]: zero heap
    /// allocation once `scratch` is warm. See the
    /// [module docs](self#scratch-reuse--the-serving-hot-path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::new`].
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<V>,
    ) -> Result<QuerySession, QueryError>
    where
        I: IntoIterator,
        I::Item: Borrow<EdgeLabel<V>>,
    {
        QuerySession::build_in(
            Some(self.header()),
            faults
                .into_iter()
                .map(|b| BorrowedFault(b, PhantomData::<fn() -> V>)),
            scratch,
        )
    }
}

// ---------------------------------------------------------------------------
// The merge engine
// ---------------------------------------------------------------------------

/// Reusable state of the Section 7.6 fragment-merging engine. All
/// per-fragment data lives in strided flat buffers:
///
/// * `slab` — tree-boundary bitvectors over cut indices, one
///   `⌈|F|/64⌉`-word row per fragment slot;
/// * `arena` — outdetect accumulators, one `slab_words()` row per slot
///   (GF(2⁶⁴) addition and sketch merging are both plain word XOR).
#[derive(Debug)]
struct EngineScratch<V: OutdetectVector> {
    slab: Vec<u64>,
    arena: Vec<u64>,
    cut_count: Vec<u32>,
    version: Vec<u32>,
    alive: Vec<bool>,
    uf: UnionFind,
    heap: BinaryHeap<Reverse<(u32, u32, u32)>>,
    /// Decoded code IDs of the current detection.
    ids: Vec<u64>,
    /// Backend decode state (geometry + scratch).
    det: V::Detector,
}

impl<V: OutdetectVector> Default for EngineScratch<V> {
    fn default() -> Self {
        EngineScratch {
            slab: Vec::new(),
            arena: Vec::new(),
            cut_count: Vec::new(),
            version: Vec::new(),
            alive: Vec::new(),
            uf: UnionFind::new(0),
            heap: BinaryHeap::new(),
            ids: Vec::new(),
            det: V::Detector::default(),
        }
    }
}

/// XORs row `src` into row `dst` of a strided flat buffer.
fn xor_row(buf: &mut [u64], stride: usize, dst: usize, src: usize) {
    debug_assert_ne!(dst, src);
    let (d, s) = if dst < src {
        let (a, b) = buf.split_at_mut(src * stride);
        (&mut a[dst * stride..(dst + 1) * stride], &b[..stride])
    } else {
        let (a, b) = buf.split_at_mut(dst * stride);
        (&mut b[..stride], &a[src * stride..(src + 1) * stride])
    };
    for (x, &y) in d.iter_mut().zip(s) {
        *x ^= y;
    }
}

/// Runs the Section 7.6 merging loop to completion for one component:
/// processes fragments smallest tree boundary first, maintaining
/// boundaries as XOR-able slab rows and outdetect accumulators as arena
/// rows, until every fragment set is certified outgoing-edge-free.
/// Appends the final merged-set representative of every fragment slot to
/// `slots` and the certificate edges (in merge order) to `certs`.
#[allow(clippy::too_many_arguments)]
fn merge_component<V: OutdetectVector>(
    frag: &Fragments,
    comp: u32,
    aux_n: usize,
    w: usize,
    fault_words: &[u64],
    order: &[u32],
    e: &mut EngineScratch<V>,
    slots: &mut Vec<u32>,
    certs: &mut Vec<(u32, u32)>,
) -> Result<(), QueryError> {
    let nc = frag.num_cuts();
    let total = nc + 1; // + the component's root fragment
    let words = nc.div_ceil(64).max(1);
    e.slab.clear();
    e.slab.resize(total * words, 0);
    e.arena.clear();
    e.arena.resize(total * w, 0);
    e.cut_count.clear();
    e.cut_count.resize(total, 0);
    e.version.clear();
    e.version.resize(total, 0);
    e.alive.clear();
    e.alive.resize(total, false);
    e.uf.reset(total);
    e.heap.clear();

    // Only fragments of this component participate: outgoing edges never
    // leave a component.
    for slot in 0..total {
        let fid = if slot == nc {
            FragId::Root(comp)
        } else {
            if frag.cuts()[slot].comp != comp {
                continue;
            }
            FragId::Cut(slot)
        };
        let boundary = frag.boundary(fid);
        for &c in boundary {
            let c = c as usize;
            e.slab[slot * words + c / 64] ^= 1u64 << (c % 64);
            let fw = &fault_words[order[c] as usize * w..][..w];
            for (d, &x) in e.arena[slot * w..(slot + 1) * w].iter_mut().zip(fw) {
                *d ^= x;
            }
        }
        e.cut_count[slot] = boundary.len() as u32;
        e.alive[slot] = true;
        e.heap.push(Reverse((e.cut_count[slot], 0, slot as u32)));
    }

    while let Some(Reverse((size, ver, id))) = e.heap.pop() {
        let id = id as usize;
        // Skip stale heap entries.
        if !e.alive[id] || e.uf.find(id) != id || e.version[id] != ver || e.cut_count[id] != size {
            continue;
        }
        // A fragment whose accumulator row is zero has no outdetect data
        // — and no outgoing edges (Proposition 4's XOR telescopes to the
        // formal zero of an empty boundary).
        match V::detect_slab(&mut e.det, &e.arena[id * w..(id + 1) * w], &mut e.ids) {
            SlabDetect::Failed => return Err(QueryError::OutdetectFailed),
            SlabDetect::Empty => {
                // Maximal component of G − F.
                e.alive[id] = false;
            }
            SlabDetect::Edges => {
                let mut merged_any = false;
                for i in 0..e.ids.len() {
                    let code_id = e.ids[i];
                    let Some((pa, pb)) = AuxGraph::unpack_code_id(code_id, aux_n) else {
                        return Err(QueryError::OutdetectFailed);
                    };
                    let fa = frag.locate_pre(pa).map_or(FragId::Root(comp), FragId::Cut);
                    let fb = frag.locate_pre(pb).map_or(FragId::Root(comp), FragId::Cut);
                    let (Some(sa), Some(sb)) = (slot_of(frag, comp, fa), slot_of(frag, comp, fb))
                    else {
                        return Err(QueryError::OutdetectFailed);
                    };
                    let ra = e.uf.find(sa);
                    let rb = e.uf.find(sb);
                    if ra == rb {
                        // Already merged via an earlier edge of this batch.
                        continue;
                    }
                    let cur = e.uf.find(id);
                    if ra != cur && rb != cur {
                        // The detected edge does not touch the popped
                        // fragment: only possible with a phantom decode
                        // under a calibrated threshold.
                        return Err(QueryError::OutdetectFailed);
                    }
                    // Merge: boundary rows XOR (symmetric difference —
                    // shared faults become interior), accumulator rows XOR
                    // (Proposition 4), union-find tracks membership.
                    e.uf.union(ra, rb);
                    let root = e.uf.find(ra);
                    let other = if root == ra { rb } else { ra };
                    xor_row(&mut e.slab, words, root, other);
                    e.cut_count[root] = e.slab[root * words..(root + 1) * words]
                        .iter()
                        .map(|x| x.count_ones())
                        .sum();
                    xor_row(&mut e.arena, w, root, other);
                    e.alive[root] = true;
                    e.alive[other] = false;
                    merged_any = true;
                    certs.push((pa, pb));
                }
                if !merged_any {
                    // Every decoded edge was internal: impossible for an
                    // exact decode (outgoing edges cross the boundary),
                    // so this is a phantom from a calibrated threshold.
                    return Err(QueryError::OutdetectFailed);
                }
                let root = e.uf.find(id);
                e.version[root] += 1;
                e.heap
                    .push(Reverse((e.cut_count[root], e.version[root], root as u32)));
            }
        }
    }
    for slot in 0..total {
        let r = e.uf.find(slot) as u32;
        slots.push(r);
    }
    Ok(())
}

/// The engine slot of a fragment, if it belongs to `comp`.
fn slot_of(frag: &Fragments, comp: u32, fid: FragId) -> Option<usize> {
    match fid {
        FragId::Cut(i) => {
            if frag.cuts()[i].comp == comp {
                Some(i)
            } else {
                None
            }
        }
        FragId::Root(c) => {
            if c == comp {
                Some(frag.num_cuts())
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use ftc_graph::connectivity::connected_avoiding;
    use ftc_graph::{generators, Graph};

    #[test]
    fn session_matches_oracle_across_fault_sets() {
        let g = generators::random_connected(24, 30, 3);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        for seed in 0..20u64 {
            let fset = generators::random_fault_set(&g, 2, seed);
            let session = l
                .session(fset.iter().map(|&e| l.edge_label_by_id(e)))
                .unwrap();
            for s in 0..g.n() {
                for t in 0..g.n() {
                    let got = session
                        .connected(l.vertex_label(s), l.vertex_label(t))
                        .unwrap();
                    assert_eq!(
                        got,
                        connected_avoiding(&g, s, t, &fset),
                        "({s},{t},{fset:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reused_sessions_match_fresh_sessions() {
        let g = generators::random_connected(24, 32, 9);
        let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
        let l = scheme.labels();
        let mut scratch = SessionScratch::new();
        // Interleaved fault-set sizes, one recycled scratch throughout.
        for (seed, fsize) in [(0u64, 3usize), (1, 1), (2, 3), (3, 0), (4, 2), (5, 3)] {
            let fset = generators::random_fault_set(&g, fsize, seed);
            let fresh = l
                .session(fset.iter().map(|&e| l.edge_label_by_id(e)))
                .unwrap();
            let reused = l
                .session_in(fset.iter().map(|&e| l.edge_label_by_id(e)), &mut scratch)
                .unwrap();
            for s in 0..g.n() {
                for t in 0..g.n() {
                    assert_eq!(
                        fresh
                            .certified(l.vertex_label(s), l.vertex_label(t))
                            .unwrap(),
                        reused
                            .certified(l.vertex_label(s), l.vertex_label(t))
                            .unwrap(),
                        "({s},{t},{fset:?})"
                    );
                }
            }
            scratch.recycle(reused);
        }
    }

    #[test]
    fn connected_many_agrees_with_connected() {
        let g = Graph::torus(4, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let session = l
            .session([l.edge_label(0, 1).unwrap(), l.edge_label(0, 4).unwrap()])
            .unwrap();
        let pairs: Vec<_> = (0..g.n())
            .flat_map(|s| (0..g.n()).map(move |t| (s, t)))
            .map(|(s, t)| (l.vertex_label(s), l.vertex_label(t)))
            .collect();
        let mut out = Vec::new();
        session.connected_many(&pairs, &mut out).unwrap();
        assert_eq!(out.len(), pairs.len());
        for ((s, t), &got) in pairs.iter().zip(&out) {
            assert_eq!(got, session.connected(s, t).unwrap());
        }
        // Errors surface, with the prefix answered.
        let s2 = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let bad = vec![
            (l.vertex_label(0), l.vertex_label(1)),
            (l.vertex_label(0), s2.labels().vertex_label(1)),
        ];
        assert_eq!(
            session.connected_many(&bad, &mut out),
            Err(QueryError::MismatchedLabels)
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_fault_set_answers_component_equality() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = scheme.labels();
        let session = l
            .session([] as [&EdgeLabel<crate::labels::RsVector>; 0])
            .unwrap();
        assert_eq!(session.num_faults(), 0);
        assert!(session
            .connected(l.vertex_label(0), l.vertex_label(2))
            .unwrap());
        assert!(!session
            .connected(l.vertex_label(0), l.vertex_label(3))
            .unwrap());
        assert!(session
            .connected(l.vertex_label(3), l.vertex_label(3))
            .unwrap());
    }

    #[test]
    fn session_accepts_owned_refs_and_duplicates() {
        let g = Graph::cycle(6);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let e0 = l.edge_label(0, 1).unwrap();
        let e3 = l.edge_label(3, 4).unwrap();

        // By reference, with duplicates collapsing below the budget.
        let by_ref = l.session([e0, e0, e3]).unwrap();
        assert_eq!(by_ref.num_faults(), 2);
        // By value.
        let by_val = l.session([e0.clone(), e3.clone()]).unwrap();
        // From a Vec of references.
        let by_vec = l.session(vec![e0, e3]).unwrap();
        for s in 0..6 {
            for t in 0..6 {
                let a = by_ref
                    .connected(l.vertex_label(s), l.vertex_label(t))
                    .unwrap();
                assert_eq!(
                    a,
                    by_val
                        .connected(l.vertex_label(s), l.vertex_label(t))
                        .unwrap()
                );
                assert_eq!(
                    a,
                    by_vec
                        .connected(l.vertex_label(s), l.vertex_label(t))
                        .unwrap()
                );
            }
        }
    }

    #[test]
    fn session_rejects_mismatched_and_oversized() {
        let g = Graph::cycle(5);
        let s1 = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let s2 = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let e1 = s1.labels().edge_label_by_id(0);
        let e2 = s2.labels().edge_label_by_id(1);
        assert_eq!(
            QuerySession::from_faults([e1, e2]).unwrap_err(),
            QueryError::MismatchedLabels
        );
        let f1 = s1.labels().edge_label_by_id(0);
        let f2 = s1.labels().edge_label_by_id(1);
        match s1.labels().session([f1, f2]) {
            Err(QueryError::TooManyFaults {
                supplied: 2,
                budget: 1,
            }) => {}
            other => panic!("expected budget violation, got {other:?}"),
        }
        // Vertex labels from another labeling are rejected at query time.
        let session = s1.labels().session([f1]).unwrap();
        assert_eq!(
            session.connected(s2.labels().vertex_label(0), s2.labels().vertex_label(1)),
            Err(QueryError::MismatchedLabels)
        );
        assert_eq!(
            session.connected(s1.labels().vertex_label(0), s2.labels().vertex_label(1)),
            Err(QueryError::MismatchedLabels)
        );
    }

    #[test]
    fn scratch_survives_failed_builds() {
        // A build that errors must leave the scratch reusable (storage is
        // handed back), and later builds must succeed.
        let g = Graph::cycle(5);
        let s1 = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = s1.labels();
        let mut scratch = SessionScratch::new();
        let good = l.session_in([l.edge_label_by_id(0)], &mut scratch).unwrap();
        scratch.recycle(good);
        match l.session_in([l.edge_label_by_id(0), l.edge_label_by_id(1)], &mut scratch) {
            Err(QueryError::TooManyFaults { .. }) => {}
            other => panic!("expected budget violation, got {other:?}"),
        }
        let again = l.session_in([l.edge_label_by_id(2)], &mut scratch).unwrap();
        assert!(again
            .connected(l.vertex_label(0), l.vertex_label(1))
            .unwrap());
    }

    #[test]
    fn certificates_connect_queried_fragments() {
        let g = Graph::torus(4, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
        let l = scheme.labels();
        let faults = [
            l.edge_label(0, 1).unwrap(),
            l.edge_label(0, 4).unwrap(),
            l.edge_label(0, 12).unwrap(),
        ];
        let session = l.session(faults).unwrap();
        // The torus is 4-edge-connected: always connected under 3 faults.
        let cert = session
            .certified(l.vertex_label(0), l.vertex_label(10))
            .unwrap()
            .expect("torus stays connected");
        // Same-fragment queries yield empty certificates.
        let trivial = session
            .certified(l.vertex_label(5), l.vertex_label(5))
            .unwrap()
            .unwrap();
        assert!(trivial.is_empty());
        // Certificate endpoints must be valid pre-orders of the labeling.
        for &(pa, pb) in cert {
            assert!((pa as usize) < l.header().aux_n as usize);
            assert!((pb as usize) < l.header().aux_n as usize);
        }
    }

    #[test]
    fn multi_component_graphs_are_handled() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let session = l
            .session([l.edge_label(0, 1).unwrap(), l.edge_label(3, 4).unwrap()])
            .unwrap();
        assert!(session
            .connected(l.vertex_label(0), l.vertex_label(1))
            .unwrap());
        assert!(session
            .connected(l.vertex_label(3), l.vertex_label(5))
            .unwrap());
        assert!(!session
            .connected(l.vertex_label(0), l.vertex_label(3))
            .unwrap());
        assert!(!session
            .connected(l.vertex_label(0), l.vertex_label(6))
            .unwrap());
        assert!(session
            .connected(l.vertex_label(6), l.vertex_label(6))
            .unwrap());
    }
}
