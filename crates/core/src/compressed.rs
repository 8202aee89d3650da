//! The v2 **compressed** label archive: entropy-coded sections behind an
//! O(header) open.
//!
//! The v1 archive ([`crate::store`]) stores every syndrome word verbatim
//! and validates the whole blob on open. For production archives both
//! choices hurt: a millions-of-vertices labeling is tens of gigabytes,
//! and a full-blob scan on every open front-loads exactly the I/O a
//! serving process wants to defer. The v2 container keeps the same
//! logical content but reorganizes it into independently framed
//! **sections**, each run through the [`ftc_compress`] transform + rANS
//! pipeline and guarded by its own checksum:
//!
//! ```text
//! offset size          field
//! 0      40            v1-compatible prologue (magic "FTCL", version 2,
//!                      encoding, LabelHeader, n, m, stride, idx count)
//! 40     4             k   (codec threshold, uniform over all records)
//! 44     4             levels
//! 48     4             section count (= 3 + levels)
//! 52     8             v1_len: byte length of the equivalent v1 archive
//! 60     count·32      section table: kind u8, transform u8, pad u16,
//!                      level u32, raw_len u64, comp_len u64, checksum u64
//! …      8             table checksum over every preceding byte
//! …      Σ comp_len    section payloads, in table order
//! ```
//!
//! Sections: the endpoint index, the vertex labels, the per-edge record
//! prefixes ("edge meta"), and one section per hierarchy level holding
//! all `m` syndrome rows of that level (transposed from v1's per-edge
//! grouping — rows of one level compress together far better than rows
//! of one edge).
//!
//! # Lazy validation state machine
//!
//! [`CompressedStoreView::open`] reads the prologue and section table
//! and verifies the table checksum — O(header), independent of archive
//! size. Each section then moves `untouched → validated` on first use:
//! its stored bytes are checksummed, decoded, structurally validated,
//! and cached (or the typed [`SerialError`] is cached, with an archive
//! byte offset). Queries touch the three small metadata sections plus
//! every level section of the faulted edges — a session decodes each
//! needed section exactly once, so steady-state query cost matches the
//! uncompressed archive.
//!
//! # Example
//!
//! ```
//! use ftc_core::compressed::{compress_archive, CompressedStoreView};
//! use ftc_core::store::{EdgeEncoding, LabelStore, LabelStoreView};
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//!
//! let g = Graph::torus(4, 4);
//! let scheme = FtcScheme::builder(&g).params(&Params::deterministic(2)).build().unwrap();
//! let v1 = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
//! let v2 = compress_archive(&LabelStoreView::open(&v1).unwrap());
//! assert!(v2.as_bytes().len() < v1.len());
//!
//! let view = CompressedStoreView::open(v2.into_vec()).unwrap();
//! let mut scratch = Default::default();
//! let session = view.session_in([(0, 1), (0, 4)], &mut scratch).unwrap();
//! let s = view.vertex(0).unwrap().unwrap();
//! let t = view.vertex(10).unwrap().unwrap();
//! assert!(session.connected(s, t).unwrap());
//! ```

use crate::ancestry::AncestryLabel;
use crate::labels::{EdgeLabelRead, EndpointIndex, LabelHeader, RsVector, VertexLabelRead};
use crate::mmap::MmapBuf;
use crate::scheme::{BuildCtx, LevelSink};
use crate::serial::{self, SerialError, SerialErrorKind, VertexLabelView};
use crate::session::{QuerySession, SessionScratch};
use crate::store::{self, EdgeEncoding, LabelStoreView, StoreError, StoreOpenError};
use ftc_compress::{checksum64, decode_bytes, decode_words, encode_bytes, encode_words};
use ftc_field::Gf64;
use ftc_graph::Graph;
use std::sync::{Arc, Mutex, OnceLock};

/// Version tag of the compressed container.
pub const STORE_VERSION_V2: u16 = 2;
/// Fixed prologue bytes before the section table.
const PROLOGUE_BYTES: usize = 60;
/// Bytes per section-table entry.
const SECTION_ENTRY_BYTES: usize = 32;
/// Table-checksum trailer bytes.
const TOC_CHECKSUM_BYTES: usize = 8;

/// Fixed section slots: levels follow at `SEC_LEVEL0 + level`.
const SEC_ENDPOINT: usize = 0;
const SEC_VERTICES: usize = 1;
const SEC_EDGEMETA: usize = 2;
const SEC_LEVEL0: usize = 3;

fn put_u32(buf: &mut [u8], at: usize, x: u32) {
    buf[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

/// What a v2 section holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// Sorted `(u, v, edge id)` endpoint triples.
    EndpointIndex,
    /// Fixed-stride vertex label records.
    VertexLabels,
    /// Per-edge record prefixes (magic, header, ancestries, geometry).
    EdgeMeta,
    /// All `m` syndrome rows of one hierarchy level.
    LevelRows,
}

impl SectionKind {
    fn tag(self) -> u8 {
        match self {
            SectionKind::EndpointIndex => 1,
            SectionKind::VertexLabels => 2,
            SectionKind::EdgeMeta => 3,
            SectionKind::LevelRows => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<SectionKind> {
        match tag {
            1 => Some(SectionKind::EndpointIndex),
            2 => Some(SectionKind::VertexLabels),
            3 => Some(SectionKind::EdgeMeta),
            4 => Some(SectionKind::LevelRows),
            _ => None,
        }
    }

    /// Human-readable section name (used by `ftc-cli info`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::EndpointIndex => "endpoint-index",
            SectionKind::VertexLabels => "vertex-labels",
            SectionKind::EdgeMeta => "edge-meta",
            SectionKind::LevelRows => "level-rows",
        }
    }
}

/// One row of the section table, as reported to tooling.
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// What the section holds.
    pub kind: SectionKind,
    /// Hierarchy level for [`SectionKind::LevelRows`] sections.
    pub level: Option<usize>,
    /// Uncompressed byte length.
    pub raw_len: usize,
    /// Stored (compressed) byte length.
    pub comp_len: usize,
    /// Transform stage flags (`ftc_compress::T_*`).
    pub transform: u8,
}

#[derive(Clone, Copy, Debug)]
struct SectionEntry {
    kind: SectionKind,
    transform: u8,
    level: u32,
    raw_len: usize,
    comp_len: usize,
    checksum: u64,
    /// Absolute byte offset of the stored payload inside the archive.
    payload_at: usize,
}

#[derive(Clone, Debug)]
struct V2Meta {
    header: LabelHeader,
    encoding: EdgeEncoding,
    n: usize,
    m: usize,
    idx_count: usize,
    k: usize,
    levels: usize,
    /// Byte length of the equivalent v1 archive.
    v1_len: usize,
    /// Stored words per edge per level (`2k` full, `k` compact).
    row_words: usize,
    sections: Vec<SectionEntry>,
}

/// A decoded, validated section, cached after first touch.
enum DecodedSection {
    Bytes(Box<[u8]>),
    Words(Box<[u64]>),
}

enum V2Buf {
    Shared(Arc<[u8]>),
    Mapped(Arc<MmapBuf>),
}

impl V2Buf {
    fn bytes(&self) -> &[u8] {
        match self {
            V2Buf::Shared(a) => a,
            V2Buf::Mapped(m) => m.bytes(),
        }
    }
}

struct Inner {
    buf: V2Buf,
    meta: V2Meta,
    decoded: Vec<OnceLock<Result<DecodedSection, SerialError>>>,
}

/// A handle over a v2 compressed archive: O(header) to open, sections
/// checksum-validated and decoded lazily on first touch, then cached.
/// Clones share the buffer and the decoded-section cache, so the handle
/// is the natural unit a concurrent serving layer holds (`Send + Sync`).
#[derive(Clone)]
pub struct CompressedStoreView {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CompressedStoreView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedStoreView")
            .field("n", &self.inner.meta.n)
            .field("m", &self.inner.meta.m)
            .field("levels", &self.inner.meta.levels)
            .field("archive_bytes", &self.inner.buf.bytes().len())
            .finish()
    }
}

impl CompressedStoreView {
    /// Opens a v2 archive, validating **only** the prologue and section
    /// table (plus the table checksum): O(header), independent of the
    /// archive size. Section payloads are validated lazily on first
    /// touch.
    ///
    /// # Errors
    ///
    /// [`SerialError`] with the offending archive byte offset.
    pub fn open(bytes: impl Into<Arc<[u8]>>) -> Result<CompressedStoreView, SerialError> {
        let bytes: Arc<[u8]> = bytes.into();
        let meta = parse_v2(&bytes)?;
        Ok(CompressedStoreView::from_parts(V2Buf::Shared(bytes), meta))
    }

    fn from_parts(buf: V2Buf, meta: V2Meta) -> CompressedStoreView {
        let decoded = (0..meta.sections.len()).map(|_| OnceLock::new()).collect();
        CompressedStoreView {
            inner: Arc::new(Inner { buf, meta, decoded }),
        }
    }

    /// The shared labeling header.
    pub fn header(&self) -> LabelHeader {
        self.inner.meta.header
    }

    /// The edge encoding of the underlying records.
    pub fn encoding(&self) -> EdgeEncoding {
        self.inner.meta.encoding
    }

    /// Number of archived vertex labels.
    pub fn n(&self) -> usize {
        self.inner.meta.n
    }

    /// Number of archived edge labels.
    pub fn m(&self) -> usize {
        self.inner.meta.m
    }

    /// Codec threshold `k`, uniform over all records.
    pub fn k(&self) -> usize {
        self.inner.meta.k
    }

    /// Hierarchy level count.
    pub fn levels(&self) -> usize {
        self.inner.meta.levels
    }

    /// Total archive size in bytes (compressed).
    pub fn archive_bytes(&self) -> usize {
        self.inner.buf.bytes().len()
    }

    /// Byte length of the equivalent v1 (uncompressed) archive — the
    /// denominator of the compression ratio.
    pub fn v1_len(&self) -> usize {
        self.inner.meta.v1_len
    }

    /// The section table, for tooling (`ftc-cli info`).
    pub fn sections(&self) -> impl ExactSizeIterator<Item = SectionInfo> + '_ {
        self.inner.meta.sections.iter().map(|s| SectionInfo {
            kind: s.kind,
            level: (s.kind == SectionKind::LevelRows).then_some(s.level as usize),
            raw_len: s.raw_len,
            comp_len: s.comp_len,
            transform: s.transform,
        })
    }

    /// Decodes (once) and returns a section. The `Result` is cached, so
    /// a corrupt section reports the same error on every touch.
    fn section(&self, idx: usize) -> Result<&DecodedSection, SerialError> {
        let slot = &self.inner.decoded[idx];
        let res = slot.get_or_init(|| self.decode_section(idx));
        match res {
            Ok(d) => Ok(d),
            Err(e) => Err(*e),
        }
    }

    fn section_bytes(&self, idx: usize) -> Result<&[u8], SerialError> {
        match self.section(idx)? {
            DecodedSection::Bytes(b) => Ok(b),
            DecodedSection::Words(_) => unreachable!("byte section decoded as words"),
        }
    }

    fn section_words(&self, idx: usize) -> Result<&[u64], SerialError> {
        match self.section(idx)? {
            DecodedSection::Words(w) => Ok(w),
            DecodedSection::Bytes(_) => unreachable!("word section decoded as bytes"),
        }
    }

    /// First-touch pipeline for one section: stored-byte checksum, then
    /// transform/entropy decode, then structural validation of the
    /// decoded content (mirroring what v1 `open` checks eagerly).
    fn decode_section(&self, idx: usize) -> Result<DecodedSection, SerialError> {
        let meta = &self.inner.meta;
        let entry = &meta.sections[idx];
        let payload = &self.inner.buf.bytes()[entry.payload_at..entry.payload_at + entry.comp_len];
        if checksum64(payload) != entry.checksum {
            return Err(SerialError::new(
                SerialErrorKind::Checksum,
                entry.payload_at,
            ));
        }
        let rebase = |e: ftc_compress::CodecError| {
            SerialError::new(
                SerialErrorKind::Inconsistent,
                entry.payload_at + e.offset.min(entry.comp_len),
            )
        };
        let inconsistent = SerialError::new(SerialErrorKind::Inconsistent, entry.payload_at);
        match entry.kind {
            SectionKind::EndpointIndex => {
                let bytes = decode_bytes(
                    payload,
                    entry.transform,
                    entry.raw_len,
                    store::ENDPOINT_ENTRY_BYTES,
                )
                .map_err(rebase)?;
                // Strictly sorted normalized pairs, edge IDs in range —
                // the invariants `edge_id`'s binary search relies on.
                let mut prev: Option<(u32, u32)> = None;
                for rec in bytes.chunks_exact(store::ENDPOINT_ENTRY_BYTES) {
                    let u = store::u32_at(rec, 0);
                    let v = store::u32_at(rec, 4);
                    let e = store::u32_at(rec, 8) as usize;
                    if u >= v || e >= meta.m || prev.is_some_and(|p| p >= (u, v)) {
                        return Err(inconsistent);
                    }
                    prev = Some((u, v));
                }
                Ok(DecodedSection::Bytes(bytes.into_boxed_slice()))
            }
            SectionKind::VertexLabels => {
                let bytes = decode_bytes(
                    payload,
                    entry.transform,
                    entry.raw_len,
                    serial::VERTEX_LABEL_BYTES,
                )
                .map_err(rebase)?;
                for rec in bytes.chunks_exact(serial::VERTEX_LABEL_BYTES) {
                    let vl = VertexLabelView::new(rec).map_err(|_| inconsistent)?;
                    if VertexLabelRead::header(&vl) != meta.header {
                        return Err(inconsistent);
                    }
                }
                Ok(DecodedSection::Bytes(bytes.into_boxed_slice()))
            }
            SectionKind::EdgeMeta => {
                let bytes = decode_bytes(
                    payload,
                    entry.transform,
                    entry.raw_len,
                    serial::EDGE_WORDS_OFFSET,
                )
                .map_err(rebase)?;
                let expect_magic = match meta.encoding {
                    EdgeEncoding::Full => serial::EDGE_MAGIC,
                    EdgeEncoding::Compact => serial::COMPACT_EDGE_MAGIC,
                };
                let expect_geom = match meta.encoding {
                    EdgeEncoding::Full => (2 * meta.k * meta.levels) as u32,
                    EdgeEncoding::Compact => meta.levels as u32,
                };
                for rec in bytes.chunks_exact(serial::EDGE_WORDS_OFFSET) {
                    let magic = u16::from_le_bytes([rec[0], rec[1]]);
                    let header = LabelHeader {
                        f: store::u32_at(rec, 2),
                        aux_n: store::u32_at(rec, 6),
                        tag: store::u64_at(rec, 10),
                    };
                    let k = store::u32_at(rec, serial::EDGE_WORDS_OFFSET - 8) as usize;
                    let geom = store::u32_at(rec, serial::EDGE_WORDS_OFFSET - 4);
                    if magic != expect_magic
                        || header != meta.header
                        || k != meta.k
                        || geom != expect_geom
                    {
                        return Err(inconsistent);
                    }
                }
                Ok(DecodedSection::Bytes(bytes.into_boxed_slice()))
            }
            SectionKind::LevelRows => {
                let words = decode_words(
                    payload,
                    entry.transform,
                    entry.raw_len / 8,
                    meta.row_words.max(1),
                )
                .map_err(rebase)?;
                Ok(DecodedSection::Words(words.into_boxed_slice()))
            }
        }
    }

    /// The label of vertex `v` — O(1) after the vertex section's
    /// first-touch decode; `Ok(None)` when `v` is out of range.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if the vertex section fails lazy validation.
    pub fn vertex(&self, v: usize) -> Result<Option<VertexLabelView<'_>>, SerialError> {
        if v >= self.inner.meta.n {
            return Ok(None);
        }
        let bytes = self.section_bytes(SEC_VERTICES)?;
        let at = v * serial::VERTEX_LABEL_BYTES;
        Ok(Some(
            VertexLabelView::new(&bytes[at..at + serial::VERTEX_LABEL_BYTES])
                .expect("validated on first touch"),
        ))
    }

    /// Resolves an endpoint pair to its edge ID — O(log m) after the
    /// endpoint section's first-touch decode; `Ok(None)` for pairs the
    /// labeling does not contain.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if the endpoint section fails lazy validation.
    pub fn edge_id(&self, u: usize, v: usize) -> Result<Option<usize>, SerialError> {
        let key = ((u.min(v)) as u32, (u.max(v)) as u32);
        let bytes = self.section_bytes(SEC_ENDPOINT)?;
        let mut lo = 0usize;
        let mut hi = self.inner.meta.idx_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at = mid * store::ENDPOINT_ENTRY_BYTES;
            let pair = (store::u32_at(bytes, at), store::u32_at(bytes, at + 4));
            match pair.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Ok(Some(store::u32_at(bytes, at + 8) as usize))
                }
            }
        }
        Ok(None)
    }

    /// Reassembles edge `e`'s v1-format record from the edge-meta and
    /// level sections — the decode-once gather feeding a session. `None`
    /// when `e` is out of range.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if any touched section fails lazy validation.
    pub fn gather_edge(&self, e: usize) -> Result<Option<GatheredEdge>, SerialError> {
        let meta = &self.inner.meta;
        if e >= meta.m {
            return Ok(None);
        }
        let row_bytes = meta.row_words * 8;
        let mut rec = vec![0u8; serial::EDGE_WORDS_OFFSET + meta.levels * row_bytes];
        let meta_bytes = self.section_bytes(SEC_EDGEMETA)?;
        rec[..serial::EDGE_WORDS_OFFSET].copy_from_slice(
            &meta_bytes[e * serial::EDGE_WORDS_OFFSET..(e + 1) * serial::EDGE_WORDS_OFFSET],
        );
        for level in 0..meta.levels {
            let words = self.section_words(SEC_LEVEL0 + level)?;
            let src = &words[e * meta.row_words..(e + 1) * meta.row_words];
            let base = serial::EDGE_WORDS_OFFSET + level * row_bytes;
            for (j, &w) in src.iter().enumerate() {
                store::put_u64(&mut rec, base + 8 * j, w);
            }
        }
        Ok(Some(GatheredEdge {
            bytes: rec.into_boxed_slice(),
        }))
    }

    /// Builds a [`QuerySession`] for faults named by endpoint pairs,
    /// drawing buffers from `scratch` — the serving hot path. Each
    /// session decodes every touched section at most once (usually
    /// zero times: sections stay cached across sessions).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownEdge`] for unindexed pairs,
    /// [`StoreError::Corrupt`] if a section fails lazy validation,
    /// [`StoreError::Query`] from the session build.
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let ids = faults
            .into_iter()
            .map(|(u, v)| {
                self.edge_id(u, v)
                    .map_err(StoreError::Corrupt)?
                    .ok_or(StoreError::UnknownEdge { u, v })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.session_in_by_ids(ids, scratch)
    }

    /// Like [`CompressedStoreView::session_in`] with a throwaway scratch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompressedStoreView::session_in`].
    pub fn session<I>(&self, faults: I) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        self.session_in(faults, &mut SessionScratch::new())
    }

    /// Builds a session for faults named by edge IDs (the serving-layer
    /// path; callers validate IDs against `0..m` first).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownEdge`] (with the ID in both slots) for an
    /// out-of-range ID, otherwise as [`CompressedStoreView::session_in`].
    pub fn session_in_by_ids<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut gathered = Vec::new();
        for e in faults {
            gathered.push(
                self.gather_edge(e)
                    .map_err(StoreError::Corrupt)?
                    .ok_or(StoreError::UnknownEdge { u: e, v: e })?,
            );
        }
        Ok(QuerySession::new_in(
            self.inner.meta.header,
            gathered,
            scratch,
        )?)
    }

    /// Reconstructs the byte-identical v1 archive this container was
    /// compressed from (decodes every section).
    ///
    /// # Errors
    ///
    /// [`SerialError`] if any section fails validation.
    pub fn to_v1_vec(&self) -> Result<Vec<u8>, SerialError> {
        let meta = &self.inner.meta;
        let (n, m) = (meta.n, meta.m);
        let row_bytes = meta.row_words * 8;
        let record_len = serial::EDGE_WORDS_OFFSET + meta.levels * row_bytes;
        let offsets_at = store::FIXED_HEADER_BYTES;
        let endpoint_at = offsets_at + (m + 1) * 8;
        let vertices_at = endpoint_at + meta.idx_count * store::ENDPOINT_ENTRY_BYTES;
        let edges_at = vertices_at + n * serial::VERTEX_LABEL_BYTES;
        let total = edges_at + m * record_len + store::TRAILING_CHECKSUM_BYTES;
        debug_assert_eq!(total, meta.v1_len, "validated at open");

        let mut out = vec![0u8; total];
        store::write_fixed_header(
            &mut out,
            store::STORE_VERSION,
            meta.header,
            meta.encoding,
            n,
            m,
            meta.idx_count,
        );
        for e in 0..=m {
            store::put_u64(&mut out, offsets_at + 8 * e, (e * record_len) as u64);
        }
        out[endpoint_at..vertices_at].copy_from_slice(self.section_bytes(SEC_ENDPOINT)?);
        out[vertices_at..edges_at].copy_from_slice(self.section_bytes(SEC_VERTICES)?);
        let meta_bytes = self.section_bytes(SEC_EDGEMETA)?;
        for e in 0..m {
            let at = edges_at + e * record_len;
            out[at..at + serial::EDGE_WORDS_OFFSET].copy_from_slice(
                &meta_bytes[e * serial::EDGE_WORDS_OFFSET..(e + 1) * serial::EDGE_WORDS_OFFSET],
            );
        }
        for level in 0..meta.levels {
            let words = self.section_words(SEC_LEVEL0 + level)?;
            for e in 0..m {
                let base =
                    edges_at + e * record_len + serial::EDGE_WORDS_OFFSET + level * row_bytes;
                for (j, &w) in words[e * meta.row_words..(e + 1) * meta.row_words]
                    .iter()
                    .enumerate()
                {
                    store::put_u64(&mut out, base + 8 * j, w);
                }
            }
        }
        store::seal_v1_checksum(&mut out);
        Ok(out)
    }
}

/// An edge record reassembled from compressed sections: owns its v1
/// layout bytes and reads like any archived edge view.
#[derive(Clone, Debug)]
pub struct GatheredEdge {
    bytes: Box<[u8]>,
}

impl GatheredEdge {
    fn view(&self) -> serial::EdgeLabelView<'_> {
        serial::EdgeLabelView::new(&self.bytes).expect("gathered from validated sections")
    }
}

impl EdgeLabelRead for GatheredEdge {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        self.view().header()
    }

    fn anc_upper(&self) -> AncestryLabel {
        self.view().anc_upper()
    }

    fn anc_lower(&self) -> AncestryLabel {
        self.view().anc_lower()
    }

    fn slab_words(&self) -> usize {
        self.view().slab_words()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        self.view().xor_into_slab(dst);
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        self.view().configure_detector(det);
    }
}

/// An owned v2 archive (the write side; reading goes through
/// [`CompressedStoreView`]).
#[derive(Clone, Debug)]
pub struct CompressedStore {
    bytes: Vec<u8>,
}

impl CompressedStore {
    /// The raw archive bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the store, returning the archive bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Opens a view over the owned bytes (shares them via `Arc`).
    ///
    /// # Errors
    ///
    /// Never fails on archives produced by this crate; returns the
    /// underlying [`SerialError`] otherwise.
    pub fn view(&self) -> Result<CompressedStoreView, SerialError> {
        CompressedStoreView::open(self.bytes.clone())
    }
}

/// Either archive format behind one label-source surface: the only code
/// that dispatches between the v1 [`LabelStoreView`] and the v2
/// [`CompressedStoreView`]. Every method is a two-arm delegation, so a
/// consumer (the serving layer, the CLI) resolves vertices and fault
/// edges and builds sessions without knowing which format it holds.
#[derive(Clone, Debug)]
pub enum AnyArchive {
    /// A v1 (uncompressed) archive view.
    V1(LabelStoreView<'static>),
    /// A v2 (compressed) archive view.
    V2(CompressedStoreView),
}

impl AnyArchive {
    /// Number of vertex labels.
    pub fn n(&self) -> usize {
        match self {
            AnyArchive::V1(v) => v.n(),
            AnyArchive::V2(v) => v.n(),
        }
    }

    /// Number of edge labels.
    pub fn m(&self) -> usize {
        match self {
            AnyArchive::V1(v) => v.m(),
            AnyArchive::V2(v) => v.m(),
        }
    }

    /// The shared labeling header.
    pub fn header(&self) -> LabelHeader {
        match self {
            AnyArchive::V1(v) => v.header(),
            AnyArchive::V2(v) => v.header(),
        }
    }

    /// The edge encoding of the stored records.
    pub fn encoding(&self) -> EdgeEncoding {
        match self {
            AnyArchive::V1(v) => v.encoding(),
            AnyArchive::V2(v) => v.encoding(),
        }
    }

    /// On-disk archive size in bytes.
    pub fn archive_bytes(&self) -> usize {
        match self {
            AnyArchive::V1(v) => v.archive_bytes(),
            AnyArchive::V2(v) => v.archive_bytes(),
        }
    }

    /// The codec threshold `k` of the stored edge labels.
    pub fn k(&self) -> usize {
        match self {
            AnyArchive::V1(v) => v.k(),
            AnyArchive::V2(v) => v.k(),
        }
    }

    /// Number of stored hierarchy levels.
    pub fn levels(&self) -> usize {
        match self {
            AnyArchive::V1(v) => v.levels(),
            AnyArchive::V2(v) => v.levels(),
        }
    }

    /// The label of vertex `v`; `Ok(None)` when `v` is out of range.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if a v2 vertex section fails lazy validation.
    pub fn vertex(&self, v: usize) -> Result<Option<VertexLabelView<'_>>, SerialError> {
        match self {
            AnyArchive::V1(view) => Ok(view.vertex(v)),
            AnyArchive::V2(view) => view.vertex(v),
        }
    }

    /// The edge ID of the edge joining `u` and `v` (either order);
    /// `Ok(None)` when no such edge is stored.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if a v2 endpoint section fails lazy validation.
    pub fn edge_id(&self, u: usize, v: usize) -> Result<Option<usize>, SerialError> {
        match self {
            AnyArchive::V1(view) => Ok(view.edge_id(u, v)),
            AnyArchive::V2(view) => view.edge_id(u, v),
        }
    }

    /// Builds a [`QuerySession`] for faults named by endpoint pairs,
    /// drawing buffers from `scratch`.
    ///
    /// # Errors
    ///
    /// As [`LabelStoreView::session_in`] / [`CompressedStoreView::session_in`].
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        match self {
            AnyArchive::V1(view) => view.session_in(faults, scratch),
            AnyArchive::V2(view) => view.session_in(faults, scratch),
        }
    }

    /// Builds a [`QuerySession`] for faults named by edge ID, drawing
    /// buffers from `scratch`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownEdge`] (with the ID in both slots) for an
    /// out-of-range ID, otherwise as [`AnyArchive::session_in`].
    pub fn session_in_by_ids<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = usize>,
    {
        match self {
            AnyArchive::V1(view) => view.session_in_by_ids(faults, scratch),
            AnyArchive::V2(view) => view.session_in_by_ids(faults, scratch),
        }
    }

    /// The archive as a fully validated v1 view: a v1 archive as-is, a
    /// v2 archive expanded to its byte-identical v1 blob (decodes every
    /// section).
    ///
    /// # Errors
    ///
    /// [`SerialError`] if a v2 section fails validation.
    pub fn into_v1(self) -> Result<LabelStoreView<'static>, SerialError> {
        match self {
            AnyArchive::V1(view) => Ok(view),
            AnyArchive::V2(view) => LabelStoreView::open_shared(view.to_v1_vec()?),
        }
    }
}

/// Opens an archive file of **either** format, dispatching on the
/// version tag: v1 archives get a fully validated memory-mapped
/// [`LabelStoreView`], v2 archives an O(header) [`CompressedStoreView`].
///
/// # Errors
///
/// [`StoreOpenError::Io`] on filesystem failure;
/// [`StoreOpenError::Malformed`] when the bytes fit neither format
/// (unknown versions report `UnsupportedVersion` at offset 4).
pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<AnyArchive, StoreOpenError> {
    let buf = Arc::new(MmapBuf::open(path.as_ref())?);
    let bytes = buf.bytes();
    if bytes.len() < 6 {
        return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()).into());
    }
    if bytes[..4] != store::STORE_MAGIC {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0).into());
    }
    match u16::from_le_bytes([bytes[4], bytes[5]]) {
        store::STORE_VERSION => Ok(AnyArchive::V1(LabelStoreView::from_mmap(buf)?)),
        STORE_VERSION_V2 => {
            let meta = parse_v2(buf.bytes())?;
            Ok(AnyArchive::V2(CompressedStoreView::from_parts(
                V2Buf::Mapped(buf),
                meta,
            )))
        }
        _ => Err(SerialError::new(SerialErrorKind::UnsupportedVersion, 4).into()),
    }
}

/// O(header) parse + validation of a v2 archive's prologue and section
/// table.
fn parse_v2(bytes: &[u8]) -> Result<V2Meta, SerialError> {
    let truncated = |at: usize| SerialError::new(SerialErrorKind::Truncated, at);
    let inconsistent = |at: usize| SerialError::new(SerialErrorKind::Inconsistent, at);
    if bytes.len() < PROLOGUE_BYTES {
        return Err(truncated(bytes.len()));
    }
    if bytes[..4] != store::STORE_MAGIC {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != STORE_VERSION_V2 {
        return Err(SerialError::new(SerialErrorKind::UnsupportedVersion, 4));
    }
    let encoding = EdgeEncoding::from_tag(bytes[6]).ok_or(inconsistent(6))?;
    if bytes[7] != 0 {
        return Err(inconsistent(7));
    }
    let header = LabelHeader {
        f: store::u32_at(bytes, 8),
        aux_n: store::u32_at(bytes, 12),
        tag: store::u64_at(bytes, 16),
    };
    let n = store::u32_at(bytes, 24) as usize;
    let m = store::u32_at(bytes, 28) as usize;
    if store::u32_at(bytes, 32) as usize != serial::VERTEX_LABEL_BYTES {
        return Err(inconsistent(32));
    }
    let idx_count = store::u32_at(bytes, 36) as usize;
    if idx_count > m {
        return Err(inconsistent(36));
    }
    let k = store::u32_at(bytes, 40) as usize;
    let levels = store::u32_at(bytes, 44) as usize;
    let section_count = store::u32_at(bytes, 48) as usize;
    if section_count != SEC_LEVEL0 + levels {
        return Err(inconsistent(48));
    }
    let v1_len = store::u64_at(bytes, 52);
    let Ok(v1_len) = usize::try_from(v1_len) else {
        return Err(inconsistent(52));
    };

    let table_end = PROLOGUE_BYTES + section_count * SECTION_ENTRY_BYTES;
    if bytes.len() < table_end + TOC_CHECKSUM_BYTES {
        return Err(truncated(bytes.len()));
    }
    // The table checksum guards everything `open` trusts without
    // touching payloads: a bit flip anywhere in the prologue or table is
    // caught here, in O(header).
    if store::u64_at(bytes, table_end) != checksum64(&bytes[..table_end]) {
        return Err(SerialError::new(SerialErrorKind::Checksum, table_end));
    }

    let row_words = store::payload_words(encoding, k, 1);
    let row_bytes = row_words * 8;
    let record_len = serial::EDGE_WORDS_OFFSET + levels * row_bytes;
    let expected_v1 = store::FIXED_HEADER_BYTES
        + (m + 1) * 8
        + idx_count * store::ENDPOINT_ENTRY_BYTES
        + n * serial::VERTEX_LABEL_BYTES
        + m * record_len
        + store::TRAILING_CHECKSUM_BYTES;
    if v1_len != expected_v1 {
        return Err(inconsistent(52));
    }

    let mut sections = Vec::with_capacity(section_count);
    let mut payload_at = table_end + TOC_CHECKSUM_BYTES;
    for i in 0..section_count {
        let at = PROLOGUE_BYTES + i * SECTION_ENTRY_BYTES;
        let kind = SectionKind::from_tag(bytes[at]).ok_or(inconsistent(at))?;
        let transform = bytes[at + 1];
        if bytes[at + 2] != 0 || bytes[at + 3] != 0 {
            return Err(inconsistent(at + 2));
        }
        let level = store::u32_at(bytes, at + 4);
        let raw_len = store::u64_at(bytes, at + 8);
        let comp_len = store::u64_at(bytes, at + 16);
        let checksum = store::u64_at(bytes, at + 24);
        let (Ok(raw_len), Ok(comp_len)) = (usize::try_from(raw_len), usize::try_from(comp_len))
        else {
            return Err(inconsistent(at + 8));
        };
        // Fixed slot assignment and geometry-derived raw lengths: the
        // decoder can then trust index arithmetic into decoded sections.
        let (expect_kind, expect_level, expect_raw) = match i {
            SEC_ENDPOINT => (
                SectionKind::EndpointIndex,
                0,
                idx_count * store::ENDPOINT_ENTRY_BYTES,
            ),
            SEC_VERTICES => (SectionKind::VertexLabels, 0, n * serial::VERTEX_LABEL_BYTES),
            SEC_EDGEMETA => (SectionKind::EdgeMeta, 0, m * serial::EDGE_WORDS_OFFSET),
            _ => (
                SectionKind::LevelRows,
                (i - SEC_LEVEL0) as u32,
                m * row_bytes,
            ),
        };
        if kind != expect_kind || level != expect_level || raw_len != expect_raw {
            return Err(inconsistent(at));
        }
        let Some(end) = payload_at.checked_add(comp_len) else {
            return Err(inconsistent(at + 16));
        };
        if end > bytes.len() {
            return Err(truncated(bytes.len()));
        }
        sections.push(SectionEntry {
            kind,
            transform,
            level,
            raw_len,
            comp_len,
            checksum,
            payload_at,
        });
        payload_at = end;
    }
    if payload_at != bytes.len() {
        return Err(SerialError::new(SerialErrorKind::TrailingBytes, payload_at));
    }

    Ok(V2Meta {
        header,
        encoding,
        n,
        m,
        idx_count,
        k,
        levels,
        v1_len,
        row_words,
        sections,
    })
}

/// Serializes prologue + table + payloads from encoded section blocks.
#[allow(clippy::too_many_arguments)]
fn assemble_v2(
    header: LabelHeader,
    encoding: EdgeEncoding,
    n: usize,
    m: usize,
    idx_count: usize,
    k: usize,
    levels: usize,
    v1_len: usize,
    blocks: &[ftc_compress::EncodedBlock],
) -> Vec<u8> {
    debug_assert_eq!(blocks.len(), SEC_LEVEL0 + levels);
    let section_count = blocks.len();
    let table_end = PROLOGUE_BYTES + section_count * SECTION_ENTRY_BYTES;
    let payload_len: usize = blocks.iter().map(|b| b.payload.len()).sum();
    let mut out = vec![0u8; table_end + TOC_CHECKSUM_BYTES + payload_len];

    store::write_fixed_header(
        &mut out,
        STORE_VERSION_V2,
        header,
        encoding,
        n,
        m,
        idx_count,
    );
    put_u32(&mut out, 40, k as u32);
    put_u32(&mut out, 44, levels as u32);
    put_u32(&mut out, 48, section_count as u32);
    store::put_u64(&mut out, 52, v1_len as u64);

    let mut payload_at = table_end + TOC_CHECKSUM_BYTES;
    for (i, block) in blocks.iter().enumerate() {
        let at = PROLOGUE_BYTES + i * SECTION_ENTRY_BYTES;
        let (kind, level) = match i {
            SEC_ENDPOINT => (SectionKind::EndpointIndex, 0),
            SEC_VERTICES => (SectionKind::VertexLabels, 0),
            SEC_EDGEMETA => (SectionKind::EdgeMeta, 0),
            _ => (SectionKind::LevelRows, (i - SEC_LEVEL0) as u32),
        };
        out[at] = kind.tag();
        out[at + 1] = block.transform;
        put_u32(&mut out, at + 4, level);
        store::put_u64(&mut out, at + 8, block.raw_len);
        store::put_u64(&mut out, at + 16, block.payload.len() as u64);
        store::put_u64(&mut out, at + 24, checksum64(&block.payload));
        out[payload_at..payload_at + block.payload.len()].copy_from_slice(&block.payload);
        payload_at += block.payload.len();
    }
    let toc = checksum64(&out[..table_end]);
    store::put_u64(&mut out, table_end, toc);
    out
}

/// Transcodes a validated v1 archive into the v2 compressed container.
/// Lossless: [`CompressedStoreView::to_v1_vec`] reproduces the input
/// byte for byte.
pub fn compress_archive(view: &LabelStoreView<'_>) -> CompressedStore {
    let meta = view.meta();
    let bytes = view.as_bytes();
    let (n, m) = (meta.n, meta.m);
    let encoding = meta.encoding;

    // Uniform record geometry is a v1 open invariant, so reading it off
    // record 0 describes every record.
    let (k, levels) = if m == 0 {
        (0, 0)
    } else {
        let (at, _) = view.edge_span(0);
        let k = store::u32_at(bytes, at + serial::EDGE_WORDS_OFFSET - 8) as usize;
        let geom = store::u32_at(bytes, at + serial::EDGE_WORDS_OFFSET - 4) as usize;
        let levels = match encoding {
            EdgeEncoding::Full => {
                if k == 0 {
                    0
                } else {
                    geom / (2 * k)
                }
            }
            EdgeEncoding::Compact => geom,
        };
        (k, levels)
    };
    let row_words = store::payload_words(encoding, k, 1);

    let mut blocks = Vec::with_capacity(SEC_LEVEL0 + levels);
    blocks.push(encode_bytes(
        &bytes[meta.endpoint_at..meta.vertices_at],
        store::ENDPOINT_ENTRY_BYTES,
    ));
    blocks.push(encode_bytes(
        &bytes[meta.vertices_at..meta.edges_at],
        serial::VERTEX_LABEL_BYTES,
    ));
    let mut meta_buf = vec![0u8; m * serial::EDGE_WORDS_OFFSET];
    for e in 0..m {
        let (at, _) = view.edge_span(e);
        meta_buf[e * serial::EDGE_WORDS_OFFSET..(e + 1) * serial::EDGE_WORDS_OFFSET]
            .copy_from_slice(&bytes[at..at + serial::EDGE_WORDS_OFFSET]);
    }
    blocks.push(encode_bytes(&meta_buf, serial::EDGE_WORDS_OFFSET));
    drop(meta_buf);

    // Transpose: one section per level, all edges' rows for that level.
    let mut words = vec![0u64; m * row_words];
    for level in 0..levels {
        for e in 0..m {
            let (at, _) = view.edge_span(e);
            let base = at + serial::EDGE_WORDS_OFFSET + level * row_words * 8;
            for (j, w) in words[e * row_words..(e + 1) * row_words]
                .iter_mut()
                .enumerate()
            {
                *w = store::u64_at(bytes, base + 8 * j);
            }
        }
        blocks.push(encode_words(
            &words,
            row_words,
            encoding == EdgeEncoding::Full,
        ));
    }

    let out = assemble_v2(
        meta.header,
        encoding,
        n,
        m,
        meta.idx_count,
        k,
        levels,
        bytes.len(),
        &blocks,
    );
    debug_assert!(parse_v2(&out).is_ok());
    CompressedStore { bytes: out }
}

/// [`LevelSink`] staging each level's rows and compressing them the
/// moment the level completes — the streaming compressed-build path.
/// Peak memory is one (full-width) level buffer per worker thread plus
/// the already-encoded blocks, never the uncompressed blob.
struct CompressingSink {
    m: usize,
    /// Words stored per edge per level (`2k` full / `k` compact).
    row_words: usize,
    encoding: EdgeEncoding,
    staging: Vec<Mutex<Vec<u64>>>,
    encoded: Vec<Mutex<Option<ftc_compress::EncodedBlock>>>,
}

impl LevelSink for CompressingSink {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]) {
        let mut stage = self.staging[level].lock().expect("sink poisoned");
        if stage.is_empty() {
            stage.resize(self.m * self.row_words, 0);
        }
        let dst = &mut stage[e * self.row_words..(e + 1) * self.row_words];
        match self.encoding {
            EdgeEncoding::Full => {
                for (d, x) in dst.iter_mut().zip(row) {
                    *d = x.to_bits();
                }
            }
            EdgeEncoding::Compact => {
                for (d, x) in dst.iter_mut().zip(row.iter().step_by(2)) {
                    *d = x.to_bits();
                }
            }
        }
    }

    fn finish_level(&self, level: usize) {
        let words = std::mem::take(&mut *self.staging[level].lock().expect("sink poisoned"));
        let block = encode_words(
            &words,
            self.row_words.max(1),
            self.encoding == EdgeEncoding::Full,
        );
        *self.encoded[level].lock().expect("sink poisoned") = Some(block);
    }
}

/// Runs a staged construction straight into a v2 compressed archive —
/// the counterpart of [`crate::store::stream_from_build`]. Byte-identical
/// to [`compress_archive`] of the equivalent streamed v1 archive, for
/// every thread count.
pub(crate) fn stream_compressed_from_build(
    g: &Graph,
    ctx: &BuildCtx,
    threads: usize,
    encoding: EdgeEncoding,
) -> CompressedStore {
    let (n, m) = (g.n(), g.m());
    let (k, levels, header) = (ctx.k, ctx.levels, ctx.header);
    let row_words = store::payload_words(encoding, k, 1);
    let record_len = serial::EDGE_WORDS_OFFSET + levels * row_words * 8;
    let index = EndpointIndex::from_edges(g.edge_iter().map(|(_, u, v)| (u, v)));

    let sink = CompressingSink {
        m,
        row_words,
        encoding,
        staging: (0..levels).map(|_| Mutex::new(Vec::new())).collect(),
        encoded: (0..levels).map(|_| Mutex::new(None)).collect(),
    };
    crate::scheme::build_subtree_sums(&ctx.aux, &ctx.hierarchy, k, levels, threads, &sink);

    let mut blocks = Vec::with_capacity(SEC_LEVEL0 + levels);
    let mut endpoint_buf = vec![0u8; index.len() * store::ENDPOINT_ENTRY_BYTES];
    store::write_endpoint_index(&mut endpoint_buf, 0, &index);
    blocks.push(encode_bytes(&endpoint_buf, store::ENDPOINT_ENTRY_BYTES));
    drop(endpoint_buf);

    let mut vertex_buf = vec![0u8; n * serial::VERTEX_LABEL_BYTES];
    store::write_vertex_labels(&mut vertex_buf, 0, n, header, |v| ctx.aux.anc[v]);
    blocks.push(encode_bytes(&vertex_buf, serial::VERTEX_LABEL_BYTES));
    drop(vertex_buf);

    let mut meta_buf = vec![0u8; m * serial::EDGE_WORDS_OFFSET];
    for (e, &lower) in ctx.aux.sigma_lower.iter().enumerate() {
        let upper = ctx.aux.tree.parent(lower).expect("σ(e) lower has a parent");
        store::write_edge_prefix(
            &mut meta_buf,
            e * serial::EDGE_WORDS_OFFSET,
            header,
            &ctx.aux.anc[upper],
            &ctx.aux.anc[lower],
            encoding,
            k,
            levels,
        );
    }
    blocks.push(encode_bytes(&meta_buf, serial::EDGE_WORDS_OFFSET));
    drop(meta_buf);

    for slot in sink.encoded {
        let block = slot
            .into_inner()
            .expect("sink poisoned")
            .unwrap_or_else(|| encode_words(&[], row_words.max(1), false));
        blocks.push(block);
    }

    let v1_len = store::FIXED_HEADER_BYTES
        + (m + 1) * 8
        + index.len() * store::ENDPOINT_ENTRY_BYTES
        + n * serial::VERTEX_LABEL_BYTES
        + m * record_len
        + store::TRAILING_CHECKSUM_BYTES;
    let out = assemble_v2(
        header,
        encoding,
        n,
        m,
        index.len(),
        k,
        levels,
        v1_len,
        &blocks,
    );
    debug_assert!(parse_v2(&out).is_ok());
    CompressedStore { bytes: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use crate::store::LabelStore;

    fn v1_blob(encoding: EdgeEncoding) -> (Graph, Vec<u8>) {
        let g = Graph::torus(4, 5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), encoding);
        (g, blob)
    }

    #[test]
    fn transcode_round_trips_byte_identical() {
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let (_, blob) = v1_blob(encoding);
            let v2 = compress_archive(&LabelStoreView::open(&blob).unwrap());
            assert!(
                v2.as_bytes().len() < blob.len(),
                "{encoding:?}: {} >= {}",
                v2.as_bytes().len(),
                blob.len()
            );
            let view = v2.view().unwrap();
            let back = view.to_v1_vec().unwrap();
            assert_eq!(back, blob, "{encoding:?} transcode not byte-identical");
        }
    }

    #[test]
    fn full_encoding_level_sections_compress_at_least_2x() {
        // The Frobenius fold alone halves full-encoding level rows; delta
        // + packing + rANS must not give that back.
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStoreView::open(&blob).unwrap());
        let view = v2.view().unwrap();
        let (raw, comp) = view
            .sections()
            .filter(|s| s.kind == SectionKind::LevelRows)
            .fold((0usize, 0usize), |(r, c), s| {
                (r + s.raw_len, c + s.comp_len)
            });
        assert!(
            comp * 2 <= raw,
            "expected >=2x on level rows, got {comp} vs {raw}"
        );
    }

    #[test]
    fn sessions_answer_like_v1() {
        let (g, blob) = v1_blob(EdgeEncoding::Full);
        let v1 = LabelStoreView::open(&blob).unwrap();
        let v2 = compress_archive(&v1).view().unwrap();
        assert_eq!(v1.n(), v2.n());
        assert_eq!(v1.m(), v2.m());
        assert_eq!(v1.header(), v2.header());
        let mut scratch = SessionScratch::new();
        let faults = [(0usize, 1usize), (0, 5), (1, 2)];
        let s1 = v1.session(faults).unwrap();
        let s2 = v2.session_in(faults, &mut scratch).unwrap();
        for s in 0..g.n() {
            for t in (s + 1)..g.n() {
                let a = s1
                    .connected(v1.vertex(s).unwrap(), v1.vertex(t).unwrap())
                    .unwrap();
                let b = s2
                    .connected(
                        v2.vertex(s).unwrap().unwrap(),
                        v2.vertex(t).unwrap().unwrap(),
                    )
                    .unwrap();
                assert_eq!(a, b, "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn unknown_pairs_and_out_of_range_ids_are_typed_errors() {
        let (_, blob) = v1_blob(EdgeEncoding::Compact);
        let view = compress_archive(&LabelStoreView::open(&blob).unwrap())
            .view()
            .unwrap();
        match view.session([(0, 19)]) {
            Err(StoreError::UnknownEdge { u: 0, v: 19 }) => {}
            other => panic!("expected UnknownEdge, got {other:?}"),
        }
        let mut scratch = SessionScratch::new();
        assert!(matches!(
            view.session_in_by_ids([view.m()], &mut scratch),
            Err(StoreError::UnknownEdge { .. })
        ));
        assert!(view.vertex(view.n()).unwrap().is_none());
        assert_eq!(view.edge_id(0, 19).unwrap(), None);
    }

    #[test]
    fn streamed_compressed_build_matches_transcoded_v1() {
        let g = Graph::torus(4, 4);
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            for threads in [1usize, 3] {
                let (v1_store, _) = FtcScheme::builder(&g)
                    .params(&Params::deterministic(2))
                    .threads(threads)
                    .build_store(encoding)
                    .unwrap();
                let transcoded = compress_archive(&v1_store.view());
                let (streamed, _) = FtcScheme::builder(&g)
                    .params(&Params::deterministic(2))
                    .threads(threads)
                    .build_store_compressed(encoding)
                    .unwrap();
                assert_eq!(
                    streamed.as_bytes(),
                    transcoded.as_bytes(),
                    "{encoding:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn open_is_o_header_and_corruption_is_lazy() {
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStoreView::open(&blob).unwrap());
        let mut bytes = v2.into_vec();

        // Flip a byte deep inside the last section's payload: open must
        // still succeed (it never touches payloads) …
        let at = bytes.len() - 9;
        bytes[at] ^= 0x10;
        let view = CompressedStoreView::open(bytes.clone()).unwrap();
        // … but first touch of that section reports a typed checksum
        // error at an in-bounds offset.
        let top = view.levels() - 1;
        let err = match view.gather_edge(0) {
            Err(e) => e,
            Ok(_) => panic!("corrupt level {top} section served"),
        };
        assert_eq!(err.kind, SerialErrorKind::Checksum);
        assert!(err.offset < bytes.len());

        // Sessions surface it as StoreError::Corrupt.
        assert!(matches!(
            view.session([]).map(drop).and_then(|()| view
                .session_in_by_ids([0], &mut SessionScratch::new())
                .map(drop)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn header_corruption_rejected_at_open() {
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let bytes = compress_archive(&LabelStoreView::open(&blob).unwrap()).into_vec();
        // Any flip in the prologue or table is caught at open by the
        // table checksum (or an earlier structural check) — never a
        // panic, always an in-bounds offset.
        let table_end = PROLOGUE_BYTES
            + (SEC_LEVEL0 + CompressedStoreView::open(bytes.clone()).unwrap().levels())
                * SECTION_ENTRY_BYTES;
        for at in 0..table_end + TOC_CHECKSUM_BYTES {
            let mut bad = bytes.clone();
            bad[at] ^= 0x04;
            let err = CompressedStoreView::open(bad).expect_err("header flip must be rejected");
            assert!(err.offset <= bytes.len(), "offset out of bounds at {at}");
        }
        // Truncation at every prefix is rejected cleanly too.
        for cut in 0..bytes.len().min(512) {
            assert!(CompressedStoreView::open(bytes[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn empty_graph_archives_round_trip() {
        let g = Graph::new(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStoreView::open(&blob).unwrap());
        let view = v2.view().unwrap();
        assert_eq!(view.m(), 0);
        assert_eq!(view.to_v1_vec().unwrap(), blob);
    }
}
