//! The label archive: single-blob storage for a whole labeling, opened
//! zero-copy.
//!
//! A labeling is built once and its labels are served forever after; the
//! natural storage shape is therefore one indexed archive, not one byte
//! buffer per label. [`LabelStore`] writes a [`crate::LabelSet`] as a
//! single blob — magic, version, [`LabelHeader`], offset/endpoint index,
//! concatenated label bytes — and [`LabelStoreView::open`] validates that
//! blob **once** and then serves
//!
//! * [`LabelStoreView::vertex`] — O(1) zero-copy [`VertexLabelView`]s,
//! * [`LabelStoreView::edge`] — O(log m) zero-copy edge views resolved by
//!   endpoint pair (both the full and the compact half-width encodings,
//!   behind the archive's encoding tag),
//! * [`LabelStoreView::session`] — a ready [`QuerySession`] for a fault
//!   set named by endpoint pairs, built straight over the archive bytes,
//!
//! without materializing a single owned label. This is the canonical
//! interchange surface: `ftc-cli` ships archives, and
//! `ftc_routing::ForbiddenSetRouter` can be reconstituted from one
//! without re-running the scheme construction.
//!
//! # Byte layout (all little-endian)
//!
//! ```text
//! offset size        field
//! 0      4           magic "FTCL"
//! 4      2           format version (currently 1)
//! 6      1           edge encoding: 0 = full, 1 = compact
//! 7      1           reserved (0)
//! 8      16          LabelHeader { f: u32, aux_n: u32, tag: u64 }
//! 24     4           n  (number of vertex labels)
//! 28     4           m  (number of edge labels)
//! 32     4           vertex stride (fixed vertex-label byte length)
//! 36     4           endpoint-index entry count (distinct (u, v) pairs)
//! 40     (m+1)·8     edge offsets into the edge region, monotone, [0] = 0
//! …      count·12    endpoint index: (u: u32, v: u32, edge id: u32),
//!                    strictly sorted by (u, v) with u < v
//! …      n·stride    concatenated vertex label bytes (per-label layout
//!                    of `serial::vertex_to_bytes`, magic included)
//! …      rest        concatenated edge label bytes, in edge-ID order
//!                    (`serial::edge_to_bytes` or `edge_to_bytes_compact`)
//! end-8  8           whole-blob checksum (`ftc_compress::checksum64` of
//!                    every preceding byte), verified on open
//! ```
//!
//! Version 2 of the container — entropy-coded sections with per-section
//! checksums and O(header) opening — lives in [`crate::compressed`];
//! [`crate::compressed::open_path`] memory-maps archive files of either
//! version, so neither format requires materializing the blob on the
//! heap.
//!
//! # Example
//!
//! ```
//! use ftc_core::store::{EdgeEncoding, LabelStore, LabelStoreView};
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//!
//! let g = Graph::cycle(6);
//! let scheme = FtcScheme::builder(&g).params(&Params::deterministic(2)).build().unwrap();
//! let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
//!
//! // Later — possibly in another process — open and query zero-copy.
//! let view = LabelStoreView::open(&blob).unwrap();
//! let session = view.session([(0, 1), (3, 4)]).unwrap();
//! assert!(!session.connected(view.vertex(1).unwrap(), view.vertex(4).unwrap()).unwrap());
//! assert!(session.connected(view.vertex(1).unwrap(), view.vertex(3).unwrap()).unwrap());
//! ```

use crate::ancestry::AncestryLabel;
use crate::error::{BuildError, QueryError};
use crate::labels::{
    EdgeLabel, EdgeLabelRead, EndpointIndex, LabelHeader, LabelSet, RsVector, VertexLabelRead,
};
use crate::scheme::{BuildCtx, LevelSink, SchemeBuilder};
use crate::serial::{
    self, EdgeLabelView, SerialError, SerialErrorKind, VertexLabelView, VERTEX_LABEL_BYTES,
};
use crate::session::{QuerySession, SessionScratch};
use ftc_field::Gf64;
use ftc_graph::Graph;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

pub(crate) const STORE_MAGIC: [u8; 4] = *b"FTCL";
pub(crate) const STORE_VERSION: u16 = 1;
/// Fixed-size prefix before the offset index.
pub(crate) const FIXED_HEADER_BYTES: usize = 40;
/// Bytes per endpoint-index entry.
pub(crate) const ENDPOINT_ENTRY_BYTES: usize = 12;
/// Trailing whole-blob checksum ([`ftc_compress::checksum64`]).
pub(crate) const TRAILING_CHECKSUM_BYTES: usize = 8;

/// How edge labels are encoded in an archive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEncoding {
    /// Full `2k`-element Reed–Solomon syndromes per level
    /// ([`crate::serial::edge_to_bytes`] layout).
    Full,
    /// Half-width characteristic-two compression: only the `k` odd power
    /// sums per level ([`crate::serial::edge_to_bytes_compact`] layout);
    /// even ones are reconstructed as `s_{2j} = s_j²` when a level is
    /// decoded. Sessions read both encodings into the same half-width
    /// slab, so the two differ only in the stored stride.
    Compact,
}

impl EdgeEncoding {
    pub(crate) fn tag(self) -> u8 {
        match self {
            EdgeEncoding::Full => 0,
            EdgeEncoding::Compact => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<EdgeEncoding> {
        match tag {
            0 => Some(EdgeEncoding::Full),
            1 => Some(EdgeEncoding::Compact),
            _ => None,
        }
    }
}

/// Errors raised while resolving labels out of an archive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A fault was named by an endpoint pair the archive does not index.
    UnknownEdge {
        /// First requested endpoint.
        u: usize,
        /// Second requested endpoint.
        v: usize,
    },
    /// A vertex argument is outside the archive's `0..n` range.
    VertexOutOfRange {
        /// The requested vertex.
        v: usize,
    },
    /// The underlying session construction or query failed.
    Query(QueryError),
    /// Lazy validation of a compressed section failed on first touch
    /// (checksum mismatch or malformed payload).
    Corrupt(SerialError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownEdge { u, v } => {
                write!(f, "no edge {u}–{v} in the archived labeling")
            }
            StoreError::VertexOutOfRange { v } => {
                write!(f, "vertex {v} outside the archived labeling")
            }
            StoreError::Query(q) => write!(f, "archive query failed: {q}"),
            StoreError::Corrupt(e) => write!(f, "archive section corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<QueryError> for StoreError {
    fn from(q: QueryError) -> StoreError {
        StoreError::Query(q)
    }
}

/// An owned, validated label archive (the write side and an owning handle
/// around the blob; all reading goes through [`LabelStoreView`]).
#[derive(Clone, Debug)]
pub struct LabelStore {
    bytes: Vec<u8>,
    /// Parsed framing, kept so [`LabelStore::view`] never re-validates.
    meta: ArchiveMeta,
}

impl LabelStore {
    /// Archives a label set under the given edge encoding.
    pub fn archive(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> LabelStore {
        let bytes = encode(labels, encoding);
        let meta = LabelStoreView::open(&bytes)
            .expect("freshly encoded archives are well-formed")
            .meta;
        LabelStore { bytes, meta }
    }

    /// Runs a staged construction straight into an archive — the
    /// streaming build-to-archive path: label payloads are written into
    /// their final blob positions by the build workers, so the labeling
    /// is never held twice in memory. Byte-identical to archiving the
    /// equivalent [`SchemeBuilder::build`] output with
    /// [`LabelStore::to_vec`], for every thread count.
    ///
    /// See [`SchemeBuilder::build_store`] for the variant that also
    /// returns the construction diagnostics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SchemeBuilder::build`].
    pub fn from_builder(
        builder: SchemeBuilder<'_>,
        encoding: EdgeEncoding,
    ) -> Result<LabelStore, BuildError> {
        builder.build_store(encoding).map(|(store, _)| store)
    }

    /// Serializes a label set straight into a writer (same bytes as
    /// [`LabelStore::to_vec`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(
        labels: &LabelSet<RsVector>,
        encoding: EdgeEncoding,
        w: &mut W,
    ) -> io::Result<()> {
        w.write_all(&encode(labels, encoding))
    }

    /// Serializes a label set into a fresh byte vector.
    pub fn to_vec(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
        encode(labels, encoding)
    }

    /// Takes ownership of an archive blob, validating it in full.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) if the blob is
    /// not a well-formed archive.
    pub fn from_vec(bytes: Vec<u8>) -> Result<LabelStore, SerialError> {
        let meta = LabelStoreView::open(&bytes)?.meta;
        Ok(LabelStore { bytes, meta })
    }

    /// Wraps a blob whose framing was just written by this crate's own
    /// archive writers, skipping the full `open` validation pass (which
    /// is O(archive) and would double the cost of every dynamic commit).
    /// The caller guarantees `meta` describes `bytes` exactly.
    pub(crate) fn from_parts_trusted(bytes: Vec<u8>, meta: ArchiveMeta) -> LabelStore {
        debug_assert!(
            LabelStoreView::open(&bytes).is_ok(),
            "trusted archive parts must form a well-formed blob"
        );
        LabelStore { bytes, meta }
    }

    /// The raw archive bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the store, returning the archive bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Opens a zero-copy view over the owned bytes. The archive was
    /// validated when this store was constructed, so this is O(1) — no
    /// re-validation.
    pub fn view(&self) -> LabelStoreView<'_> {
        LabelStoreView {
            buf: ArchiveBuf::Borrowed(&self.bytes),
            meta: self.meta,
        }
    }

    /// Consumes the store into a self-contained `'static` view: the blob
    /// moves into an `Arc<[u8]>` the view owns. The archive was validated
    /// at construction, so this never re-validates. The resulting view is
    /// `Send + Sync` and cheap to clone — the handle concurrent serving
    /// layers hold.
    pub fn into_shared_view(self) -> LabelStoreView<'static> {
        LabelStoreView {
            buf: ArchiveBuf::Shared(Arc::from(self.bytes)),
            meta: self.meta,
        }
    }
}

/// The bytes behind a [`LabelStoreView`]: borrowed from a caller's
/// buffer, or shared ownership of the blob itself. The shared form makes
/// the view `'static` — it can be cloned across threads and outlive the
/// buffer it was opened from.
#[derive(Clone, Debug)]
enum ArchiveBuf<'a> {
    /// A borrowed blob ([`LabelStoreView::open`]).
    Borrowed(&'a [u8]),
    /// Shared ownership of the blob ([`LabelStoreView::open_shared`]).
    Shared(Arc<[u8]>),
    /// A shared memory-mapped file ([`crate::compressed::open_path`]).
    Mapped(Arc<crate::mmap::MmapBuf>),
}

impl ArchiveBuf<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            ArchiveBuf::Borrowed(b) => b,
            ArchiveBuf::Shared(a) => a,
            ArchiveBuf::Mapped(m) => m.bytes(),
        }
    }
}

/// Failure to open an archive from the filesystem: either the I/O
/// itself, or the bytes once read/mapped.
#[derive(Debug)]
pub enum StoreOpenError {
    /// Reading or mapping the file failed.
    Io(io::Error),
    /// The file's bytes are not a valid archive.
    Malformed(SerialError),
}

impl fmt::Display for StoreOpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreOpenError::Io(e) => write!(f, "archive I/O failed: {e}"),
            StoreOpenError::Malformed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreOpenError::Io(e) => Some(e),
            StoreOpenError::Malformed(e) => Some(e),
        }
    }
}

impl From<io::Error> for StoreOpenError {
    fn from(e: io::Error) -> StoreOpenError {
        StoreOpenError::Io(e)
    }
}

impl From<SerialError> for StoreOpenError {
    fn from(e: SerialError) -> StoreOpenError {
        StoreOpenError::Malformed(e)
    }
}

/// Parsed archive framing: everything a [`LabelStoreView`] knows beyond
/// the bytes themselves. Copyable so an owning [`LabelStore`] can mint
/// views without re-validating.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArchiveMeta {
    pub(crate) header: LabelHeader,
    pub(crate) encoding: EdgeEncoding,
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) idx_count: usize,
    /// Byte position of the edge-offset table.
    pub(crate) offsets_at: usize,
    /// Byte position of the endpoint index.
    pub(crate) endpoint_at: usize,
    /// Byte position of the vertex label region.
    pub(crate) vertices_at: usize,
    /// Byte position of the edge label region.
    pub(crate) edges_at: usize,
}

/// A validated zero-copy view over a label archive: the read surface of
/// the store. See the [module docs](self) for the byte layout and the
/// complexity of each lookup.
///
/// A view either *borrows* its blob ([`LabelStoreView::open`], lifetime
/// `'a`) or *owns a share* of it ([`LabelStoreView::open_shared`],
/// `LabelStoreView<'static>` over an `Arc<[u8]>`). Shared views are the
/// concurrent-serving handle: `Send + Sync`, cheap to clone, and free of
/// any tie to the buffer they were opened from.
#[derive(Clone, Debug)]
pub struct LabelStoreView<'a> {
    buf: ArchiveBuf<'a>,
    meta: ArchiveMeta,
}

pub(crate) fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

pub(crate) fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

impl<'a> LabelStoreView<'a> {
    /// Validates the whole archive — framing, index monotonicity, and
    /// every contained label (magic, geometry, header agreement) — and
    /// returns the view. After `open` succeeds, all lookups are
    /// infallible index arithmetic over pre-validated bytes.
    ///
    /// # Errors
    ///
    /// [`SerialError`] carrying the archive byte offset at which
    /// validation failed.
    pub fn open(bytes: &'a [u8]) -> Result<LabelStoreView<'a>, SerialError> {
        let truncated = |at: usize| SerialError::new(SerialErrorKind::Truncated, at);
        let inconsistent = |at: usize| SerialError::new(SerialErrorKind::Inconsistent, at);
        if bytes.len() < FIXED_HEADER_BYTES {
            return Err(truncated(bytes.len()));
        }
        if bytes[..4] != STORE_MAGIC {
            return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
        }
        if u16::from_le_bytes(bytes[4..6].try_into().unwrap()) != STORE_VERSION {
            return Err(SerialError::new(SerialErrorKind::UnsupportedVersion, 4));
        }
        let encoding = EdgeEncoding::from_tag(bytes[6]).ok_or(inconsistent(6))?;
        if bytes[7] != 0 {
            return Err(inconsistent(7));
        }
        let header = LabelHeader {
            f: u32_at(bytes, 8),
            aux_n: u32_at(bytes, 12),
            tag: u64_at(bytes, 16),
        };
        let n = u32_at(bytes, 24) as usize;
        let m = u32_at(bytes, 28) as usize;
        let stride = u32_at(bytes, 32) as usize;
        if stride != VERTEX_LABEL_BYTES {
            return Err(inconsistent(32));
        }
        let idx_count = u32_at(bytes, 36) as usize;
        if idx_count > m {
            return Err(inconsistent(36));
        }
        // Everything after the fixed header and before the trailing
        // whole-blob checksum is the archive body.
        if bytes.len() < FIXED_HEADER_BYTES + TRAILING_CHECKSUM_BYTES {
            return Err(truncated(bytes.len()));
        }
        let body_len = bytes.len() - TRAILING_CHECKSUM_BYTES;

        let offsets_at = FIXED_HEADER_BYTES;
        let offsets_len = (m as u64 + 1) * 8;
        let endpoint_len = idx_count as u64 * ENDPOINT_ENTRY_BYTES as u64;
        let vertex_len = n as u64 * stride as u64;
        let endpoint_at = offsets_at as u64 + offsets_len;
        let vertices_at = endpoint_at + endpoint_len;
        let edges_at = vertices_at + vertex_len;
        if edges_at > body_len as u64 {
            return Err(truncated(bytes.len()));
        }
        let (endpoint_at, vertices_at, edges_at) = (
            endpoint_at as usize,
            vertices_at as usize,
            edges_at as usize,
        );

        // Edge offsets: zero-based, monotone, ending exactly at the end
        // of the body (the trailing checksum is not part of any region).
        let edge_region_len = (body_len - edges_at) as u64;
        let mut prev = 0u64;
        for e in 0..=m {
            let off = u64_at(bytes, offsets_at + 8 * e);
            if (e == 0 && off != 0) || off < prev || off > edge_region_len {
                return Err(inconsistent(offsets_at + 8 * e));
            }
            prev = off;
        }
        if prev != edge_region_len {
            return Err(inconsistent(offsets_at + 8 * m));
        }

        // Endpoint index: strictly sorted normalized pairs, edge IDs in
        // range.
        let mut prev_pair: Option<(u32, u32)> = None;
        for i in 0..idx_count {
            let at = endpoint_at + ENDPOINT_ENTRY_BYTES * i;
            let u = u32_at(bytes, at);
            let v = u32_at(bytes, at + 4);
            let e = u32_at(bytes, at + 8) as usize;
            if u >= v || e >= m || prev_pair.is_some_and(|p| p >= (u, v)) {
                return Err(inconsistent(at));
            }
            prev_pair = Some((u, v));
        }

        let view = LabelStoreView {
            buf: ArchiveBuf::Borrowed(bytes),
            meta: ArchiveMeta {
                header,
                encoding,
                n,
                m,
                idx_count,
                offsets_at,
                endpoint_at,
                vertices_at,
                edges_at,
            },
        };

        // Validate every label once; lookups then skip re-validation.
        let rebase = |err: SerialError, base: usize| SerialError::new(err.kind, base + err.offset);
        for v in 0..n {
            let at = vertices_at + v * stride;
            let vl = VertexLabelView::new(&bytes[at..at + stride]).map_err(|e| rebase(e, at))?;
            if VertexLabelRead::header(&vl) != header {
                return Err(inconsistent(at));
            }
        }
        // Edge labels must additionally agree on the codec geometry
        // (threshold k and level count): a mixed-geometry archive must
        // fail here — at open, with an offset — not in whichever later
        // session happens to combine two of its records.
        let mut geometry: Option<(usize, usize)> = None;
        for e in 0..m {
            let (at, end) = view.edge_span(e);
            let label = view.edge_view_at(at, end).map_err(|err| rebase(err, at))?;
            if label.header() != header {
                return Err(inconsistent(at));
            }
            let this = (label.k(), label.levels());
            match geometry {
                None => geometry = Some(this),
                Some(first) if first != this => return Err(inconsistent(at)),
                Some(_) => {}
            }
        }
        // Last line of defense: payload corruption that keeps every
        // structural invariant (a flipped syndrome word, say) is caught
        // by the whole-blob checksum.
        if u64_at(bytes, body_len) != ftc_compress::checksum64(&bytes[..body_len]) {
            return Err(SerialError::new(SerialErrorKind::Checksum, body_len));
        }
        Ok(view)
    }

    /// Opens a v1 view over an already-mapped buffer (the v1 arm of the
    /// version-dispatching [`crate::compressed::open_path`]).
    pub(crate) fn from_mmap(
        buf: Arc<crate::mmap::MmapBuf>,
    ) -> Result<LabelStoreView<'static>, SerialError> {
        let meta = LabelStoreView::open(buf.bytes())?.meta;
        Ok(LabelStoreView {
            buf: ArchiveBuf::Mapped(buf),
            meta,
        })
    }

    /// Like [`LabelStoreView::open`], but taking shared ownership of the
    /// blob: the returned view is `'static`, `Send + Sync`, and clones by
    /// bumping the `Arc` — the form a concurrent serving layer holds so
    /// label views stay valid for as long as anyone queries them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LabelStoreView::open`].
    pub fn open_shared(
        bytes: impl Into<Arc<[u8]>>,
    ) -> Result<LabelStoreView<'static>, SerialError> {
        let bytes: Arc<[u8]> = bytes.into();
        let meta = LabelStoreView::open(&bytes)?.meta;
        Ok(LabelStoreView {
            buf: ArchiveBuf::Shared(bytes),
            meta,
        })
    }

    /// Detaches the view from its borrow: a shared view clones its `Arc`
    /// (O(1)); a borrowed view copies the blob into a fresh `Arc` once.
    /// The archive was already validated, so this never re-validates.
    pub fn to_shared(&self) -> LabelStoreView<'static> {
        let buf = match &self.buf {
            ArchiveBuf::Borrowed(b) => ArchiveBuf::Shared(Arc::from(*b)),
            ArchiveBuf::Shared(a) => ArchiveBuf::Shared(Arc::clone(a)),
            ArchiveBuf::Mapped(m) => ArchiveBuf::Mapped(Arc::clone(m)),
        };
        LabelStoreView {
            buf,
            meta: self.meta,
        }
    }

    /// The shared labeling header.
    pub fn header(&self) -> LabelHeader {
        self.meta.header
    }

    /// The edge encoding this archive stores.
    pub fn encoding(&self) -> EdgeEncoding {
        self.meta.encoding
    }

    /// Number of archived vertex labels.
    pub fn n(&self) -> usize {
        self.meta.n
    }

    /// Number of archived edge labels.
    pub fn m(&self) -> usize {
        self.meta.m
    }

    /// The codec threshold `k` of the first archived edge label (builder
    /// and patch archives share one geometry across all records); 0 when
    /// the archive holds no edges.
    pub fn k(&self) -> usize {
        self.edge_by_id(0).map_or(0, |e| e.k())
    }

    /// Number of hierarchy levels the first archived edge label carries;
    /// 0 when the archive holds no edges.
    pub fn levels(&self) -> usize {
        self.edge_by_id(0).map_or(0, |e| e.levels())
    }

    /// Total archive size in bytes.
    pub fn archive_bytes(&self) -> usize {
        self.buf.bytes().len()
    }

    /// The raw archive bytes behind this view.
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.bytes()
    }

    /// Byte accounting of the archive regions, in the shape of the v2
    /// section table ([`SectionInfo`](crate::compressed::SectionInfo)):
    /// endpoint index, vertex labels, per-edge metadata prefixes, and one
    /// entry per hierarchy level of payload rows. v1 stores everything
    /// raw, so `comp_len == raw_len` and `transform == 0`. Level-row
    /// entries account each level's share of every record's payload even
    /// though v1 interleaves levels record-major rather than storing them
    /// contiguously; the fixed header, offset table, and trailing
    /// checksum are framing and appear in no section, so the sections sum
    /// to less than [`archive_bytes`](Self::archive_bytes).
    ///
    /// Only the uniform-record geometry of builder/patch archives is
    /// broken down per level; archives whose records disagree on
    /// `(k, levels)` report a single `level-rows` entry covering all
    /// payload bytes.
    pub fn sections(&self) -> Vec<crate::compressed::SectionInfo> {
        use crate::compressed::{SectionInfo, SectionKind};
        let raw = |kind, level, raw_len| SectionInfo {
            kind,
            level,
            raw_len,
            comp_len: raw_len,
            transform: 0,
        };
        let m = self.meta.m;
        let mut out = vec![
            raw(
                SectionKind::EndpointIndex,
                None,
                self.meta.vertices_at - self.meta.endpoint_at,
            ),
            raw(
                SectionKind::VertexLabels,
                None,
                self.meta.edges_at - self.meta.vertices_at,
            ),
            raw(SectionKind::EdgeMeta, None, m * serial::EDGE_WORDS_OFFSET),
        ];
        let payload = self.archive_bytes()
            - self.meta.edges_at
            - m * serial::EDGE_WORDS_OFFSET
            - TRAILING_CHECKSUM_BYTES;
        let uniform = self.edge_by_id(0).map(|e| (e.k(), e.levels()));
        match uniform {
            Some((k, levels))
                if levels > 0
                    && payload == m * 8 * payload_words(self.meta.encoding, k, levels) =>
            {
                let level_bytes = payload / levels;
                out.extend(
                    (0..levels).map(|lvl| raw(SectionKind::LevelRows, Some(lvl), level_bytes)),
                );
            }
            _ => out.push(raw(SectionKind::LevelRows, None, payload)),
        }
        out
    }

    pub(crate) fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    pub(crate) fn edge_span(&self, e: usize) -> (usize, usize) {
        let buf = self.buf.bytes();
        let start = u64_at(buf, self.meta.offsets_at + 8 * e) as usize;
        let end = u64_at(buf, self.meta.offsets_at + 8 * (e + 1)) as usize;
        (self.meta.edges_at + start, self.meta.edges_at + end)
    }

    /// The edge record at `at..end`, whose layout must be the one the
    /// archive header's encoding byte declares.
    fn edge_view_at(&self, at: usize, end: usize) -> Result<EdgeLabelView<'_>, SerialError> {
        let view = EdgeLabelView::new(&self.buf.bytes()[at..end])?;
        if view.encoding() != self.meta.encoding {
            return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
        }
        Ok(view)
    }

    /// The label of vertex `v` as a zero-copy view — O(1); `None` when
    /// `v` is out of range. The view borrows from `self` (for shared
    /// views the blob lives exactly as long as the view handle).
    pub fn vertex(&self, v: usize) -> Option<VertexLabelView<'_>> {
        if v >= self.meta.n {
            return None;
        }
        let at = self.meta.vertices_at + v * VERTEX_LABEL_BYTES;
        Some(
            VertexLabelView::new(&self.buf.bytes()[at..at + VERTEX_LABEL_BYTES])
                .expect("validated at open"),
        )
    }

    /// The label of the edge with original edge ID `e` as a zero-copy
    /// view — O(1); `None` when `e` is out of range.
    pub fn edge_by_id(&self, e: usize) -> Option<EdgeLabelView<'_>> {
        if e >= self.meta.m {
            return None;
        }
        let (at, end) = self.edge_span(e);
        Some(self.edge_view_at(at, end).expect("validated at open"))
    }

    /// The edge ID of the edge joining `u` and `v` (either order) —
    /// O(log m) binary search over the endpoint index; `None` when no
    /// such edge is archived.
    pub fn edge_id(&self, u: usize, v: usize) -> Option<usize> {
        let key = ((u.min(v)) as u32, (u.max(v)) as u32);
        let buf = self.buf.bytes();
        let mut lo = 0usize;
        let mut hi = self.meta.idx_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at = self.meta.endpoint_at + ENDPOINT_ENTRY_BYTES * mid;
            let pair = (u32_at(buf, at), u32_at(buf, at + 4));
            match pair.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Some(u32_at(buf, at + 8) as usize);
                }
            }
        }
        None
    }

    /// The label of the edge joining `u` and `v` (either order) as a
    /// zero-copy view — O(log m); `None` when no such edge is archived.
    pub fn edge(&self, u: usize, v: usize) -> Option<EdgeLabelView<'_>> {
        self.edge_by_id(self.edge_id(u, v)?)
    }

    /// Iterates the endpoint index as `(u, v, edge id)` triples, in
    /// sorted endpoint order.
    pub fn endpoint_index(&self) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + '_ {
        let buf = self.buf.bytes();
        (0..self.meta.idx_count).map(move |i| {
            let at = self.meta.endpoint_at + ENDPOINT_ENTRY_BYTES * i;
            (
                u32_at(buf, at) as usize,
                u32_at(buf, at + 4) as usize,
                u32_at(buf, at + 8) as usize,
            )
        })
    }

    /// Opens a [`QuerySession`] for a fault set named by endpoint pairs,
    /// built straight over the archive bytes — the archive-native
    /// equivalent of [`LabelSet::session`]. An empty fault set is valid.
    ///
    /// # Errors
    ///
    /// * [`StoreError::UnknownEdge`] if a pair is not an archived edge;
    /// * [`StoreError::Query`] on session-construction failures
    ///   (over-budget fault sets, calibrated-threshold decode failures).
    pub fn session<I>(&self, faults: I) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        self.session_in(faults, &mut SessionScratch::default())
    }

    /// Scratch-reusing variant of [`LabelStoreView::session`]: the
    /// archive-native serving hot path. Fault views resolve through the
    /// endpoint index and stream straight into the merge engine; with a
    /// warm `scratch` the whole build performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LabelStoreView::session`].
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        self.session_resolving(
            faults,
            |(u, v)| self.edge(u, v),
            |(u, v)| StoreError::UnknownEdge { u, v },
            scratch,
        )
    }

    /// Like [`LabelStoreView::session_in`], naming faults by original
    /// edge ID (unlike endpoint pairs, IDs distinguish parallel edges).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownEdge`] (with the ID in both slots) for an
    /// out-of-range ID, otherwise as [`LabelStoreView::session_in`].
    pub fn session_in_by_ids<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = usize>,
    {
        self.session_resolving(
            faults,
            |e| self.edge_by_id(e),
            |e| StoreError::UnknownEdge { u: e, v: e },
            scratch,
        )
    }

    /// Streams fault resolution into the session build: an unresolvable
    /// key stops the iterator and is reported after the fact (the partial
    /// build is discarded, its storage kept warm).
    fn session_resolving<'s, K: Copy>(
        &'s self,
        faults: impl IntoIterator<Item = K>,
        resolve: impl Fn(K) -> Option<EdgeLabelView<'s>>,
        unknown: impl FnOnce(K) -> StoreError,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError> {
        let mut missing: Option<K> = None;
        let views = faults.into_iter().map_while(|key| {
            let view = resolve(key);
            if view.is_none() {
                missing = Some(key);
            }
            view
        });
        let session = QuerySession::new_in(self.meta.header, views, scratch);
        if let Some(key) = missing {
            if let Ok(partial) = session {
                scratch.recycle(partial);
            }
            return Err(unknown(key));
        }
        Ok(session?)
    }

    /// Answers one connectivity query entirely from the archive: a
    /// convenience wrapper building a throwaway [`LabelStoreView::session`].
    /// Serving workloads should build the session once instead.
    ///
    /// # Errors
    ///
    /// [`StoreError::VertexOutOfRange`] / [`StoreError::UnknownEdge`] on
    /// unresolvable arguments, [`StoreError::Query`] from the decoder.
    pub fn connected<I>(&self, s: usize, t: usize, faults: I) -> Result<bool, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let vs = self
            .vertex(s)
            .ok_or(StoreError::VertexOutOfRange { v: s })?;
        let vt = self
            .vertex(t)
            .ok_or(StoreError::VertexOutOfRange { v: t })?;
        // Trivial pairs answer before fault validation (the decoder's
        // historical check order).
        if let Some(answer) = QuerySession::trivial_answer(&vs, &vt).map_err(StoreError::Query)? {
            return Ok(answer);
        }
        Ok(self.session(faults)?.connected(vs, vt)?)
    }

    /// Decodes the archive back into an owned [`LabelSet`] — the
    /// reconstitution path for consumers that need owned labels without
    /// re-running the scheme construction.
    ///
    /// The label payloads land in **one** shared slab (each edge label is
    /// a window into it, exactly as a fresh build produces them), and the
    /// archive's sorted endpoint index is reused verbatim — no per-edge
    /// payload allocation, no index rebuild.
    pub fn to_label_set(&self) -> LabelSet<RsVector> {
        let (n, m) = (self.meta.n, self.meta.m);
        let header = self.meta.header;
        let vertex_labels = (0..n)
            .map(|v| self.vertex(v).expect("in range").to_label())
            .collect();
        // All edge labels share one codec geometry (validated at open).
        let (k, levels) = (self.k(), self.levels());
        let window = 2 * k * levels;
        let mut slab_vec = vec![Gf64::ZERO; m * window];
        // One pass over the edge records: copy the payload into the slab
        // and stash the ancestry pair (the slab windows can only be
        // handed out once the slab is frozen into its `Arc`).
        let mut ancs = Vec::with_capacity(m);
        for e in 0..m {
            let view = self.edge_by_id(e).expect("in range");
            view.syndrome_into(&mut slab_vec[e * window..(e + 1) * window]);
            ancs.push((view.anc_upper(), view.anc_lower()));
        }
        let slab: Arc<[Gf64]> = slab_vec.into();
        let edge_labels = ancs
            .into_iter()
            .enumerate()
            .map(|(e, (anc_upper, anc_lower))| EdgeLabel {
                header,
                anc_upper,
                anc_lower,
                vec: RsVector::from_slab(k, &slab, e * window, window),
            })
            .collect();
        let edge_index = EndpointIndex::from_sorted_entries(
            self.endpoint_index()
                .map(|(u, v, e)| (u as u32, v as u32, e as u32))
                .collect(),
        );
        LabelSet {
            header,
            vertex_labels,
            edge_labels,
            edge_index,
        }
    }
}

// ---------------------------------------------------------------------------
// Archive writing
// ---------------------------------------------------------------------------

/// Positional little-endian field writers over a pre-sized blob.
fn put_u16(buf: &mut [u8], at: usize, x: u16) {
    buf[at..at + 2].copy_from_slice(&x.to_le_bytes());
}

fn put_u32(buf: &mut [u8], at: usize, x: u32) {
    buf[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut [u8], at: usize, x: u64) {
    buf[at..at + 8].copy_from_slice(&x.to_le_bytes());
}

fn put_anc(buf: &mut [u8], at: usize, a: &AncestryLabel) {
    put_u32(buf, at, a.pre);
    put_u32(buf, at + 4, a.last);
    put_u32(buf, at + 8, a.comp);
}

/// Writes the 40-byte fixed v1 header at the start of `buf`. `version`
/// is a parameter because the v2 container reuses the same prologue.
pub(crate) fn write_fixed_header(
    buf: &mut [u8],
    version: u16,
    header: LabelHeader,
    encoding: EdgeEncoding,
    n: usize,
    m: usize,
    idx_count: usize,
) {
    buf[..4].copy_from_slice(&STORE_MAGIC);
    put_u16(buf, 4, version);
    buf[6] = encoding.tag();
    buf[7] = 0;
    put_u32(buf, 8, header.f);
    put_u32(buf, 12, header.aux_n);
    put_u64(buf, 16, header.tag);
    put_u32(buf, 24, n as u32);
    put_u32(buf, 28, m as u32);
    put_u32(buf, 32, VERTEX_LABEL_BYTES as u32);
    put_u32(buf, 36, idx_count as u32);
}

/// Writes the endpoint index region at `at`.
pub(crate) fn write_endpoint_index(buf: &mut [u8], at: usize, index: &EndpointIndex) {
    for (i, (u, v, e)) in index.iter().enumerate() {
        let rec = at + ENDPOINT_ENTRY_BYTES * i;
        put_u32(buf, rec, u as u32);
        put_u32(buf, rec + 4, v as u32);
        put_u32(buf, rec + 8, e as u32);
    }
}

/// Writes the vertex-label region at `at`.
pub(crate) fn write_vertex_labels(
    buf: &mut [u8],
    at: usize,
    n: usize,
    header: LabelHeader,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
) {
    for v in 0..n {
        let rec = at + v * VERTEX_LABEL_BYTES;
        put_u16(buf, rec, serial::VERTEX_MAGIC);
        put_u32(buf, rec + 2, header.f);
        put_u32(buf, rec + 6, header.aux_n);
        put_u64(buf, rec + 10, header.tag);
        put_anc(buf, rec + 2 + serial::HEADER_BYTES, &vertex_anc(v));
    }
}

/// Writes the archive's fixed header, edge-offset table, endpoint index,
/// and vertex-label region into a pre-sized blob. Shared by the owned
/// [`encode`] path, the streaming [`stream_from_build`] path, and the
/// v2 decompressor so all three produce identical framing bytes by
/// construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_framing(
    buf: &mut [u8],
    header: LabelHeader,
    encoding: EdgeEncoding,
    n: usize,
    m: usize,
    index: &EndpointIndex,
    edge_offset: impl Fn(usize) -> u64,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
) {
    write_fixed_header(buf, STORE_VERSION, header, encoding, n, m, index.len());
    let offsets_at = FIXED_HEADER_BYTES;
    for e in 0..=m {
        put_u64(buf, offsets_at + 8 * e, edge_offset(e));
    }
    let endpoint_at = offsets_at + (m + 1) * 8;
    write_endpoint_index(buf, endpoint_at, index);
    let vertices_at = endpoint_at + index.len() * ENDPOINT_ENTRY_BYTES;
    write_vertex_labels(buf, vertices_at, n, header, vertex_anc);
}

/// Computes and writes the trailing whole-blob checksum into the final
/// 8 bytes of `buf`.
pub(crate) fn seal_v1_checksum(buf: &mut [u8]) {
    let body_len = buf.len() - TRAILING_CHECKSUM_BYTES;
    let sum = ftc_compress::checksum64(&buf[..body_len]);
    put_u64(buf, body_len, sum);
}

/// Writes one edge record's fixed prefix (everything before the syndrome
/// words): magic, header, both ancestry labels, `k`, and the payload
/// geometry field (`2k·levels` for full records, `levels` for compact).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_edge_prefix(
    buf: &mut [u8],
    at: usize,
    header: LabelHeader,
    anc_upper: &AncestryLabel,
    anc_lower: &AncestryLabel,
    encoding: EdgeEncoding,
    k: usize,
    levels: usize,
) {
    put_u16(
        buf,
        at,
        match encoding {
            EdgeEncoding::Full => serial::EDGE_MAGIC,
            EdgeEncoding::Compact => serial::COMPACT_EDGE_MAGIC,
        },
    );
    put_u32(buf, at + 2, header.f);
    put_u32(buf, at + 6, header.aux_n);
    put_u64(buf, at + 10, header.tag);
    put_anc(buf, at + 2 + serial::HEADER_BYTES, anc_upper);
    put_anc(
        buf,
        at + 2 + serial::HEADER_BYTES + serial::ANC_BYTES,
        anc_lower,
    );
    let geom_at = at + serial::EDGE_WORDS_OFFSET - 8;
    put_u32(buf, geom_at, k as u32);
    put_u32(
        buf,
        geom_at + 4,
        match encoding {
            EdgeEncoding::Full => (2 * k * levels) as u32,
            EdgeEncoding::Compact => levels as u32,
        },
    );
}

/// Stored payload words per edge record under an encoding.
pub(crate) fn payload_words(encoding: EdgeEncoding, k: usize, levels: usize) -> usize {
    match encoding {
        EdgeEncoding::Full => 2 * k * levels,
        EdgeEncoding::Compact => k * levels,
    }
}

/// Serializes a label set into the archive layout — one pre-sized output
/// buffer, written in place (no per-edge byte buffers).
fn encode(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
    let n = labels.n();
    let m = labels.m();
    let header = labels.header();

    // Per-edge record lengths (uniform for every labeling our builders
    // produce, but the offset table supports arbitrary lengths — keep
    // the general form).
    let record_len = |e: usize| {
        let vec = &labels.edge_label_by_id(e).vec;
        serial::EDGE_WORDS_OFFSET + 8 * payload_words(encoding, vec.k(), vec.levels())
    };
    let mut edge_total = 0usize;
    let mut offsets = Vec::with_capacity(m + 1);
    for e in 0..m {
        offsets.push(edge_total as u64);
        edge_total += record_len(e);
    }
    offsets.push(edge_total as u64);

    let edges_at = FIXED_HEADER_BYTES
        + (m + 1) * 8
        + labels.edge_index.len() * ENDPOINT_ENTRY_BYTES
        + n * VERTEX_LABEL_BYTES;
    let mut out = vec![0u8; edges_at + edge_total + TRAILING_CHECKSUM_BYTES];
    write_framing(
        &mut out,
        header,
        encoding,
        n,
        m,
        &labels.edge_index,
        |e| offsets[e],
        |v| labels.vertex_label(v).anc,
    );
    for (e, &off) in offsets.iter().take(m).enumerate() {
        let label = labels.edge_label_by_id(e);
        let at = edges_at + off as usize;
        let (k, levels) = (label.vec.k(), label.vec.levels());
        write_edge_prefix(
            &mut out,
            at,
            header,
            &label.anc_upper,
            &label.anc_lower,
            encoding,
            k,
            levels,
        );
        let raw = label.vec.raw();
        let words_at = at + serial::EDGE_WORDS_OFFSET;
        match encoding {
            EdgeEncoding::Full => {
                for (i, x) in raw.iter().enumerate() {
                    put_u64(&mut out, words_at + 8 * i, x.to_bits());
                }
            }
            EdgeEncoding::Compact => {
                // Odd power sums only: s₁, s₃, … (even ones are Frobenius
                // squares, reconstructed on read).
                for (i, x) in raw.iter().step_by(2).enumerate() {
                    put_u64(&mut out, words_at + 8 * i, x.to_bits());
                }
            }
        }
    }
    seal_v1_checksum(&mut out);
    out
}

/// [`LevelSink`] writing syndrome rows straight into their final
/// positions inside a serialized archive blob — the streaming
/// build-to-archive path. Full records store the whole `2k`-element row;
/// compact records store the `k` odd power sums.
struct ArchivePayloadSink {
    base: *mut u8,
    len: usize,
    /// Byte position of edge 0's first payload word.
    first_payload_at: usize,
    /// Bytes between consecutive edges' payloads (one record length).
    record_stride: usize,
    /// Bytes between consecutive level rows within a record.
    level_stride: usize,
    encoding: EdgeEncoding,
}

// SAFETY: see the `LevelSink` contract — `build_subtree_sums` workers
// write disjoint `(edge, level)` windows, never overlapping, never read.
unsafe impl Sync for ArchivePayloadSink {}

impl LevelSink for ArchivePayloadSink {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]) {
        let at = self.first_payload_at + e * self.record_stride + level * self.level_stride;
        debug_assert!(at + self.level_stride <= self.len);
        let write_word = |i: usize, x: Gf64| {
            let bytes = x.to_bits().to_le_bytes();
            // SAFETY: `at + 8i + 8 ≤ at + level_stride ≤ len` (debug-
            // asserted above; guaranteed by the layout arithmetic in
            // `stream_from_build`), and no other worker touches this
            // window.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.base.add(at + 8 * i), 8);
            }
        };
        match self.encoding {
            EdgeEncoding::Full => {
                for (i, &x) in row.iter().enumerate() {
                    write_word(i, x);
                }
            }
            EdgeEncoding::Compact => {
                for (i, &x) in row.iter().step_by(2).enumerate() {
                    write_word(i, x);
                }
            }
        }
    }
}

/// Lays out and fills a complete archive straight from a prepared build:
/// framing, index, vertex labels, and every edge record's prefix are
/// written up front; the subtree-sums workers then write each `(edge,
/// level)` syndrome row into its final blob position. The labeling is
/// never materialized as owned labels, so peak memory is one blob plus
/// O(threads) worker accumulators.
pub(crate) fn stream_from_build(
    g: &Graph,
    ctx: &BuildCtx,
    threads: usize,
    encoding: EdgeEncoding,
) -> LabelStore {
    let (n, m) = (g.n(), g.m());
    let (k, levels, header) = (ctx.k, ctx.levels, ctx.header);
    let words = payload_words(encoding, k, levels);
    let record_len = serial::EDGE_WORDS_OFFSET + 8 * words;
    let index = EndpointIndex::from_edges(g.edge_iter().map(|(_, u, v)| (u, v)));

    let edges_at = FIXED_HEADER_BYTES
        + (m + 1) * 8
        + index.len() * ENDPOINT_ENTRY_BYTES
        + n * VERTEX_LABEL_BYTES;
    let mut buf = vec![0u8; edges_at + m * record_len + TRAILING_CHECKSUM_BYTES];
    write_framing(
        &mut buf,
        header,
        encoding,
        n,
        m,
        &index,
        |e| (e * record_len) as u64,
        |v| ctx.aux.anc[v],
    );
    for (e, &lower) in ctx.aux.sigma_lower.iter().enumerate() {
        let upper = ctx.aux.tree.parent(lower).expect("σ(e) lower has a parent");
        write_edge_prefix(
            &mut buf,
            edges_at + e * record_len,
            header,
            &ctx.aux.anc[upper],
            &ctx.aux.anc[lower],
            encoding,
            k,
            levels,
        );
    }
    {
        let sink = ArchivePayloadSink {
            base: buf.as_mut_ptr(),
            len: buf.len(),
            first_payload_at: edges_at + serial::EDGE_WORDS_OFFSET,
            record_stride: record_len,
            level_stride: 8 * words / levels.max(1),
            encoding,
        };
        crate::scheme::build_subtree_sums(&ctx.aux, &ctx.hierarchy, k, levels, threads, &sink);
    }
    seal_v1_checksum(&mut buf);
    LabelStore::from_vec(buf).expect("freshly built archives are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use ftc_graph::Graph;

    fn archive(encoding: EdgeEncoding) -> (Graph, Vec<u8>) {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), encoding);
        (g, blob)
    }

    #[test]
    fn round_trips_both_encodings() {
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let g = Graph::torus(3, 4);
            let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
            let l = scheme.labels();
            let blob = LabelStore::to_vec(l, encoding);
            let view = LabelStoreView::open(&blob).unwrap();
            assert_eq!(view.encoding(), encoding);
            assert_eq!(view.n(), g.n());
            assert_eq!(view.m(), g.m());
            assert_eq!(view.header(), l.header());
            for v in 0..g.n() {
                assert_eq!(&view.vertex(v).unwrap().to_label(), l.vertex_label(v));
            }
            for e in 0..g.m() {
                assert_eq!(
                    &view.edge_by_id(e).unwrap().to_label(),
                    l.edge_label_by_id(e)
                );
            }
            for (_, u, v) in g.edge_iter() {
                let via_pair = view.edge(u, v).unwrap().to_label();
                assert_eq!(Some(&via_pair), l.edge_label(u, v));
                // Reversed endpoint order resolves too.
                assert_eq!(view.edge_id(v, u), view.edge_id(u, v));
            }
            assert!(view.edge(0, 99).is_none());
            assert!(view.vertex(g.n()).is_none());
            // Full reconstitution matches the original labels.
            let restored = view.to_label_set();
            assert_eq!(restored.header(), l.header());
            for v in 0..g.n() {
                assert_eq!(restored.vertex_label(v), l.vertex_label(v));
            }
            for e in 0..g.m() {
                assert_eq!(restored.edge_label_by_id(e), l.edge_label_by_id(e));
            }
        }
    }

    #[test]
    fn compact_archives_are_smaller() {
        let (_, full) = archive(EdgeEncoding::Full);
        let (_, compact) = archive(EdgeEncoding::Compact);
        assert!(
            compact.len() < full.len(),
            "compact {} should undercut full {}",
            compact.len(),
            full.len()
        );
    }

    #[test]
    fn sessions_from_archives_answer_queries() {
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let (_, blob) = archive(encoding);
            let view = LabelStoreView::open(&blob).unwrap();
            // Torus(3,4) is 4-edge-connected; two faults keep it connected.
            let session = view.session([(0, 1), (0, 4)]).unwrap();
            assert_eq!(
                session.connected(view.vertex(0).unwrap(), view.vertex(7).unwrap()),
                Ok(true)
            );
            // Unknown fault edges are named, not silently dropped.
            assert_eq!(
                view.session([(0, 99)]).unwrap_err(),
                StoreError::UnknownEdge { u: 0, v: 99 }
            );
            // One-shot convenience path agrees.
            assert_eq!(view.connected(0, 7, [(0, 1), (0, 4)]), Ok(true));
            assert_eq!(
                view.connected(0, 99, []),
                Err(StoreError::VertexOutOfRange { v: 99 })
            );
        }
    }

    #[test]
    fn truncation_and_corruption_rejected_without_panic() {
        let (_, blob) = archive(EdgeEncoding::Full);
        // Every prefix is rejected (or — for the empty archive — at least
        // never panics and never validates).
        for cut in 0..blob.len() {
            assert!(
                LabelStoreView::open(&blob[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly validated"
            );
        }
        // Trailing garbage is rejected.
        let mut extended = blob.clone();
        extended.push(0);
        assert!(LabelStoreView::open(&extended).is_err());
        // Wrong magic, version, encoding tag.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            LabelStoreView::open(&bad).unwrap_err(),
            SerialError::new(SerialErrorKind::BadMagic, 0)
        );
        let mut bad = blob.clone();
        bad[4] = 0xee;
        assert_eq!(
            LabelStoreView::open(&bad).unwrap_err().kind,
            SerialErrorKind::UnsupportedVersion
        );
        let mut bad = blob.clone();
        bad[6] = 7;
        assert_eq!(
            LabelStoreView::open(&bad).unwrap_err(),
            SerialError::new(SerialErrorKind::Inconsistent, 6)
        );
    }

    #[test]
    fn encoding_byte_must_match_the_record_layout() {
        // Edge views read both record layouts, so the archive's encoding
        // byte is what pins them: a blob whose header claims the other
        // encoding (checksum resealed, so only the cross-check can
        // object) is rejected at the first edge record.
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let (_, mut blob) = archive(encoding);
            let view = LabelStoreView::open(&blob).unwrap();
            let (at, _) = view.edge_span(0);
            let other = match encoding {
                EdgeEncoding::Full => EdgeEncoding::Compact,
                EdgeEncoding::Compact => EdgeEncoding::Full,
            };
            blob[6] = other.tag();
            seal_v1_checksum(&mut blob);
            assert_eq!(
                LabelStoreView::open(&blob).unwrap_err(),
                SerialError::new(SerialErrorKind::BadMagic, at)
            );
        }
    }

    #[test]
    fn mixed_codec_geometry_rejected_at_open() {
        // A crafted archive whose edge labels disagree on the codec
        // threshold k must be rejected at open() — never reach the merge
        // engine's width assertions. Natural archives cannot mix k
        // (the header tag fingerprints it), so forge one: rewrite edge
        // 0's k field to a divisor of its word count, which keeps the
        // per-label geometry checks satisfied.
        let g = Graph::cycle(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = scheme.labels();
        let k = l.edge_label_by_id(0).vec.k();
        assert!(k > 1, "need k > 1 to forge a divisor");
        let mut blob = LabelStore::to_vec(l, EdgeEncoding::Full);
        let view = LabelStoreView::open(&blob).unwrap();
        let (n, m, idx) = (view.n(), view.m(), view.endpoint_index().len());
        // k field of edge 0: edge region start + per-label offset of k
        // (magic 2 + header 16 + two ancestry labels 24 = 42).
        let edges_at =
            FIXED_HEADER_BYTES + (m + 1) * 8 + idx * ENDPOINT_ENTRY_BYTES + n * VERTEX_LABEL_BYTES;
        let k_at = edges_at + 42;
        assert_eq!(u32_at(&blob, k_at) as usize, k);
        blob[k_at..k_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            LabelStoreView::open(&blob).unwrap_err().kind,
            SerialErrorKind::Inconsistent
        );
    }

    #[test]
    fn shared_views_answer_like_borrowed_views() {
        let (_, blob) = archive(EdgeEncoding::Full);
        // A shared view is 'static: it owns the blob and survives the
        // buffer it was opened from.
        let shared: LabelStoreView<'static> = LabelStoreView::open_shared(blob.clone()).unwrap();
        // `to_shared` detaches a *borrowed* view from its buffer.
        let detached: LabelStoreView<'static> = {
            let local = blob.clone();
            let v = LabelStoreView::open(&local).unwrap();
            v.to_shared()
        };
        let borrowed = LabelStoreView::open(&blob).unwrap();
        for view in [&shared, &detached] {
            assert_eq!(view.n(), borrowed.n());
            assert_eq!(view.m(), borrowed.m());
            assert_eq!(view.header(), borrowed.header());
            for v in 0..view.n() {
                assert_eq!(
                    view.vertex(v).unwrap().to_label(),
                    borrowed.vertex(v).unwrap().to_label()
                );
            }
            let session = view.session([(0, 1), (0, 4)]).unwrap();
            assert_eq!(
                session.connected(view.vertex(0).unwrap(), view.vertex(7).unwrap()),
                Ok(true)
            );
        }
        // Clones share the blob (no copy) and keep answering after the
        // original handle is gone.
        let clone = shared.clone();
        drop(shared);
        assert!(clone.vertex(0).is_some());
        // Malformed blobs are rejected with the same offsets as `open`.
        assert_eq!(
            LabelStoreView::open_shared(vec![0u8; 3]).unwrap_err().kind,
            SerialErrorKind::Truncated
        );
    }

    #[test]
    fn into_shared_view_skips_revalidation_but_matches() {
        let (_, blob) = archive(EdgeEncoding::Compact);
        let store = LabelStore::from_vec(blob.clone()).unwrap();
        let view = store.into_shared_view();
        let direct = LabelStoreView::open(&blob).unwrap();
        assert_eq!(view.encoding(), direct.encoding());
        assert_eq!(view.as_bytes(), direct.as_bytes());
        assert_eq!(
            view.edge_by_id(0).unwrap().to_label(),
            direct.edge_by_id(0).unwrap().to_label()
        );
    }

    #[test]
    fn from_vec_validates() {
        let (_, blob) = archive(EdgeEncoding::Compact);
        let store = LabelStore::from_vec(blob.clone()).unwrap();
        assert_eq!(store.as_bytes(), &blob[..]);
        assert_eq!(store.view().m(), 2 * 12);
        assert!(LabelStore::from_vec(blob[..10].to_vec()).is_err());
    }
}
