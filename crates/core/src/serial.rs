//! Byte-level label serialization and zero-copy label views.
//!
//! Labels are *the* artifact of a labeling scheme: they must be storable,
//! shippable, and decodable with no access to the graph. This module
//! provides a compact little-endian layout for the deterministic scheme's
//! labels, plus [`VertexLabelView`] / [`EdgeLabelView`] — validated
//! borrowed views implementing the label-read traits directly over the
//! serialized bytes, so a decoder ([`crate::session::QuerySession`]) can
//! answer queries straight from stored or transmitted label bytes without
//! materializing owned labels.

use crate::ancestry::AncestryLabel;
use crate::labels::{
    EdgeLabel, EdgeLabelRead, LabelHeader, RsVector, VertexLabel, VertexLabelRead,
};
use crate::store::EdgeEncoding;
use ftc_field::Gf64;

pub(crate) const VERTEX_MAGIC: u16 = 0x4656; // "FV"
pub(crate) const EDGE_MAGIC: u16 = 0x4645; // "FE"
pub(crate) const COMPACT_EDGE_MAGIC: u16 = 0x4643; // "FC"

/// A serialization failure, locating the offending byte.
///
/// Every parser and view constructor in this module (and the archive
/// reader in [`crate::store`]) reports the byte offset at which the
/// problem was detected, so corrupt stored labels can be diagnosed
/// without a hex dump diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerialError {
    /// Byte offset (from the start of the parsed input) at which the
    /// problem was detected.
    pub offset: usize,
    /// What went wrong at [`SerialError::offset`].
    pub kind: SerialErrorKind,
}

/// What a [`SerialError`] found at its offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SerialErrorKind {
    /// The magic bytes do not match the expected layout.
    BadMagic,
    /// The input ends before the field starting here is complete.
    Truncated,
    /// A length or geometry field contradicts the surrounding layout.
    Inconsistent,
    /// Parsing finished but unconsumed bytes remain from here on.
    TrailingBytes,
    /// The archive declares a format version this build cannot read.
    UnsupportedVersion,
    /// A stored checksum does not match the bytes it covers.
    Checksum,
}

impl SerialError {
    pub(crate) fn new(kind: SerialErrorKind, offset: usize) -> SerialError {
        SerialError { offset, kind }
    }
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            SerialErrorKind::BadMagic => "bad magic",
            SerialErrorKind::Truncated => "truncated input",
            SerialErrorKind::Inconsistent => "inconsistent length or geometry",
            SerialErrorKind::TrailingBytes => "trailing bytes",
            SerialErrorKind::UnsupportedVersion => "unsupported format version",
            SerialErrorKind::Checksum => "checksum mismatch",
        };
        write!(f, "malformed label bytes: {what} at byte {}", self.offset)
    }
}

impl std::error::Error for SerialError {}

struct Writer(Vec<u8>);

impl Writer {
    fn u16(&mut self, x: u16) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerialError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SerialError::new(SerialErrorKind::Truncated, self.pos))?;
        if end > self.buf.len() {
            return Err(SerialError::new(SerialErrorKind::Truncated, self.pos));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, SerialError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SerialError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SerialError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn done(&self) -> Result<(), SerialError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SerialError::new(SerialErrorKind::TrailingBytes, self.pos))
        }
    }
}

fn write_header(w: &mut Writer, h: &LabelHeader) {
    w.u32(h.f);
    w.u32(h.aux_n);
    w.u64(h.tag);
}

fn read_header(r: &mut Reader) -> Result<LabelHeader, SerialError> {
    Ok(LabelHeader {
        f: r.u32()?,
        aux_n: r.u32()?,
        tag: r.u64()?,
    })
}

fn write_anc(w: &mut Writer, a: &AncestryLabel) {
    w.u32(a.pre);
    w.u32(a.last);
    w.u32(a.comp);
}

fn read_anc(r: &mut Reader) -> Result<AncestryLabel, SerialError> {
    Ok(AncestryLabel {
        pre: r.u32()?,
        last: r.u32()?,
        comp: r.u32()?,
    })
}

/// Serializes a vertex label.
pub fn vertex_to_bytes(l: &VertexLabel) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(2 + 16 + 12));
    w.u16(VERTEX_MAGIC);
    write_header(&mut w, &l.header);
    write_anc(&mut w, &l.anc);
    w.0
}

/// Deserializes a vertex label.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic,
/// truncation, or trailing bytes.
pub fn vertex_from_bytes(bytes: &[u8]) -> Result<VertexLabel, SerialError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.u16()? != VERTEX_MAGIC {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
    }
    let header = read_header(&mut r)?;
    let anc = read_anc(&mut r)?;
    r.done()?;
    Ok(VertexLabel { header, anc })
}

/// Serializes an edge label of the deterministic scheme.
pub fn edge_to_bytes(l: &EdgeLabel<RsVector>) -> Vec<u8> {
    let raw = l.vec.raw();
    let mut w = Writer(Vec::with_capacity(2 + 16 + 24 + 8 + raw.len() * 8));
    w.u16(EDGE_MAGIC);
    write_header(&mut w, &l.header);
    write_anc(&mut w, &l.anc_upper);
    write_anc(&mut w, &l.anc_lower);
    w.u32(l.vec.k() as u32);
    w.u32(raw.len() as u32);
    for &x in raw {
        w.u64(x.to_bits());
    }
    w.0
}

/// Deserializes an edge label of the deterministic scheme.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic, truncation, inconsistent
/// lengths, or trailing bytes.
pub fn edge_from_bytes(bytes: &[u8]) -> Result<EdgeLabel<RsVector>, SerialError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.u16()? != EDGE_MAGIC {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
    }
    let header = read_header(&mut r)?;
    let anc_upper = read_anc(&mut r)?;
    let anc_lower = read_anc(&mut r)?;
    let k = r.u32()? as usize;
    let len_at = r.pos;
    let len = r.u32()? as usize;
    if k > 0 && !len.is_multiple_of(2 * k) {
        return Err(SerialError::new(SerialErrorKind::Inconsistent, len_at));
    }
    // `len` is untrusted: reserve no more words than the input holds.
    let mut data = Vec::with_capacity(len.min(bytes.len() / 8));
    for _ in 0..len {
        data.push(Gf64::new(r.u64()?));
    }
    r.done()?;
    Ok(EdgeLabel {
        header,
        anc_upper,
        anc_lower,
        vec: RsVector::from_raw(k, data),
    })
}

/// Serializes an edge label at half width using the characteristic-two
/// syndrome compression (extension E12): per hierarchy level only the `k`
/// odd power sums are stored; [`compact_edge_from_bytes`] reconstructs the
/// even ones via `s_{2j} = s_j²`.
pub fn edge_to_bytes_compact(l: &EdgeLabel<RsVector>) -> Vec<u8> {
    let k = l.vec.k();
    let raw = l.vec.raw();
    let levels = if k == 0 { 0 } else { raw.len() / (2 * k) };
    let mut w = Writer(Vec::with_capacity(2 + 16 + 24 + 8 + levels * k * 8));
    w.u16(COMPACT_EDGE_MAGIC);
    write_header(&mut w, &l.header);
    write_anc(&mut w, &l.anc_upper);
    write_anc(&mut w, &l.anc_lower);
    w.u32(k as u32);
    w.u32(levels as u32);
    for lvl in 0..levels {
        for x in ftc_codes::compact::compress(&raw[2 * k * lvl..2 * k * (lvl + 1)]) {
            w.u64(x.to_bits());
        }
    }
    w.0
}

/// Deserializes a compact edge label, expanding each level back to the
/// full `2k`-element syndrome.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic,
/// truncation, or trailing bytes.
pub fn compact_edge_from_bytes(bytes: &[u8]) -> Result<EdgeLabel<RsVector>, SerialError> {
    check_magic(bytes, COMPACT_EDGE_MAGIC)?;
    Ok(EdgeLabelView::new(bytes)?.to_label())
}

// ---------------------------------------------------------------------------
// Zero-copy views
// ---------------------------------------------------------------------------

// Fixed field offsets of the serialized layouts (little-endian).
pub(crate) const HEADER_BYTES: usize = 4 + 4 + 8;
pub(crate) const ANC_BYTES: usize = 3 * 4;
const VERTEX_TOTAL_BYTES: usize = 2 + HEADER_BYTES + ANC_BYTES;
/// Byte offset of the syndrome words inside an edge record — equally the
/// length of the fixed per-edge prefix (magic, header, two ancestry
/// labels, `k`, payload-geometry field).
pub(crate) const EDGE_WORDS_OFFSET: usize = 2 + HEADER_BYTES + 2 * ANC_BYTES + 4 + 4;

/// Exact byte length of every serialized vertex label (the archive
/// format exploits the fixed stride for O(1) vertex lookups).
pub const VERTEX_LABEL_BYTES: usize = VERTEX_TOTAL_BYTES;

fn read_u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

/// Checks the leading two-byte magic, reporting truncation at the input
/// length or a magic mismatch at offset 0.
fn check_magic(bytes: &[u8], magic: u16) -> Result<(), SerialError> {
    if bytes.len() < 2 {
        return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
    }
    if u16::from_le_bytes(bytes[..2].try_into().unwrap()) != magic {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
    }
    Ok(())
}

/// Checks an exact expected length: a short input is truncated at its
/// end, a long one has trailing bytes starting at `expected`.
fn check_exact_len(bytes: &[u8], expected: usize) -> Result<(), SerialError> {
    match bytes.len() {
        l if l < expected => Err(SerialError::new(SerialErrorKind::Truncated, l)),
        l if l > expected => Err(SerialError::new(SerialErrorKind::TrailingBytes, expected)),
        _ => Ok(()),
    }
}

fn read_u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn read_header_at(buf: &[u8], at: usize) -> LabelHeader {
    LabelHeader {
        f: read_u32_at(buf, at),
        aux_n: read_u32_at(buf, at + 4),
        tag: read_u64_at(buf, at + 8),
    }
}

fn read_anc_at(buf: &[u8], at: usize) -> AncestryLabel {
    AncestryLabel {
        pre: read_u32_at(buf, at),
        last: read_u32_at(buf, at + 4),
        comp: read_u32_at(buf, at + 8),
    }
}

/// A validated zero-copy view of a serialized vertex label
/// ([`vertex_to_bytes`] layout). Implements
/// [`VertexLabelRead`], so it can be passed to
/// [`crate::session::QuerySession::connected`] directly — no owned
/// [`VertexLabel`] is ever materialized.
#[derive(Clone, Copy, Debug)]
pub struct VertexLabelView<'a> {
    buf: &'a [u8],
}

impl<'a> VertexLabelView<'a> {
    /// Validates magic and length over the borrowed bytes.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) on bad magic,
    /// truncation, or trailing bytes.
    pub fn new(bytes: &'a [u8]) -> Result<VertexLabelView<'a>, SerialError> {
        check_magic(bytes, VERTEX_MAGIC)?;
        check_exact_len(bytes, VERTEX_TOTAL_BYTES)?;
        Ok(VertexLabelView { buf: bytes })
    }

    /// Copies the view out into an owned label.
    pub fn to_label(&self) -> VertexLabel {
        VertexLabel {
            header: VertexLabelRead::header(self),
            anc: VertexLabelRead::anc(self),
        }
    }
}

impl VertexLabelRead for VertexLabelView<'_> {
    fn header(&self) -> LabelHeader {
        read_header_at(self.buf, 2)
    }

    fn anc(&self) -> AncestryLabel {
        read_anc_at(self.buf, 2 + HEADER_BYTES)
    }
}

/// A validated zero-copy view of a serialized edge label of the
/// deterministic scheme, in either record layout: full
/// ([`edge_to_bytes`], `2k` words per level) or compact
/// ([`edge_to_bytes_compact`], the `k` odd power sums per level).
/// Implements [`EdgeLabelRead`]: the ancestry fields decode on demand,
/// and the odd power sums of each level XOR into a session's half-width
/// slab straight out of the byte buffer — word `2j` of a full row, word
/// `j` of a compact one. The two layouts differ in nothing else.
#[derive(Clone, Copy, Debug)]
pub struct EdgeLabelView<'a> {
    buf: &'a [u8],
    encoding: EdgeEncoding,
}

impl<'a> EdgeLabelView<'a> {
    /// Validates magic (either layout), length consistency, and syndrome
    /// geometry over the borrowed bytes.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) on bad magic,
    /// truncation, inconsistent lengths, or trailing bytes.
    pub fn new(bytes: &'a [u8]) -> Result<EdgeLabelView<'a>, SerialError> {
        if bytes.len() < 2 {
            return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
        }
        let encoding = match u16::from_le_bytes(bytes[..2].try_into().unwrap()) {
            EDGE_MAGIC => EdgeEncoding::Full,
            COMPACT_EDGE_MAGIC => EdgeEncoding::Compact,
            _ => return Err(SerialError::new(SerialErrorKind::BadMagic, 0)),
        };
        if bytes.len() < EDGE_WORDS_OFFSET {
            return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
        }
        let geometry_at = EDGE_WORDS_OFFSET - 4;
        let inconsistent = SerialError::new(SerialErrorKind::Inconsistent, geometry_at);
        let k = read_u32_at(bytes, EDGE_WORDS_OFFSET - 8) as usize;
        let field = read_u32_at(bytes, geometry_at) as usize;
        // The geometry field holds the word count (full) or the level
        // count (compact).
        let words = match encoding {
            EdgeEncoding::Full if k > 0 && !field.is_multiple_of(2 * k) => {
                return Err(inconsistent)
            }
            EdgeEncoding::Full => field,
            EdgeEncoding::Compact => k.checked_mul(field).ok_or(inconsistent)?,
        };
        let len = words
            .checked_mul(8)
            .and_then(|b| b.checked_add(EDGE_WORDS_OFFSET))
            .ok_or(inconsistent)?;
        check_exact_len(bytes, len)?;
        Ok(EdgeLabelView {
            buf: bytes,
            encoding,
        })
    }

    /// The record layout these bytes use.
    pub fn encoding(&self) -> EdgeEncoding {
        self.encoding
    }

    /// The codec threshold `k` of the carried vector.
    pub fn k(&self) -> usize {
        read_u32_at(self.buf, EDGE_WORDS_OFFSET - 8) as usize
    }

    /// Number of hierarchy levels carried.
    pub fn levels(&self) -> usize {
        let field = read_u32_at(self.buf, EDGE_WORDS_OFFSET - 4) as usize;
        match (self.encoding, self.k()) {
            (EdgeEncoding::Compact, _) => field,
            (EdgeEncoding::Full, 0) => 0,
            (EdgeEncoding::Full, k) => field / (2 * k),
        }
    }

    /// The stored odd power sums `s₁, s₃, …`, level by level: every
    /// other word of a full record, every word of a compact one.
    fn odd_sums(&self) -> impl Iterator<Item = u64> + '_ {
        let stride = match self.encoding {
            EdgeEncoding::Full => 16,
            EdgeEncoding::Compact => 8,
        };
        (0..self.k() * self.levels())
            .map(move |i| read_u64_at(self.buf, EDGE_WORDS_OFFSET + stride * i))
    }

    /// Writes the full `2k`-per-level syndrome into `dst`, expanding
    /// each level's odd power sums — the archive-reconstitution path
    /// filling a shared payload slab without an owned vector per label.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != 2k · levels`.
    pub(crate) fn syndrome_into(&self, dst: &mut [Gf64]) {
        let (k, levels) = (self.k(), self.levels());
        assert_eq!(dst.len(), 2 * k * levels, "mixed vector widths");
        let mut odd = self.odd_sums().map(Gf64::new);
        for level in 0..levels {
            let full = &mut dst[2 * k * level..2 * k * (level + 1)];
            ftc_codes::compact::expand_into(odd.by_ref().take(k), full);
        }
    }

    /// Copies the view out into an owned label (expanding the syndrome).
    pub fn to_label(&self) -> EdgeLabel<RsVector> {
        let mut data = vec![Gf64::ZERO; 2 * self.k() * self.levels()];
        self.syndrome_into(&mut data);
        EdgeLabel {
            header: EdgeLabelRead::header(self),
            anc_upper: self.anc_upper(),
            anc_lower: self.anc_lower(),
            vec: RsVector::from_raw(self.k(), data),
        }
    }
}

impl EdgeLabelRead for EdgeLabelView<'_> {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        read_header_at(self.buf, 2)
    }

    fn anc_upper(&self) -> AncestryLabel {
        read_anc_at(self.buf, 2 + HEADER_BYTES)
    }

    fn anc_lower(&self) -> AncestryLabel {
        read_anc_at(self.buf, 2 + HEADER_BYTES + ANC_BYTES)
    }

    fn slab_words(&self) -> usize {
        self.k() * self.levels()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        assert_eq!(dst.len(), self.slab_words(), "mixed vector widths");
        for (d, w) in dst.iter_mut().zip(self.odd_sums()) {
            *d ^= w;
        }
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        det.configure(self.k(), self.levels());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use crate::labels::{DetectOutcome, OutdetectVector, RsDetector, SlabDetect};
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use crate::session::QuerySession;
    use ftc_graph::Graph;

    /// Detected IDs in ascending order, for order-free comparison.
    fn sorted(outcome: DetectOutcome) -> DetectOutcome {
        match outcome {
            DetectOutcome::Edges(mut ids) => {
                ids.sort_unstable();
                DetectOutcome::Edges(ids)
            }
            other => other,
        }
    }

    /// Detection straight off the stored full syndromes, bypassing the
    /// slab: decode the topmost non-zero `2k`-word level.
    fn full_syndrome_detect(v: &RsVector) -> DetectOutcome {
        let k = v.k();
        let Some(level) = v
            .raw()
            .chunks(2 * k)
            .rev()
            .find(|l| l.iter().any(|x| !x.is_zero()))
        else {
            return DetectOutcome::Empty;
        };
        match ftc_codes::ThresholdCodec::new(k).decode_adaptive(level) {
            Ok(ids) if !ids.is_empty() => sorted(DetectOutcome::Edges(
                ids.iter().map(|g| g.to_bits()).collect(),
            )),
            _ => DetectOutcome::Failed,
        }
    }

    /// The slab row a label's view accumulates into a zeroed row.
    fn slab_row(view: &EdgeLabelView) -> Vec<u64> {
        let mut row = vec![0u64; view.slab_words()];
        view.xor_into_slab(&mut row);
        row
    }

    #[test]
    fn vertex_round_trip() {
        let g = Graph::cycle(5);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        for v in 0..5 {
            let l = s.labels().vertex_label(v);
            let bytes = vertex_to_bytes(l);
            assert_eq!(&vertex_from_bytes(&bytes).unwrap(), l);
        }
    }

    #[test]
    fn edge_round_trip() {
        let g = Graph::cycle(5);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        for e in 0..5 {
            let l = s.labels().edge_label_by_id(e);
            let bytes = edge_to_bytes(l);
            assert_eq!(&edge_from_bytes(&bytes).unwrap(), l);
        }
    }

    #[test]
    fn malformed_inputs_rejected_with_offsets() {
        assert_eq!(
            vertex_from_bytes(&[]),
            Err(SerialError::new(SerialErrorKind::Truncated, 0))
        );
        assert_eq!(
            vertex_from_bytes(&[0xff; 30]),
            Err(SerialError::new(SerialErrorKind::BadMagic, 0))
        );
        // Correct edge magic but nothing after it: truncated at offset 2.
        assert_eq!(
            edge_from_bytes(&[0x45, 0x46]),
            Err(SerialError::new(SerialErrorKind::Truncated, 2))
        );
        // Truncated edge payload: the reader stops inside the last word.
        let g = Graph::cycle(4);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let bytes = edge_to_bytes(s.labels().edge_label_by_id(0));
        assert_eq!(
            edge_from_bytes(&bytes[..bytes.len() - 1]),
            Err(SerialError::new(
                SerialErrorKind::Truncated,
                bytes.len() - 8
            ))
        );
        // Trailing garbage is flagged at the first surplus byte.
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            edge_from_bytes(&extended),
            Err(SerialError::new(
                SerialErrorKind::TrailingBytes,
                bytes.len()
            ))
        );
        // Geometry fields are untrusted: a prefix claiming billions of
        // words is truncated input, not a giant allocation.
        let put_u32 =
            |b: &mut [u8], at: usize, x: u32| b[at..at + 4].copy_from_slice(&x.to_le_bytes());
        let mut huge = bytes[..EDGE_WORDS_OFFSET].to_vec();
        put_u32(&mut huge, EDGE_WORDS_OFFSET - 8, 1);
        put_u32(&mut huge, EDGE_WORDS_OFFSET - 4, u32::MAX - 1);
        assert_eq!(
            edge_from_bytes(&huge),
            Err(SerialError::new(
                SerialErrorKind::Truncated,
                EDGE_WORDS_OFFSET
            ))
        );
        let mut huge = edge_to_bytes_compact(s.labels().edge_label_by_id(0));
        huge.truncate(EDGE_WORDS_OFFSET);
        put_u32(&mut huge, EDGE_WORDS_OFFSET - 8, u32::MAX);
        put_u32(&mut huge, EDGE_WORDS_OFFSET - 4, u32::MAX);
        assert!(compact_edge_from_bytes(&huge).is_err());
    }

    #[test]
    fn compact_round_trip_is_lossless() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 3),
                (1, 4),
            ],
        );
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        for e in 0..g.m() {
            let l = s.labels().edge_label_by_id(e);
            let compact = edge_to_bytes_compact(l);
            let full = edge_to_bytes(l);
            assert!(
                compact.len() < full.len() / 2 + 64,
                "compact ({}) should be about half of full ({})",
                compact.len(),
                full.len()
            );
            assert_eq!(&compact_edge_from_bytes(&compact).unwrap(), l);
        }
    }

    #[test]
    fn compact_labels_answer_queries() {
        let g = Graph::cycle(7);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        let f0 = compact_edge_from_bytes(&edge_to_bytes_compact(l.edge_label_by_id(0))).unwrap();
        let f3 = compact_edge_from_bytes(&edge_to_bytes_compact(l.edge_label_by_id(3))).unwrap();
        let session = l.session([&f0, &f3]).unwrap();
        assert_eq!(
            session.connected(l.vertex_label(1), l.vertex_label(5)),
            Ok(false)
        );
        assert_eq!(
            session.connected(l.vertex_label(1), l.vertex_label(2)),
            Ok(true)
        );
    }

    #[test]
    fn wrong_magic_cross_rejected() {
        let g = Graph::cycle(4);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let vb = vertex_to_bytes(s.labels().vertex_label(0));
        assert_eq!(
            edge_from_bytes(&vb),
            Err(SerialError::new(SerialErrorKind::BadMagic, 0))
        );
        assert!(EdgeLabelView::new(&vb).is_err());
        let eb = edge_to_bytes(s.labels().edge_label_by_id(0));
        assert!(VertexLabelView::new(&eb).is_err());
        // The one edge view reads both layouts and reports which it saw
        // (archives cross-check it against their encoding byte).
        assert_eq!(
            EdgeLabelView::new(&eb).unwrap().encoding(),
            EdgeEncoding::Full
        );
        let cb = edge_to_bytes_compact(s.labels().edge_label_by_id(0));
        assert_eq!(
            EdgeLabelView::new(&cb).unwrap().encoding(),
            EdgeEncoding::Compact
        );
        assert!(VertexLabelView::new(&cb).is_err());
    }

    #[test]
    fn views_agree_with_owned_decoding() {
        let g = Graph::grid(3, 3);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        for v in 0..g.n() {
            let bytes = vertex_to_bytes(l.vertex_label(v));
            let view = VertexLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.vertex_label(v));
            assert_eq!(VertexLabelRead::header(&view), l.header());
        }
        for e in 0..g.m() {
            let bytes = edge_to_bytes(l.edge_label_by_id(e));
            let view = EdgeLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.edge_label_by_id(e));
            // The zero-copy slab path agrees with the owned vector, and
            // XORing a label in twice cancels.
            let owned = &l.edge_label_by_id(e).vec;
            let mut row = vec![0u64; owned.slab_words()];
            owned.accumulate_slab(&mut row);
            assert_eq!(slab_row(&view), row);
            view.xor_into_slab(&mut row);
            assert!(row.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn views_reject_malformed_bytes_with_offsets() {
        assert_eq!(
            VertexLabelView::new(&[]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, 0)
        );
        assert_eq!(
            EdgeLabelView::new(&[0x45, 0x46]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, 2)
        );
        let g = Graph::cycle(4);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let bytes = edge_to_bytes(s.labels().edge_label_by_id(0));
        assert_eq!(
            EdgeLabelView::new(&bytes[..bytes.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, bytes.len() - 1)
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            EdgeLabelView::new(&extended).unwrap_err(),
            SerialError::new(SerialErrorKind::TrailingBytes, bytes.len())
        );
        let vb = vertex_to_bytes(s.labels().vertex_label(0));
        assert_eq!(
            VertexLabelView::new(&vb[..vb.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, vb.len() - 1)
        );
        // Compact records locate truncation the same way.
        let cb = edge_to_bytes_compact(s.labels().edge_label_by_id(0));
        assert_eq!(
            EdgeLabelView::new(&cb[..cb.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, cb.len() - 1)
        );
    }

    #[test]
    fn compact_views_agree_with_owned_expansion() {
        let g = Graph::grid(3, 3);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        for e in 0..g.m() {
            let bytes = edge_to_bytes_compact(l.edge_label_by_id(e));
            let view = EdgeLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.edge_label_by_id(e));
            // The slab path agrees with the materialized vector.
            let mut row = slab_row(&view);
            view.to_label().vec.accumulate_slab(&mut row);
            assert!(row.iter().all(|&w| w == 0));
        }
        // Compact views drive sessions exactly like full ones.
        let b0 = edge_to_bytes_compact(l.edge_label_by_id(0));
        let b3 = edge_to_bytes_compact(l.edge_label_by_id(3));
        let views = [
            EdgeLabelView::new(&b0).unwrap(),
            EdgeLabelView::new(&b3).unwrap(),
        ];
        let session = crate::session::QuerySession::new(l.header(), views).unwrap();
        let owned = l
            .session([l.edge_label_by_id(0), l.edge_label_by_id(3)])
            .unwrap();
        for s in 0..g.n() {
            for t in 0..g.n() {
                assert_eq!(
                    session.connected(l.vertex_label(s), l.vertex_label(t)),
                    owned.connected(l.vertex_label(s), l.vertex_label(t))
                );
            }
        }
    }

    #[test]
    fn sessions_answer_straight_from_bytes() {
        let g = Graph::cycle(7);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        let fault_bytes: Vec<Vec<u8>> = [0usize, 3]
            .iter()
            .map(|&e| edge_to_bytes(l.edge_label_by_id(e)))
            .collect();
        let vertex_bytes: Vec<Vec<u8>> = (0..g.n())
            .map(|v| vertex_to_bytes(l.vertex_label(v)))
            .collect();
        // Build the session from views only — no owned labels anywhere.
        let views: Vec<EdgeLabelView> = fault_bytes
            .iter()
            .map(|b| EdgeLabelView::new(b).unwrap())
            .collect();
        let header = VertexLabelView::new(&vertex_bytes[0]).unwrap().header();
        let session = crate::session::QuerySession::new(header, views).unwrap();
        let vv = |v: usize| VertexLabelView::new(&vertex_bytes[v]).unwrap();
        assert_eq!(session.connected(vv(1), vv(5)), Ok(false));
        assert_eq!(session.connected(vv(1), vv(2)), Ok(true));
        assert_eq!(session.connected(vv(4), vv(6)), Ok(true));
    }

    #[test]
    fn both_layouts_fill_identical_half_width_slab_rows() {
        let g = Graph::grid(3, 4);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        let full: Vec<Vec<u8>> = (0..g.m())
            .map(|e| edge_to_bytes(l.edge_label_by_id(e)))
            .collect();
        let compact: Vec<Vec<u8>> = (0..g.m())
            .map(|e| edge_to_bytes_compact(l.edge_label_by_id(e)))
            .collect();
        for e in 0..g.m() {
            let (fv, cv) = (
                EdgeLabelView::new(&full[e]).unwrap(),
                EdgeLabelView::new(&compact[e]).unwrap(),
            );
            assert_eq!((fv.k(), fv.levels()), (cv.k(), cv.levels()));
            assert_eq!(fv.slab_words(), fv.k() * fv.levels(), "half width");
            assert_eq!(slab_row(&fv), slab_row(&cv));
        }
        // Detection on the XOR of two half-width rows equals owned
        // detection on the XOR of the full vectors, and decoding the
        // stored full syndrome directly.
        let mut det = RsDetector::default();
        let mut out = Vec::new();
        let mut decoded = 0;
        for (a, b) in [(0, 1), (0, 5), (2, 9), (3, 3)] {
            let mut row = slab_row(&EdgeLabelView::new(&full[a]).unwrap());
            EdgeLabelView::new(&compact[b])
                .unwrap()
                .xor_into_slab(&mut row);
            let mut owned = l.edge_label_by_id(a).vec.clone();
            owned.xor_in(&l.edge_label_by_id(b).vec);
            owned.configure_detector(&mut det);
            let slab = RsVector::detect_slab(&mut det, &row, &mut out);
            out.sort_unstable();
            let expected = full_syndrome_detect(&owned);
            assert_eq!(sorted(owned.detect()), expected);
            match expected {
                DetectOutcome::Edges(ids) => {
                    assert_eq!((slab, &out), (SlabDetect::Edges, &ids));
                    decoded += 1;
                }
                DetectOutcome::Empty => assert_eq!(slab, SlabDetect::Empty),
                DetectOutcome::Failed => assert_eq!(slab, SlabDetect::Failed),
            }
        }
        assert!(decoded > 0, "some pair must decode to edges");
    }

    /// A self-consistent record of another geometry under the same
    /// header: the session must refuse it, not panic or decode with the
    /// wrong detector.
    #[test]
    fn sessions_reject_fault_labels_of_another_geometry() {
        // Random halving gives the hierarchy several levels.
        let g = Graph::grid(4, 4);
        let s = FtcScheme::build(&g, &Params::randomized(2, 7)).unwrap();
        let l = s.labels();
        let v0 = edge_to_bytes(l.edge_label_by_id(0));
        let view = EdgeLabelView::new(&v0).unwrap();
        let (k, levels) = (view.k(), view.levels());
        assert!(levels >= 2, "the crafted records need two levels");
        let put_u32 = |b: &mut Vec<u8>, at: usize, x: usize| {
            b[at..at + 4].copy_from_slice(&(x as u32).to_le_bytes())
        };
        // Drop the top level and rewrite the word count.
        let mut shorter = edge_to_bytes(l.edge_label_by_id(1));
        shorter.truncate(shorter.len() - 8 * 2 * k);
        put_u32(&mut shorter, EDGE_WORDS_OFFSET - 4, 2 * k * (levels - 1));
        // Same payload, threshold `k · levels`: one level, and the same
        // half-width slab width as the genuine record.
        let mut regrouped = edge_to_bytes(l.edge_label_by_id(1));
        put_u32(&mut regrouped, EDGE_WORDS_OFFSET - 8, k * levels);
        for crafted in [&shorter, &regrouped] {
            let c = EdgeLabelView::new(crafted).expect("self-consistent record");
            assert_eq!(c.header(), view.header());
            assert_ne!((c.k(), c.levels()), (k, levels));
            assert_eq!(
                QuerySession::from_faults([view, c]).unwrap_err(),
                QueryError::MismatchedLabels
            );
            assert_eq!(
                QuerySession::from_faults([c, view]).unwrap_err(),
                QueryError::MismatchedLabels
            );
        }
        assert_eq!(
            EdgeLabelView::new(&regrouped).unwrap().slab_words(),
            view.slab_words()
        );
    }
}
