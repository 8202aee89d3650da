//! The shareable connectivity service: one handle, many threads, any
//! number of fault-set queries.

use crate::pool::ScratchPool;
use ftc_core::compressed::{AnyArchive, CompressedStoreView};
use ftc_core::serial::VertexLabelView;
use ftc_core::store::{EdgeEncoding, LabelStore, LabelStoreView, StoreError, StoreOpenError};
use ftc_core::{
    Certificate, LabelHeader, LabelSet, QueryError, QuerySession, RsVector, SerialError,
};
use std::fmt;
use std::sync::Arc;

/// Errors raised while serving a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A fault was named by an endpoint pair the labeling does not
    /// contain.
    UnknownEdge {
        /// First requested endpoint.
        u: usize,
        /// Second requested endpoint.
        v: usize,
    },
    /// A fault was named by an edge ID outside the labeling's `0..m`.
    UnknownEdgeId {
        /// The requested edge ID.
        id: usize,
    },
    /// A vertex argument is outside the labeling's `0..n` range.
    VertexOutOfRange {
        /// The requested vertex.
        v: usize,
    },
    /// The underlying session construction or query failed.
    Query(QueryError),
    /// A lazily-validated archive section failed its checksum or decode
    /// on first touch (compressed archives only).
    Corrupt(SerialError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEdge { u, v } => {
                write!(f, "no edge {u}–{v} in the served labeling")
            }
            ServeError::UnknownEdgeId { id } => {
                write!(f, "no edge with ID {id} in the served labeling")
            }
            ServeError::VertexOutOfRange { v } => write!(f, "vertex {v} out of range"),
            ServeError::Query(q) => write!(f, "query failed: {q}"),
            ServeError::Corrupt(e) => write!(f, "served archive section corrupt: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(q: QueryError) -> ServeError {
        ServeError::Query(q)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        match e {
            StoreError::UnknownEdge { u, v } => ServeError::UnknownEdge { u, v },
            StoreError::VertexOutOfRange { v } => ServeError::VertexOutOfRange { v },
            StoreError::Query(q) => ServeError::Query(q),
            StoreError::Corrupt(e) => ServeError::Corrupt(e),
        }
    }
}

impl From<SerialError> for ServeError {
    fn from(e: SerialError) -> ServeError {
        ServeError::Corrupt(e)
    }
}

/// Resolves vertex `v` out of `archive`, out-of-range as an error.
fn resolve(archive: &AnyArchive, v: usize) -> Result<VertexLabelView<'_>, ServeError> {
    archive.vertex(v)?.ok_or(ServeError::VertexOutOfRange { v })
}

#[derive(Debug)]
struct Inner {
    archive: AnyArchive,
    pool: ScratchPool,
}

/// The answers of one [`ConnectivityService::query`] call: one `bool`
/// per requested pair, in request order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Answers {
    answers: Vec<bool>,
}

impl Answers {
    /// The answers as a slice, in request order.
    pub fn as_slice(&self) -> &[bool] {
        &self.answers
    }

    /// The answer for pair `i` (request order).
    pub fn get(&self, i: usize) -> Option<bool> {
        self.answers.get(i).copied()
    }

    /// Number of answered pairs.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// `true` when no pairs were requested.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// `true` iff every requested pair is connected.
    pub fn all_connected(&self) -> bool {
        self.answers.iter().all(|&a| a)
    }

    /// Consumes the answers into the underlying vector.
    pub fn into_vec(self) -> Vec<bool> {
        self.answers
    }
}

impl<'a> IntoIterator for &'a Answers {
    type Item = bool;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, bool>>;

    fn into_iter(self) -> Self::IntoIter {
        self.answers.iter().copied()
    }
}

/// A prepared fault set inside [`ConnectivityService::with_session`] /
/// [`ConnectivityService::with_session_ids`]: the session plus vertex
/// resolution against the service's archive.
#[derive(Clone, Copy, Debug)]
pub struct Served<'a> {
    archive: &'a AnyArchive,
    session: &'a QuerySession,
}

impl<'a> Served<'a> {
    /// The prepared [`QuerySession`] (for consumers — like the routing
    /// layer — that need certificates and the fragment decomposition).
    pub fn session(&self) -> &'a QuerySession {
        self.session
    }

    /// The label of vertex `v`, resolved from the service's archive;
    /// `Ok(None)` when `v` is out of range.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] if a compressed archive's vertex section
    /// fails lazy validation.
    pub fn vertex(&self, v: usize) -> Result<Option<VertexLabelView<'a>>, ServeError> {
        Ok(self.archive.vertex(v)?)
    }

    /// Answers one s–t query by vertex ID.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] on bad IDs, [`ServeError::Query`]
    /// from the session.
    pub fn connected(&self, s: usize, t: usize) -> Result<bool, ServeError> {
        Ok(self.certified(s, t)?.is_some())
    }

    /// Like [`Served::connected`], but returns the borrowed merge
    /// certificate when connected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Served::connected`].
    pub fn certified(&self, s: usize, t: usize) -> Result<Option<&'a [(u32, u32)]>, ServeError> {
        let (vs, vt) = (resolve(self.archive, s)?, resolve(self.archive, t)?);
        Ok(self.session.certified(vs, vt)?)
    }
}

/// A shareable, thread-safe connectivity serving handle.
///
/// The service serves one [`AnyArchive`] — a v1 archive (opened from a
/// file, a [`LabelStoreView`], a [`LabelStore`], raw bytes held as
/// `Arc<[u8]>`, or an owned [`LabelSet`] archived on the way in) or a v2
/// compressed archive — so every internal view is `'static`, and the
/// service is `Send + Sync + Clone`:
/// clone the handle into as many threads as needed, and every
/// [`ConnectivityService::query`] call internally checks a
/// [`ftc_core::SessionScratch`] out of a lock-free pool — concurrent
/// callers keep the zero-allocation warm session-build path without
/// managing scratches themselves.
///
/// # Example
///
/// ```
/// use ftc_core::store::{EdgeEncoding, LabelStore};
/// use ftc_core::{FtcScheme, Params};
/// use ftc_graph::Graph;
/// use ftc_serve::ConnectivityService;
///
/// let g = Graph::torus(4, 4);
/// let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
/// let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Compact);
///
/// let service = ConnectivityService::from_archive_bytes(blob).unwrap();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let service = service.clone();
///         s.spawn(move || {
///             let answers = service
///                 .query(&[(0, 1), (0, 4)], &[(0, 10), (3, 12)])
///                 .unwrap();
///             assert!(answers.all_connected());
///         });
///     }
/// });
/// ```
#[derive(Clone, Debug)]
pub struct ConnectivityService {
    inner: Arc<Inner>,
}

impl ConnectivityService {
    /// A service over an opened archive of either format.
    pub fn from_archive(archive: AnyArchive) -> ConnectivityService {
        let slots = std::thread::available_parallelism()
            .map(|p| p.get() * 2)
            .unwrap_or(8)
            .clamp(4, 64);
        ConnectivityService {
            inner: Arc::new(Inner {
                archive,
                pool: ScratchPool::new(slots),
            }),
        }
    }

    /// A service over an owned label set, archived once with the full
    /// edge encoding.
    pub fn from_labels(labels: LabelSet<RsVector>) -> ConnectivityService {
        Self::from_store(LabelStore::archive(&labels, EdgeEncoding::Full))
    }

    /// A service over raw archive bytes: the blob moves into an
    /// `Arc<[u8]>` and is validated once; every later lookup is
    /// zero-copy.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if the bytes are not a well-formed archive.
    pub fn from_archive_bytes(
        bytes: impl Into<Arc<[u8]>>,
    ) -> Result<ConnectivityService, SerialError> {
        Ok(Self::from_archive(AnyArchive::V1(
            LabelStoreView::open_shared(bytes)?,
        )))
    }

    /// A service over an already-validated [`LabelStore`] (no
    /// re-validation; the blob is shared, not copied).
    pub fn from_store(store: LabelStore) -> ConnectivityService {
        Self::from_archive(AnyArchive::V1(store.into_shared_view()))
    }

    /// A service over an opened [`LabelStoreView`]: a shared view clones
    /// its `Arc` (O(1)); a borrowed view copies the blob once.
    pub fn from_view(view: &LabelStoreView<'_>) -> ConnectivityService {
        Self::from_archive(AnyArchive::V1(view.to_shared()))
    }

    /// A service over a v2 compressed archive view: sections decode
    /// lazily on first touch and stay cached for the service's lifetime.
    pub fn from_compressed(view: CompressedStoreView) -> ConnectivityService {
        Self::from_archive(AnyArchive::V2(view))
    }

    /// Opens an archive file of either format (memory-mapped where the
    /// platform allows) and wraps it in a service: v1 archives are fully
    /// validated at open, v2 archives decode lazily.
    ///
    /// # Errors
    ///
    /// [`StoreOpenError`] on I/O failure or malformed archives.
    pub fn open_path(
        path: impl AsRef<std::path::Path>,
    ) -> Result<ConnectivityService, StoreOpenError> {
        Ok(Self::from_archive(ftc_core::compressed::open_path(path)?))
    }

    /// The served archive (format, encoding, geometry, size).
    pub fn archive(&self) -> &AnyArchive {
        &self.inner.archive
    }

    /// Number of served vertex labels.
    pub fn n(&self) -> usize {
        self.inner.archive.n()
    }

    /// Number of served edge labels.
    pub fn m(&self) -> usize {
        self.inner.archive.m()
    }

    /// The shared labeling header (fault budget `f` in `header().f`).
    pub fn header(&self) -> LabelHeader {
        self.inner.archive.header()
    }

    /// Answers a pair without preparing a fault set at all:
    /// `Some(connected)` for same-vertex or cross-component pairs,
    /// `None` when the full decoder is required. Trivially-decidable
    /// pairs answer before fault validation (the decoder's historical
    /// check order).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] on bad vertex IDs.
    pub fn trivial_answer(&self, s: usize, t: usize) -> Result<Option<bool>, ServeError> {
        let archive = &self.inner.archive;
        let (vs, vt) = (resolve(archive, s)?, resolve(archive, t)?);
        Ok(QuerySession::trivial_answer(&vs, &vt)?)
    }

    /// Answers a batch of s–t `pairs` under the fault set named by
    /// endpoint-pair `faults`: one session build (scratch from the
    /// pool), any number of answers. Faults are validated eagerly —
    /// an unknown fault edge errors even when every pair would answer
    /// trivially — and trivially-decidable pairs answer before the
    /// fault-budget check, preserving the historical decoder order.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdge`] / [`ServeError::VertexOutOfRange`] on
    /// unresolvable arguments, [`ServeError::Query`] from the decoder.
    pub fn query(
        &self,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Answers, ServeError> {
        let certs = self.answer(faults, pairs, |cert| cert.is_some())?;
        Ok(Answers { answers: certs })
    }

    /// Like [`ConnectivityService::query`], but returning the merge
    /// certificate per connected pair (`None` = disconnected, empty =
    /// trivially/same-fragment connected).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConnectivityService::query`].
    pub fn query_certified(
        &self,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Vec<Option<Certificate>>, ServeError> {
        self.answer(faults, pairs, |cert| cert.map(<[(u32, u32)]>::to_vec))
    }

    /// Eager fault validation shared by the endpoint-pair entry points.
    fn check_faults(&self, faults: &[(usize, usize)]) -> Result<(), ServeError> {
        for &(u, v) in faults {
            if self.inner.archive.edge_id(u, v)?.is_none() {
                return Err(ServeError::UnknownEdge { u, v });
            }
        }
        Ok(())
    }

    /// Shared implementation of the query entry points: eager fault
    /// validation, the trivial pass, then one pooled session build for
    /// the remaining pairs, mapped through `extract`.
    fn answer<R>(
        &self,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
        mut extract: impl FnMut(Option<&[(u32, u32)]>) -> R,
    ) -> Result<Vec<R>, ServeError> {
        let archive = &self.inner.archive;
        self.check_faults(faults)?;
        let mut out: Vec<Option<R>> = Vec::with_capacity(pairs.len());
        let mut nontrivial = Vec::new();
        for &(s, t) in pairs {
            let (vs, vt) = (resolve(archive, s)?, resolve(archive, t)?);
            match QuerySession::trivial_answer(&vs, &vt)? {
                Some(true) => out.push(Some(extract(Some(&[])))),
                Some(false) => out.push(Some(extract(None))),
                None => {
                    nontrivial.push((vs, vt));
                    out.push(None);
                }
            }
        }
        if !nontrivial.is_empty() {
            self.run_session(
                |archive, scratch| archive.session_in(faults.iter().copied(), scratch),
                |served| {
                    let mut pending = nontrivial.iter();
                    for slot in out.iter_mut().filter(|s| s.is_none()) {
                        let (vs, vt) = pending.next().expect("one nontrivial pair per slot");
                        *slot = Some(extract(served.session.certified(vs, vt)?));
                    }
                    Ok::<_, QueryError>(())
                },
            )??;
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every pair answered"))
            .collect())
    }

    /// Prepares a session for endpoint-pair `faults` out of the pool and
    /// hands it to `f` as a [`Served`] — the lower-level entry point for
    /// consumers that need the session itself (certificates, fragment
    /// decomposition) while keeping pooled scratch reuse.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdge`] on unresolvable faults,
    /// [`ServeError::Query`] on session-construction failures.
    pub fn with_session<R>(
        &self,
        faults: &[(usize, usize)],
        f: impl FnOnce(Served<'_>) -> R,
    ) -> Result<R, ServeError> {
        self.check_faults(faults)?;
        self.run_session(
            |archive, scratch| archive.session_in(faults.iter().copied(), scratch),
            f,
        )
    }

    /// Like [`ConnectivityService::with_session`], naming faults by
    /// original edge ID (the routing layer's native fault vocabulary —
    /// unlike endpoint pairs, IDs distinguish parallel edges).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdgeId`] on out-of-range IDs,
    /// [`ServeError::Query`] on session-construction failures.
    pub fn with_session_ids<R>(
        &self,
        faults: &[usize],
        f: impl FnOnce(Served<'_>) -> R,
    ) -> Result<R, ServeError> {
        if let Some(&id) = faults.iter().find(|&&e| e >= self.m()) {
            return Err(ServeError::UnknownEdgeId { id });
        }
        self.run_session(
            |archive, scratch| archive.session_in_by_ids(faults.iter().copied(), scratch),
            f,
        )
    }

    fn run_session<R>(
        &self,
        build: impl FnOnce(
            &AnyArchive,
            &mut ftc_core::SessionScratch<RsVector>,
        ) -> Result<QuerySession, StoreError>,
        f: impl FnOnce(Served<'_>) -> R,
    ) -> Result<R, ServeError> {
        let archive = &self.inner.archive;
        let mut scratch = self.inner.pool.checkout();
        let session = match build(archive, &mut scratch) {
            Ok(session) => session,
            Err(e) => {
                self.inner.pool.put_back(scratch);
                return Err(e.into());
            }
        };
        let r = f(Served {
            archive,
            session: &session,
        });
        scratch.recycle(session);
        self.inner.pool.put_back(scratch);
        Ok(r)
    }
}

// Compile-time guarantees, not vibes: the service contract is
// `Send + Sync + Clone`, and the archive it serves must stay that way.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_clone<T: Clone>() {}
    assert_send_sync::<ConnectivityService>();
    assert_send_sync::<AnyArchive>();
    assert_send_sync::<Answers>();
    assert_send_sync::<ServeError>();
    assert_clone::<ConnectivityService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::{FtcScheme, Params};
    use ftc_graph::Graph;

    fn torus_service(encoding: Option<EdgeEncoding>) -> ConnectivityService {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        match encoding {
            None => ConnectivityService::from_labels(scheme.into_labels()),
            Some(enc) => {
                let blob = LabelStore::to_vec(scheme.labels(), enc);
                ConnectivityService::from_archive_bytes(blob).unwrap()
            }
        }
    }

    fn torus_service_compressed(enc: EdgeEncoding) -> ConnectivityService {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), enc);
        let view = ftc_core::store::LabelStoreView::open(&blob).unwrap();
        let store = ftc_core::compressed::compress_archive(&view);
        ConnectivityService::from_compressed(store.view().unwrap())
    }

    #[test]
    fn compressed_backing_answers_like_the_others() {
        let owned = torus_service(None);
        let compressed = torus_service_compressed(EdgeEncoding::Full);
        assert_eq!(compressed.archive().encoding(), EdgeEncoding::Full);
        assert!(compressed.archive().archive_bytes() < owned.archive().archive_bytes());
        let faults = [(0usize, 1usize), (0, 4)];
        let pairs: Vec<(usize, usize)> =
            (0..12).flat_map(|s| (0..12).map(move |t| (s, t))).collect();
        assert_eq!(
            owned.query(&faults, &pairs).unwrap(),
            compressed.query(&faults, &pairs).unwrap()
        );
        // Error vocabulary matches too.
        assert_eq!(
            compressed.query(&[(0, 99)], &[(0, 1)]).unwrap_err(),
            ServeError::UnknownEdge { u: 0, v: 99 }
        );
        assert!(matches!(
            compressed.with_session_ids(&[999], |_| ()),
            Err(ServeError::UnknownEdgeId { id: 999 })
        ));
    }

    #[test]
    fn all_backings_answer_identically() {
        // Owned labels (archived on the way in) and v1-full, v1-compact
        // and v2 files opened from disk answer every entry point alike.
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let full = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
        let compact = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Compact);
        let v2 = ftc_core::compressed::compress_archive(&LabelStoreView::open(&full).unwrap());
        let dir = std::env::temp_dir().join(format!("ftc_service_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut services = vec![ConnectivityService::from_labels(scheme.into_labels())];
        for (name, bytes) in [
            ("full.ftc", &full[..]),
            ("compact.ftc", &compact[..]),
            ("full.ftcz", v2.as_bytes()),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let svc = ConnectivityService::open_path(&path).unwrap();
            assert_eq!(svc.archive().archive_bytes(), bytes.len(), "{name}");
            services.push(svc);
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(services[0].archive().encoding(), EdgeEncoding::Full);
        assert_eq!(services[2].archive().encoding(), EdgeEncoding::Compact);

        let faults = [(0usize, 1usize), (0, 4)];
        let ids: Vec<usize> = faults
            .iter()
            .map(|&(u, v)| g.find_edge(u, v).unwrap())
            .collect();
        let pairs: Vec<(usize, usize)> =
            (0..12).flat_map(|s| (0..12).map(move |t| (s, t))).collect();
        let by_ids = |svc: &ConnectivityService| {
            svc.with_session_ids(&ids, |served| {
                pairs
                    .iter()
                    .map(|&(s, t)| served.certified(s, t).unwrap().map(<[(u32, u32)]>::to_vec))
                    .collect::<Vec<_>>()
            })
            .unwrap()
        };
        let trivial = |svc: &ConnectivityService| {
            pairs
                .iter()
                .map(|&(s, t)| svc.trivial_answer(s, t).unwrap())
                .collect::<Vec<_>>()
        };
        let reference = &services[0];
        let answers = reference.query(&faults, &pairs).unwrap();
        let certs = reference.query_certified(&faults, &pairs).unwrap();
        assert_eq!(answers.len(), pairs.len());
        for (cert, ans) in certs.iter().zip(&answers) {
            assert_eq!(cert.is_some(), ans);
        }
        // Faults by ID name the same edges as the endpoint pairs.
        assert_eq!(by_ids(reference), certs);
        for svc in &services[1..] {
            assert_eq!(svc.query(&faults, &pairs).unwrap(), answers);
            assert_eq!(svc.query_certified(&faults, &pairs).unwrap(), certs);
            assert_eq!(by_ids(svc), certs);
            assert_eq!(trivial(svc), trivial(reference));
        }
    }

    #[test]
    fn errors_name_the_offending_argument() {
        for svc in [torus_service(None), torus_service(Some(EdgeEncoding::Full))] {
            assert_eq!(
                svc.query(&[(0, 99)], &[(0, 1)]).unwrap_err(),
                ServeError::UnknownEdge { u: 0, v: 99 }
            );
            // Unknown faults error even when every pair is trivial.
            assert_eq!(
                svc.query(&[(0, 99)], &[(3, 3)]).unwrap_err(),
                ServeError::UnknownEdge { u: 0, v: 99 }
            );
            assert_eq!(
                svc.query(&[], &[(0, 99)]).unwrap_err(),
                ServeError::VertexOutOfRange { v: 99 }
            );
            // Trivial pairs answer before the budget check…
            assert_eq!(
                svc.query(&[(0, 1), (1, 2), (2, 3)], &[(5, 5)])
                    .unwrap()
                    .as_slice(),
                &[true]
            );
            // …but non-trivial pairs surface it.
            assert!(matches!(
                svc.query(&[(0, 1), (1, 2), (2, 3)], &[(0, 5)]),
                Err(ServeError::Query(QueryError::TooManyFaults { .. }))
            ));
            assert!(matches!(
                svc.with_session_ids(&[999], |_| ()),
                Err(ServeError::UnknownEdgeId { id: 999 })
            ));
        }
    }

    #[test]
    fn with_session_exposes_certificates_and_faults_by_id() {
        let svc = torus_service(Some(EdgeEncoding::Compact));
        // (0,1) has some edge ID; with_session_ids([0, 1]) prepares the
        // first two edges as faults.
        let connected = svc
            .with_session_ids(&[0, 1], |served| {
                assert!(served.vertex(0).unwrap().is_some());
                assert!(served.vertex(99).unwrap().is_none());
                served.certified(0, 7).unwrap().map(<[(u32, u32)]>::to_vec)
            })
            .unwrap();
        assert!(connected.is_some());
        let by_pairs = svc
            .with_session(&[(0, 1), (0, 4)], |served| served.connected(0, 7).unwrap())
            .unwrap();
        assert!(by_pairs);
    }

    #[test]
    fn trivial_answer_agrees_with_query_and_orders_before_validation() {
        for svc in [torus_service(None), torus_service(Some(EdgeEncoding::Full))] {
            // Same vertex / same component / out of range.
            assert_eq!(svc.trivial_answer(3, 3), Ok(Some(true)));
            assert_eq!(svc.trivial_answer(0, 7), Ok(None));
            assert_eq!(
                svc.trivial_answer(0, 99),
                Err(ServeError::VertexOutOfRange { v: 99 })
            );
            // Whenever it answers, the full query path must agree — and
            // it answers without any fault set at all, which is exactly
            // the trivial-before-validation ordering answer() uses.
            for s in 0..svc.n() {
                for t in 0..svc.n() {
                    if let Some(a) = svc.trivial_answer(s, t).unwrap() {
                        assert_eq!(svc.query(&[], &[(s, t)]).unwrap().get(0), Some(a));
                    }
                }
            }
        }
        // A disconnected graph exercises the Some(false) arm.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let svc = ConnectivityService::from_labels(scheme.into_labels());
        assert_eq!(svc.trivial_answer(0, 3), Ok(Some(false)));
    }

    #[test]
    fn empty_faults_and_empty_pairs_are_valid() {
        let svc = torus_service(None);
        let answers = svc.query(&[], &[(0, 7), (3, 3)]).unwrap();
        assert_eq!(answers.as_slice(), &[true, true]);
        assert!(answers.all_connected());
        let none = svc.query(&[(0, 1)], &[]).unwrap();
        assert!(none.is_empty());
    }
}
