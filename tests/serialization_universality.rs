//! Decoder-universality test: the decoder is a pure function of label
//! *bytes*. We build a labeling, serialize every label, destroy the scheme
//! and the graph, then answer queries from the stored bytes alone — both
//! through owned deserialization and through the zero-copy label views —
//! and still match the oracle. Property tests cover the compact
//! (half-width) edge encoding round trip and truncation/corruption
//! rejection of both the per-label layouts and the archive format.

use ftc::core::serial::{
    compact_edge_from_bytes, edge_from_bytes, edge_to_bytes, edge_to_bytes_compact,
    vertex_from_bytes, vertex_to_bytes, EdgeLabelView, VertexLabelView,
};
use ftc::core::store::{EdgeEncoding, LabelStore, LabelStoreView};
use ftc::core::{FtcScheme, Params, QuerySession, VertexLabelRead};
use ftc::graph::{connectivity, generators, Graph};
use ftc::net::proto as netproto;
use ftc::serve::{ConnectivityService, ServeError};
use proptest::prelude::*;

#[test]
fn queries_from_bytes_alone() {
    let g = Graph::torus(3, 4);
    let oracle: Vec<(usize, usize, Vec<usize>, bool)> = {
        let mut cases = Vec::new();
        for i in 0..30u64 {
            let fset = generators::random_fault_set(&g, 2, i);
            for s in [0usize, 3, 7] {
                for t in [1usize, 5, 11] {
                    cases.push((
                        s,
                        t,
                        fset.clone(),
                        connectivity::connected_avoiding(&g, s, t, &fset),
                    ));
                }
            }
        }
        cases
    };

    // Serialize all labels, then drop everything else.
    let (vertex_bytes, edge_bytes) = {
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let vb: Vec<Vec<u8>> = (0..g.n())
            .map(|v| vertex_to_bytes(l.vertex_label(v)))
            .collect();
        let eb: Vec<Vec<u8>> = (0..g.m())
            .map(|e| edge_to_bytes(l.edge_label_by_id(e)))
            .collect();
        (vb, eb)
    };
    // `scheme` is gone. Decode every query from bytes, twice: through
    // owned deserialization and through zero-copy views. Both must agree
    // with the oracle bit-for-bit.
    for (s, t, fset, want) in oracle {
        // Owned path.
        let vs = vertex_from_bytes(&vertex_bytes[s]).unwrap();
        let vt = vertex_from_bytes(&vertex_bytes[t]).unwrap();
        let faults: Vec<_> = fset
            .iter()
            .map(|&e| edge_from_bytes(&edge_bytes[e]).unwrap())
            .collect();
        let owned = QuerySession::new(vs.header, &faults).unwrap();
        let got = owned.connected(vs, vt).unwrap();
        assert_eq!(got, want, "query ({s},{t},{fset:?}) from owned bytes");

        // Zero-copy path: no owned labels are ever materialized.
        let views: Vec<EdgeLabelView> = fset
            .iter()
            .map(|&e| EdgeLabelView::new(&edge_bytes[e]).unwrap())
            .collect();
        let svw = VertexLabelView::new(&vertex_bytes[s]).unwrap();
        let tvw = VertexLabelView::new(&vertex_bytes[t]).unwrap();
        let zero_copy = QuerySession::new(svw.header(), views).unwrap();
        let got = zero_copy.connected(svw, tvw).unwrap();
        assert_eq!(got, want, "query ({s},{t},{fset:?}) from byte views");
    }
}

#[test]
fn serialized_sizes_match_reported_bits() {
    let g = generators::random_connected(24, 30, 4);
    let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
    let size = scheme.size_report();
    let l = scheme.labels();
    // Byte encodings carry a 2-byte magic; otherwise they should match the
    // reported bit widths exactly.
    let vb = vertex_to_bytes(l.vertex_label(0));
    assert_eq!((vb.len() - 2) * 8, size.vertex_bits);
    let eb = edge_to_bytes(l.edge_label_by_id(0));
    // Edge encoding adds magic (2) + k (4) + len (4) bytes of framing.
    assert_eq!((eb.len() - 2 - 8) * 8, size.edge_bits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The compact edge encoding is a lossless round trip of the full
    /// one on every edge of random labelings, through both the owned
    /// parser and the zero-copy view — and every truncation of it is
    /// rejected with a located error, never a panic.
    #[test]
    fn compact_encoding_round_trips_and_rejects_truncation(
        n in 5usize..=14,
        extra in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        for e in 0..g.m() {
            let label = l.edge_label_by_id(e);
            let compact = edge_to_bytes_compact(label);
            let full = edge_to_bytes(label);
            prop_assert!(compact.len() <= full.len());
            // Owned parser and zero-copy view agree with the original.
            prop_assert_eq!(&compact_edge_from_bytes(&compact).unwrap(), label);
            let view = EdgeLabelView::new(&compact).unwrap();
            prop_assert_eq!(&view.to_label(), label);
            // The compact encoding must agree with the full one after
            // expansion, bit for bit.
            prop_assert_eq!(
                &compact_edge_from_bytes(&compact).unwrap(),
                &edge_from_bytes(&full).unwrap()
            );
            // Every strict prefix is rejected; the reported offset never
            // exceeds the input length.
            for cut in 0..compact.len() {
                let owned_err = compact_edge_from_bytes(&compact[..cut]).unwrap_err();
                prop_assert!(owned_err.offset <= cut);
                prop_assert!(EdgeLabelView::new(&compact[..cut]).is_err());
            }
            // Trailing garbage is rejected too.
            let mut ext = compact.clone();
            ext.push(0);
            prop_assert!(compact_edge_from_bytes(&ext).is_err());
            prop_assert!(EdgeLabelView::new(&ext).is_err());
        }
    }

    /// Archive blobs reject every truncation, and single-byte corruption
    /// never panics the validator (it either surfaces a located error or
    /// leaves a still-well-formed archive, e.g. when the flip lands in a
    /// syndrome word).
    #[test]
    fn archive_rejects_truncation_and_survives_corruption(
        seed in any::<u64>(),
        corrupt_at in any::<usize>(),
        flip in 1u8..,
        compact in any::<bool>(),
    ) {
        let g = generators::random_connected(10, 6, seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let encoding = if compact { EdgeEncoding::Compact } else { EdgeEncoding::Full };
        let blob = LabelStore::to_vec(scheme.labels(), encoding);
        for cut in (0..blob.len()).step_by(7).chain([blob.len() - 1]) {
            let err = LabelStoreView::open(&blob[..cut]).unwrap_err();
            prop_assert!(err.offset <= blob.len());
        }
        let mut corrupted = blob.clone();
        let at = corrupt_at % corrupted.len();
        corrupted[at] ^= flip;
        let _ = LabelStoreView::open(&corrupted); // must not panic
    }
}

// The v2 compressed container is held to the same standard as the v1
// blob: transcoding is the identity, the rANS entropy stage is a lossless
// round trip over arbitrary byte distributions, and damaged archives
// fail with located errors at open or first section touch — never a
// panic, never an out-of-bounds offset.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// rANS encode∘decode is the identity for any input, from uniform
    /// random bytes to heavily skewed alphabets; corrupt streams never
    /// panic and report in-bounds offsets.
    #[test]
    fn rans_round_trips_arbitrary_distributions(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        alphabet_bits in 1u32..=8,
        flip_at in any::<usize>(),
        flip in 1u8..,
    ) {
        // Masking skews the distribution: 1 bit ≈ binary stream, 8 bits
        // ≈ uniform bytes.
        let mask = (1u16 << alphabet_bits) - 1;
        let data: Vec<u8> = data.iter().map(|&b| b & mask as u8).collect();
        let coded = ftc::compress::rans::encode(&data);
        prop_assert_eq!(
            ftc::compress::rans::decode(&coded, data.len()).unwrap(),
            data.clone()
        );
        // Wrong claimed lengths and damaged streams are rejected or
        // decode to the claimed length — never a panic.
        if let Err(e) = ftc::compress::rans::decode(&coded, data.len() + 1) {
            prop_assert!(e.offset <= coded.len());
        }
        for cut in (0..coded.len()).step_by(11) {
            if let Err(e) = ftc::compress::rans::decode(&coded[..cut], data.len()) {
                prop_assert!(e.offset <= cut);
            }
        }
        if !coded.is_empty() {
            let mut bad = coded.clone();
            let at = flip_at % bad.len();
            bad[at] ^= flip;
            match ftc::compress::rans::decode(&bad, data.len()) {
                Ok(out) => prop_assert_eq!(out.len(), data.len()),
                Err(e) => prop_assert!(e.offset <= bad.len()),
            }
        }
    }

    /// v1 → v2 → v1 transcoding is byte-identical on random labelings in
    /// both encodings, and every truncation or bit flip of the v2 bytes
    /// fails at open or at first section touch with an in-bounds offset.
    /// A damaged archive that still opens serves, through
    /// `ConnectivityService`, either the undamaged answers or a typed
    /// `ServeError::Corrupt` — never a panic, never a wrong answer.
    #[test]
    fn v2_transcode_is_identity_and_damage_is_detected(
        seed in any::<u64>(),
        compact in any::<bool>(),
        corrupt_at in any::<usize>(),
        flip in 1u8..,
    ) {
        use ftc::core::compressed::{compress_archive, CompressedStoreView};

        let g = generators::random_connected(10, 6, seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let encoding = if compact { EdgeEncoding::Compact } else { EdgeEncoding::Full };
        let blob = LabelStore::to_vec(scheme.labels(), encoding);
        let v1 = LabelStoreView::open(&blob).unwrap();
        let store = compress_archive(&v1);
        let v2_bytes = store.as_bytes().to_vec();

        // Transcode identity.
        let view = CompressedStoreView::open(v2_bytes.clone()).unwrap();
        prop_assert_eq!(view.to_v1_vec().unwrap(), blob);

        // Every truncation fails at open (the section table pins the
        // total length) with an offset inside the original buffer.
        for cut in (0..v2_bytes.len()).step_by(13).chain([v2_bytes.len() - 1]) {
            let err = CompressedStoreView::open(v2_bytes[..cut].to_vec()).unwrap_err();
            prop_assert!(err.offset <= v2_bytes.len());
        }

        // A bit flip is caught at open (prologue/table damage) or at
        // first touch of the damaged section (lazy checksum) — never a
        // panic, and full reconstruction surfaces it too.
        let mut bad = v2_bytes.clone();
        let at = corrupt_at % bad.len();
        bad[at] ^= flip;
        match CompressedStoreView::open(bad.clone()) {
            Err(e) => prop_assert!(e.offset <= bad.len()),
            Ok(view) => {
                let damaged = ConnectivityService::from_compressed(view.clone());
                let intact = ConnectivityService::from_compressed(store.view().unwrap());
                let endpoint_of: Vec<(usize, usize)> =
                    g.edge_iter().map(|(_, u, v)| (u, v)).collect();
                let pairs: Vec<(usize, usize)> =
                    (0..g.n()).flat_map(|s| (0..g.n()).map(move |t| (s, t))).collect();
                let corrupt = |e: &ServeError| matches!(e, ServeError::Corrupt(_));
                for i in 0..3u64 {
                    let ids = generators::random_fault_set(&g, 2, seed ^ i);
                    let faults: Vec<(usize, usize)> = ids.iter().map(|&e| endpoint_of[e]).collect();
                    let want = intact.query(&faults, &pairs);
                    match damaged.query(&faults, &pairs) {
                        Err(e) if corrupt(&e) => {}
                        got => prop_assert_eq!(got, want),
                    }
                    let by_ids = |svc: &ConnectivityService| {
                        svc.with_session_ids(&ids, |served| {
                            pairs
                                .iter()
                                .map(|&(s, t)| served.connected(s, t))
                                .collect::<Vec<_>>()
                        })
                    };
                    let want = by_ids(&intact).unwrap();
                    match by_ids(&damaged) {
                        Err(e) => prop_assert!(corrupt(&e), "{e}"),
                        Ok(got) => {
                            for (got, want) in got.into_iter().zip(want) {
                                match got {
                                    Err(e) if corrupt(&e) => {}
                                    got => prop_assert_eq!(got, want),
                                }
                            }
                        }
                    }
                }
                let err = view.to_v1_vec().expect_err("flip must be detected");
                prop_assert!(err.offset <= bad.len());
            }
        }
    }
}

// The write-ahead journal is held to the same standard as the label and
// archive parsers: encode∘scan is the identity, any truncation is a
// clean prefix with at most a torn tail (that is exactly what a
// mid-append power cut produces), and arbitrary single-byte damage is
// either tolerated as a torn tail or surfaces as a typed error with an
// in-bounds offset — never a panic, never a silently wrong replay.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn journal_scan_round_trips_and_rejects_damage(
        raw_ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 1..24),
        base_seq in any::<u64>(),
        lineage in any::<u64>(),
        flip_at in any::<usize>(),
        flip in 1u8..,
    ) {
        use ftc::core::io::SimVfs;
        use ftc::dyn_::journal::{
            scan_journal, FsyncPolicy, Journal, JournalErrorKind, JournalMeta, JournalOp,
            JOURNAL_HEADER_LEN,
        };
        use ftc::core::io::Vfs as _;
        use std::path::PathBuf;

        let ops: Vec<JournalOp> = raw_ops
            .iter()
            .map(|&(kind, u, v)| match kind {
                0 => JournalOp::Insert(u, v),
                1 => JournalOp::Delete(u, v),
                _ => JournalOp::Rebuild,
            })
            .collect();
        let meta = JournalMeta {
            n: 1000,
            f: 2,
            k: 24,
            encoding: EdgeEncoding::Compact,
            base_seq,
            lineage,
        };
        let vfs = SimVfs::new();
        let path = PathBuf::from("j.ftcj");
        let mut j = Journal::create(&vfs, &path, meta, FsyncPolicy::OnCommit).unwrap();
        for (i, &op) in ops.iter().enumerate() {
            prop_assert_eq!(j.append(op).unwrap(), base_seq.wrapping_add(1 + i as u64));
        }
        j.sync().unwrap();
        let bytes = vfs.read(&path).unwrap();

        // Identity: the scan returns exactly what was appended.
        let scan = scan_journal(&bytes).unwrap();
        prop_assert_eq!(&scan.meta, &meta);
        prop_assert_eq!(scan.torn_at, None);
        let got: Vec<JournalOp> = scan.records.iter().map(|r| r.op).collect();
        prop_assert_eq!(&got, &ops);
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.seq, base_seq.wrapping_add(1 + i as u64));
        }

        // Every truncation: header cuts are typed errors, record cuts
        // are clean prefixes with at most a torn tail — records never
        // reorder, offsets never leave the buffer.
        for cut in 0..bytes.len() {
            match scan_journal(&bytes[..cut]) {
                Ok(s) => {
                    prop_assert!(cut >= JOURNAL_HEADER_LEN);
                    prop_assert!(s.records.len() <= ops.len());
                    for (r, &op) in s.records.iter().zip(&ops) {
                        prop_assert_eq!(r.op, op);
                    }
                    if s.records.len() < ops.len() && s.torn_at.is_none() {
                        // No torn tail: the cut must sit exactly on the
                        // next record's frame boundary.
                        prop_assert_eq!(
                            cut,
                            scan.records[s.records.len()].offset,
                            "cut {} lost records silently",
                            cut
                        );
                    }
                    if let Some(at) = s.torn_at {
                        prop_assert!(at <= cut);
                    }
                }
                Err(e) => {
                    prop_assert!(cut < JOURNAL_HEADER_LEN, "cut {cut} must be tolerated");
                    prop_assert_eq!(e.kind, JournalErrorKind::TruncatedHeader);
                    prop_assert!(e.offset <= cut);
                }
            }
        }

        // A single flipped byte: never a panic, never an out-of-bounds
        // offset, and on a tolerated scan never an invented record.
        let mut bad = bytes.clone();
        let at = flip_at % bad.len();
        bad[at] ^= flip;
        match scan_journal(&bad) {
            Ok(s) => prop_assert!(s.records.len() <= ops.len()),
            Err(e) => prop_assert!(e.offset <= bad.len()),
        }
    }
}

#[test]
fn tampered_bytes_do_not_panic() {
    let g = Graph::cycle(5);
    let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
    let l = scheme.labels();
    let mut eb = edge_to_bytes(l.edge_label_by_id(0));
    // Flip a payload byte: either parses to a harmless different label or
    // fails to parse — never panics.
    let idx = eb.len() - 3;
    eb[idx] ^= 0xff;
    let _ = edge_from_bytes(&eb);
    // Truncations at every prefix length must error, not panic — for the
    // owned parsers and the zero-copy views alike.
    for cut in 0..eb.len() {
        let _ = edge_from_bytes(&eb[..cut]);
        let _ = vertex_from_bytes(&eb[..cut]);
        let _ = EdgeLabelView::new(&eb[..cut]);
        let _ = VertexLabelView::new(&eb[..cut]);
    }
}

// The network frame parsers are held to the same standard as the label
// parsers above: arbitrary bytes never panic, encode∘decode is the
// identity, and every strict prefix of a valid frame is rejected with an
// error offset inside the buffer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn net_frame_parsers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        if let Err(e) = netproto::RequestView::parse(&bytes) {
            prop_assert!(e.offset <= bytes.len());
        }
        if let Err(e) = netproto::decode_response(&bytes) {
            prop_assert!(e.offset <= bytes.len());
        }
    }

    #[test]
    fn net_request_round_trips_and_rejects_prefixes(
        request_id in any::<u64>(),
        gidx in 0usize..4,
        want_certs in any::<bool>(),
        faults in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        flip_at in any::<usize>(),
        flip in any::<u8>(),
    ) {
        let graph = ["g", "torus-3x4", "a-rather-long-graph-identifier", ""][gidx];
        let faults: Vec<(usize, usize)> =
            faults.iter().map(|&(u, v)| (u as usize, v as usize)).collect();
        let pairs: Vec<(usize, usize)> =
            pairs.iter().map(|&(u, v)| (u as usize, v as usize)).collect();
        let flags = if want_certs { netproto::FLAG_CERTIFICATES } else { 0 };

        let mut frame = Vec::new();
        netproto::encode_request(&mut frame, request_id, graph, flags, &faults, &pairs).unwrap();
        let payload = &frame[4..]; // strip the length prefix

        let view = netproto::RequestView::parse(payload).unwrap();
        prop_assert_eq!(view.request_id(), request_id);
        prop_assert_eq!(view.graph(), graph);
        prop_assert_eq!(view.want_certificates(), want_certs);
        prop_assert_eq!(view.fault_count(), faults.len());
        prop_assert_eq!(view.pair_count(), pairs.len());
        let got_faults: Vec<(usize, usize)> = view
            .faults()
            .map(|(u, v)| (u as usize, v as usize))
            .collect();
        prop_assert_eq!(got_faults, faults);
        let got_pairs: Vec<(usize, usize)> = view
            .pairs()
            .map(|(u, v)| (u as usize, v as usize))
            .collect();
        prop_assert_eq!(got_pairs, pairs);

        // Exact-length format: every strict prefix is an error, never a
        // panic, with the reported offset inside the buffer.
        for cut in 0..payload.len() {
            let err = netproto::RequestView::parse(&payload[..cut]).unwrap_err();
            prop_assert!(err.offset <= cut);
        }
        // A single flipped byte may parse to a different (harmless)
        // request or fail — it must not panic.
        let mut mutated = payload.to_vec();
        if !mutated.is_empty() {
            let at = flip_at % mutated.len();
            mutated[at] ^= flip;
            let _ = netproto::RequestView::parse(&mutated);
        }
    }

    #[test]
    fn net_response_round_trips(
        request_id in any::<u64>(),
        answers in proptest::collection::vec(any::<bool>(), 0..16),
        with_certs in any::<bool>(),
        cert_seed in any::<u32>(),
    ) {
        // Connected pairs carry a certificate (derived deterministically
        // here), disconnected pairs carry none — mirroring the server.
        let certs: Vec<Option<netproto::WireCertificate>> = answers
            .iter()
            .enumerate()
            .map(|(i, &a)| a.then(|| vec![(i as u32, cert_seed)]))
            .collect();
        let mut frame = Vec::new();
        netproto::encode_response_ok(
            &mut frame,
            request_id,
            &answers,
            with_certs.then_some(certs.as_slice()),
        )
        .unwrap();
        let resp = netproto::decode_response(&frame[4..]).unwrap();
        prop_assert_eq!(resp.request_id, request_id);
        match resp.body {
            netproto::ResponseBody::Answers { answers: got, certificates } => {
                prop_assert_eq!(got, answers);
                if with_certs {
                    prop_assert_eq!(certificates, Some(certs));
                } else {
                    prop_assert_eq!(certificates, None);
                }
            }
            netproto::ResponseBody::Error { .. } => prop_assert!(false, "decoded as error"),
        }
        for cut in 0..frame.len() - 4 {
            prop_assert!(netproto::decode_response(&frame[4..4 + cut]).is_err());
        }
    }

    #[test]
    fn net_error_response_round_trips(
        request_id in any::<u64>(),
        code_raw in 1u8..=8,
        msg_seed in any::<u64>(),
    ) {
        let code = netproto::ErrorCode::from_u8(code_raw).unwrap();
        let message = format!("failure-{msg_seed}");
        let mut frame = Vec::new();
        netproto::encode_response_err(&mut frame, request_id, code, &message);
        let resp = netproto::decode_response(&frame[4..]).unwrap();
        prop_assert_eq!(resp.request_id, request_id);
        match resp.body {
            netproto::ResponseBody::Error { code: got, message: got_msg } => {
                prop_assert_eq!(got, code);
                prop_assert_eq!(got_msg, message);
            }
            netproto::ResponseBody::Answers { .. } => prop_assert!(false, "decoded as answers"),
        }
    }
}
