//! Compile-time auto-trait assertions for every type the serving layer
//! shares across threads.
//!
//! `ConnectivityService` promises `Send + Sync + Clone`; that promise is
//! only as good as the types it is built from. Each assertion here is a
//! monomorphization the compiler must prove, so slipping an `Rc`, a
//! `Cell`, or an unguarded raw pointer into any of these types turns
//! into a compile error in this test — not a data race in production.

use ftc::codes::{DecodeScratch, ThresholdCodec};
use ftc::core::fragments::Fragments;
use ftc::core::serial::{EdgeLabelView, VertexLabelView};
use ftc::core::store::{EdgeEncoding, LabelStore, LabelStoreView, StoreError};
use ftc::core::{
    EdgeLabel, LabelHeader, LabelSet, QueryError, QuerySession, RsDetector, RsVector,
    SessionScratch, VertexLabel,
};
use ftc::routing::ForbiddenSetRouter;
use ftc::serve::{Answers, ConnectivityService, RegistryError, ServeError, ServiceRegistry};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}
fn assert_clone<T: Clone>() {}

#[test]
fn serving_layer_types_are_send_sync() {
    // The service surface itself.
    assert_send_sync::<ConnectivityService>();
    assert_send_sync::<ServiceRegistry>();
    assert_send_sync::<Answers>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<RegistryError>();
    assert_clone::<ConnectivityService>();
    assert_clone::<Answers>();

    // The storage layer the service shares: archives, shared views, and
    // every zero-copy view type resolved out of them.
    assert_send_sync::<LabelStore>();
    assert_send_sync::<LabelStoreView<'static>>();
    assert_send_sync::<VertexLabelView<'static>>();
    assert_send_sync::<EdgeLabelView<'static>>();
    assert_send_sync::<EdgeEncoding>();
    assert_send_sync::<StoreError>();
    assert_clone::<LabelStoreView<'static>>();

    // Owned labels and the session machinery behind a query.
    assert_send_sync::<LabelSet<RsVector>>();
    assert_send_sync::<VertexLabel>();
    assert_send_sync::<EdgeLabel<RsVector>>();
    assert_send_sync::<LabelHeader>();
    assert_send_sync::<QuerySession>();
    assert_send_sync::<Fragments>();
    assert_send_sync::<QueryError>();

    // Codec / detector state: checked out per thread, so Send suffices,
    // but nothing in them prevents Sync either.
    assert_send_sync::<SessionScratch<RsVector>>();
    assert_send_sync::<RsVector>();
    assert_send_sync::<RsDetector>();
    assert_send_sync::<ThresholdCodec>();
    assert_send_sync::<DecodeScratch>();
    assert_send::<Box<SessionScratch<RsVector>>>();

    // Higher layers built on the service.
    assert_send_sync::<ForbiddenSetRouter>();
}
