//! Facade features: one-shot snapshots and per-tick result deltas.

mod common;

use common::BatchGen;
use topk_monitor::engines::GridSpec;
use topk_monitor::{
    DataDist, EngineKind, MonitorServer, Query, ScoreFn, Scored, ServerConfig, WindowSpec,
};

fn server(kind: EngineKind) -> MonitorServer {
    MonitorServer::new(
        ServerConfig::sma(2, 80)
            .with_engine(kind)
            .with_grid(GridSpec::PerDim(6))
            .with_window(WindowSpec::Count(80)),
    )
    .expect("server builds")
}

/// Snapshots agree across engines (oracle included) and support ad-hoc
/// functions that were never registered.
#[test]
fn snapshots_agree_across_engines() {
    let kinds = [
        EngineKind::Tma,
        EngineKind::Sma,
        EngineKind::Tsl,
        EngineKind::Oracle,
    ];
    let mut servers: Vec<MonitorServer> = kinds.iter().map(|k| server(*k)).collect();
    let mut stream = BatchGen::new(2, DataDist::Ind, 3);
    for _ in 0..12 {
        let batch = stream.batch(10);
        for s in &mut servers {
            s.tick(&batch).expect("tick");
        }
    }
    for (w1, w2, k) in [(1.0, 2.0, 3), (0.5, -1.0, 7), (2.0, 0.0, 1)] {
        let q = Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k");
        let reference = servers[3].snapshot(&q).expect("oracle snapshot");
        for s in servers[..3].iter_mut() {
            // TSL cannot snapshot constrained queries but these are plain.
            assert_eq!(
                s.snapshot(&q).expect("snapshot"),
                reference,
                "{} snapshot diverged",
                s.engine_name()
            );
        }
    }
}

/// A snapshot must not disturb continuous monitoring state.
#[test]
fn snapshot_leaves_no_residue() {
    let mut s = server(EngineKind::Sma);
    let monitored = s
        .register(Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).expect("d"), 4).expect("k"))
        .expect("register");
    let mut stream = BatchGen::new(2, DataDist::Ind, 9);
    for _ in 0..10 {
        s.tick(&stream.batch(8)).expect("tick");
    }
    let before = s.result(monitored).expect("result");
    // One warm-up snapshot: the first ad-hoc traversal may grow the
    // reusable compute scratch (heap/frontier capacity, reported by
    // `space_bytes`); what must not happen is *per-snapshot* accumulation.
    s.snapshot(&Query::top_k(ScoreFn::linear(vec![0.1, 1.9]).expect("d"), 6).expect("k"))
        .expect("snapshot");
    let space_before = s.space_bytes();
    // Fire many ad-hoc snapshots with unrelated functions.
    for w in 1..20 {
        let q = Query::top_k(
            ScoreFn::linear(vec![w as f64 / 10.0, 2.0 - w as f64 / 10.0]).expect("d"),
            6,
        )
        .expect("k");
        s.snapshot(&q).expect("snapshot");
    }
    assert_eq!(s.result(monitored).expect("result"), before);
    assert_eq!(s.space_bytes(), space_before, "snapshots left state behind");
    // The monitor still works afterwards.
    s.tick(&stream.batch(8)).expect("tick");
}

/// Deltas applied to the previous result reproduce the current result,
/// tick by tick.
#[test]
fn deltas_reconstruct_results() {
    for kind in [EngineKind::Tma, EngineKind::Sma, EngineKind::Tsl] {
        let mut s = server(kind);
        let q = s
            .register(Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).expect("d"), 5).expect("k"))
            .expect("register");
        s.enable_delta_tracking().expect("enable");
        let mut view: Vec<Scored> = Vec::new();
        let mut stream = BatchGen::new(2, DataDist::Ind, 21);
        let mut saw_nonempty = false;
        for _ in 0..40 {
            s.tick(&stream.batch(6)).expect("tick");
            for delta in s.take_deltas() {
                assert_eq!(delta.query, q);
                assert!(!delta.is_empty());
                saw_nonempty = true;
                view.retain(|e| !delta.removed.contains(e));
                view.extend_from_slice(&delta.added);
                view.sort_by(|a, b| b.cmp(a));
            }
            assert_eq!(view, s.result(q).expect("result"), "{kind:?}");
        }
        assert!(saw_nonempty, "{kind:?} never produced a delta");
    }
}

/// Deltas are not produced before tracking is enabled, and a freshly
/// registered query starts from its initial result (no spurious "added"
/// burst) — on every engine.
#[test]
fn delta_tracking_lifecycle() {
    for kind in [
        EngineKind::Tma,
        EngineKind::Sma,
        EngineKind::Tsl,
        EngineKind::Oracle,
    ] {
        let mut s = server(kind);
        let mut stream = BatchGen::new(2, DataDist::Ind, 5);
        s.tick(&stream.batch(10)).expect("tick");
        assert!(
            s.take_deltas().is_empty(),
            "{kind:?}: tracking off by default"
        );

        let q1 = s
            .register(Query::top_k(ScoreFn::linear(vec![1.0, 0.0]).expect("d"), 3).expect("k"))
            .expect("register");
        s.enable_delta_tracking().expect("enable");
        assert!(
            s.take_deltas().is_empty(),
            "{kind:?}: enabling emits nothing"
        );

        // A hopeless arrival produces no delta.
        s.tick(&[0.0, 0.0]).expect("tick");
        assert!(s.take_deltas().is_empty(), "{kind:?}");

        // A top arrival produces exactly one delta for q1.
        s.tick(&[0.99, 0.99]).expect("tick");
        let deltas = s.take_deltas();
        assert_eq!(deltas.len(), 1, "{kind:?}");
        assert_eq!(deltas[0].query, q1, "{kind:?}");
        assert_eq!(deltas[0].added.len(), 1, "{kind:?}");

        // Queries registered while tracking start silently from their
        // initial result.
        let q2 = s
            .register(Query::top_k(ScoreFn::linear(vec![0.0, 1.0]).expect("d"), 2).expect("k"))
            .expect("register");
        assert!(s.take_deltas().is_empty(), "{kind:?}");
        s.tick(&[0.5, 0.999]).expect("tick");
        let deltas = s.take_deltas();
        assert!(deltas.iter().any(|d| d.query == q2), "{kind:?}");

        // Unregistered queries stop reporting.
        s.unregister(q1).expect("unregister");
        s.tick(&[0.98, 0.98]).expect("tick");
        assert!(s.take_deltas().iter().all(|d| d.query != q1), "{kind:?}");
    }
}
