//! Update-stream TMA (§7, explicit deletions) against a brute-force scan
//! of the tests' own model of the live tuples, on randomized insert/delete
//! sequences; the grid's cells are held to the same model.

mod common;

use common::TrackedStream;
use proptest::prelude::*;
use topk_monitor::engines::GridSpec;
use topk_monitor::{Query, QueryId, ScoreFn, TkmError, TupleId, UpdateOp};

#[test]
fn worst_case_delete_the_best_repeatedly() {
    let mut t = TrackedStream::new(1, GridSpec::PerDim(8));
    let q = Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 2).unwrap();
    t.m.register_query(QueryId(0), q.clone()).expect("register");
    // Insert a descending staircase, then repeatedly delete the current
    // maximum — every cycle invalidates the result.
    let ids: Vec<TupleId> = (0..30)
        .map(|i| t.insert(&[1.0 - i as f64 / 40.0]))
        .collect();
    t.m.end_cycle();
    for (round, id) in ids.iter().enumerate().take(28) {
        t.delete(*id);
        t.m.end_cycle();
        assert_eq!(
            t.m.result(QueryId(0)).expect("result"),
            &t.brute(&q)[..],
            "round {round}"
        );
    }
    assert!(
        t.m.stats().recomputations() >= 28,
        "every deletion hit the top-2"
    );
    t.assert_grid_holds();
}

#[test]
fn interleaved_queries_and_ops() {
    let mut t = TrackedStream::new(2, GridSpec::PerDim(5));
    let q0 = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 3).unwrap();
    t.m.register_query(QueryId(0), q0.clone())
        .expect("register");
    let mut state = 99u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
    };
    let mut live = Vec::new();
    for _ in 0..20 {
        live.push(t.insert(&[rnd(), rnd()]));
    }
    t.m.end_cycle();

    // Register a second query over a populated store.
    let q1 = Query::top_k(ScoreFn::linear(vec![-1.0, 2.0]).unwrap(), 5).unwrap();
    t.m.register_query(QueryId(1), q1.clone())
        .expect("register");

    for round in 0..30 {
        let mut ops = vec![
            UpdateOp::Insert(vec![rnd(), rnd()]),
            UpdateOp::Insert(vec![rnd(), rnd()]),
        ];
        if live.len() > 4 {
            let idx = (rnd() * live.len() as f64) as usize % live.len();
            ops.push(UpdateOp::Delete(live.swap_remove(idx)));
        }
        let new_ids = t.apply(&ops);
        live.extend(new_ids);
        assert_eq!(
            t.m.result(QueryId(0)).unwrap(),
            &t.brute(&q0)[..],
            "q0 round {round}"
        );
        assert_eq!(
            t.m.result(QueryId(1)).unwrap(),
            &t.brute(&q1)[..],
            "q1 round {round}"
        );
    }
    t.assert_grid_holds();

    // Remove one query; the other keeps working.
    t.m.remove_query(QueryId(0)).expect("remove");
    t.apply(&[UpdateOp::Insert(vec![0.9, 0.9])]);
    assert!(t.m.result(QueryId(0)).is_err());
    assert_eq!(t.m.result(QueryId(1)).unwrap(), &t.brute(&q1)[..]);
}

#[test]
fn empty_store_and_full_drain() {
    let mut t = TrackedStream::new(2, GridSpec::PerDim(4));
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 4).unwrap();
    t.m.register_query(QueryId(0), q.clone()).expect("register");
    assert!(t.m.result(QueryId(0)).unwrap().is_empty());
    let a = t.insert(&[0.5, 0.5]);
    let b = t.insert(&[0.7, 0.2]);
    t.m.end_cycle();
    assert_eq!(t.m.result(QueryId(0)).unwrap().len(), 2);
    // Drain to empty; the result must follow.
    t.apply(&[UpdateOp::Delete(a), UpdateOp::Delete(b)]);
    assert!(t.m.result(QueryId(0)).unwrap().is_empty());
    t.assert_grid_holds();
    // And recover again.
    t.apply(&[UpdateOp::Insert(vec![0.1, 0.9])]);
    assert_eq!(t.m.result(QueryId(0)).unwrap().len(), 1);
    t.assert_grid_holds();
}

/// A rejected batch changes nothing. Regression: `apply` used to mutate
/// op by op, so `[Delete(a), Insert(<bad>)]` deleted `a`, failed on the
/// insert, skipped `end_cycle` — and `result()` then served a 1-entry
/// top-2 while two qualifying tuples were stored.
#[test]
fn rejected_batch_changes_nothing() {
    let mut t = TrackedStream::new(1, GridSpec::PerDim(4));
    let q = Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 2).unwrap();
    let a = t.insert(&[0.9]);
    let b = t.insert(&[0.8]);
    let c = t.insert(&[0.1]);
    t.m.register_query(QueryId(0), q.clone()).expect("register");
    let before = t.brute(&q);
    assert_eq!(before.len(), 2);
    let stats = t.m.stats();

    let dims = TkmError::DimensionMismatch {
        expected: 1,
        got: 2,
    };
    let dead = TupleId(99);
    let rejected: [(&[UpdateOp], Option<TkmError>); 5] = [
        // Outside the unit workspace, after a delete that would have hit
        // the result.
        (&[UpdateOp::Delete(a), UpdateOp::Insert(vec![1.5])], None),
        (
            &[UpdateOp::Delete(b), UpdateOp::Insert(vec![0.1, 0.2])],
            Some(dims),
        ),
        // A tuple that is not live.
        (
            &[UpdateOp::Insert(vec![0.5]), UpdateOp::Delete(dead)],
            Some(TkmError::UnknownTuple(dead)),
        ),
        // Deleted twice by one batch.
        (
            &[
                UpdateOp::Delete(a),
                UpdateOp::Delete(c),
                UpdateOp::Delete(a),
            ],
            Some(TkmError::UnknownTuple(a)),
        ),
        // An id the batch has not assigned *yet*.
        (
            &[UpdateOp::Delete(TupleId(3)), UpdateOp::Insert(vec![0.5])],
            Some(TkmError::UnknownTuple(TupleId(3))),
        ),
    ];
    for (ops, want) in rejected {
        let err = t.m.apply(ops).expect_err("rejected");
        if let Some(want) = want {
            assert_eq!(err, want, "{ops:?}");
        }
        assert_eq!(t.m.result(QueryId(0)).unwrap(), &before[..], "{ops:?}");
        assert_eq!(t.m.stats(), stats, "{ops:?}: not even a cycle is counted");
        t.assert_grid_holds();
    }
    // The next insert gets the next dense id, and a batch may delete what
    // it inserted itself.
    let ids = t.apply(&[UpdateOp::Insert(vec![0.95]), UpdateOp::Delete(TupleId(3))]);
    assert_eq!(ids, vec![TupleId(3)]);
    assert_eq!(t.m.result(QueryId(0)).unwrap(), &before[..]);
    t.assert_grid_holds();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary op sequences with coarse coordinates (tie pressure).
    #[test]
    fn random_update_streams(
        k in 1usize..6,
        w1 in -1.5f64..1.5,
        w2 in -1.5f64..1.5,
        ops in prop::collection::vec((any::<bool>(), 0u32..16, 0u32..16), 1..120),
        batch in 1usize..6,
    ) {
        let mut t = TrackedStream::new(2, GridSpec::PerDim(4));
        let q = Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k");
        t.m.register_query(QueryId(0), q.clone()).expect("register");
        let mut live: Vec<TupleId> = Vec::new();
        for (i, (is_insert, a, b)) in ops.iter().enumerate() {
            if *is_insert || live.is_empty() {
                let coords = vec![*a as f64 / 15.0, *b as f64 / 15.0];
                live.push(t.insert(&coords));
            } else {
                let idx = (*a as usize) % live.len();
                let victim = live.swap_remove(idx);
                t.delete(victim);
            }
            if i % batch == 0 {
                t.m.end_cycle();
                prop_assert_eq!(t.m.result(QueryId(0)).expect("result"), &t.brute(&q)[..]);
            }
        }
        t.m.end_cycle();
        prop_assert_eq!(t.m.result(QueryId(0)).expect("result"), &t.brute(&q)[..]);
        t.assert_grid_holds();
    }
}
