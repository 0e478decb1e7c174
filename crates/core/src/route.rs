//! Per-query delta routing.
//!
//! [`MonitorServer::take_deltas`](crate::MonitorServer::take_deltas)
//! drains *all* result changes of a processing cycle; a serving layer with
//! many standing subscribers needs to know which of them cares about each
//! [`ResultDelta`]. [`DeltaRouter`] keeps that mapping: a query → subscriber
//! index maintained on subscribe/unsubscribe, consulted once per delta at
//! fan-out time. It is generic over the subscriber token so the in-process
//! serving layer (`tkm_service` session ids), a test harness, or an
//! embedding application can all reuse it.

use std::collections::BTreeMap;

use crate::result::ResultDelta;
use tkm_common::heap::{btree_bytes, ASCENDING_FILL};
use tkm_common::{HeapBytes, QueryId};

/// Routes drained [`ResultDelta`]s to the subscribers of each query.
///
/// `S` is the subscriber token (a session id, a channel handle index, …).
/// Tokens are compared with `==`; each `(query, token)` pair is stored at
/// most once, so double-subscribing is a no-op.
#[derive(Clone, Debug, Default)]
pub struct DeltaRouter<S> {
    subs: BTreeMap<QueryId, Vec<S>>,
}

impl<S: PartialEq + Clone> DeltaRouter<S> {
    /// Creates an empty router.
    pub fn new() -> DeltaRouter<S> {
        DeltaRouter {
            subs: BTreeMap::new(),
        }
    }

    /// Subscribes `who` to `query`'s deltas. Returns `false` if that
    /// subscription already existed.
    pub fn subscribe(&mut self, query: QueryId, who: S) -> bool {
        let list = self.subs.entry(query).or_default();
        if list.contains(&who) {
            return false;
        }
        list.push(who);
        true
    }

    /// Removes one subscription. Returns `false` if it did not exist.
    pub fn unsubscribe(&mut self, query: QueryId, who: &S) -> bool {
        let Some(list) = self.subs.get_mut(&query) else {
            return false;
        };
        let Some(pos) = list.iter().position(|s| s == who) else {
            return false;
        };
        list.swap_remove(pos);
        if list.is_empty() {
            self.subs.remove(&query);
        }
        true
    }

    /// Removes every subscription held by `who` (a disconnecting client),
    /// returning the queries it was subscribed to.
    pub fn drop_subscriber(&mut self, who: &S) -> Vec<QueryId> {
        let mut dropped = Vec::new();
        self.subs.retain(|query, list| {
            if let Some(pos) = list.iter().position(|s| s == who) {
                list.swap_remove(pos);
                dropped.push(*query);
            }
            !list.is_empty()
        });
        dropped
    }

    /// Removes every subscription to `query` (a terminated query),
    /// returning the subscribers that held one.
    pub fn drop_query(&mut self, query: QueryId) -> Vec<S> {
        self.subs.remove(&query).unwrap_or_default()
    }

    /// The subscribers of `query` (empty slice if none).
    pub fn subscribers(&self, query: QueryId) -> &[S] {
        self.subs.get(&query).map_or(&[], Vec::as_slice)
    }

    /// The queries `who` is subscribed to, ascending: the one-subscriber
    /// reference the tests hold [`DeltaRouter::subscriptions_of_each`] to.
    #[cfg(test)]
    fn subscriptions_of(&self, who: &S) -> Vec<QueryId> {
        self.subs
            .iter()
            .filter(|(_, list)| list.contains(who))
            .map(|(q, _)| *q)
            .collect()
    }

    /// Total number of `(query, subscriber)` pairs.
    pub fn len(&self) -> usize {
        self.subs.values().map(Vec::len).sum()
    }

    /// Whether no subscription exists.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Deep size estimate in bytes: the struct, the map's nodes (query ids
    /// are issued in ascending order) and each query's subscriber list.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + btree_bytes::<QueryId, Vec<S>>(self.subs.len(), ASCENDING_FILL)
            + self.subs.values().map(Vec::heap_bytes).sum::<usize>()
    }

    /// Fans a batch of drained deltas out to their subscribers: yields one
    /// `(subscriber, delta)` pair per interested party, in delta order.
    pub fn route<'a>(
        &'a self,
        deltas: &'a [ResultDelta],
    ) -> impl Iterator<Item = (&'a S, &'a ResultDelta)> {
        deltas
            .iter()
            .flat_map(move |d| self.subscribers(d.query).iter().map(move |s| (s, d)))
    }
}

impl<S: Ord + Clone> DeltaRouter<S> {
    /// The queries each of many subscribers is subscribed to, in one pass
    /// over the `(query, subscriber)` pairs: entry `i` lists `who[i]`'s
    /// queries, ascending. `who` must be sorted ascending without
    /// duplicates; each pair then costs one binary search, where a call
    /// per subscriber would scan every pair once per subscriber.
    pub fn subscriptions_of_each(&self, who: &[S]) -> Vec<Vec<QueryId>> {
        debug_assert!(who.windows(2).all(|w| w[0] < w[1]), "who not sorted");
        let mut groups = vec![Vec::new(); who.len()];
        for (query, list) in &self.subs {
            for s in list {
                if let Ok(i) = who.binary_search(s) {
                    groups[i].push(*query);
                }
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::{Scored, TupleId};

    fn delta(q: u64) -> ResultDelta {
        ResultDelta {
            query: QueryId(q),
            added: vec![Scored::new(0.5, TupleId(1))].into(),
            removed: Vec::new().into(),
        }
    }

    #[test]
    fn subscribe_route_unsubscribe() {
        let mut r: DeltaRouter<u32> = DeltaRouter::new();
        assert!(r.subscribe(QueryId(1), 7));
        assert!(!r.subscribe(QueryId(1), 7), "duplicate is a no-op");
        assert!(r.subscribe(QueryId(1), 8));
        assert!(r.subscribe(QueryId(2), 8));
        assert_eq!(r.len(), 3);

        let deltas = [delta(1), delta(2), delta(3)];
        let routed: Vec<(u32, u64)> = r.route(&deltas).map(|(s, d)| (*s, d.query.0)).collect();
        assert_eq!(routed, vec![(7, 1), (8, 1), (8, 2)], "q3 has no takers");

        assert!(r.unsubscribe(QueryId(1), &7));
        assert!(!r.unsubscribe(QueryId(1), &7));
        assert_eq!(r.subscribers(QueryId(1)), &[8]);
    }

    #[test]
    fn drop_subscriber_and_query() {
        let mut r: DeltaRouter<&'static str> = DeltaRouter::new();
        r.subscribe(QueryId(1), "a");
        r.subscribe(QueryId(2), "a");
        r.subscribe(QueryId(2), "b");
        assert_eq!(r.subscriptions_of(&"a"), vec![QueryId(1), QueryId(2)]);

        let gone = r.drop_subscriber(&"a");
        assert_eq!(gone, vec![QueryId(1), QueryId(2)]);
        assert_eq!(r.len(), 1);

        assert_eq!(r.drop_query(QueryId(2)), vec!["b"]);
        assert!(r.is_empty());
    }

    #[test]
    fn subscriptions_of_each_groups_like_subscriptions_of() {
        let mut r: DeltaRouter<u32> = DeltaRouter::new();
        // Subscriber s follows every query q with (q * s) % 3 == 0, in a
        // scrambled subscribe order so lists are not sorted.
        for q in [5u64, 1, 9, 0, 7, 3, 8, 2] {
            for s in [4u32, 0, 6, 2, 9, 1] {
                if (q * u64::from(s)) % 3 == 0 {
                    r.subscribe(QueryId(q), s);
                }
            }
        }
        r.unsubscribe(QueryId(0), &6);
        // 3 and 11 hold no subscription; 5 was never seen.
        let who = [0u32, 1, 3, 4, 5, 6, 9, 11];
        let groups = r.subscriptions_of_each(&who);
        assert_eq!(groups.len(), who.len());
        for (s, group) in who.iter().zip(&groups) {
            assert_eq!(group, &r.subscriptions_of(s), "subscriber {s}");
        }
        assert_eq!(groups[0].len(), 8, "0 follows every query");
        assert_eq!(groups[1], [QueryId(0), QueryId(3), QueryId(9)]);
        assert_eq!(groups[5].len(), 7, "6 left q0");
        assert!(groups[2].is_empty() && groups[4].is_empty() && groups[7].is_empty());
        assert!(r.subscriptions_of_each(&[]).is_empty());
    }
}
