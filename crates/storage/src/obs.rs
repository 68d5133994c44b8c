//! Per-query I/O attribution.
//!
//! The simulated device keeps one store-wide clock; queries racing on the
//! same [`Store`](crate::Store) therefore inflate each other's
//! before/after snapshots. This module fixes the attribution side: a
//! [`QueryId`] names one logical query, and a scoped
//! [`BufferPool::attributed`](crate::BufferPool::attributed) guard pushes
//! that id onto a thread-local stack while the query runs. Every charge
//! the device takes while the stack is non-empty is *also* accrued to a
//! per-query [`IoStats`](crate::IoStats) slot, so each query observes
//! exactly the device time its own accesses caused — the sum of all
//! attributed slots equals the store-wide delta when every access runs
//! under a guard.
//!
//! The stack is thread-local: two sessions racing on different threads
//! attribute correctly without any coordination, and nested guards (a
//! query executing inside an outer instrumentation scope) attribute to
//! the innermost id.
//!
//! The flip side of thread-locality: a guard pinned on one thread does
//! **not** cover I/O issued from another, so a query that fans work out
//! to other threads must re-pin a guard with the same [`QueryId`] on
//! each. Conversely, one guard covers every store its thread touches:
//! each device keeps its own per-query slot, so the sharded
//! scatter-gather, which drives all of its shards from the caller's
//! thread, pins one guard and then drains each shard's slot with
//! [`take_attributed`](crate::BufferPool::take_attributed).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one logical query for I/O attribution and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

impl QueryId {
    /// A fresh process-unique id (monotonic, never reused).
    pub fn next() -> QueryId {
        QueryId(NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed))
    }
}

thread_local! {
    static ATTRIBUTION: RefCell<Vec<QueryId>> = const { RefCell::new(Vec::new()) };
}

/// The query currently attributed on this thread (innermost guard).
pub(crate) fn current_query() -> Option<QueryId> {
    ATTRIBUTION.with(|s| s.borrow().last().copied())
}

pub(crate) fn push_query(qid: QueryId) {
    ATTRIBUTION.with(|s| s.borrow_mut().push(qid));
}

pub(crate) fn pop_query() {
    ATTRIBUTION.with(|s| {
        s.borrow_mut().pop();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let a = QueryId::next();
        let b = QueryId::next();
        assert!(b.0 > a.0);
    }

    #[test]
    fn stack_nests_innermost_wins() {
        assert_eq!(current_query(), None);
        let a = QueryId::next();
        let b = QueryId::next();
        push_query(a);
        assert_eq!(current_query(), Some(a));
        push_query(b);
        assert_eq!(current_query(), Some(b));
        pop_query();
        assert_eq!(current_query(), Some(a));
        pop_query();
        assert_eq!(current_query(), None);
    }
}
