//! Epoch-sequenced table changelog: the feed standing subscriptions drain.
//!
//! Every mutation on a [`Table`](crate::table::Table) with an attached
//! changelog publishes one [`ChangeRecord`] carrying a monotonically
//! increasing epoch. The changelog is deliberately dumb — an epoch-ordered
//! queue behind a mutex — because correctness of incremental view
//! maintenance hinges on one property only: **every consumer sees the same
//! records in the same total order**. Consumers keep a cursor (the epoch
//! of the next unseen record) and poll with [`Changelog::since`]; the
//! stream circuit in `rqp-stream` folds the drained records into its
//! operator state.
//!
//! The log retains only what some consumer may still ask for: whoever
//! tracks the consumers' cursors (the service's subscription registry)
//! calls [`Changelog::trim_below`] with the smallest of them, and records
//! under that epoch are dropped. Epochs are never reused — [`Changelog::len`]
//! stays the next epoch — so a cursor is valid for as long as it is at or
//! above [`Changelog::base`].
//!
//! The log is shared by `Arc` across copy-on-write table clones (exactly
//! like the buffer pool attachment), so a service that mutates through
//! `Catalog::table_mut` keeps publishing into the same feed its
//! subscribers read.

use rqp_common::Row;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What happened to the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeOp {
    /// Row appended.
    Insert,
    /// Row deleted.
    Delete,
}

/// One published table mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeRecord {
    /// Position in the total mutation order (starts at 0, increments by 1).
    pub epoch: u64,
    /// Table the mutation applied to (one shared allocation per table).
    pub table: Arc<str>,
    /// Insert or delete.
    pub op: ChangeOp,
    /// The full row (unqualified column order, as stored).
    pub row: Row,
}

#[derive(Debug, Default)]
struct LogInner {
    /// Retained records, epochs `base .. next_epoch` in order.
    entries: VecDeque<ChangeRecord>,
    /// Epoch of `entries[0]`; everything below was trimmed.
    base: u64,
    next_epoch: u64,
    /// Interned table names, so records share one `Arc<str>` per table.
    names: Vec<Arc<str>>,
}

/// An epoch-sequenced mutation log shared by every clone of a table (and,
/// when attached through the catalog, by every table in a service snapshot
/// — epochs are then totally ordered *across* tables, which is what lets a
/// multi-table join circuit replay interleaved mutations
/// deterministically).
#[derive(Debug, Default)]
pub struct Changelog {
    inner: Mutex<LogInner>,
}

impl Changelog {
    /// An empty changelog at epoch 0.
    pub fn new() -> Self {
        Changelog::default()
    }

    /// Publish an insert of `row` into `table`; returns the record's epoch.
    pub fn publish_insert(&self, table: &str, row: Row) -> u64 {
        self.publish(table, ChangeOp::Insert, row)
    }

    /// Publish a delete of `row` from `table`; returns the record's epoch.
    pub fn publish_delete(&self, table: &str, row: Row) -> u64 {
        self.publish(table, ChangeOp::Delete, row)
    }

    fn publish(&self, table: &str, op: ChangeOp, row: Row) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let name = match g.names.iter().find(|n| &***n == table) {
            Some(n) => Arc::clone(n),
            None => {
                let n: Arc<str> = Arc::from(table);
                g.names.push(Arc::clone(&n));
                n
            }
        };
        let epoch = g.next_epoch;
        g.next_epoch += 1;
        g.entries.push_back(ChangeRecord { epoch, table: name, op, row });
        epoch
    }

    /// All retained records with `epoch >= cursor`, plus the new cursor
    /// (one past the last record in the log). A consumer that stores the
    /// returned cursor and polls again sees each record exactly once.
    pub fn since(&self, cursor: u64) -> (Vec<ChangeRecord>, u64) {
        self.since_up_to(cursor, usize::MAX)
    }

    /// At most `max_records` retained records with `epoch >= cursor`, plus
    /// the cursor one past the last record *returned* — a bounded poll
    /// copies only what it will fold, however long the tail is. A cursor
    /// past the end is clamped; one below [`base`](Self::base) starts at
    /// the base (the records in between are gone — consumers keep their
    /// cursor registered with whoever trims).
    pub fn since_up_to(&self, cursor: u64, max_records: usize) -> (Vec<ChangeRecord>, u64) {
        let g = self.inner.lock().unwrap();
        let start = cursor.clamp(g.base, g.next_epoch);
        let skip = (start - g.base) as usize;
        let recs: Vec<ChangeRecord> =
            g.entries.range(skip..).take(max_records).cloned().collect();
        let next = start + recs.len() as u64;
        (recs, next)
    }

    /// Drop every record with `epoch < floor` (clamped to the log's end):
    /// no consumer's cursor is below `floor`, so none can ask for them.
    pub fn trim_below(&self, floor: u64) {
        let mut g = self.inner.lock().unwrap();
        let floor = floor.min(g.next_epoch);
        if floor > g.base {
            let n = (floor - g.base) as usize;
            g.entries.drain(..n);
            g.base = floor;
            if g.entries.is_empty() {
                // A burst's worth of capacity is not worth keeping.
                g.entries.shrink_to(64);
            }
        }
    }

    /// Epoch of the oldest retained record (== `len()` when none is).
    pub fn base(&self) -> u64 {
        self.inner.lock().unwrap().base
    }

    /// Records currently held (published and not yet trimmed).
    pub fn retained(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Number of records published so far (== the next epoch).
    pub fn len(&self) -> u64 {
        self.inner.lock().unwrap().next_epoch
    }

    /// True if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::Value;

    fn row(i: i64) -> Row {
        vec![Value::Int(i)]
    }

    #[test]
    fn epochs_are_dense_and_ordered() {
        let log = Changelog::new();
        assert!(log.is_empty());
        assert_eq!(log.publish_insert("t", row(1)), 0);
        assert_eq!(log.publish_delete("t", row(1)), 1);
        assert_eq!(log.publish_insert("u", row(2)), 2);
        assert_eq!(log.len(), 3);
        let (recs, cur) = log.since(0);
        assert_eq!(cur, 3);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].op, ChangeOp::Insert);
        assert_eq!(recs[1].op, ChangeOp::Delete);
        assert_eq!(&*recs[2].table, "u");
        assert!(recs.windows(2).all(|w| w[0].epoch + 1 == w[1].epoch));
        assert!(Arc::ptr_eq(&recs[0].table, &recs[1].table), "one name allocation per table");
    }

    #[test]
    fn cursor_sees_each_record_exactly_once() {
        let log = Changelog::new();
        log.publish_insert("t", row(1));
        let (first, cur) = log.since(0);
        assert_eq!(first.len(), 1);
        let (none, cur2) = log.since(cur);
        assert!(none.is_empty());
        assert_eq!(cur2, cur);
        log.publish_insert("t", row(2));
        let (second, _) = log.since(cur2);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].row, row(2));
    }

    #[test]
    fn cursor_past_end_is_clamped() {
        let log = Changelog::new();
        log.publish_insert("t", row(1));
        let (recs, cur) = log.since(99);
        assert!(recs.is_empty());
        assert_eq!(cur, 1);
    }

    #[test]
    fn bounded_read_returns_the_cursor_it_reached() {
        let log = Changelog::new();
        for i in 0..10 {
            log.publish_insert("t", row(i));
        }
        let (recs, cur) = log.since_up_to(2, 3);
        assert_eq!(recs.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(cur, 5);
        let (rest, cur) = log.since_up_to(cur, 100);
        assert_eq!((rest.len(), cur), (5, 10));
    }

    /// The retention contract: with one consumer polling, the log holds no
    /// more than that consumer's lag; with none, nothing; and trimming
    /// never disturbs epochs (`len()` is still the next epoch, every record
    /// read carries the epoch it was published under).
    #[test]
    fn trimming_retains_only_the_consumers_lag() {
        let log = Changelog::new();
        let mut cursor = 0u64;
        let mut seen = 0u64;
        for i in 0..10_000u64 {
            assert_eq!(log.publish_insert("t", row(i as i64)), i, "epochs stay monotone");
            if i % 16 == 15 {
                // Poll at most 12 of the 16 new records: the consumer lags.
                let (recs, next) = log.since_up_to(cursor, 12);
                for r in &recs {
                    assert_eq!(r.epoch, seen, "no record skipped or repeated");
                    seen += 1;
                }
                cursor = next;
                log.trim_below(cursor);
                assert_eq!(log.base(), cursor);
                assert_eq!(log.retained() as u64, log.len() - cursor, "retains exactly the lag");
            }
        }
        assert_eq!(log.len(), 10_000);
        // The consumer goes away: whoever trims passes the log's end.
        log.trim_below(log.len());
        assert_eq!(log.retained(), 0);
        assert_eq!(log.publish_insert("t", row(0)), 10_000, "epochs continue after a full trim");
        assert_eq!(log.len(), 10_001);
        // A floor past the end is clamped, one below the base is a no-op.
        log.trim_below(u64::MAX);
        assert_eq!((log.retained(), log.base()), (0, 10_001));
        log.trim_below(5);
        assert_eq!(log.base(), 10_001);
        // A stale cursor reads from the base, not from thin air.
        log.publish_insert("t", row(7));
        let (recs, cur) = log.since(3);
        assert_eq!((recs.len(), recs[0].epoch, cur), (1, 10_001, 10_002));
    }
}
