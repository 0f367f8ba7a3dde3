//! # rqp-storage
//!
//! In-memory columnar storage substrate for the robust-query-processing
//! testbed:
//!
//! * [`mod@column`] — typed column vectors with min/max/distinct statistics
//!   surface;
//! * [`table`] — a [`table::Table`] of columns plus row-wise access;
//! * [`group`] — the grouping kernel: a numeric column cut into runs of
//!   equal keys in O(n) (counting) or one keyless sort, which ANALYZE and
//!   one-column index builds share;
//! * [`keyed`] — keyed state: the one typed key map ([`keyed::Keys`], the
//!   ±2^53 `Int` rule) every hash-join build side keys through, and the one
//!   [`keyed::GroupTable`] of accumulators that row, batch and
//!   standing-view aggregation fold into;
//! * [`index`] — clustered/unclustered secondary indexes: one [`Index`]
//!   over k ≥ 1 columns with equality-prefix + range lookups, stored as one
//!   packed sorted run plus an append partition (`run`) and probed through
//!   borrowed [`RowIds`];
//! * [`crack`] — **database cracking** (Idreos, Kersten, Manegold): a cracker
//!   column physically reorganized as a side effect of range queries, the
//!   seminar's flagship *adaptive indexing* technique;
//! * [`amerge`] — **adaptive merging** (Graefe, Kuno): sorted runs merged on
//!   demand by the key ranges queries actually touch;
//! * [`shared_scan`] — a circular shared-scan coordinator in the spirit of
//!   QPipe/Crescando ("clock scan"), used by the mixed-workload experiments;
//! * [`catalog`] — the named collection of tables and indexes the optimizer
//!   plans against;
//! * [`mod@pool`] — the paged [`BufferPool`]: pin/unpin accounting over
//!   fixed-size logical pages with clock eviction, deterministic fault
//!   charging, and chaos-injected transient page-I/O errors.
//!
//! Storage is mostly pure data: it counts the tuples and pieces it touches
//! and leaves cost charging to the execution operators in `rqp-exec`. The
//! one exception is the buffer pool, whose re-faults and injected page-I/O
//! retries are charged where they happen so the pager's degradation is
//! deterministic no matter which operator pinned the page.

#![warn(missing_docs)]

pub mod amerge;
pub mod catalog;
pub mod changelog;
pub mod column;
pub mod crack;
pub mod group;
pub mod index;
pub mod keyed;
pub mod pool;
mod run;
pub mod shared_scan;
pub mod table;

pub use amerge::AdaptiveMergeIndex;
pub use catalog::{Catalog, CatalogSnapshot};
pub use changelog::{ChangeOp, ChangeRecord, Changelog};
pub use column::{ColumnData, IntSlice, IntVec};
pub use crack::CrackerColumn;
pub use group::Groups;
pub use index::{Index, RidCursor, RowIds};
pub use keyed::{Footprint, GroupTable, IndexKey};
pub use pool::{BufferPool, PagePin, PagerStats, PinOutcome};
pub use shared_scan::SharedScanCoordinator;
pub use table::{StrEncoding, Table};

/// Row identifier within a table (position in insertion order). Secondary
/// indexes store row ids as `u32`: building one over, or inserting a row id
/// of, more than `u32::MAX` rows is an error.
pub type RowId = usize;
