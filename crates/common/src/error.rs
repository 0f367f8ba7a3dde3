//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, RqpError>;

/// All errors the `rqp` engine can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RqpError {
    /// A referenced column does not exist in the schema.
    ColumnNotFound(String),
    /// A column suffix matched more than one qualified field.
    AmbiguousColumn(String),
    /// A referenced table does not exist in the catalog.
    TableNotFound(String),
    /// A referenced index does not exist.
    IndexNotFound(String),
    /// Operation applied to a value of the wrong type.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually got.
        got: String,
    },
    /// The optimizer could not produce a plan.
    Planning(String),
    /// A runtime execution failure.
    Execution(String),
    /// An invalid argument or configuration.
    Invalid(String),
    /// A transient I/O failure at a scan boundary. Retryable: the engine
    /// re-reads the page (charging the re-read) instead of failing the query.
    TransientIo {
        /// Where the fault occurred (e.g. `table/page`).
        site: String,
        /// Which attempt observed it (0 = first read).
        attempt: u32,
    },
    /// An exchange worker was lost and its partition could not be recovered
    /// within the retry budget. Fatal: the retries already happened.
    WorkerFailed {
        /// Index of the lost worker.
        worker: usize,
        /// Executions attempted (original + retries).
        attempts: u32,
    },
    /// A partition key column index fell outside the row.
    KeyOutOfBounds {
        /// The offending key index.
        index: usize,
        /// The row's width.
        width: usize,
    },
    /// Range partitioning was asked to split on a non-numeric key.
    NonNumericKey(String),
    /// The query was cancelled by its controller (session close, explicit
    /// `CancelToken::cancel`). Not retryable: a retry would resurrect work
    /// the controller asked to stop.
    Cancelled,
    /// The query ran past its deadline (in cost units on its virtual clock)
    /// and was cooperatively aborted. Not retryable for the same reason.
    DeadlineExceeded,
    /// A wire-protocol violation: corrupt frame, unknown message type,
    /// version mismatch, or a malformed payload. Fatal — the peer is
    /// speaking a different (or damaged) protocol, so the connection is
    /// torn down rather than retried.
    Protocol(String),
    /// The buffer pool could not find an evictable frame: every resident
    /// page is pinned and the brokered page budget is spent. Fatal — a
    /// retry would re-request the same frame against the same budget; the
    /// broker has to grow the budget (or a pin has to drop) first.
    PageBudgetExhausted {
        /// Frames currently pinned.
        pinned: usize,
        /// The page budget in frames.
        budget: usize,
    },
    /// A transient page-I/O failure while faulting a page into the buffer
    /// pool. Retryable: the pager re-reads the page (charging the re-read)
    /// instead of failing the query.
    PageIo {
        /// Where the fault occurred (`table/page`).
        site: String,
        /// Which attempt observed it (0 = first read).
        attempt: u32,
    },
}

/// `(wire code, canonical name)` of every [`RqpError`] variant, in wire-code
/// order. The table is the single registry new variants must be added to;
/// the exhaustive-match in [`RqpError::wire_code`] makes forgetting a
/// compile error, and the round-trip test makes an aliased code a test
/// failure.
pub const WIRE_CODES: &[(u16, &str)] = &[
    (1, "ColumnNotFound"),
    (2, "AmbiguousColumn"),
    (3, "TableNotFound"),
    (4, "IndexNotFound"),
    (5, "TypeMismatch"),
    (6, "Planning"),
    (7, "Execution"),
    (8, "Invalid"),
    (9, "TransientIo"),
    (10, "WorkerFailed"),
    (11, "KeyOutOfBounds"),
    (12, "NonNumericKey"),
    (13, "Cancelled"),
    (14, "DeadlineExceeded"),
    (15, "Protocol"),
    (16, "PageBudgetExhausted"),
    (17, "PageIo"),
];

impl RqpError {
    /// The stable numeric wire code of this variant — what the network
    /// protocol puts on the wire instead of matching display strings.
    /// Codes are append-only: a published code is never reused or
    /// renumbered, so old clients keep classifying errors correctly.
    pub fn wire_code(&self) -> u16 {
        // Exhaustive on purpose: adding a variant without assigning it a
        // code (and a WIRE_CODES row) must fail to compile, not silently
        // alias an existing code.
        match self {
            RqpError::ColumnNotFound(_) => 1,
            RqpError::AmbiguousColumn(_) => 2,
            RqpError::TableNotFound(_) => 3,
            RqpError::IndexNotFound(_) => 4,
            RqpError::TypeMismatch { .. } => 5,
            RqpError::Planning(_) => 6,
            RqpError::Execution(_) => 7,
            RqpError::Invalid(_) => 8,
            RqpError::TransientIo { .. } => 9,
            RqpError::WorkerFailed { .. } => 10,
            RqpError::KeyOutOfBounds { .. } => 11,
            RqpError::NonNumericKey(_) => 12,
            RqpError::Cancelled => 13,
            RqpError::DeadlineExceeded => 14,
            RqpError::Protocol(_) => 15,
            RqpError::PageBudgetExhausted { .. } => 16,
            RqpError::PageIo { .. } => 17,
        }
    }

    /// The canonical variant name of a wire code, or `None` for a code this
    /// build does not know (a newer peer's error — callers should treat it
    /// as a generic failure, not a protocol violation).
    pub fn wire_code_name(code: u16) -> Option<&'static str> {
        WIRE_CODES.iter().find(|(c, _)| *c == code).map(|(_, n)| *n)
    }

    /// The retryable/fatal taxonomy: retryable errors describe conditions
    /// that an immediate bounded retry can clear (a transient read fault);
    /// everything else — planning bugs, schema mismatches, exhausted retry
    /// budgets — is fatal and must propagate.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RqpError::TransientIo { .. } | RqpError::PageIo { .. })
    }

    /// Whether this error is a cooperative-cancellation outcome
    /// ([`Cancelled`](Self::Cancelled) or
    /// [`DeadlineExceeded`](Self::DeadlineExceeded)). Retry and fault-recovery
    /// loops must check this *before* their injected-fault triage: a cancelled
    /// worker that gets retried would re-trip its token immediately, burn the
    /// retry budget, and surface as a spurious `WorkerFailed`.
    pub fn is_cancellation(&self) -> bool {
        matches!(self, RqpError::Cancelled | RqpError::DeadlineExceeded)
    }
}

impl fmt::Display for RqpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RqpError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            RqpError::AmbiguousColumn(c) => write!(f, "ambiguous column reference: {c}"),
            RqpError::TableNotFound(t) => write!(f, "table not found: {t}"),
            RqpError::IndexNotFound(i) => write!(f, "index not found: {i}"),
            RqpError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            RqpError::Planning(m) => write!(f, "planning error: {m}"),
            RqpError::Execution(m) => write!(f, "execution error: {m}"),
            RqpError::Invalid(m) => write!(f, "invalid argument: {m}"),
            RqpError::TransientIo { site, attempt } => {
                write!(f, "transient I/O error at {site} (attempt {attempt})")
            }
            RqpError::WorkerFailed { worker, attempts } => {
                write!(f, "exchange worker {worker} failed after {attempts} attempts")
            }
            RqpError::KeyOutOfBounds { index, width } => {
                write!(f, "partition key index {index} out of bounds for row of {width}")
            }
            RqpError::NonNumericKey(v) => {
                write!(f, "range partitioning needs a numeric key, got {v}")
            }
            RqpError::Cancelled => write!(f, "query cancelled"),
            RqpError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            RqpError::Protocol(m) => write!(f, "protocol error: {m}"),
            RqpError::PageBudgetExhausted { pinned, budget } => {
                write!(f, "page budget exhausted: {pinned} of {budget} frames pinned")
            }
            RqpError::PageIo { site, attempt } => {
                write!(f, "page I/O error at {site} (attempt {attempt})")
            }
        }
    }
}

impl std::error::Error for RqpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            RqpError::ColumnNotFound("x".into()).to_string(),
            "column not found: x"
        );
        assert_eq!(
            RqpError::TypeMismatch { expected: "INT".into(), got: "STR".into() }.to_string(),
            "type mismatch: expected INT, got STR"
        );
    }

    #[test]
    fn retryable_taxonomy() {
        assert!(RqpError::TransientIo { site: "t/3".into(), attempt: 0 }.is_retryable());
        assert!(RqpError::PageIo { site: "t/3".into(), attempt: 0 }.is_retryable());
        // Everything that isn't a transient condition is fatal: retrying a
        // planning bug or an exhausted worker cannot help. An exhausted page
        // budget in particular: retrying re-requests the same frame against
        // the same spent budget.
        for fatal in [
            RqpError::PageBudgetExhausted { pinned: 8, budget: 8 },
            RqpError::WorkerFailed { worker: 2, attempts: 5 },
            RqpError::KeyOutOfBounds { index: 9, width: 3 },
            RqpError::NonNumericKey("Str(\"x\")".into()),
            RqpError::Execution("boom".into()),
            RqpError::Planning("p".into()),
            RqpError::Invalid("i".into()),
            RqpError::Cancelled,
            RqpError::DeadlineExceeded,
            RqpError::Protocol("bad magic".into()),
        ] {
            assert!(!fatal.is_retryable(), "{fatal} must be fatal");
        }
    }

    /// One exemplar of every variant. The exhaustive match in
    /// [`RqpError::wire_code`] forces new variants to pick a code; the
    /// count/uniqueness assertions below force them to register the code in
    /// [`WIRE_CODES`] and to show up here, so a new variant can never
    /// silently alias an existing code.
    fn exemplars() -> Vec<RqpError> {
        vec![
            RqpError::ColumnNotFound("x".into()),
            RqpError::AmbiguousColumn("x".into()),
            RqpError::TableNotFound("t".into()),
            RqpError::IndexNotFound("i".into()),
            RqpError::TypeMismatch { expected: "INT".into(), got: "STR".into() },
            RqpError::Planning("p".into()),
            RqpError::Execution("e".into()),
            RqpError::Invalid("i".into()),
            RqpError::TransientIo { site: "t/3".into(), attempt: 1 },
            RqpError::WorkerFailed { worker: 2, attempts: 5 },
            RqpError::KeyOutOfBounds { index: 9, width: 3 },
            RqpError::NonNumericKey("Str".into()),
            RqpError::Cancelled,
            RqpError::DeadlineExceeded,
            RqpError::Protocol("bad magic".into()),
            RqpError::PageBudgetExhausted { pinned: 8, budget: 8 },
            RqpError::PageIo { site: "t/3".into(), attempt: 1 },
        ]
    }

    #[test]
    fn wire_codes_are_exhaustive_unique_and_round_trip() {
        let all = exemplars();
        // Every variant is represented exactly once in the registry.
        assert_eq!(all.len(), WIRE_CODES.len(), "exemplar per WIRE_CODES row");
        let mut seen = std::collections::BTreeSet::new();
        for e in &all {
            let code = e.wire_code();
            assert!(seen.insert(code), "{e} aliases wire code {code}");
            // The registry knows the code, and the name round-trips to the
            // variant's debug name.
            let name = RqpError::wire_code_name(code)
                .unwrap_or_else(|| panic!("{e}: code {code} missing from WIRE_CODES"));
            let debug = format!("{e:?}");
            assert!(
                debug.starts_with(name),
                "code {code} name {name} does not match variant {debug}"
            );
        }
        // No stale registry rows: every registered code has a live variant.
        assert_eq!(seen.len(), WIRE_CODES.len());
        let mut codes: Vec<u16> = WIRE_CODES.iter().map(|(c, _)| *c).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), WIRE_CODES.len(), "duplicate code in WIRE_CODES");
        // Unknown codes classify as unknown, not as some existing variant.
        assert_eq!(RqpError::wire_code_name(0), None);
        assert_eq!(RqpError::wire_code_name(u16::MAX), None);
    }

    #[test]
    fn cancellation_taxonomy() {
        // Cancellations are their own axis: fatal AND cancellations, so retry
        // loops that only consult is_retryable() already refuse to resurrect
        // them, and fault-recovery triage can additionally single them out.
        for cancel in [RqpError::Cancelled, RqpError::DeadlineExceeded] {
            assert!(cancel.is_cancellation(), "{cancel} is a cancellation");
            assert!(!cancel.is_retryable(), "{cancel} must never be retried");
        }
        // Nothing else is a cancellation — notably not the retryable
        // transient fault or the exhausted-retry worker failure.
        for other in [
            RqpError::TransientIo { site: "t/3".into(), attempt: 0 },
            RqpError::WorkerFailed { worker: 2, attempts: 5 },
            RqpError::Execution("boom".into()),
            RqpError::Planning("p".into()),
        ] {
            assert!(!other.is_cancellation(), "{other} is not a cancellation");
        }
    }

    #[test]
    fn cancellation_messages() {
        assert_eq!(RqpError::Cancelled.to_string(), "query cancelled");
        assert_eq!(
            RqpError::DeadlineExceeded.to_string(),
            "query deadline exceeded"
        );
    }

    #[test]
    fn typed_variant_messages() {
        assert_eq!(
            RqpError::KeyOutOfBounds { index: 9, width: 3 }.to_string(),
            "partition key index 9 out of bounds for row of 3"
        );
        assert_eq!(
            RqpError::WorkerFailed { worker: 1, attempts: 4 }.to_string(),
            "exchange worker 1 failed after 4 attempts"
        );
        assert_eq!(
            RqpError::TransientIo { site: "t/7".into(), attempt: 2 }.to_string(),
            "transient I/O error at t/7 (attempt 2)"
        );
        assert_eq!(
            RqpError::PageBudgetExhausted { pinned: 3, budget: 4 }.to_string(),
            "page budget exhausted: 3 of 4 frames pinned"
        );
        assert_eq!(
            RqpError::PageIo { site: "t/7".into(), attempt: 2 }.to_string(),
            "page I/O error at t/7 (attempt 2)"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RqpError::Planning("p".into()));
    }
}
