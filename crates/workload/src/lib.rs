//! # rqp-workload
//!
//! Everything the robustness experiments need to *drive* the engine:
//!
//! * [`gen`] — deterministic column/table generators: uniform, Zipf-skewed,
//!   correlated, sequential — the data shapes whose mismatch with optimizer
//!   assumptions (uniformity, independence) causes the estimation failures
//!   the seminar catalogues;
//! * [`tpch`] — a TPC-H-like schema (`lineitem`, `orders`, `customer`,
//!   `part`, `supplier`) with parameterized query templates, standing in for
//!   the benchmark the break-outs build their proposals on;
//! * [`star`] — a star schema (fact + dimensions) for the black-hat and
//!   plan-diagram experiments;
//! * [`oltp`] — an order-entry transaction generator (TPC-C-flavoured) for
//!   the mixed-workload (TPC-CH-like) experiment;
//! * [`blackhat`] — adversarial generators: redundant pseudo-key predicates,
//!   cross-table correlation, skewed join keys (the "Black Hat Query
//!   Optimization" session's trap list);
//! * [`tractor`] — the **tractor-pull benchmark**: escalating workload
//!   rounds until the system "stalls";
//! * [`manager`] — the one MPL / priority admission state machine
//!   ([`Admission`]), a deterministic workload-manager simulation that
//!   drives it over cost-clock service demands, plus the **FMT**
//!   (fluctuating memory) and **FPT** (fluctuating parallelism) tests;
//! * [`shift`] — workload-shift detection (the trigger for re-tuning
//!   self-managing components when the mix changes).

#![warn(missing_docs)]

pub mod blackhat;
pub mod gen;
pub mod manager;
pub mod oltp;
pub mod shift;
pub mod star;
pub mod tpch;
pub mod tractor;

pub use blackhat::BlackHatDb;
pub use gen::{ColumnGen, TableBuilder};
pub use manager::{Admission, FmtReport, FptReport, Job, SimOutcome, Ticket, WorkloadManager};
pub use oltp::OltpSimulator;
pub use shift::{ShiftDetector, ShiftEvent};
pub use star::StarDb;
pub use tpch::TpchDb;
pub use tractor::{TractorPull, TractorRound};
