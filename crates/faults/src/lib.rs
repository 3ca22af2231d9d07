//! Deterministic fault injection for the H2P simulation engine.
//!
//! The paper's TCO argument leans on TEG longevity ("no less than
//! 28~34 years") and `h2p-teg::reliability` models series-vs-bypass
//! wiring — but a healthy-path simulator never *exercises* a failure.
//! This crate provides the missing substrate:
//!
//! * [`FaultPlan`] — a seeded, deterministic stream of fault events,
//!   either written out explicitly or compiled from per-component
//!   hazard rates ([`HazardRates`]) through the *same* exponential
//!   survival math the TEG reliability model quotes
//!   ([`h2p_teg::reliability::exponential_failure_time`] — no second
//!   copy of the hazard formulas lives here);
//! * [`CompiledFaults`] — the plan bound to one run's geometry
//!   (servers, circulation size, steps): each circulation's fault
//!   windows in plan order, which the engine queries each control
//!   interval. Every query is a pure function of
//!   `(plan, circulation, step)`, so sequential and parallel runs see
//!   identical faults;
//! * [`FaultLedger`] — the run-level degradation account: healthy-vs-
//!   faulted energy totals, per-class harvest attribution
//!   ([`FaultClass`]), and the PUE/ERE deltas the fault stream caused.
//!
//! Fault classes injected (paper-facing semantics in DESIGN.md §9):
//!
//! 1. **TEG open-circuit** device failures, degrading a module through
//!    its wiring topology (`Series` kills the chain, bypass derates);
//! 2. **pump degradation/outage**, cutting a circulation's achievable
//!    flow (hotter outlets, possible emergency throttling);
//! 3. **stuck/noisy temperature sensors** feeding the cooling
//!    optimizer, with a clamped fallback setting on implausible
//!    readings;
//! 4. trace gaps are handled upstream in `h2p-workload` ingestion
//!    (repair policies), not here — by the time a trace reaches the
//!    engine it is gap-free.
//!
//! # Determinism contract
//!
//! A [`FaultPlan`] is a value: compiling it against the same geometry
//! yields the same [`CompiledFaults`], and every [`ActiveFaults`] view
//! (including sensor-noise offsets, which are hashed from
//! `(seed, circulation, step)`, never drawn from shared RNG state) is
//! bit-identical regardless of thread count or query order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used as a deliberate NaN-rejecting validation idiom
// throughout (NaN fails the guard, unlike `x <= 0.0`).
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Test code opts back into panicking asserts/unwraps (see [workspace.lints]).
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::float_cmp,
        clippy::cast_lossless,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

mod ledger;
mod plan;

pub use ledger::{FaultClass, FaultLedger, StepAttribution, StepPowers};
pub use plan::{
    ActiveFaults, CompiledFaults, FaultEvent, FaultKind, FaultPlan, HazardRates, SensorFault,
    FAULT_ACTIVATED_EVENT, FAULT_RECOVERED_EVENT,
};

use core::fmt;

/// Errors from fault-plan construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A pump derate factor outside `(0, 1)`.
    InvalidDerate {
        /// The offending factor.
        value: f64,
    },
    /// An event window with `end_step <= start_step`.
    EmptyWindow {
        /// Index of the offending event.
        index: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NonPositiveParameter { name, value } => {
                write!(f, "parameter {name} must be positive, got {value}")
            }
            FaultError::InvalidDerate { value } => {
                write!(f, "pump derate factor {value} outside (0, 1)")
            }
            FaultError::EmptyWindow { index } => {
                write!(f, "fault event {index} has an empty step window")
            }
        }
    }
}

impl std::error::Error for FaultError {}
