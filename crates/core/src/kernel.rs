//! The change-detection event kernel behind [`Simulator`]'s
//! tolerant engine path (DESIGN.md §13).
//!
//! Without a kernel the engine re-simulates every circulation every
//! control interval, even when its load barely moves. With one, each
//! engine lane (one circulation across all control intervals)
//! re-evaluates its circulation only when
//!
//! 1. its control utilization or the cold-source temperature has moved
//!    beyond the configured [`KernelTolerance`] since the last
//!    evaluation (a **change event**),
//! 2. a fault is live on it or recovered this step (a **forced
//!    event**; the lane discards its hold), or
//! 3. it has no held decision yet (first step, or after a forced
//!    event).
//!
//! Everything else **holds**: the circulation's last committed
//! [`CircPartial`] is replayed into the interval fold unchanged.
//!
//! # Transparency contract
//!
//! [`KernelTolerance::exact`] (`tolerance = 0`) degenerates to the
//! exact stepper: a hold is taken only when the circulation's *entire
//! load chunk* and the cold-source temperature are **bit-identical** to
//! the held decision's. Because `simulate_circulation` is a pure
//! function of `(chunk, cold)` (its one cooling decision,
//! `Simulator::cooling_setting`, is exact-keyed), replaying the held
//! partial returns the very bits a re-evaluation would — so `tolerance = 0`
//! kernel runs are bit-identical to runs without a kernel, which stay
//! the oracle (`tests/kernel_transparency.rs`).
//!
//! At `tolerance > 0` the change rule is the paper-facing one: compare
//! the *control utilization* (the only load statistic the cooling
//! decision consumes) and the cold temperature against the **anchor**
//! values of the last evaluation. Comparing against the anchor — not
//! the previous step — means slow drift accumulates until it crosses
//! the tolerance and forces a refresh; staleness is bounded by the
//! tolerance, never compounding.
//!
//! # Determinism
//!
//! A hold is per circulation and lane-local, so classification never
//! depends on how circulations were sharded; nothing here reads clocks
//! or RNG (h2p-lint L9).

use crate::simulation::CircPartial;
use crate::H2pError;
use h2p_units::Utilization;

#[cfg(doc)]
use crate::simulation::Simulator;

/// Change tolerances deciding when a held circulation decision must be
/// re-evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTolerance {
    utilization: f64,
    cold: f64,
}

impl KernelTolerance {
    /// The exact kernel: a circulation is held only when its load chunk
    /// and the cold temperature are bit-identical to the held decision.
    /// Bit-identical to the legacy stepper by construction.
    #[must_use]
    pub fn exact() -> Self {
        KernelTolerance {
            utilization: 0.0,
            cold: 0.0,
        }
    }

    /// A tolerance of `value` on both axes: control utilization (in
    /// absolute utilization units) and cold temperature (in °C).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::InvalidTolerance`] when `value` is negative
    /// or non-finite.
    pub fn uniform(value: f64) -> Result<Self, H2pError> {
        KernelTolerance::new(value, value)
    }

    /// Separate tolerances for the control-utilization axis (absolute
    /// utilization units) and the cold-temperature axis (°C).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::InvalidTolerance`] when either value is
    /// negative or non-finite.
    pub fn new(utilization: f64, cold: f64) -> Result<Self, H2pError> {
        for (name, value) in [("utilization", utilization), ("cold", cold)] {
            if !(value >= 0.0) || !value.is_finite() {
                return Err(H2pError::InvalidTolerance { name, value });
            }
        }
        Ok(KernelTolerance { utilization, cold })
    }

    /// The control-utilization tolerance.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The cold-temperature tolerance, °C.
    #[must_use]
    pub fn cold(&self) -> f64 {
        self.cold
    }

    /// Whether this is the exact (bit-identity) kernel.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.utilization == 0.0 && self.cold == 0.0
    }
}

/// Evaluated/held/forced accounting of a kernel run (one lane's tally,
/// exposed through the `engine.circulations_*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct KernelStats {
    /// Circulation-steps re-simulated (change events + forced events +
    /// cold starts).
    pub evaluated: u64,
    /// Circulation-steps answered from held decisions.
    pub held: u64,
    /// The subset of `evaluated` demanded by a live or just-recovered
    /// fault, regardless of load movement.
    pub forced: u64,
}

/// The last committed decision of one circulation: the comparison
/// anchor plus the partial that replays on a hold. Each engine lane
/// owns one circulation across every control interval, so its hold is
/// a lane-local `Option<HeldDecision>`.
#[derive(Debug, Clone)]
pub(crate) struct HeldDecision {
    /// The load chunk the decision was evaluated under (exact mode
    /// compares it bitwise).
    loads: Vec<Utilization>,
    /// Control utilization at evaluation (the tolerant-mode anchor).
    u_control: f64,
    /// Cold-source temperature at evaluation, °C.
    cold: f64,
    /// The committed per-circulation aggregate.
    pub(crate) partial: CircPartial,
}

impl HeldDecision {
    /// Commits a fresh evaluation as the circulation's anchor.
    pub(crate) fn new(chunk: &[Utilization], u_ctrl: f64, cold: f64, partial: CircPartial) -> Self {
        HeldDecision {
            loads: chunk.to_vec(),
            u_control: u_ctrl,
            cold,
            partial,
        }
    }

    /// Whether this decision still answers for the circulation: `true`
    /// replays [`partial`](Self::partial), `false` is a change event.
    ///
    /// Exact mode holds only on a bitwise match of the full load chunk
    /// and the cold temperature; tolerant mode compares `u_control` and
    /// `cold` against the anchor with NaN-rejecting guards (a NaN on
    /// either side re-evaluates).
    pub(crate) fn holds(
        &self,
        tolerance: KernelTolerance,
        chunk: &[Utilization],
        u_ctrl: f64,
        cold: f64,
    ) -> bool {
        if tolerance.is_exact() {
            self.cold.to_bits() == cold.to_bits()
                && self.loads.len() == chunk.len()
                && self
                    .loads
                    .iter()
                    .zip(chunk)
                    .all(|(a, b)| a.value().to_bits() == b.value().to_bits())
        } else {
            // `x <= tol` so NaN deltas never hold.
            (u_ctrl - self.u_control).abs() <= tolerance.utilization
                && (cold - self.cold).abs() <= tolerance.cold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partial(teg: f64) -> CircPartial {
        CircPartial {
            teg,
            ..CircPartial::offline()
        }
    }

    fn u(values: &[f64]) -> Vec<Utilization> {
        values.iter().map(|&v| Utilization::saturating(v)).collect()
    }

    #[test]
    fn tolerance_validation() {
        assert!(KernelTolerance::exact().is_exact());
        assert!(KernelTolerance::uniform(0.0).unwrap().is_exact());
        let t = KernelTolerance::new(0.01, 0.5).unwrap();
        assert!(!t.is_exact());
        assert_eq!(t.utilization(), 0.01);
        assert_eq!(t.cold(), 0.5);
        assert!(matches!(
            KernelTolerance::uniform(-0.1),
            Err(H2pError::InvalidTolerance { .. })
        ));
        assert!(matches!(
            KernelTolerance::new(f64::NAN, 0.0),
            Err(H2pError::InvalidTolerance {
                name: "utilization",
                ..
            })
        ));
        assert!(matches!(
            KernelTolerance::new(0.0, f64::INFINITY),
            Err(H2pError::InvalidTolerance { name: "cold", .. })
        ));
    }

    #[test]
    fn exact_mode_holds_only_on_bitwise_match() {
        let exact = KernelTolerance::exact();
        let chunk = u(&[0.25, 0.5]);
        let held = HeldDecision::new(&chunk, 0.375, 20.0, partial(1.0));
        assert!(held.holds(exact, &chunk, 0.375, 20.0));
        assert_eq!(held.partial.teg, 1.0);
        // A one-ulp load wiggle with the same u_control is a change.
        let wiggled = u(&[0.25, f64::from_bits(0.5f64.to_bits() + 1)]);
        assert!(!held.holds(exact, &wiggled, 0.375, 20.0));
        // Cold moves -> change; chunk length changes -> change.
        assert!(!held.holds(exact, &chunk, 0.375, 20.000001));
        assert!(!held.holds(exact, &chunk[..1], 0.375, 20.0));
    }

    #[test]
    fn tolerant_mode_anchors_at_last_evaluation() {
        let tolerance = KernelTolerance::uniform(0.1).unwrap();
        let held = HeldDecision::new(&u(&[0.5]), 0.5, 20.0, partial(2.0));
        // Inside the band on both axes: hold, even as loads wiggle.
        assert!(held.holds(tolerance, &u(&[0.55]), 0.55, 20.05));
        assert!(held.holds(tolerance, &u(&[0.41]), 0.41, 19.91));
        // The anchor stays at the last evaluation, so a slow drift past
        // the band re-evaluates even though per-step deltas are tiny.
        assert!(!held.holds(tolerance, &u(&[0.61]), 0.61, 20.0));
        assert!(!held.holds(tolerance, &u(&[0.5]), 0.5, 20.11));
        // NaN never holds.
        assert!(!held.holds(tolerance, &u(&[0.5]), f64::NAN, 20.0));
    }
}
