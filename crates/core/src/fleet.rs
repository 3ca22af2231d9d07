//! Column-major (struct-of-arrays) scratch for the hot path.
//!
//! The per-circulation inner loop of the simulation engine evaluates
//! the same small set of surfaces — the Eq. 3 outlet/die interpolation,
//! the Eq. 6 TEG power quadratic, the Eq. 20 CPU power fit — for every
//! server under one shared cooling setting. `FleetColumns` lays that
//! state out as parallel `Vec<f64>` columns (utilization, outlet
//! temperature, TEG ΔT, CPU and harvest power) so each surface becomes
//! a chunked slice loop the compiler can autovectorize, instead of a
//! per-server struct walk.
//!
//! # Bit-identity contract
//!
//! The column passes call exactly the per-element functions the scalar
//! reference path calls, and every accumulator is reduced in server
//! order — so the column engine is **bit-identical** to the retained
//! scalar path (`Simulator::simulate_circulation` dispatches on
//! [`EngineLayout`]; `tests/fleet_transparency.rs` is the differential
//! oracle).

pub use h2p_exec::{ChunkPlan, ChunkSpec, PlanError};

/// Which inner-loop layout the simulation engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineLayout {
    /// The retained per-server scalar reference path (the bit-identity
    /// oracle for the column engine, exactly as dense runs are the
    /// oracle for the kernel and plan-free runs for zero-fault plans).
    Scalar,
    /// The column-major hot path (the default).
    #[default]
    Columns,
}

/// Column-major scratch of one circulation-step: one `Vec<f64>` per
/// quantity the Columns pass reads, all the same length (one slot per
/// server). See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct FleetColumns {
    pub(crate) utilization: Vec<f64>,
    pub(crate) outlet: Vec<f64>,
    pub(crate) teg_delta: Vec<f64>,
    pub(crate) cpu_power: Vec<f64>,
    pub(crate) harvest_power: Vec<f64>,
}

impl FleetColumns {
    /// Resets every column to `n` zeroed slots, reusing the existing
    /// allocations (the engine's per-circulation scratch reset — no
    /// stale values survive).
    pub(crate) fn begin(&mut self, n: usize) {
        for column in self.columns_mut() {
            column.clear();
            column.resize(n, 0.0);
        }
    }

    fn columns_mut(&mut self) -> [&mut Vec<f64>; 5] {
        [
            &mut self.utilization,
            &mut self.outlet,
            &mut self.teg_delta,
            &mut self.cpu_power,
            &mut self.harvest_power,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_resets_without_stale_values() {
        let mut columns = FleetColumns::default();
        columns.begin(9);
        for column in columns.columns_mut() {
            for (i, slot) in column.iter_mut().enumerate() {
                *slot = 1.0 + i as f64;
            }
        }
        columns.begin(4);
        for column in columns.columns_mut() {
            assert_eq!(column.len(), 4);
            assert!(column.iter().all(|&v| v == 0.0), "stale value survived");
        }
        // Growing past the previous length also zero-fills.
        columns.begin(12);
        assert_eq!(columns.outlet.len(), 12);
        assert!(columns.outlet.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn layout_defaults_to_columns() {
        assert_eq!(EngineLayout::default(), EngineLayout::Columns);
        assert_ne!(EngineLayout::Scalar, EngineLayout::Columns);
    }
}
