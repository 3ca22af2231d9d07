//! Clean fixture: idiomatic H2P library code that every rule accepts.

#![forbid(unsafe_code)]

/// Quantities cross the boundary as newtypes (L1-clean).
pub fn inlet_temperature(&self) -> Celsius {
    self.inlet
}

/// Fallible paths return typed errors (L2-clean).
pub fn coolant(&self, id: NodeId) -> Result<Celsius, ThermalError> {
    self.nodes.get(id.0).map(|n| n.temperature).ok_or(ThermalError::UnknownNode(id))
}

/// A justified cast is waived in place (L3-clean via allow comment).
pub fn mean(samples: &[f64]) -> f64 {
    let n = samples.len() as f64; // h2p-lint: allow(L3): exact for n < 2^53
    samples.iter().sum::<f64>() / n.max(1.0)
}

/// NaN-rejecting validation uses the `!(x > 0.0)` idiom (L5-clean).
pub fn validate(value: f64) -> bool {
    !(value > 0.0)
}

/// A kernel event queue holds ordered data in a `BTreeMap`, so the
/// forced re-evaluation schedule visits steps in step order on every
/// run (L8-clean; any step-keyed event feed must iterate in order).
pub fn forced_steps(forced: &BTreeMap<usize, Vec<usize>>) -> Vec<usize> {
    forced.keys().copied().collect()
}
