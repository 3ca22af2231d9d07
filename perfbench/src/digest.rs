//! Result fingerprints and the harvest figure every engine workload
//! reports.

use h2p_core::simulation::SimulationResult;

/// FNV-1a over the raw bits of every field of every step record: two
/// digests are equal iff the runs are bit-identical (up to hash
/// collisions).
#[must_use]
pub fn result_digest(result: &SimulationResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(result.servers() as u64);
    eat(result.steps().len() as u64);
    for s in result.steps() {
        eat(s.time.value().to_bits());
        eat(s.teg_power_per_server.value().to_bits());
        eat(s.cpu_power_per_server.value().to_bits());
        eat(s.pump_power_per_server.value().to_bits());
        eat(s.cooling_power_per_server.value().to_bits());
        eat(s.mean_inlet.value().to_bits());
        eat(s.mean_outlet.value().to_bits());
        eat(s.mean_utilization.value().to_bits());
        eat(s.peak_utilization.value().to_bits());
        eat(s.thermal_violations as u64);
    }
    h
}

/// Time-mean per-server TEG power, in W (0 for an empty run).
#[must_use]
pub fn mean_teg_w(result: &SimulationResult) -> f64 {
    result.average_teg_power().map_or(0.0, |w| w.value())
}

/// Time-mean per-server pump power, in W, summed in step order like
/// the engine's own averages (0 for an empty run).
#[must_use]
pub fn mean_pump_w(result: &SimulationResult) -> f64 {
    let steps = result.steps();
    if steps.is_empty() {
        return 0.0;
    }
    let total: f64 = steps.iter().map(|s| s.pump_power_per_server.value()).sum();
    total / steps.len() as f64
}

/// Net harvest: mean TEG power minus mean pump power per server, in W.
#[must_use]
pub fn net_harvest_w(result: &SimulationResult) -> f64 {
    mean_teg_w(result) - mean_pump_w(result)
}
