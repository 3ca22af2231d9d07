//! Deliberate L8 violations: folding over hash-ordered containers.
//! Each iteration below visits entries in the hasher's per-process
//! random order, so any result built from it differs run to run.

use std::collections::{HashMap, HashSet};

pub struct Ledger {
    entries: HashMap<u64, f64>,
}

impl Ledger {
    /// Violation: the sum's rounding error depends on visit order.
    pub fn total(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Violation: `for … in` over the map.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, value) in &self.entries {
            out.push_str(&format!("{id}={value};"));
        }
        out
    }

    /// Not a violation: keyed lookup has no order.
    pub fn get(&self, id: u64) -> Option<f64> {
        self.entries.get(&id).copied()
    }
}

/// Violation: draining a set in hash order.
pub fn drain_ids(seen: &mut HashSet<u64>) -> Vec<u64> {
    seen.drain().collect()
}

/// Waived: the collected keys are sorted before anything folds over
/// them, which restores determinism.
pub fn sorted_ids(seen: &HashSet<u64>) -> Vec<u64> {
    let mut ids: Vec<u64> = seen.iter().copied().collect(); // h2p-lint: allow(L8): sorted on the next line
    ids.sort_unstable();
    ids
}

/// Violation: a kernel-style forced-event queue held in a `HashMap`.
/// Draining `step → circulations` in hash order would make the
/// re-evaluation schedule (and hence every downstream fold) differ
/// run to run; such a queue must be a `BTreeMap` (or a sorted `Vec`),
/// so steps drain in step order on every run.
pub struct EventQueue {
    forced: HashMap<usize, Vec<usize>>,
}

impl EventQueue {
    /// Violation: steps visit in the hasher's per-process order.
    pub fn drain_schedule(&self) -> Vec<(usize, Vec<usize>)> {
        self.forced
            .iter()
            .map(|(step, circs)| (*step, circs.clone()))
            .collect()
    }
}
