//! Result digests committed with the benchmark.
//!
//! `reference.json` next to this crate holds, per workload, the digest
//! of every run of a fixed-seed reference set (each workload's
//! [`crate::engine::EngineWorkload::reference_runs`]). Every run of the
//! benchmark recomputes that set and compares it with the committed
//! digests, so a change to the program's results fails the benchmark
//! even when it moves every layout and driver together.
//!
//! After an intended change of results, regenerate the file with
//! `perfbench --print-reference` (see `README.md`).

use crate::metrics::Outcome;
use serde_json::Value;
use std::collections::BTreeMap;

/// The committed digests.
const STORED: &str = include_str!("../reference.json");

/// The seed every reference run generates its inputs from.
///
/// # Errors
///
/// A `reference.json` without a numeric `seed`.
pub fn seed() -> Result<u64, String> {
    parse()?
        .get("seed")
        .and_then(Value::as_f64)
        .filter(|s| s.fract() == 0.0 && *s >= 0.0)
        .map(|s| s as u64)
        .ok_or_else(|| "reference.json has no seed".to_owned())
}

fn parse() -> Result<Value, String> {
    serde_json::from_str(STORED).map_err(|e| format!("reference.json: {e}"))
}

/// The committed digests of `workload`, by run name (empty when the
/// workload has none).
///
/// # Errors
///
/// A malformed `reference.json`.
pub fn stored(workload: &str) -> Result<BTreeMap<String, u64>, String> {
    let file = parse()?;
    let Some(runs) = file.get(workload) else {
        return Ok(BTreeMap::new());
    };
    let runs = runs
        .as_object()
        .ok_or_else(|| format!("reference.json: {workload} is not an object"))?;
    runs.iter()
        .map(|(name, digest)| {
            let hex = digest.as_str().unwrap_or_default();
            u64::from_str_radix(hex, 16)
                .map(|d| (name.clone(), d))
                .map_err(|e| format!("reference.json: {workload}/{name}: {e}"))
        })
        .collect()
}

/// The text of a `reference.json` for `seed` and each workload's
/// reference runs.
#[must_use]
pub fn render(seed: u64, workloads: &[(&str, Vec<(String, u64)>)]) -> String {
    let mut text = format!("{{\n  \"seed\": {seed}");
    for (workload, runs) in workloads {
        text.push_str(&format!(",\n  \"{workload}\": {{"));
        for (i, (name, digest)) in runs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            text.push_str(&format!("{sep}\n    \"{name}\": \"{digest:016x}\""));
        }
        text.push_str("\n  }");
    }
    text.push_str("\n}");
    text
}

/// Compares `runs` with the committed digests of `workload`: one
/// operation per name in either set, failed unless both hold it with
/// the same digest. With `corrupt`, one bit of every committed digest
/// is flipped first, so every operation must fail.
pub fn check(workload: &str, runs: &[(String, u64)], corrupt: bool, out: &mut Outcome) {
    let stored = match stored(workload) {
        Ok(stored) => stored,
        Err(e) => return out.op(false, || e),
    };
    let flip = u64::from(corrupt);
    let computed: BTreeMap<&str, u64> = runs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let mut names: Vec<&str> = stored.keys().map(String::as_str).collect();
    names.extend(computed.keys());
    names.sort_unstable();
    names.dedup();
    for name in names {
        let expected = stored.get(name).map(|d| d ^ flip);
        let got = computed.get(name).copied();
        out.op(expected.is_some() && expected == got, || {
            let hex =
                |d: Option<u64>| d.map_or_else(|| "(none)".to_owned(), |d| format!("{d:016x}"));
            format!(
                "{workload} reference {name}: digest {} does not match the committed {}",
                hex(got),
                hex(expected)
            )
        });
    }
}
