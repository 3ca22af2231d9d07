//! In-process probes of the serving layers, `h2p-serve` and
//! `h2p-gateway`, made by the traced `paper-sweep` run.
//!
//! The probe draws a request mix from a Zipf (s = 1) popularity over a
//! few thousand seed-varied 200 × 24 scenarios: 60 % healthy runs (both
//! scheduling policies), 20 % fault-injected runs and 20 % placement
//! runs (`round_robin`, `coolest_first`), so result-cache hits exercise
//! the serving layers while misses run the engine. It times
//! `RequestParser`, `Gateway::route`, `Gateway::handle` (hit and miss)
//! on a gateway of two replicas, then `ScenarioService` submit and
//! drain and `canonical_body` on a bare service. Afterwards every body
//! served is compared byte for byte with `direct_canonical_body`.

use crate::metrics::Outcome;
use crate::spans::SpanLog;
use crate::stats::{median, ratio};
use h2p_gateway::{
    canonical_body, direct_canonical_body, Gateway, GatewayConfig, HttpLimits, RequestParser,
    ZipfSampler,
};
use h2p_serve::protocol::{parse_line, Command};
use h2p_serve::{Admission, ScenarioKey, ScenarioRequest, ScenarioService, ServiceConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// Distinct scenarios in the Zipf universe.
pub const KEYS: usize = 3000;
/// Zipf exponent of scenario popularity.
pub const ZIPF_S: f64 = 1.0;
/// Servers per scenario.
pub const SCENARIO_SERVERS: usize = 200;
/// Control intervals per scenario.
pub const SCENARIO_STEPS: usize = 24;
/// Shard-local service replicas.
pub const REPLICAS: usize = 2;
/// Result-cache capacity per replica, in outcomes.
pub const CACHE_CAPACITY: usize = 512;
/// Requests in the probed mix.
pub const SAMPLE: usize = 300;

/// The JSON request line of scenario `rank` in the universe of `seed`.
#[must_use]
pub fn scenario_line(seed: u64, rank: usize) -> String {
    let trace_seed = seed.wrapping_mul(1_000_003).wrapping_add(rank as u64);
    let mut fields = format!(
        "\"cmd\":\"run\",\"trace\":\"common\",\"seed\":{trace_seed},\"servers\":{SCENARIO_SERVERS},\"steps\":{SCENARIO_STEPS}"
    );
    let policy = if rank.is_multiple_of(2) {
        "load_balance"
    } else {
        "original"
    };
    match rank % 10 {
        6 | 7 => fields.push_str(&format!(",\"policy\":\"{policy}\",\"faults\":{trace_seed}")),
        8 => fields.push_str(",\"policy\":\"load_balance\",\"placement\":\"round_robin\""),
        9 => fields.push_str(",\"policy\":\"original\",\"placement\":\"coolest_first\""),
        _ => fields.push_str(&format!(",\"policy\":\"{policy}\"")),
    }
    format!("{{{fields}}}")
}

/// Parses a scenario line into its request.
///
/// # Errors
///
/// Lines that are not run requests.
pub fn scenario_request(line: &str) -> Result<ScenarioRequest, String> {
    match parse_line(line)? {
        Command::Run(request) => Ok(*request),
        _ => Err(format!("not a run request: {line}")),
    }
}

/// The bytes of an HTTP/1.1 `POST /run` carrying `body`.
#[must_use]
pub fn post_run(body: &str) -> Vec<u8> {
    format!(
        "POST /run HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The gateway configuration under test.
#[must_use]
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        replicas: NonZeroUsize::new(REPLICAS).unwrap_or(NonZeroUsize::MIN),
        service: service_config(),
        ..GatewayConfig::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        cache_capacity: CACHE_CAPACITY,
        dispatch_workers: NonZeroUsize::MIN,
        ..ServiceConfig::default()
    }
}

/// Bodies served by the probe, by scenario, for the check against
/// `direct_canonical_body`.
type Served = Vec<(ScenarioKey, Vec<u8>)>;

/// Times the serving layers in-process on [`SAMPLE`] requests of the
/// scenario mix of `seed`, sets the `gateway.*` and `serve.*` metrics,
/// and checks every body served against `direct_canonical_body`.
///
/// # Errors
///
/// Request lines that do not parse (a bug of this module).
pub fn probe_layers(seed: u64, log: &mut SpanLog, out: &mut Outcome) -> Result<(), String> {
    let mut zipf = ZipfSampler::new(
        NonZeroUsize::new(KEYS).unwrap_or(NonZeroUsize::MIN),
        ZIPF_S,
        seed ^ 0x7a69_7066,
    );
    let lines: Vec<String> = (0..SAMPLE)
        .map(|_| scenario_line(seed, zipf.sample()))
        .collect();
    let requests: Vec<ScenarioRequest> = lines
        .iter()
        .map(|l| scenario_request(l))
        .collect::<Result<_, _>>()?;
    let mut served = Served::new();
    let gateway = time_gateway_layers(&lines, &requests, log, out, &mut served)?;
    serving_counters(&gateway, out);
    time_serve_layers(&requests, log, out, &mut served);
    check_direct(&requests, &served, out);
    Ok(())
}

/// Every served body must equal `direct_canonical_body` of its
/// request byte for byte: one operation per body.
fn check_direct(requests: &[ScenarioRequest], served: &Served, out: &mut Outcome) {
    let mut direct: BTreeMap<ScenarioKey, Result<Vec<u8>, String>> = BTreeMap::new();
    for request in requests {
        direct.entry(request.key()).or_insert_with(|| {
            direct_canonical_body(request)
                .map(String::into_bytes)
                .map_err(|e| e.to_string())
        });
    }
    for (key, body) in served {
        let expected = direct.get(key);
        out.op(
            matches!(expected, Some(Ok(e)) if e == body),
            || match expected {
                Some(Err(e)) => format!("{key:?}: direct run failed: {e}"),
                None => format!("{key:?}: served but never requested"),
                Some(Ok(_)) => format!("{key:?}: body differs from direct_canonical_body"),
            },
        );
    }
}

/// Result-cache, coalescing, and shard-balance counters of `gateway`'s
/// replicas.
fn serving_counters(gateway: &Gateway, out: &mut Outcome) {
    let stats = gateway.stats();
    let shards = stats
        .get("shards")
        .and_then(Value::as_array)
        .unwrap_or_default();
    let field = |name: &str| -> Vec<f64> {
        shards
            .iter()
            .map(|s| s.get(name).and_then(Value::as_f64).unwrap_or(0.0))
            .collect()
    };
    let submitted = field("submitted");
    let max = submitted.iter().copied().fold(0.0, f64::max);
    out.set(
        "gateway.shard_skew",
        ratio(max, crate::stats::mean(&submitted)),
    );
    let hits: f64 = field("cache_hits").iter().sum();
    let misses: f64 = field("cache_misses").iter().sum();
    out.set("serve.hit_ratio", ratio(hits, hits + misses));
    out.set("serve.coalesced", field("coalesced").iter().sum());
    out.set("serve.runs_executed", field("runs_executed").iter().sum());
    out.detail("gateway_stats", stats);
}

/// Times HTTP parse, ring routing and `Gateway::handle` (hit and miss)
/// in-process on a fresh gateway, over the request mix; returns that
/// gateway and adds every 200 body to `served`.
fn time_gateway_layers(
    lines: &[String],
    requests: &[ScenarioRequest],
    log: &mut SpanLog,
    out: &mut Outcome,
    served: &mut Served,
) -> Result<Gateway, String> {
    let gateway = Gateway::new(gateway_config());
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (i, (line, scenario)) in lines.iter().zip(requests).enumerate() {
        let id = i as u64;
        let bytes = post_run(line);
        let t0 = log.now();
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.push(&bytes);
        let request = parser
            .next_request()
            .map_err(|e| e.to_string())?
            .ok_or("incomplete request")?;
        let t1 = log.now();
        log.record("gateway.parse", None, id, t0, t1);
        let key = scenario.key();
        let t2 = log.now();
        let _shard = gateway.route(&key);
        let t3 = log.now();
        log.record("gateway.route", None, id, t2, t3);
        let response = gateway.handle(&request);
        let t4 = log.now();
        log.record("gateway.handle", None, id, t3, t4);
        let cached = response
            .headers
            .iter()
            .any(|(k, v)| k == "x-h2p-provenance" && v == "cached");
        out.op(response.status == 200, || {
            format!("in-process request {i}: status {}", response.status)
        });
        if response.status == 200 {
            served.push((key, response.body));
        }
        let ns = t4.saturating_sub(t3) as f64;
        if cached {
            hits.push(ns);
        } else {
            misses.push(ns);
        }
    }
    out.set("gateway.parse_ns", median(&log.durations("gateway.parse")));
    out.set("gateway.route_ns", median(&log.durations("gateway.route")));
    out.set("gateway.handle_hit_us", median(&hits) / 1e3);
    out.set("gateway.handle_miss_ms", median(&misses) / 1e6);
    Ok(gateway)
}

/// Submits the mix to a bare `ScenarioService` in batches of four and
/// drains after each batch, timing submit, drain, and `canonical_body`
/// as spans; adds every body to `served`.
fn time_serve_layers(
    requests: &[ScenarioRequest],
    log: &mut SpanLog,
    out: &mut Outcome,
    served: &mut Served,
) {
    let service = ScenarioService::new(service_config());
    for (b, batch) in requests.chunks(4).enumerate() {
        let id = b as u64;
        for request in batch {
            let t0 = log.now();
            let admission = service.submit(request.clone());
            let t1 = log.now();
            log.record("serve.submit", None, id, t0, t1);
            out.op(matches!(admission, Admission::Enqueued { .. }), || {
                "in-process submit was rejected".to_owned()
            });
        }
        let t0 = log.now();
        let responses = service.drain();
        let t1 = log.now();
        log.record("serve.drain", None, id, t0, t1);
        for response in responses {
            match &response.served {
                Ok(scenario) => {
                    let t2 = log.now();
                    let body = canonical_body(&response.key, &scenario.output);
                    let t3 = log.now();
                    log.record("gateway.serialize", None, id, t2, t3);
                    served.push((response.key.clone(), body.into_bytes()));
                }
                Err(e) => out.op(false, || format!("in-process drain: {e}")),
            }
        }
    }
    out.set(
        "serve.submit_us",
        median(&log.durations("serve.submit")) / 1e3,
    );
    out.set(
        "serve.drain_ms",
        median(&log.durations("serve.drain")) / 1e6,
    );
    out.set(
        "gateway.serialize_us",
        median(&log.durations("gateway.serialize")) / 1e3,
    );
}
