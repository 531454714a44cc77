//! serve-hf and serve-lf: an in-process server (`archdse_serve::spawn`)
//! with the default template, driven over HTTP by closed-loop keep-alive
//! clients (`archdse_serve::client`).
//!
//! Every round spawns a fresh server and sends it the same fixed request
//! sequence, so every round does identical work and no design is ever
//! answered from a memo.

use std::collections::HashSet;
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use archdse::{CoreConfig, Explorer};
use archdse_serve::{client, spawn, EvaluateResponse, MetricsResponse, ServeConfig};
use dse_mfrl::LowFidelity as _;
use dse_sim::ReferenceSimulator;
use dse_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{median, ms, percentile, Outcome};

/// One traffic mix: closed-loop clients, each sending a fixed count of
/// evaluate requests of fresh designs at one fidelity.
pub struct Mix {
    clients: usize,
    requests_per_client: usize,
    points: usize,
    fidelity: &'static str,
}

/// Two clients of 8-design HF requests: each 2 ms gather window
/// coalesces both into one 16-design batch (fewer than
/// `max_batch_points`), simulated in packs of 8.
pub const SERVE_HF: Mix = Mix { clients: 2, requests_per_client: 50, points: 8, fidelity: "hf" };

/// One client of 256-point LF requests: each request fills
/// `max_batch_points` and closes its own window, so no gather sleep is
/// timed and the front end does most of the work.
pub const SERVE_LF: Mix = Mix { clients: 1, requests_per_client: 50, points: 256, fidelity: "lf" };

/// Instructions in the template's (mm) trace: the `archdse serve` default.
const TRACE_LEN: usize = 10_000;
/// The template explorer's seed, which also seeds its trace.
const TEMPLATE_SEED: u64 = 0;
/// Enough served requests that at least ten fall beyond the printed p99.
const MIN_LATENCY_SAMPLES: usize = 1_000;
/// Seed of the fixed design sequence; `--seed` only permutes it.
const DESIGN_SEED: u64 = 0xD5E_0001;
/// HF answers re-simulated by the reference simulator per run.
const REFERENCE_SAMPLE: usize = 16;
const TRACE_HEADER: &str = "X-ArchDSE-Trace";
/// Longest wait for a freshly spawned server to answer `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

fn template() -> Explorer {
    Explorer::for_benchmark(Benchmark::Mm).trace_len(TRACE_LEN).seed(TEMPLATE_SEED)
}

impl Mix {
    fn requests(&self) -> usize {
        self.clients * self.requests_per_client
    }

    /// The round's distinct design codes, request after request.
    fn designs(&self, space_size: u64, seed: u64) -> Vec<u64> {
        let n = self.requests() * self.points;
        let mut rng = StdRng::seed_from_u64(DESIGN_SEED);
        let mut seen = HashSet::with_capacity(n);
        let mut codes = Vec::with_capacity(n);
        while codes.len() < n {
            let code = rng.gen_range(0..space_size);
            if seen.insert(code) {
                codes.push(code);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            codes.swap(i, rng.gen_range(0..=i));
        }
        codes
    }
}

/// One request as its client saw it.
struct Reply {
    latency: Duration,
    status: u16,
    body: String,
    server_timing: Option<String>,
}

/// One round: a fresh server serving the whole request sequence.
struct Round {
    setup: Duration,
    wall: Duration,
    latencies: Vec<f64>,
    failed: u64,
    /// Served CPIs in design order (NaN where a request failed).
    cpis: Vec<f64>,
    /// `(client round trip in ms, Server-Timing value)` per traced reply.
    timings: Vec<(f64, String)>,
    before: MetricsResponse,
    after: MetricsResponse,
    /// `/debug/requests` after the round (traced rounds only).
    flight: Option<String>,
}

fn metrics(addr: &str) -> io::Result<MetricsResponse> {
    let r = client::get(addr, "/metrics")?;
    serde_json::from_str(&r.body).map_err(|e| io::Error::other(format!("bad /metrics: {e}")))
}

/// One client's share of the round, sent on one keep-alive connection.
fn client_loop(
    addr: &str,
    mix: &Mix,
    designs: &[u64],
    client_id: usize,
    traced: bool,
    start: &Barrier,
) -> Vec<Reply> {
    let mut conn = client::Conn::connect(addr).ok();
    start.wait();
    let mut replies = Vec::with_capacity(mix.requests_per_client);
    for i in 0..mix.requests_per_client {
        let request = client_id * mix.requests_per_client + i;
        let codes: Vec<String> = designs[request * mix.points..(request + 1) * mix.points]
            .iter()
            .map(u64::to_string)
            .collect();
        let body =
            format!("{{\"points\":[{}],\"fidelity\":\"{}\"}}", codes.join(","), mix.fidelity);
        let trace_id = traced.then(|| format!("pb{client_id}.{i}"));
        let headers: Vec<(&str, &str)> =
            trace_id.as_deref().map(|id| (TRACE_HEADER, id)).into_iter().collect();
        let started = Instant::now();
        let response = match conn.as_mut() {
            Some(conn) => conn.request_with("POST", "/v1/evaluate", Some(&body), &headers),
            None => Err(io::Error::other("not connected")),
        };
        let latency = started.elapsed();
        match response {
            Ok(r) => replies.push(Reply {
                latency,
                status: r.status,
                body: r.body,
                server_timing: r.server_timing,
            }),
            Err(_) => {
                replies.push(Reply {
                    latency,
                    status: 0,
                    body: String::new(),
                    server_timing: None,
                });
                conn = client::Conn::connect(addr).ok();
            }
        }
    }
    replies
}

/// Spawns a server, serves the request sequence once and shuts it down;
/// `traced` requests carry trace ids.
fn round(mix: &Mix, designs: &[u64], traced: bool, out: &mut Outcome) -> io::Result<Round> {
    let started = Instant::now();
    let server = spawn(ServeConfig::new(template()))?;
    let addr = server.addr().to_string();
    loop {
        if client::get(&addr, "/healthz").is_ok_and(|r| r.status == 200) {
            break;
        }
        if started.elapsed() > READY_TIMEOUT {
            server.shutdown();
            server.join();
            return Err(io::Error::other("server never answered /healthz with 200"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let setup = started.elapsed();

    let result = (|| {
        let before = metrics(&addr)?;
        let start = Barrier::new(mix.clients + 1);
        let (wall, replies) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..mix.clients)
                .map(|c| {
                    let (addr, start) = (&addr, &start);
                    scope.spawn(move || client_loop(addr, mix, designs, c, traced, start))
                })
                .collect();
            start.wait();
            let started = Instant::now();
            let replies: Vec<Reply> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("benchmark client panicked"))
                .collect();
            (started.elapsed(), replies)
        });
        let after = metrics(&addr)?;
        let flight = if traced { Some(client::get(&addr, "/debug/requests")?.body) } else { None };
        Ok::<_, io::Error>((wall, replies, before, after, flight))
    })();
    server.shutdown();
    server.join();
    let (wall, replies, before, after, flight) = result?;

    let mut cpis = vec![f64::NAN; designs.len()];
    let mut failed = 0;
    let mut timings = Vec::new();
    for (request, reply) in replies.iter().enumerate() {
        if reply.status != 200 {
            failed += 1;
            continue;
        }
        let codes = &designs[request * mix.points..(request + 1) * mix.points];
        match serde_json::from_str::<EvaluateResponse>(&reply.body) {
            Ok(r) if r.results.iter().map(|p| p.point).eq(codes.iter().copied()) => {
                for (slot, p) in cpis[request * mix.points..].iter_mut().zip(&r.results) {
                    *slot = p.cpi;
                }
            }
            _ => out.check(false, || {
                format!("request {request}: response does not answer its designs")
            }),
        }
        if let Some(value) = &reply.server_timing {
            timings.push((ms(reply.latency), value.clone()));
        }
    }
    let latencies = replies.iter().filter(|r| r.status == 200).map(|r| ms(r.latency)).collect();
    Ok(Round { setup, wall, latencies, failed, cpis, timings, before, after, flight })
}

/// Checks one round: every request served, `/metrics` deltas conserve
/// requests and points, and the CPIs equal `expected` bit-exactly.
fn check_round(mix: &Mix, round: &Round, expected: &[f64], out: &mut Outcome) {
    out.check(round.failed == 0, || format!("{} requests were not answered 200", round.failed));
    let (b, a) = (&round.before, &round.after);
    let requests = mix.requests() as u64;
    let points = requests * mix.points as u64;
    let section = |m: &MetricsResponse| match mix.fidelity {
        "hf" => m.ledger.high,
        _ => m.ledger.low,
    };
    out.check(
        a.coalescer.requests - b.coalescer.requests == requests
            && a.coalescer.points - b.coalescer.points == points
            && section(a).evaluations - section(b).evaluations == points,
        || {
            format!(
                "/metrics deltas: {} requests, {} coalesced points, {} ledger evaluations; \
                 expected {requests} requests of {} points",
                a.coalescer.requests - b.coalescer.requests,
                a.coalescer.points - b.coalescer.points,
                section(a).evaluations - section(b).evaluations,
                mix.points
            )
        },
    );
    let same = round.cpis.iter().zip(expected).all(|(x, y)| x.to_bits() == y.to_bits());
    out.check(same, || "a round's CPIs differ from the first round's".into());
}

/// Checks the served CPIs against computations made apart from the
/// server: the analytical model for LF, the reference simulator on the
/// template trace for a deterministic sample of HF answers.
fn check_answers(mix: &Mix, designs: &[u64], cpis: &[f64], out: &mut Outcome) {
    let explorer = template();
    let space = explorer.space();
    if mix.fidelity == "lf" {
        let lf = explorer.lf_model();
        let wrong = designs
            .iter()
            .zip(cpis)
            .filter(|(&code, cpi)| lf.cpi(space, &space.decode(code)).to_bits() != cpi.to_bits())
            .count();
        out.check(wrong == 0, || format!("{wrong} LF answers differ from AnalyticalLf::cpi"));
    } else {
        // The trace `Explorer::hf_evaluator` draws for the template.
        let trace = Benchmark::Mm.trace_scaled(TRACE_LEN, TEMPLATE_SEED ^ 0x51, 1.0);
        let step = designs.len() / REFERENCE_SAMPLE;
        for i in (0..designs.len()).step_by(step.max(1)).take(REFERENCE_SAMPLE) {
            let config = CoreConfig::from_point(space, &space.decode(designs[i]));
            let reference = ReferenceSimulator::new(config).run(&trace).cpi();
            out.check(reference.to_bits() == cpis[i].to_bits(), || {
                format!(
                    "design {}: served CPI {} != reference simulator {reference}",
                    designs[i], cpis[i]
                )
            });
        }
    }
}

/// One round, checked against `expected`, the first round's CPIs: the
/// first round fills it and is checked against computations made apart
/// from the server. Only the first round's CPIs are kept.
fn checked_round(
    mix: &Mix,
    designs: &[u64],
    traced: bool,
    expected: &mut Vec<f64>,
    out: &mut Outcome,
) -> io::Result<Round> {
    let mut r = round(mix, designs, traced, out)?;
    if expected.is_empty() {
        *expected = std::mem::take(&mut r.cpis);
        check_answers(mix, designs, expected, out);
    }
    check_round(mix, &r, expected, out);
    r.cpis = Vec::new();
    Ok(r)
}

pub fn run(mix: &Mix, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) -> io::Result<()> {
    let designs = mix.designs(template().space().size(), seed);
    if trace {
        return run_traced(mix, &designs, seconds, out);
    }
    let mut cpis = Vec::new();
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut samples = 0;
    while started.elapsed().as_secs_f64() < seconds || samples < MIN_LATENCY_SAMPLES {
        let r = checked_round(mix, &designs, false, &mut cpis, out)?;
        samples += r.latencies.len();
        rounds.push(r);
    }
    out.ops((rounds.len() * mix.requests()) as u64, rounds.iter().map(|r| r.failed).sum());

    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = walls.iter().map(|w| mix.requests() as f64 / w).collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let best = cpis.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("explore_s", median(&walls));
    out.metric("best_cpi", best);
    out.metric("latency_p50_ms", median(&latencies));
    out.metric("latency_p90_ms", percentile(&latencies, 0.9));
    // p99 tracks the VM's CPU steal too closely to gate (see README.md).
    println!(
        "latency p99 (not a metric): {:.3} ms over {} requests",
        percentile(&latencies, 0.99),
        latencies.len()
    );
    out.metric("throughput_rps", median(&rates));
    out.metric("setup_s", median(&setups));
    Ok(())
}

/// The `name;dur=<ms>` entry of a `Server-Timing` value.
fn phase_ms(value: &str, name: &str) -> Option<f64> {
    value.split(',').find_map(|part| {
        let (key, dur) = part.trim().split_once(";dur=")?;
        (key == name).then(|| dur.trim().parse().ok()).flatten()
    })
}

/// `write_us` of every evaluate request in a `/debug/requests` body, in ms.
fn write_ms(flight: &str) -> Vec<f64> {
    let Ok(body) = serde_json::from_str::<serde_json::Value>(flight) else { return Vec::new() };
    let Some(recent) = body.get("recent").and_then(|r| r.as_array()) else { return Vec::new() };
    recent
        .iter()
        .filter(|r| r.get("endpoint").and_then(|e| e.as_str()) == Some("evaluate"))
        .filter_map(|r| r.get("write_us").and_then(|w| w.as_u64()))
        .map(|us| us as f64 / 1e3)
        .collect()
}

fn run_traced(mix: &Mix, designs: &[u64], seconds: f64, out: &mut Outcome) -> io::Result<()> {
    // Untraced and traced rounds alternate, so host drift hits both alike.
    let mut cpis = Vec::new();
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        untraced.push(checked_round(mix, designs, false, &mut cpis, out)?);
        traced.push(checked_round(mix, designs, true, &mut cpis, out)?);
    }
    let failed = untraced.iter().chain(&traced).map(|r| r.failed).sum();
    out.ops((2 * untraced.len() * mix.requests()) as u64, failed);
    for r in &traced {
        out.check(r.timings.len() == mix.requests(), || {
            format!(
                "{} of {} traced replies carried Server-Timing",
                r.timings.len(),
                mix.requests()
            )
        });
    }

    let timings: Vec<&(f64, String)> = traced.iter().flat_map(|r| &r.timings).collect();
    let phase = |name: &str| {
        median(&timings.iter().filter_map(|(_, v)| phase_ms(v, name)).collect::<Vec<_>>())
    };
    let gaps: Vec<f64> =
        timings.iter().filter_map(|(rtt, v)| Some(rtt - phase_ms(v, "app")?)).collect();
    let writes: Vec<f64> =
        traced.iter().filter_map(|r| r.flight.as_deref()).flat_map(write_ms).collect();
    let delta = |f: &dyn Fn(&MetricsResponse) -> u64| -> f64 {
        traced.iter().map(|r| (f(&r.after) - f(&r.before)) as f64).sum()
    };
    let requests = delta(&|m| m.coalescer.requests);
    let batches = delta(&|m| m.coalescer.batches);
    let hf_designs = delta(&|m| m.ledger.high.evaluations);
    let exec_ms: f64 = timings.iter().filter_map(|(_, v)| phase_ms(v, "exec")).sum();
    // Every member of a coalesced batch reports the batch's exec time.
    let batch_exec_s = exec_ms / 1e3 * batches / requests.max(1.0);

    out.metric("serve.parse_ms", phase("parse"));
    out.metric("serve.queue_ms", phase("queue"));
    out.metric("serve.coalesce_ms", phase("coalesce"));
    out.metric("serve.exec_ms", phase("exec"));
    out.metric("serve.serialize_ms", phase("serialize"));
    out.metric("serve.write_ms", median(&writes));
    out.metric("client.gap_ms", median(&gaps));
    out.metric("serve.requests_per_batch", requests / batches.max(1.0));
    out.metric("serve.points_per_batch", delta(&|m| m.coalescer.points) / batches.max(1.0));
    out.metric("serve.hf_cache_hits", delta(&|m| m.hf_cache.hits) / requests.max(1.0));
    out.metric("ledger.lf_evals", delta(&|m| m.ledger.low.evaluations) / requests.max(1.0));
    out.metric("ledger.hf_evals", hf_designs / requests.max(1.0));
    out.metric("ledger.hf_hits", delta(&|m| m.ledger.high.cache_hits) / requests.max(1.0));
    if mix.fidelity == "hf" {
        out.metric("sim.batch_ms", phase("exec"));
        out.metric("sim.designs", hf_designs / requests.max(1.0));
        out.metric("sim.minstr_per_s", hf_designs * TRACE_LEN as f64 / batch_exec_s / 1e6);
    }
    let untraced_wall = median(&untraced.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
    out.metric("trace.overhead_pct", 100.0 * (traced_wall - untraced_wall) / untraced_wall);
    Ok(())
}
