//! explore-general: the paper's headline general-purpose flow (§4.2),
//! `Explorer::general_purpose()` at its defaults, one fresh evaluator
//! per exploration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use archdse::{extract_rules, CoreConfig, DesignPoint, Explorer, Rule, RuleExtractionConfig};
use dse_exec::{CostLedger, LedgerSummary};
use dse_mfrl::{
    rollout, train_on_episode, Constraint as _, HfPhase, HfPhaseConfig, LfPhase, LfPhaseConfig,
    LowFidelity as _, ReinforceConfig, EPSILON,
};
use dse_sim::ReferenceSimulator;
use dse_space::Param;
use dse_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timed::{Layer, TimedConstraint, TimedHf, TimedLf};
use crate::{mean, median, ms, percentile, Outcome};

/// The fixed exploration seeds of one round. Work varies about 5 %
/// between seeds, so every round runs all of them and `--seed` only
/// rotates their order.
const SEEDS: [u64; 4] = [1, 2, 3, 4];

// `Explorer::general_purpose()` defaults, restated for the phase-level
// traced run and the independent checks.
const LF_EPISODES: usize = 300;
const HF_BUDGET: usize = 9;
const TRACE_LEN: usize = 30_000;
const AREA_MM2: f64 = 8.0;

/// Episodes rolled out to time `Fnn::forward` and `train_on_episode`.
const POLICY_EPISODES: usize = 40;

/// Everything a traced exploration must reproduce bit-exactly.
#[derive(Debug, Clone, PartialEq)]
struct Found {
    best_point: DesignPoint,
    best_cpi: f64,
    history: Vec<(DesignPoint, f64)>,
    hf_evaluations: usize,
    ledger: LedgerSummary,
    rules: Vec<Rule>,
}

struct Untraced {
    setup: Duration,
    explore: Duration,
    found: Found,
}

struct Traced {
    found: Found,
    trace_build: Duration,
    total: Duration,
    lf_phase: Duration,
    hf_phase: Duration,
    rules: Duration,
    /// Mask, CPI and feasibility time spent inside the LF phase.
    lf_layers: Duration,
    mask: (Duration, u64),
    cpi: (Duration, u64),
    fits: (Duration, u64),
    sim: (Duration, u64),
}

fn explorer(seed: u64) -> Explorer {
    Explorer::general_purpose().seed(seed)
}

fn seed_order(seed: u64) -> Vec<u64> {
    let mut order = SEEDS.to_vec();
    order.rotate_left((seed % SEEDS.len() as u64) as usize);
    order
}

fn untraced(seed: u64) -> Untraced {
    let explorer = explorer(seed);
    let started = Instant::now();
    let mut hf = explorer.hf_evaluator();
    black_box(explorer.lf_model());
    let setup = started.elapsed();
    let started = Instant::now();
    let report = explorer.run_with_hf(&mut hf);
    let explore = started.elapsed();
    let found = Found {
        best_point: report.best_point,
        best_cpi: report.best_cpi,
        history: report.hf.history,
        hf_evaluations: report.hf.evaluations,
        ledger: report.ledger.summary(),
        rules: report.rules,
    };
    Untraced { setup, explore, found }
}

/// The same flow as `Explorer::run_with_hf`, driven phase by phase with
/// timing wrappers around the LF model, the constraint and the HF
/// evaluator.
fn traced_run(seed: u64) -> Traced {
    let explorer = explorer(seed);
    let space = explorer.space();
    let started = Instant::now();
    let hf = explorer.hf_evaluator();
    let trace_build = started.elapsed();

    let started = Instant::now();
    let lf = TimedLf::new(explorer.lf_model());
    let constraint = TimedConstraint::new(explorer.constraints());
    let mut hf = TimedHf::new(hf);
    let mut fnn = explorer.build_fnn();
    let mut ledger = CostLedger::new();

    let phase = Instant::now();
    let lf_config = LfPhaseConfig { episodes: LF_EPISODES, seed, ..Default::default() };
    let lf_outcome = LfPhase::new(lf_config).run(&mut fnn, space, &lf, &constraint, &mut ledger);
    let lf_phase = phase.elapsed();
    let lf_layers = lf.mask.busy() + lf.cpi.busy() + constraint.fits.busy();

    let phase = Instant::now();
    let hf_config = HfPhaseConfig { budget: HF_BUDGET, seed: seed ^ 0xA5, ..Default::default() };
    let hf_outcome = HfPhase::new(hf_config).run(
        &mut fnn,
        space,
        &lf,
        &mut hf,
        &constraint,
        &lf_outcome,
        &mut ledger,
    );
    let hf_phase = phase.elapsed();

    let phase = Instant::now();
    let rules = extract_rules(&fnn, &RuleExtractionConfig::default());
    let rules_time = phase.elapsed();
    let total = started.elapsed();

    let layer = |l: &Layer| (l.busy(), l.count());
    Traced {
        found: Found {
            best_point: hf_outcome.best_point,
            best_cpi: hf_outcome.best_cpi,
            history: hf_outcome.history,
            hf_evaluations: hf_outcome.evaluations,
            ledger: ledger.summary(),
            rules,
        },
        trace_build,
        total,
        lf_phase,
        hf_phase,
        rules: rules_time,
        lf_layers,
        mask: layer(&lf.mask),
        cpi: layer(&lf.cpi),
        fits: layer(&constraint.fits),
        sim: layer(&hf.batch),
    }
}

/// Mean simulated CPI of `point` over the explorer's six traces, by the
/// cycle-by-cycle reference simulator instead of the production kernel.
fn reference_cpi(seed: u64, point: &DesignPoint) -> f64 {
    let explorer = explorer(seed);
    let config = CoreConfig::from_point(explorer.space(), point);
    let benchmarks = explorer.benchmarks();
    let sum: f64 = benchmarks
        .iter()
        .map(|b| {
            // The trace `Explorer::hf_evaluator` draws for this seed.
            let trace = b.trace_scaled(TRACE_LEN, seed ^ 0x51, 1.0);
            ReferenceSimulator::new(config.clone()).run(&trace).cpi()
        })
        .sum();
    sum / benchmarks.len() as f64
}

/// Checks one exploration's result against properties the method must
/// have and against the reference simulator.
fn check(seed: u64, found: &Found, out: &mut Outcome) {
    let explorer = explorer(seed);
    let space = explorer.space();
    let area = explorer.area().area_mm2(space, &found.best_point);
    out.check(area <= AREA_MM2 && explorer.constraints().fits(space, &found.best_point), || {
        format!("seed {seed}: best design has {area} mm² > {AREA_MM2} mm²")
    });
    out.check(
        found.hf_evaluations <= HF_BUDGET
            && found.hf_evaluations as u64 == found.ledger.high.evaluations
            && found.history.len() == found.hf_evaluations,
        || {
            format!(
                "seed {seed}: {} HF simulations, ledger counts {}, budget {HF_BUDGET}",
                found.hf_evaluations, found.ledger.high.evaluations
            )
        },
    );
    let history_min = found.history.iter().map(|(_, c)| *c).min_by(f64::total_cmp);
    out.check(history_min == Some(found.best_cpi), || {
        format!(
            "seed {seed}: best CPI {} is not the HF history minimum {history_min:?}",
            found.best_cpi
        )
    });
    let reference = reference_cpi(seed, &found.best_point);
    out.check(reference.to_bits() == found.best_cpi.to_bits(), || {
        format!("seed {seed}: best CPI {} != reference simulator {reference}", found.best_cpi)
    });
}

/// Runs whole rounds over every seed until `seconds` have passed.
fn untraced_rounds(order: &[u64], seconds: f64) -> Vec<Vec<Untraced>> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        rounds.push(order.iter().map(|&s| untraced(s)).collect());
    }
    rounds
}

/// Checks every result of the first round, and that later rounds
/// reproduce it bit-exactly.
fn check_rounds(order: &[u64], rounds: &[Vec<Untraced>], out: &mut Outcome) {
    for (i, &seed) in order.iter().enumerate() {
        let first = &rounds[0][i].found;
        check(seed, first, out);
        for round in &rounds[1..] {
            out.check(round[i].found == *first, || format!("seed {seed}: a later round differs"));
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let order = seed_order(seed);
    if trace {
        run_traced(&order, seconds, out);
        return;
    }
    let rounds = untraced_rounds(&order, seconds);
    out.ops(rounds.iter().map(|r| r.len() as u64).sum(), 0);
    check_rounds(&order, &rounds, out);

    let round_means: Vec<f64> = rounds
        .iter()
        .map(|r| mean(&r.iter().map(|u| u.explore.as_secs_f64()).collect::<Vec<_>>()))
        .collect();
    let round_rates: Vec<f64> = rounds
        .iter()
        .map(|r| {
            r.len() as f64 / r.iter().map(|u| (u.setup + u.explore).as_secs_f64()).sum::<f64>()
        })
        .collect();
    let all: Vec<&Untraced> = rounds.iter().flatten().collect();
    let latencies: Vec<f64> = all.iter().map(|u| ms(u.explore)).collect();
    let setups: Vec<f64> = all.iter().map(|u| u.setup.as_secs_f64()).collect();
    out.metric("explore_s", median(&round_means));
    out.metric("best_cpi", mean(&rounds[0].iter().map(|u| u.found.best_cpi).collect::<Vec<_>>()));
    out.metric("latency_p50_ms", median(&latencies));
    out.metric("latency_p90_ms", percentile(&latencies, 0.9));
    out.metric("throughput_rps", median(&round_rates));
    out.metric("setup_s", median(&setups));
}

/// Per-call time of `Fnn::forward` and `train_on_episode`, in µs, on
/// episodes from the public `rollout` against the LF model.
fn policy_costs(seed: u64) -> (f64, f64) {
    let explorer = explorer(seed);
    let space = explorer.space();
    let lf = explorer.lf_model();
    let constraints = explorer.constraints();
    let mut fnn = explorer.build_fnn();
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ReinforceConfig::default();
    let (mut forward, mut reinforce) = (Vec::new(), Vec::new());
    for _ in 0..POLICY_EPISODES {
        let episode = rollout(&fnn, space, &lf, &constraints, space.smallest(), true, &mut rng);
        let mut point = space.smallest();
        for step in &episode.steps {
            let obs = fnn.observation(space, &point, lf.cpi(space, &point));
            let started = Instant::now();
            black_box(fnn.forward(black_box(&obs)));
            forward.push(started.elapsed().as_secs_f64() * 1e6);
            let param = Param::from_index(step.action).expect("actions index Param::ALL");
            point = point.increased(space, param).expect("episode actions stay in range");
        }
        let started = Instant::now();
        train_on_episode(&mut fnn, black_box(&episode), EPSILON, &config);
        reinforce.push(started.elapsed().as_secs_f64() * 1e6);
    }
    (median(&forward), median(&reinforce))
}

fn run_traced(order: &[u64], seconds: f64, out: &mut Outcome) {
    // Each seed runs untraced and then traced, so host drift hits both alike.
    let started = Instant::now();
    let (mut rounds, mut traced) = (Vec::new(), Vec::new());
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let pairs = order.iter().map(|&s| (untraced(s), traced_run(s)));
        let (u, t): (Vec<Untraced>, Vec<Traced>) = pairs.unzip();
        rounds.push(u);
        traced.push(t);
    }
    out.ops(2 * rounds.iter().map(|r| r.len() as u64).sum::<u64>(), 0);
    check_rounds(order, &rounds, out);
    for (i, &seed) in order.iter().enumerate() {
        for round in &traced {
            out.check(round[i].found == rounds[0][i].found, || {
                format!("seed {seed}: the traced exploration differs from the untraced one")
            });
        }
    }

    let all: Vec<&Traced> = traced.iter().flatten().collect();
    let per = |f: &dyn Fn(&Traced) -> f64| mean(&all.iter().map(|t| f(t)).collect::<Vec<_>>());
    let untraced_ms = mean(&rounds.iter().flatten().map(|u| ms(u.explore)).collect::<Vec<_>>());
    let traced_ms = per(&|t| ms(t.total));
    let sim_s: f64 = all.iter().map(|t| t.sim.0.as_secs_f64()).sum();
    let sim_designs: u64 = all.iter().map(|t| t.sim.1).sum();
    let instrs = sim_designs as f64 * (Benchmark::ALL.len() * TRACE_LEN) as f64;
    let (forward_us, reinforce_us) = policy_costs(order[0]);

    out.metric("workloads.trace_build_ms", per(&|t| ms(t.trace_build)));
    out.metric("mfrl.lf_phase_ms", per(&|t| ms(t.lf_phase)));
    out.metric("analytical.mask_ms", per(&|t| ms(t.mask.0)));
    out.metric("analytical.mask_calls", per(&|t| t.mask.1 as f64));
    out.metric("analytical.cpi_ms", per(&|t| ms(t.cpi.0)));
    out.metric("analytical.cpi_calls", per(&|t| t.cpi.1 as f64));
    out.metric("area.fits_ms", per(&|t| ms(t.fits.0)));
    out.metric("area.fits_calls", per(&|t| t.fits.1 as f64));
    out.metric("mfrl.policy_ms", per(&|t| ms(t.lf_phase.saturating_sub(t.lf_layers))));
    out.metric("fnn.forward_us", forward_us);
    out.metric("mfrl.reinforce_us", reinforce_us);
    out.metric("mfrl.hf_phase_ms", per(&|t| ms(t.hf_phase)));
    out.metric("fnn.rules_ms", per(&|t| ms(t.rules)));
    out.metric("sim.batch_ms", per(&|t| ms(t.sim.0)));
    out.metric("sim.designs", per(&|t| t.sim.1 as f64));
    out.metric("sim.minstr_per_s", instrs / sim_s.max(f64::MIN_POSITIVE) / 1e6);
    out.metric("ledger.lf_evals", per(&|t| t.found.ledger.low.evaluations as f64));
    out.metric("ledger.hf_evals", per(&|t| t.found.ledger.high.evaluations as f64));
    out.metric("ledger.hf_hits", per(&|t| t.found.ledger.high.cache_hits as f64));
    out.metric(
        "explore.unattributed_ms",
        per(&|t| ms(t.total.saturating_sub(t.lf_phase + t.hf_phase + t.rules))),
    );
    out.metric("trace.overhead_pct", 100.0 * (traced_ms - untraced_ms) / untraced_ms);
}
