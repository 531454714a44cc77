//! Timing wrappers around the values the MFRL phases are handed.
//!
//! Each wrapper forwards every trait method to the wrapped value
//! unchanged and adds the call's wall time and count to a [`Layer`], so
//! a traced exploration computes exactly what an untraced one does.
//! The phases call these from one thread, so plain `Cell`s suffice.

use std::cell::Cell;
use std::time::{Duration, Instant};

use archdse::eval::{AnalyticalLf, DesignConstraints, SimulatorHf};
use dse_exec::{CacheStats, Evaluation, Evaluator, Fidelity};
use dse_mfrl::{Constraint, LowFidelity};
use dse_space::{DesignPoint, DesignSpace, Param};

/// Busy time and work count of one layer.
#[derive(Debug, Default)]
pub struct Layer {
    busy: Cell<Duration>,
    count: Cell<u64>,
}

impl Layer {
    /// Runs `f`, charging its wall time and the units of work `work`
    /// counts in its output to this layer.
    fn time<T>(&self, f: impl FnOnce() -> T, work: impl FnOnce(&T) -> u64) -> T {
        let started = Instant::now();
        let out = f();
        self.busy.set(self.busy.get() + started.elapsed());
        self.count.set(self.count.get() + work(&out));
        out
    }

    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    pub fn count(&self) -> u64 {
        self.count.get()
    }
}

/// The analytical LF model, timed per gradient-mask query and per CPI
/// estimate (a batch counts one unit per design).
pub struct TimedLf {
    inner: AnalyticalLf,
    pub mask: Layer,
    pub cpi: Layer,
}

impl TimedLf {
    pub fn new(inner: AnalyticalLf) -> Self {
        Self { inner, mask: Layer::default(), cpi: Layer::default() }
    }
}

impl LowFidelity for TimedLf {
    fn cpi(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.cpi.time(|| self.inner.cpi(space, point), |_| 1)
    }

    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        self.mask.time(|| self.inner.beneficial_params(space, point), |_| 1)
    }

    fn ipc(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.cpi.time(|| self.inner.ipc(space, point), |_| 1)
    }

    fn cpi_batch(&self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
        self.cpi.time(|| self.inner.cpi_batch(space, points), |cpis| cpis.len() as u64)
    }

    fn cost_per_eval(&self) -> f64 {
        self.inner.cost_per_eval()
    }
}

/// The area (and leakage) feasibility predicate, timed per query.
pub struct TimedConstraint {
    inner: DesignConstraints,
    pub fits: Layer,
}

impl TimedConstraint {
    pub fn new(inner: DesignConstraints) -> Self {
        Self { inner, fits: Layer::default() }
    }
}

impl Constraint for TimedConstraint {
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool {
        self.fits.time(|| self.inner.fits(space, point), |_| 1)
    }
}

/// The simulator-backed HF evaluator, timed per batch; the layer counts
/// the designs actually simulated (memo answers excluded).
pub struct TimedHf {
    inner: SimulatorHf,
    pub batch: Layer,
}

impl TimedHf {
    pub fn new(inner: SimulatorHf) -> Self {
        Self { inner, batch: Layer::default() }
    }
}

impl Evaluator for TimedHf {
    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn evaluate_batch(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<Evaluation> {
        let inner = &mut self.inner;
        self.batch.time(
            || inner.evaluate_batch(space, points),
            |evs| evs.iter().filter(|ev| !ev.cached).count() as u64,
        )
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn cost_per_eval(&self) -> f64 {
        self.inner.cost_per_eval()
    }
}
