//! Design-space exploration over the staged partitioning flow.
//!
//! The paper's evaluation sweeps one axis at a time (processor clock in
//! E2, compiler level in E3). This crate generalizes that into a grid
//! **sweep engine**: build a [`Sweep`] over platform clock × FPGA area
//! budget × compiler [`OptLevel`] (plus any user-defined
//! [`axis`](Sweep::axis) over [`FlowOptions`]), evaluate
//! every point, and extract the [Pareto frontier](SweepResult::pareto) of
//! speedup vs area vs energy.
//!
//! # Why it is fast
//!
//! Each compiled binary gets one [`StagedFlow`], so all points of the grid
//! share the staged artifacts (software profile per
//! [`SimConfig`](binpart_mips::sim::SimConfig), CDFG
//! per decompile option set, candidate loops + memoized per-kernel
//! synthesis per artifact — see `binpart_core::stage` for the exact
//! invalidation table). A clock × budget sweep therefore simulates,
//! decompiles, and synthesizes **once** and spends the rest of the grid in
//! the selection loop.
//!
//! [`Sweep::run`] works in two parallel phases ([`binpart_par::par_map`];
//! `BINPART_THREADS=1` forces sequential):
//!
//! 1. **Artifacts.** The distinct (level, decompile options, sim config)
//!    keys of the grid — one per level unless a custom axis changes those
//!    options — are built concurrently, one
//!    [`StagedFlow::estimate`] each. No worker waits inside another's
//!    artifact build. A failed build fails every point of its key with
//!    the message a cold [`Flow::run`] gives.
//! 2. **Points.** Every point is evaluated against its resolved artifact
//!    with [`StagedFlow::evaluate_est`], in short runs of one artifact's
//!    points taken round-robin over the artifacts, so concurrent workers
//!    mostly evaluate different artifacts. Memo hits share no mutable
//!    state (see `binpart_synth::estimate`), so points scale across
//!    workers.
//!
//! Results are deterministic and in grid order regardless of thread count.
//!
//! [`Sweep::run_naive`] evaluates the same grid through a cold
//! [`Flow::run`] per point — the baseline the staged engine is measured
//! against (`sweep_speedup_vs_naive` in `BENCH_sim.json`); both paths
//! produce bit-identical points.
//!
//! There is no simulator axis: fusion and superblocks are observationally
//! exact, so they could never change a point. Set them on the base
//! options ([`Sweep::with_base`]) to choose the profiling engine.
//!
//! # Example
//!
//! ```
//! use binpart_explore::Sweep;
//! use binpart_minicc::{compile, OptLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "int a[64];
//!     int main(void) { int i; int s = 0;
//!       for (i = 0; i < 64; i++) a[i] = i * 3;
//!       for (i = 0; i < 64; i++) s += a[i];
//!       return s; }";
//! let result = Sweep::new()
//!     .clocks([100e6, 200e6, 400e6])
//!     .area_budgets([15_000, 250_000])
//!     .opt_levels([OptLevel::O1])
//!     .run(|level| compile(src, level).map_err(|e| e.to_string()));
//! assert_eq!(result.points.len(), 6);
//! let frontier = result.pareto();
//! assert!(!frontier.is_empty());
//! # Ok(())
//! # }
//! ```

use binpart_core::flow::{Flow, FlowOptions};
use binpart_core::lift::DecompileOptions;
use binpart_core::partition::Partition;
use binpart_core::stage::StagedFlow;
use binpart_mips::sim::SimConfig;
use binpart_mips::Binary;
use binpart_minicc::OptLevel;
use binpart_par::par_map;
use binpart_platform::{HybridReport, ProcessorSpec};
use binpart_telemetry::{Counter, NullTelemetry, SpanGuard, Telemetry};
use std::sync::Arc;

/// How a user-defined axis writes one of its values into [`FlowOptions`].
pub type AxisApply = Arc<dyn Fn(&mut FlowOptions, f64) + Send + Sync>;

/// A user-defined sweep axis: named values applied to [`FlowOptions`].
#[derive(Clone)]
pub struct Axis {
    /// Axis name (reports, debugging).
    pub name: String,
    /// The values the axis takes.
    pub values: Vec<f64>,
    apply: AxisApply,
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("values", &self.values)
            .finish()
    }
}

/// Grid sweep builder. Every axis defaults to the single point of the
/// base [`FlowOptions`]; setters replace an axis with explicit values.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: FlowOptions,
    clocks_hz: Vec<f64>,
    area_budgets: Vec<u64>,
    opt_levels: Vec<OptLevel>,
    axes: Vec<Axis>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

impl Sweep {
    /// A sweep with default base options and singleton axes.
    pub fn new() -> Sweep {
        Sweep::with_base(FlowOptions::default())
    }

    /// A sweep whose non-swept options come from `base`.
    pub fn with_base(base: FlowOptions) -> Sweep {
        Sweep {
            clocks_hz: vec![base.platform.cpu.clock_hz],
            area_budgets: vec![base.partition.area_budget_gates],
            opt_levels: vec![OptLevel::O1],
            axes: Vec::new(),
            base,
        }
    }

    /// Processor clock axis (Hz).
    #[must_use]
    pub fn clocks(mut self, hz: impl IntoIterator<Item = f64>) -> Sweep {
        self.clocks_hz = hz.into_iter().collect();
        assert!(!self.clocks_hz.is_empty(), "empty clock axis");
        self
    }

    /// FPGA area budget axis (gate equivalents).
    #[must_use]
    pub fn area_budgets(mut self, gates: impl IntoIterator<Item = u64>) -> Sweep {
        self.area_budgets = gates.into_iter().collect();
        assert!(!self.area_budgets.is_empty(), "empty budget axis");
        self
    }

    /// Compiler optimization level axis.
    #[must_use]
    pub fn opt_levels(mut self, levels: impl IntoIterator<Item = OptLevel>) -> Sweep {
        self.opt_levels = levels.into_iter().collect();
        assert!(!self.opt_levels.is_empty(), "empty level axis");
        self
    }

    /// Adds a user-defined axis: `apply` writes each value into the
    /// [`FlowOptions`] of the points along it (e.g. coverage target,
    /// kernel cap, communication overhead).
    #[must_use]
    pub fn axis(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = f64>,
        apply: impl Fn(&mut FlowOptions, f64) + Send + Sync + 'static,
    ) -> Sweep {
        let name = name.into();
        let values: Vec<f64> = values.into_iter().collect();
        assert!(!values.is_empty(), "empty axis {name}");
        self.axes.push(Axis {
            name,
            values,
            apply: Arc::new(apply),
        });
        self
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.configs().len()
    }

    /// Returns `true` for a degenerate empty grid (never constructible via
    /// the setters).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full cross product of the axes, in deterministic row-major
    /// order: level (slowest) × clock × budget × custom axes.
    pub fn configs(&self) -> Vec<PointConfig> {
        let mut custom: Vec<Vec<f64>> = vec![Vec::new()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(custom.len() * axis.values.len());
            for prefix in &custom {
                for &v in &axis.values {
                    let mut row = prefix.clone();
                    row.push(v);
                    next.push(row);
                }
            }
            custom = next;
        }
        let mut configs = Vec::new();
        for &level in &self.opt_levels {
            for &clock_hz in &self.clocks_hz {
                for &area_budget_gates in &self.area_budgets {
                    for axis_values in &custom {
                        configs.push(PointConfig {
                            level,
                            clock_hz,
                            area_budget_gates,
                            axis_values: axis_values.clone(),
                        });
                    }
                }
            }
        }
        configs
    }

    /// The [`FlowOptions`] of one grid point.
    ///
    /// Non-swept options come from the base verbatim; in particular, a
    /// point whose clock equals the base platform's clock keeps the base
    /// processor spec (power model included). Other clock values use the
    /// paper's MIPS power model ([`ProcessorSpec::mips`]), which is what
    /// the clock axis sweeps.
    pub fn options_for(&self, config: &PointConfig) -> FlowOptions {
        let mut options = self.base.clone();
        if config.clock_hz != self.base.platform.cpu.clock_hz {
            options.platform.cpu = ProcessorSpec::mips(config.clock_hz);
        }
        options.partition.area_budget_gates = config.area_budget_gates;
        for (axis, &value) in self.axes.iter().zip(&config.axis_values) {
            (axis.apply)(&mut options, value);
        }
        options
    }

    /// Runs the sweep through the staged flow: one compile + one
    /// [`StagedFlow`] per [`OptLevel`], all points sharing its artifacts;
    /// the artifacts are built in parallel first, then the points are
    /// evaluated in parallel (see the crate docs). Point order matches
    /// [`Sweep::configs`].
    pub fn run(&self, compile: impl FnMut(OptLevel) -> Result<Binary, String>) -> SweepResult {
        self.run_impl(&NullTelemetry, compile, false)
    }

    /// Like [`Sweep::run`], reporting progress through `telemetry`: a
    /// `sweep` span over the whole grid, per-point
    /// `sweep_points_ok`/`sweep_points_failed` counters as points
    /// complete, a `sweep_done` event, and — because each level's
    /// [`StagedFlow`] is built over the same sink — all the per-stage
    /// spans and cache counters of the underlying flow.
    pub fn run_with_telemetry<T: Telemetry>(
        &self,
        telemetry: &T,
        compile: impl FnMut(OptLevel) -> Result<Binary, String>,
    ) -> SweepResult {
        self.run_impl(telemetry, compile, false)
    }

    /// Runs the same grid through a cold [`Flow::run`] per point —
    /// every point re-simulates, re-decompiles, and re-synthesizes from
    /// scratch. Same parallel fan-out, bit-identical points; exists as the
    /// baseline the staged engine is benchmarked against.
    pub fn run_naive(
        &self,
        compile: impl FnMut(OptLevel) -> Result<Binary, String>,
    ) -> SweepResult {
        self.run_impl(&NullTelemetry, compile, true)
    }

    fn run_impl<T: Telemetry>(
        &self,
        telemetry: &T,
        mut compile: impl FnMut(OptLevel) -> Result<Binary, String>,
        naive: bool,
    ) -> SweepResult {
        let configs = self.configs();
        let _span = SpanGuard::enter(telemetry, "sweep", || {
            format!("{} points, {} levels{}", configs.len(), self.opt_levels.len(), if naive { ", naive" } else { "" })
        });
        // One binary per level (compiled once, up front).
        let mut binaries: Vec<(OptLevel, Result<Binary, String>)> = Vec::new();
        for &level in &self.opt_levels {
            binaries.push((level, compile(level)));
        }
        let level_index =
            |level: OptLevel| binaries.iter().position(|(l, _)| *l == level).expect("own level");
        let finish = |config: &PointConfig, outcome: Result<PointReport, String>| {
            telemetry.counter_add(
                if outcome.is_ok() {
                    Counter::SweepPointsOk
                } else {
                    Counter::SweepPointsFailed
                },
                1,
            );
            SweepPoint {
                config: config.clone(),
                outcome,
            }
        };
        let points = if naive {
            par_map(&configs, |config| {
                let outcome = match &binaries[level_index(config.level)].1 {
                    Err(e) => Err(format!("compile failed: {e}")),
                    Ok(binary) => Flow::new(self.options_for(config))
                        .run(binary)
                        .map(|r| {
                            PointReport::new(r.sw_cycles, r.sw_exit_value, &r.hybrid, &r.partition)
                        })
                        .map_err(|e| e.to_string()),
                };
                finish(config, outcome)
            })
        } else {
            let staged: Vec<Option<StagedFlow<'_, &T>>> = binaries
                .iter()
                .map(|(_, b)| {
                    b.as_ref()
                        .ok()
                        .map(|bin| StagedFlow::with_telemetry(bin, telemetry))
                })
                .collect();
            // Every point's options, and the index of its stage-3 artifact
            // key (level, decompile options, sim config) in `keys`.
            let mut keys: Vec<(usize, DecompileOptions, SimConfig)> = Vec::new();
            let jobs: Vec<(&PointConfig, FlowOptions, usize)> = configs
                .iter()
                .map(|config| {
                    let options = self.options_for(config);
                    let key = (level_index(config.level), options.decompile, options.sim);
                    let k = keys.iter().position(|x| *x == key).unwrap_or_else(|| {
                        keys.push(key);
                        keys.len() - 1
                    });
                    (config, options, k)
                })
                .collect();
            // Phase 1: build every artifact of the grid, in parallel. A
            // failed build fails every point of its key with the same
            // message a cold `Flow::run` gives.
            let artifacts = par_map(&keys, |&(li, decompile, sim)| {
                match (&binaries[li].1, &staged[li]) {
                    (Err(e), _) => Err(format!("compile failed: {e}")),
                    (Ok(_), Some(flow)) => flow.estimate(decompile, sim).map_err(|e| e.to_string()),
                    (Ok(_), None) => unreachable!("staged flow exists for compiled binaries"),
                }
            });
            // Phase 2: every point against its resolved artifact, in runs
            // of up to `RUN` grid-order points of one artifact, taken
            // round-robin over the artifacts (the first run of each, then
            // the second of each, ...). In plain grid order the workers
            // evaluate neighbouring points of one artifact at the same
            // time; spreading them over artifacts this way measured 10-15%
            // more points/s on a 4-artifact grid at 2 workers, and runs
            // (rather than single points) keep a one-artifact grid
            // parallel.
            const RUN: usize = 16;
            let mut of_key: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
            for (i, &(_, _, k)) in jobs.iter().enumerate() {
                of_key[k].push(i);
            }
            let chunked: Vec<Vec<&[usize]>> = of_key
                .iter()
                .map(|points| points.chunks(RUN).collect())
                .collect();
            let rounds = chunked.iter().map(Vec::len).max().unwrap_or(0);
            let runs: Vec<&[usize]> = (0..rounds)
                .flat_map(|r| chunked.iter().filter_map(move |runs| runs.get(r).copied()))
                .collect();
            let evaluated = par_map(&runs, |run| {
                run.iter()
                    .map(|&i| {
                        let (config, options, k) = &jobs[i];
                        let outcome = match &artifacts[*k] {
                            Err(e) => Err(e.clone()),
                            Ok(est) => {
                                let flow =
                                    staged[keys[*k].0].as_ref().expect("artifact has a flow");
                                let r = flow.evaluate_est(est, options);
                                Ok(PointReport::new(
                                    r.sw_cycles,
                                    r.sw_exit_value,
                                    &r.hybrid,
                                    &r.partition,
                                ))
                            }
                        };
                        finish(config, outcome)
                    })
                    .collect::<Vec<_>>()
            });
            // Back to grid order.
            let mut points: Vec<Option<SweepPoint>> = (0..jobs.len()).map(|_| None).collect();
            for (run, out) in runs.iter().zip(evaluated) {
                for (&i, point) in run.iter().zip(out) {
                    points[i] = Some(point);
                }
            }
            points
                .into_iter()
                .map(|p| p.expect("every point evaluated"))
                .collect()
        };
        if T::ENABLED {
            let ok = points.iter().filter(|p| p.outcome.is_ok()).count();
            telemetry.event("sweep_done", &format!("{}/{} points ok", ok, points.len()));
        }
        SweepResult { points }
    }
}

/// Coordinates of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointConfig {
    /// Compiler optimization level.
    pub level: OptLevel,
    /// Processor clock (Hz).
    pub clock_hz: f64,
    /// FPGA area budget (gate equivalents).
    pub area_budget_gates: u64,
    /// Values of the user-defined axes, in axis order.
    pub axis_values: Vec<f64>,
}

/// The flow's numbers at one point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// Profiled all-software cycles.
    pub sw_cycles: u64,
    /// `$v0` at software exit.
    pub sw_exit_value: u32,
    /// Application speedup.
    pub speedup: f64,
    /// Energy savings fraction.
    pub energy_savings: f64,
    /// FPGA area used (gate equivalents).
    pub area_gates: u64,
    /// Kernels selected.
    pub kernels: usize,
    /// Fraction of software cycles moved to hardware.
    pub coverage: f64,
    /// All-software time (s).
    pub sw_time_s: f64,
    /// Hybrid time (s).
    pub hybrid_time_s: f64,
}

impl PointReport {
    fn new(
        sw_cycles: u64,
        sw_exit_value: u32,
        hybrid: &HybridReport,
        partition: &Partition,
    ) -> PointReport {
        PointReport {
            sw_cycles,
            sw_exit_value,
            speedup: hybrid.app_speedup,
            energy_savings: hybrid.energy_savings,
            area_gates: hybrid.total_area_gates,
            kernels: partition.kernels.len(),
            coverage: partition.coverage(),
            sw_time_s: hybrid.sw_time_s,
            hybrid_time_s: hybrid.hybrid_time_s,
        }
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Where on the grid.
    pub config: PointConfig,
    /// The result, or why the point failed (compile error, CDFG recovery
    /// failure).
    pub outcome: Result<PointReport, String>,
}

/// All points of a sweep, in [`Sweep::configs`] order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Evaluated points.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Successful points.
    pub fn ok_points(&self) -> impl Iterator<Item = (&PointConfig, &PointReport)> {
        self.points
            .iter()
            .filter_map(|p| p.outcome.as_ref().ok().map(|r| (&p.config, r)))
    }

    /// The Pareto frontier over (maximize speedup, maximize energy
    /// savings, minimize area), in sweep order. A point is on the frontier
    /// when no other successful point is at least as good on every
    /// objective and strictly better on one.
    pub fn pareto(&self) -> Vec<&SweepPoint> {
        let ok: Vec<(usize, &PointReport)> = self
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.outcome.as_ref().ok().map(|r| (i, r)))
            .collect();
        let dominates = |a: &PointReport, b: &PointReport| -> bool {
            let ge = a.speedup >= b.speedup
                && a.energy_savings >= b.energy_savings
                && a.area_gates <= b.area_gates;
            let gt = a.speedup > b.speedup
                || a.energy_savings > b.energy_savings
                || a.area_gates < b.area_gates;
            ge && gt
        };
        ok.iter()
            .filter(|(_, r)| !ok.iter().any(|(_, other)| dominates(other, r)))
            .map(|&(i, _)| &self.points[i])
            .collect()
    }

    /// The successful point with the highest speedup, if any.
    pub fn best_speedup(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.outcome.is_ok())
            .max_by(|a, b| {
                let sa = a.outcome.as_ref().unwrap().speedup;
                let sb = b.outcome.as_ref().unwrap().speedup;
                sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}
