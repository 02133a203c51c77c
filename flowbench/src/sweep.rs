//! The `explore_sweep` workload: `binpart_explore::Sweep::run` over every
//! suite benchmark at all four levels with a clock × area-budget grid drawn
//! from the seed, in a closed loop with one caller and
//! [`WORKERS`] sweep workers.

use crate::flow::{energy_ratio, latency_metrics, Quality, Tally};
use crate::layers::{push_front_layers, replay_traced, write_spans, FrontFacts};
use crate::trace::{trace_id, Tracer};
use crate::util::{geomean, Rng};
use crate::{flow_options, Args, Cell, Inputs, Metrics, Outcome, SetupClock};
use binpart_core::{Flow, StagedFlow};
use binpart_explore::{Sweep, SweepResult};
use binpart_minicc::OptLevel;
use binpart_mips::Reg;
use binpart_telemetry::{Counter, Recorder};
use std::time::Instant;

/// Sweep workers (`BINPART_THREADS`).
pub const WORKERS: usize = 2;
/// Grid points per axis. Each axis is split into equal strata (linear
/// for clocks, logarithmic for budgets); the seed draws one point inside
/// each interior stratum and the two end points are fixed. Every seed's
/// grid so spans the same ranges with the same density, and the amount of
/// work per sweep barely depends on the seed.
const CLOCKS: usize = 16;
const BUDGETS: usize = 16;
const CLOCK_RANGE_MHZ: (f64, f64) = (25.0, 400.0);
const BUDGET_RANGE_GATES: (f64, f64) = (2_000.0, 400_000.0);

fn axis(rng: &mut Rng, n: usize, (lo, hi): (f64, f64), log: bool) -> Vec<f64> {
    let map = |u: f64| {
        if log {
            lo * (hi / lo).powf(u)
        } else {
            lo + (hi - lo) * u
        }
    };
    let strata = (n - 1) as f64;
    let mut v = vec![lo];
    for k in 1..n - 1 {
        let jitter = rng.below(1 << 20) as f64 / (1 << 20) as f64 - 0.5;
        v.push(map((k as f64 + jitter) / strata));
    }
    v.push(hi);
    v
}

fn grid(seed: u64) -> Sweep {
    let mut rng = Rng::new(seed ^ 0x5eed);
    let clocks: Vec<f64> = axis(&mut rng, CLOCKS, CLOCK_RANGE_MHZ, false)
        .iter()
        .map(|m| m * 1e6)
        .collect();
    let budgets: Vec<u64> = axis(&mut rng, BUDGETS, BUDGET_RANGE_GATES, true)
        .iter()
        .map(|&g| g as u64)
        .collect();
    Sweep::with_base(flow_options())
        .clocks(clocks)
        .area_budgets(budgets)
        .opt_levels(OptLevel::ALL)
}

/// Checks every point of one benchmark's sweep against the reference
/// interpreter, and one seeded point bit for bit against a cold
/// `Flow::run`.
fn check(sweep: &Sweep, result: &SweepResult, cells: &[Cell], rng: &mut Rng, tally: &mut Tally) {
    let cell_of = |level: OptLevel| {
        cells
            .iter()
            .find(|c| c.level == level)
            .expect("cell per level")
    };
    for p in &result.points {
        let cell = cell_of(p.config.level);
        let res = match &p.outcome {
            Err(e) => Err(e.clone()),
            Ok(r)
                if r.sw_exit_value != cell.reference.exit_value
                    || r.sw_cycles != cell.reference.cycles =>
            {
                Err("software run differs from the reference interpreter".into())
            }
            Ok(_) => Ok(()),
        };
        tally.record(|| cell.label(), res);
    }
    let sample = &result.points[rng.below(result.points.len() as u64) as usize];
    let cell = cell_of(sample.config.level);
    let cold = Flow::new(sweep.options_for(&sample.config)).run(&cell.binary);
    let res = match (&sample.outcome, cold) {
        (Ok(p), Ok(c)) => {
            let same = p.speedup.to_bits() == c.hybrid.app_speedup.to_bits()
                && p.energy_savings.to_bits() == c.hybrid.energy_savings.to_bits()
                && p.area_gates == c.hybrid.total_area_gates
                && p.kernels == c.partition.kernels.len()
                && c.partition.kernels.iter().all(|k| !k.synth.vhdl.is_empty());
            if same {
                Ok(())
            } else {
                Err("sampled point differs from a cold Flow::run".into())
            }
        }
        (_, Err(e)) => Err(format!("cold Flow::run failed: {e}")),
        (Err(e), _) => Err(e.clone()),
    };
    tally.record(|| format!("{} sampled point", cell.label()), res);
}

/// Co-simulates one binary's speedup/area frontier: for every area budget
/// of the grid, the point with the highest estimated speedup. Taking one
/// point per budget stratum, rather than the single best point, keeps the
/// quality metrics from hinging on which interior budgets a seed drew.
fn verify_frontier(
    sweep: &Sweep,
    result: &SweepResult,
    cell: &Cell,
    q: &mut Quality,
) -> Result<(), String> {
    let staged = StagedFlow::new(&cell.binary);
    let mut budgets: Vec<u64> = result
        .points
        .iter()
        .map(|p| p.config.area_budget_gates)
        .collect();
    budgets.sort_unstable();
    budgets.dedup();
    let mut best = 0.0f64;
    for budget in budgets {
        let (config, point) = result
            .ok_points()
            .filter(|(c, _)| c.level == cell.level && c.area_budget_gates == budget)
            .reduce(|best, p| {
                if p.1.speedup > best.1.speedup {
                    p
                } else {
                    best
                }
            })
            .ok_or("no successful point")?;
        let options = sweep.options_for(config);
        let report = staged.evaluate(&options).map_err(|e| e.to_string())?;
        let cosim = staged.cosimulate(&options).map_err(|e| e.to_string())?;
        if !cosim.exit_bit_identical
            || cosim.hybrid_exit.reg(Reg::V0) != cell.reference.exit_value
            || cosim.store_mismatches() != 0
            || report
                .partition
                .kernels
                .iter()
                .any(|k| k.synth.vhdl.is_empty())
        {
            return Err(format!(
                "co-simulation of the best point at budget {budget} failed its checks"
            ));
        }
        best = best.max(point.speedup);
        q.measured.push(cosim.measured.app_speedup);
        q.energy_ratio.push(energy_ratio(&cosim));
        q.errors.extend(
            cosim
                .kernels
                .iter()
                .filter_map(|k| k.error_pct)
                .map(f64::abs),
        );
    }
    q.best_estimated.push(best);
    Ok(())
}

/// One benchmark's sweep: all four levels of one program.
fn sweep_program(sweep: &Sweep, cells: &[Cell], rec: Option<&Recorder>) -> SweepResult {
    let compile = |level: OptLevel| {
        let cell = cells
            .iter()
            .find(|c| c.level == level)
            .ok_or("no such level")?;
        Ok(cell.binary.clone())
    };
    match rec {
        Some(r) => sweep.run_with_telemetry(r, compile),
        None => sweep.run(compile),
    }
}

/// The sweep, its inputs and the running check tally.
struct Bench<'a> {
    sweep: Sweep,
    clock: SetupClock,
    programs: Vec<&'a [Cell]>,
    tally: Tally,
    check_rng: Rng,
}

impl Bench<'_> {
    fn check(&mut self, result: &SweepResult, p: usize) {
        check(
            &self.sweep,
            result,
            self.programs[p],
            &mut self.check_rng,
            &mut self.tally,
        );
    }
}

pub fn run(args: &Args, inputs: Inputs) -> Outcome {
    std::env::set_var("BINPART_THREADS", WORKERS.to_string());
    let mut b = Bench {
        sweep: grid(args.seed),
        clock: inputs.clock,
        programs: inputs.cells.chunks(OptLevel::ALL.len()).collect(),
        tally: Tally::default(),
        check_rng: Rng::new(args.seed ^ 0xc0ffee),
    };
    let points_per_sweep = b.sweep.len();

    // Warm-up pass, untimed: check every sweep and co-simulate each
    // binary's frontier for the quality metrics.
    let mut quality = Quality::default();
    for p in 0..b.programs.len() {
        let result = sweep_program(&b.sweep, b.programs[p], None);
        b.check(&result, p);
        for cell in b.programs[p] {
            let res = verify_frontier(&b.sweep, &result, cell, &mut quality);
            b.tally.record(|| format!("{} frontier", cell.label()), res);
        }
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..b.programs.len()).collect();
    let mut m = Metrics::default();
    m.note(format!(
        "{WORKERS} sweep workers, {points_per_sweep} points per benchmark sweep"
    ));
    let start = Instant::now();
    if !args.trace {
        let mut passes: Vec<Vec<f64>> = Vec::new();
        while start.elapsed().as_secs_f64() < args.seconds {
            rng.shuffle(&mut order);
            let mut lat_s = vec![0.0; order.len()];
            for &p in &order {
                let t = Instant::now();
                let result = sweep_program(&b.sweep, b.programs[p], None);
                lat_s[p] = t.elapsed().as_secs_f64();
                b.check(&result, p);
            }
            passes.push(lat_s);
            b.clock
                .between_passes(start.elapsed().as_secs_f64(), args.seconds);
        }
        latency_metrics(&mut m, &passes, OptLevel::ALL.len(), points_per_sweep);
        quality.push_metrics(&mut m);
        m.push("setup_s", b.clock.finish().0, "s");
        m.push_rss();
    } else {
        traced(args, &mut b, &mut order, &mut rng, &mut m);
        m.push("cosim.estimate_error_pct_max", quality.error_max(), "%");
        m.push("minicc.compile_s", b.clock.finish().1, "s");
    }
    Outcome {
        attempted: b.tally.attempted,
        failed: b.tally.failed,
        notes: b.tally.notes,
        metrics: m,
    }
}

/// Untraced and traced passes alternate. A traced sweep records its
/// wall time as the cell span and, as child spans, the worker time the
/// program's own telemetry attributes to each stage; the counters come
/// from the same `Recorder`.
fn traced(args: &Args, b: &mut Bench<'_>, order: &mut [usize], rng: &mut Rng, m: &mut Metrics) {
    const STAGES: [(&str, &str); 4] = [
        ("profile", "sim"),
        ("decompile", "decompile"),
        ("estimate", "estimate"),
        ("evaluate", "evaluate"),
    ];
    let options = flow_options();
    // Per-binary facts the sweep does not return, from one staged flow
    // each, outside the measurement.
    let mut facts: Vec<Vec<FrontFacts>> = Vec::new();
    for cells in &b.programs {
        let mut row = Vec::new();
        for cell in cells.iter() {
            match StagedFlow::new(&cell.binary).estimate(options.decompile, options.sim) {
                Ok(est) => row.push(FrontFacts {
                    instrs: cell.reference.instrs,
                    stats: est.stats,
                    candidates: est.candidates.candidates.len(),
                }),
                Err(e) => b.tally.record(|| cell.label(), Err(e.to_string())),
            }
        }
        facts.push(row);
    }
    let mut tracer = Tracer::new();
    let (mut plain_s, mut plain_n, mut passes, mut pass) = (0.0, 0usize, 0usize, 0usize);
    let (mut hits, mut misses, mut evals, mut kernels) = (0u64, 0u64, 0u64, 0usize);
    let mut est_speedups = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || passes == 0 {
        rng.shuffle(order);
        let is_traced = pass % 2 == 1;
        pass += 1;
        for &p in order.iter() {
            let cells = b.programs[p];
            if !is_traced {
                let t = Instant::now();
                let result = sweep_program(&b.sweep, cells, None);
                plain_s += t.elapsed().as_secs_f64();
                plain_n += 1;
                b.check(&result, p);
                continue;
            }
            let id = trace_id(&args.workload, args.seed, &cells[0].program, "all");
            let rec = Recorder::new();
            let root = tracer.begin(id, None, "explore");
            let result = sweep_program(&b.sweep, cells, Some(&rec));
            tracer.end(root);
            let report = rec.report();
            for (span, layer) in STAGES {
                tracer.record(id, Some(root), layer, report.span_total_s(span));
            }
            hits += rec.counter_total(Counter::EstimateCacheHit);
            misses += rec.counter_total(Counter::EstimateCacheMiss);
            evals += report
                .spans
                .iter()
                .find(|s| s.name == "evaluate")
                .map_or(0, |s| s.count);
            for (_, r) in result.ok_points() {
                kernels += r.kernels;
                est_speedups.push(r.speedup);
            }
            b.check(&result, p);
            for (cell, f) in cells.iter().zip(&facts[p]) {
                let res = replay_traced(&mut tracer, id, cell, options.decompile, &f.stats);
                b.tally.record(|| format!("{} replay", cell.label()), res);
            }
        }
        if is_traced {
            passes += 1;
        }
        b.clock
            .between_passes(start.elapsed().as_secs_f64(), args.seconds);
    }
    write_spans(args, &tracer, m);
    let totals = tracer.totals();
    let per_pass = |x: f64| x / passes as f64;
    let busy = |layer: &str| per_pass(totals.get(layer).map_or(0.0, |t| t.busy_s));
    let front: Vec<FrontFacts> = facts.into_iter().flatten().collect();
    push_front_layers(m, &busy, &front);
    m.push("evaluate.busy_s", busy("evaluate"), "s");
    m.push("evaluate.calls", per_pass(evals as f64), "count");
    m.push(
        "evaluate.kernels_selected",
        per_pass(kernels as f64),
        "count",
    );
    m.push(
        "evaluate.estimated_speedup_geomean",
        geomean(&est_speedups),
        "x",
    );
    // The sweep reports design points, not VHDL, and co-simulates nothing.
    m.push("vhdl.bytes", 0.0, "bytes");
    m.push("synth.syntheses", per_pass(misses as f64), "count");
    m.push(
        "synth.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.push("cosim.busy_s", 0.0, "s");
    m.push("cosim.sw_cycles_per_s", 0.0, "1/s");
    for name in [
        "cosim.hw_invocations",
        "cosim.hw_cycles",
        "cosim.sw_cycles_replaced",
        "cosim.unmapped_kernels",
    ] {
        m.push(name, 0.0, "count");
    }
    let explore = totals.get("explore").copied().unwrap_or_default();
    m.push("explore.busy_s", per_pass(explore.busy_s), "s");
    m.push(
        "explore.points",
        per_pass((explore.count as usize * b.sweep.len()) as f64),
        "count",
    );
    m.push("explore.workers", WORKERS as f64, "count");
    // Worker time inside `Sweep::run` but in no stage span: a worker
    // waiting for another's artifact build, the fan-out itself, idle tails.
    let worker_s = explore.busy_s * WORKERS as f64;
    let staged: f64 = STAGES
        .iter()
        .map(|(_, l)| totals.get(l).map_or(0.0, |t| t.busy_s))
        .sum();
    m.push("flow.untraced_s", per_pass(worker_s - staged), "s");
    m.push("trace.coverage_pct", 100.0 * staged / worker_s, "%");
    let traced_per = explore.busy_s / explore.count as f64;
    let plain_per = plain_s / plain_n.max(1) as f64;
    m.push(
        "trace.overhead_pct",
        100.0 * (traced_per / plain_per - 1.0),
        "%",
    );
    m.note(format!("{passes} traced passes, {plain_n} untraced sweeps"));
}
