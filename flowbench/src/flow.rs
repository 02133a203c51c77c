//! The per-binary workloads, `suite_matrix` and `wide_program`: each
//! binary runs through a fresh `StagedFlow` (profile, decompile, estimate,
//! evaluate, co-simulate) in a closed loop with one caller, and every
//! result is checked.

use crate::layers::{push_front_layers, replay_traced, write_spans, FrontFacts};
use crate::trace::{trace_id, Tracer};
use crate::util::{geomean, mean, median, quantile, Rng};
use crate::{flow_options, Args, Cell, Inputs, Metrics, Outcome, SetupClock};
use binpart_core::cosim::CosimReport;
use binpart_core::stage::{EstimatedProgram, StagedFlow, StagedReport};
use binpart_core::{DecompiledProgram, FlowError, FlowOptions};
use binpart_mips::sim::Exit;
use binpart_mips::Reg;
use std::sync::Arc;
use std::time::Instant;

/// Everything one cold flow hands back.
struct FlowOut {
    exit: Arc<Exit>,
    program: Arc<DecompiledProgram>,
    est: Arc<EstimatedProgram>,
    report: StagedReport,
    cosim: CosimReport,
}

/// Where a traced flow records its layer spans.
struct SpanCtx<'t> {
    tracer: &'t mut Tracer,
    id: u64,
    parent: usize,
}

fn layer<R>(ctx: &mut Option<SpanCtx<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some(c) => c.tracer.span(c.id, Some(c.parent), name, f),
        None => f(),
    }
}

/// One binary from a cold `StagedFlow` to a co-simulated partition. Every
/// stage is called explicitly, so a traced run can time each layer; the
/// later stages find the earlier ones' artifacts in the flow's cache.
fn flow_once(
    cell: &Cell,
    options: &FlowOptions,
    mut ctx: Option<SpanCtx<'_>>,
) -> Result<FlowOut, FlowError> {
    let staged = StagedFlow::new(&cell.binary);
    let exit = layer(&mut ctx, "sim", || staged.profile(options.sim))?;
    let program = layer(&mut ctx, "decompile", || {
        staged.decompile(options.decompile)
    })?;
    let est = layer(&mut ctx, "estimate", || {
        staged.estimate(options.decompile, options.sim)
    })?;
    let report = layer(&mut ctx, "evaluate", || staged.evaluate(options))?;
    let cosim = layer(&mut ctx, "cosim", || staged.cosimulate(options))?;
    Ok(FlowOut {
        exit,
        program,
        est,
        report,
        cosim,
    })
}

/// The numbers one checked flow contributes to the metrics.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    measured_speedup: f64,
    energy_ratio: f64,
    estimated_speedup: f64,
    kernel_errors_pct: Vec<f64>,
    front: FrontFacts,
    sw_cycles: u64,
    kernels: usize,
    vhdl_bytes: usize,
    syntheses: u64,
    cache_hits: u64,
    hw_invocations: u64,
    hw_cycles: u64,
    sw_cycles_replaced: u64,
    unmapped_kernels: usize,
}

/// Checks one flow against the reference interpreter and the co-simulation
/// invariants, and summarizes it.
fn check(cell: &Cell, out: &FlowOut, strict_decompile: bool) -> Result<Summary, String> {
    let r = &cell.reference;
    if out.report.sw_exit_value != r.exit_value || out.report.sw_cycles != r.cycles {
        return Err(format!(
            "software run (exit {}, {} cycles) differs from the reference interpreter (exit {}, {} cycles)",
            out.report.sw_exit_value, out.report.sw_cycles, r.exit_value, r.cycles
        ));
    }
    if out.exit.instrs != r.instrs {
        return Err(format!(
            "{} instructions, reference {}",
            out.exit.instrs, r.instrs
        ));
    }
    if !out.cosim.exit_bit_identical || out.cosim.hybrid_exit.reg(Reg::V0) != r.exit_value {
        return Err("hybrid exit differs from the software exit".into());
    }
    if out.cosim.store_mismatches() != 0 {
        return Err(format!(
            "{} hardware store mismatches",
            out.cosim.store_mismatches()
        ));
    }
    if let Some(k) = out
        .report
        .partition
        .kernels
        .iter()
        .find(|k| k.synth.vhdl.is_empty())
    {
        return Err(format!("selected kernel {} has no VHDL", k.name));
    }
    if strict_decompile && !out.program.diagnostics.is_empty() {
        return Err(format!(
            "decompiler degraded: {}",
            out.program.diagnostics[0]
        ));
    }
    let ks = &out.cosim.kernels;
    Ok(Summary {
        measured_speedup: out.cosim.measured.app_speedup,
        energy_ratio: energy_ratio(&out.cosim),
        estimated_speedup: out.report.hybrid.app_speedup,
        kernel_errors_pct: ks
            .iter()
            .filter_map(|k| k.error_pct)
            .map(f64::abs)
            .collect(),
        front: FrontFacts {
            instrs: out.exit.instrs,
            stats: out.program.stats,
            candidates: out.est.candidates.candidates.len(),
        },
        sw_cycles: out.cosim.sw_cycles,
        kernels: out.report.partition.kernels.len(),
        vhdl_bytes: out
            .report
            .partition
            .kernels
            .iter()
            .map(|k| k.synth.vhdl.len())
            .sum(),
        syntheses: out.est.cache.misses(),
        cache_hits: out.est.cache.hits(),
        hw_invocations: out.cosim.hw_invocations(),
        hw_cycles: ks.iter().map(|k| k.hw_cycles_measured).sum(),
        sw_cycles_replaced: ks.iter().map(|k| k.sw_cycles_replaced).sum(),
        unmapped_kernels: out.cosim.unmapped_kernels,
    })
}

/// Attempt/failure tally; the first few failures are kept for the log.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{}: {e}", what()));
            }
        }
    }
}

pub fn run(args: &Args, mut inputs: Inputs) -> Outcome {
    let options = flow_options();
    let cells = &inputs.cells;
    let clock = &mut inputs.clock;
    let strict = args.workload == "wide_program";
    let mut tally = Tally::default();

    // Warm-up pass, untimed: fills lazy state and fixes each cell's
    // expected summary. Later passes must reproduce it exactly.
    let first: Vec<Option<Summary>> = cells
        .iter()
        .map(|cell| {
            let res = flow_once(cell, &options, None)
                .map_err(|e| e.to_string())
                .and_then(|out| check(cell, &out, strict));
            tally.record(
                || cell.label(),
                res.as_ref().map(|_| ()).map_err(Clone::clone),
            );
            res.ok()
        })
        .collect();
    let expect = |i: usize, out: Result<FlowOut, FlowError>| -> Result<Summary, String> {
        let s = check(&cells[i], &out.map_err(|e| e.to_string())?, strict)?;
        match &first[i] {
            Some(f) if *f == s => Ok(s),
            Some(_) => Err("result differs from the warm-up pass".into()),
            None => Err("failed in the warm-up pass".into()),
        }
    };

    // Every later pass must reproduce these, so per-pass counts are theirs.
    let ok: Vec<&Summary> = first.iter().flatten().collect();
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut metrics = Metrics::default();
    let start = Instant::now();
    if !args.trace {
        let mut passes: Vec<Vec<f64>> = Vec::new();
        while start.elapsed().as_secs_f64() < args.seconds {
            rng.shuffle(&mut order);
            let mut lat_s = vec![0.0; order.len()];
            for &i in &order {
                let t = Instant::now();
                let out = flow_once(&cells[i], &options, None);
                lat_s[i] = t.elapsed().as_secs_f64();
                let res = expect(i, out).map(|_| ());
                tally.record(|| cells[i].label(), res);
            }
            passes.push(lat_s);
            clock.between_passes(start.elapsed().as_secs_f64(), args.seconds);
        }
        // Each cold flow evaluates exactly one design point.
        latency_metrics(&mut metrics, &passes, 1, 1);
        quality(&ok).push_metrics(&mut metrics);
        metrics.push("setup_s", clock.finish().0, "s");
        metrics.push_rss();
    } else {
        traced(
            args,
            cells,
            &ok,
            &mut order,
            &mut rng,
            &mut tally,
            &expect,
            clock,
            &mut metrics,
        );
        metrics.push("minicc.compile_s", clock.finish().1, "s");
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        metrics,
    }
}

/// Latency and throughput from the untraced timed passes: `passes[k][i]`
/// is operation `i`'s latency in pass `k`. One operation covers `binaries`
/// binaries and `points` design points.
///
/// Host noise on a shared machine comes in phases lasting seconds to
/// minutes. Fast phases are rare and come and go, so the fastest samples
/// of a run say more about the host than about the program; a run's
/// typical speed repeats far better. The quantiles therefore run over
/// every sample of the run and the throughputs over its whole busy time.
pub fn latency_metrics(m: &mut Metrics, passes: &[Vec<f64>], binaries: usize, points: usize) {
    let all: Vec<f64> = passes.iter().flatten().copied().collect();
    let n = all.len();
    let beyond = n - (0.95 * n as f64).ceil() as usize;
    m.note(format!(
        "latency from all {n} samples ({} passes of {} operations), {beyond} beyond p95",
        passes.len(),
        passes[0].len()
    ));
    m.push("flow_latency_p50_ms", median(&all) * 1e3, "ms");
    m.push("flow_latency_p95_ms", quantile(&all, 0.95) * 1e3, "ms");
    let busy = all.iter().sum::<f64>();
    m.push("flow_binaries_per_s", (n * binaries) as f64 / busy, "1/s");
    m.push("sweep_points_per_s", (n * points) as f64 / busy, "1/s");
}

/// Hybrid over all-software energy, as co-simulation measured it.
pub fn energy_ratio(cosim: &CosimReport) -> f64 {
    cosim.measured.hybrid_energy_j / cosim.measured.sw_energy_j
}

/// The deterministic quality of the partitions a run hands its user.
#[derive(Debug, Default)]
pub struct Quality {
    /// Co-simulated application speedup per design.
    pub measured: Vec<f64>,
    /// [`energy_ratio`] per design.
    pub energy_ratio: Vec<f64>,
    /// Absolute measured-vs-estimated hardware-cycle error per kernel, %.
    pub errors: Vec<f64>,
    /// Estimated speedup of the best design per binary.
    pub best_estimated: Vec<f64>,
}

impl Quality {
    pub fn push_metrics(&self, m: &mut Metrics) {
        m.push("measured_speedup_geomean", geomean(&self.measured), "x");
        m.push("energy_ratio_geomean", geomean(&self.energy_ratio), "ratio");
        m.push("estimate_error_pct_mean", mean(&self.errors), "%");
        m.push(
            "sweep_best_speedup_geomean",
            geomean(&self.best_estimated),
            "x",
        );
    }

    pub fn error_max(&self) -> f64 {
        self.errors.iter().copied().fold(0.0, f64::max)
    }
}

fn quality(summaries: &[&Summary]) -> Quality {
    Quality {
        measured: summaries.iter().map(|s| s.measured_speedup).collect(),
        energy_ratio: summaries.iter().map(|s| s.energy_ratio).collect(),
        errors: summaries
            .iter()
            .flat_map(|s| s.kernel_errors_pct.iter().copied())
            .collect(),
        // A cold flow evaluates one design, which is so its best.
        best_estimated: summaries.iter().map(|s| s.estimated_speedup).collect(),
    }
}

/// The traced run: untraced and traced passes alternate (so host noise
/// hits both alike); traced passes record a cell span per binary with a
/// child span per layer, then replay the decompiler pass by pass.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    cells: &[Cell],
    ok: &[&Summary],
    order: &mut [usize],
    rng: &mut Rng,
    tally: &mut Tally,
    expect: &dyn Fn(usize, Result<FlowOut, FlowError>) -> Result<Summary, String>,
    clock: &mut SetupClock,
    m: &mut Metrics,
) {
    let options = flow_options();
    let mut tracer = Tracer::new();
    let (mut plain_s, mut plain_n, mut passes, mut pass) = (0.0, 0usize, 0usize, 0usize);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || passes == 0 {
        rng.shuffle(order);
        let is_traced = pass % 2 == 1;
        pass += 1;
        for &i in order.iter() {
            let cell = &cells[i];
            if !is_traced {
                let t = Instant::now();
                let out = flow_once(cell, &options, None);
                plain_s += t.elapsed().as_secs_f64();
                plain_n += 1;
                tally.record(|| cell.label(), expect(i, out).map(|_| ()));
                continue;
            }
            let id = trace_id(&args.workload, args.seed, &cell.program, cell.level_label());
            let root = tracer.begin(id, None, "cell");
            let out = flow_once(
                cell,
                &options,
                Some(SpanCtx {
                    tracer: &mut tracer,
                    id,
                    parent: root,
                }),
            );
            tracer.end(root);
            let res = expect(i, out).and_then(|s| {
                replay_traced(&mut tracer, id, cell, options.decompile, &s.front.stats)
            });
            tally.record(|| cell.label(), res);
        }
        if is_traced {
            passes += 1;
        }
        clock.between_passes(start.elapsed().as_secs_f64(), args.seconds);
    }
    write_spans(args, &tracer, m);
    let totals = tracer.totals();
    let busy = |layer: &str| totals.get(layer).map_or(0.0, |t| t.busy_s) / passes as f64;
    let sum = |f: &dyn Fn(&Summary) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64;

    let front: Vec<FrontFacts> = ok.iter().map(|s| s.front).collect();
    push_front_layers(m, &busy, &front);
    m.push("evaluate.busy_s", busy("evaluate"), "s");
    m.push("evaluate.calls", cells.len() as f64, "count");
    m.push(
        "evaluate.kernels_selected",
        sum(&|s| s.kernels as u64),
        "count",
    );
    let q = quality(ok);
    m.push(
        "evaluate.estimated_speedup_geomean",
        geomean(&q.best_estimated),
        "x",
    );
    m.push("vhdl.bytes", sum(&|s| s.vhdl_bytes as u64), "bytes");
    let (miss, hit) = (sum(&|s| s.syntheses), sum(&|s| s.cache_hits));
    m.push("synth.syntheses", miss, "count");
    m.push("synth.cache_hit_rate", hit / (hit + miss).max(1.0), "ratio");
    m.push("cosim.busy_s", busy("cosim"), "s");
    m.push(
        "cosim.sw_cycles_per_s",
        sum(&|s| s.sw_cycles) / busy("cosim"),
        "1/s",
    );
    m.push("cosim.hw_invocations", sum(&|s| s.hw_invocations), "count");
    m.push("cosim.hw_cycles", sum(&|s| s.hw_cycles), "count");
    m.push(
        "cosim.sw_cycles_replaced",
        sum(&|s| s.sw_cycles_replaced),
        "count",
    );
    m.push(
        "cosim.unmapped_kernels",
        sum(&|s| s.unmapped_kernels as u64),
        "count",
    );
    m.push("cosim.estimate_error_pct_max", q.error_max(), "%");
    // These workloads do not sweep.
    m.push("explore.busy_s", 0.0, "s");
    m.push("explore.points", 0.0, "count");
    m.push("explore.workers", 1.0, "count");
    let cell = totals.get("cell").copied().unwrap_or_default();
    m.push("flow.untraced_s", cell.self_s / passes as f64, "s");
    m.push(
        "trace.coverage_pct",
        100.0 * (1.0 - cell.self_s / cell.busy_s),
        "%",
    );
    let traced_per_bin = cell.busy_s / cell.count as f64;
    let plain_per_bin = plain_s / plain_n.max(1) as f64;
    m.push(
        "trace.overhead_pct",
        100.0 * (traced_per_bin / plain_per_bin - 1.0),
        "%",
    );
    m.note(format!(
        "{passes} traced passes, {plain_n} untraced binaries"
    ));
}
