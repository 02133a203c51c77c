//! Per-layer reporting shared by the traced runs of every workload.

use crate::replay::{self, SUBLAYERS};
use crate::trace::Tracer;
use crate::{Args, Cell, Metrics};
use binpart_core::{DecompileOptions, DecompileStats, PassStats};

/// What the profile, decompile and estimate stages produce for one binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontFacts {
    pub instrs: u64,
    pub stats: DecompileStats,
    pub candidates: usize,
}

/// The `sim`, `decompile` (with its sub-layers) and `estimate` metrics.
/// `busy(layer)` gives a layer's busy seconds per pass; `facts` holds one
/// pass's binaries, so counts are per pass too.
pub fn push_front_layers(m: &mut Metrics, busy: &dyn Fn(&str) -> f64, facts: &[FrontFacts]) {
    let sum = |f: &dyn Fn(&FrontFacts) -> usize| facts.iter().map(f).sum::<usize>() as f64;
    let instrs = facts.iter().map(|f| f.instrs).sum::<u64>() as f64;
    m.push("sim.busy_s", busy("sim"), "s");
    m.push("sim.instrs", instrs, "count");
    m.push("sim.instrs_per_s", instrs / busy("sim"), "1/s");
    let funcs = sum(&|f| f.stats.functions);
    m.push("decompile.busy_s", busy("decompile"), "s");
    m.push("decompile.funcs", funcs, "count");
    m.push("decompile.blocks", sum(&|f| f.stats.blocks), "count");
    m.push("decompile.funcs_per_s", funcs / busy("decompile"), "1/s");
    for name in SUBLAYERS {
        m.push(format!("{name}.busy_s"), busy(name), "s");
    }
    let mut p = PassStats::default();
    for f in facts {
        p.merge(&f.stats.passes);
    }
    for (name, n) in [
        ("opts.moves_removed", p.moves_removed),
        ("opts.consts_folded", p.consts_folded),
        ("opts.dead_removed", p.dead_removed),
        ("opts.stack_slots_promoted", p.stack_slots_promoted),
        ("opts.stack_ops_removed", p.stack_ops_removed),
        ("opts.values_narrowed", p.values_narrowed),
        ("opts.muls_promoted", p.muls_promoted),
        ("opts.loops_rerolled", p.loops_rerolled),
    ] {
        m.push(name, n as f64, "count");
    }
    m.push(
        "structure.unstructured",
        sum(&|f| f.stats.structure.unstructured),
        "count",
    );
    m.push("estimate.busy_s", busy("estimate"), "s");
    m.push("estimate.candidates", sum(&|f| f.candidates), "count");
}

/// Replays the decompiler on `cell` as a root span with one child per
/// sub-layer, and checks the replay's statistics against `real`, the real
/// `decompile()`'s.
pub fn replay_traced(
    tracer: &mut Tracer,
    id: u64,
    cell: &Cell,
    options: DecompileOptions,
    real: &DecompileStats,
) -> Result<(), String> {
    let (stats, times) = replay::replay(&cell.binary, options).map_err(|e| e.to_string())?;
    let root = tracer.begin(id, None, "decompile.replay");
    for (name, t) in SUBLAYERS.iter().zip(times) {
        tracer.record(id, Some(root), name, t);
    }
    tracer.end(root);
    if stats == *real {
        Ok(())
    } else {
        Err("decompiler replay statistics differ from decompile()".into())
    }
}

/// Writes the spans where `--trace-out` asks.
pub fn write_spans(args: &Args, tracer: &Tracer, m: &mut Metrics) {
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            m.note(format!("could not write {}: {e}", path.display()));
        }
    }
}
