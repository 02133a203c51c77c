//! End-to-end benchmark of the binary-in, partition-out flow.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <suite_matrix|explore_sweep|wide_program> \
//!     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics from spans the benchmark records around its calls
//! into each layer (`--trace-out` writes those spans as JSON lines). The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this file
//! for the workloads, the metrics and what each layer should move.

mod flow;
mod gen;
mod layers;
mod replay;
mod sweep;
mod trace;
mod util;

use binpart_core::FlowOptions;
use binpart_minicc::{compile, OptLevel};
use binpart_mips::reference::ReferenceMachine;
use binpart_mips::{Binary, Reg};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Times the inputs are built per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Generated programs per `wide_program` seed (each compiled at 4 levels).
const WIDE_PROGRAMS: usize = 8;
/// Functions per generated program.
const WIDE_FUNCTIONS: usize = 200;

pub const WORKLOADS: [&str; 3] = ["suite_matrix", "explore_sweep", "wide_program"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// The configuration every workload runs: what a user gets without
/// setting knobs, plus jump-table recovery so every binary partitions.
pub fn flow_options() -> FlowOptions {
    let mut options = FlowOptions::default();
    options.decompile.recover_jump_tables = true;
    options
}

/// The software run of the independent reference interpreter.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub exit_value: u32,
    pub cycles: u64,
    pub instrs: u64,
}

/// One (program, level) binary with its reference run.
pub struct Cell {
    pub program: String,
    pub level: OptLevel,
    pub binary: Binary,
    pub reference: Reference,
}

impl Cell {
    pub fn level_label(&self) -> &'static str {
        match self.level {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }

    pub fn label(&self) -> String {
        format!("{} -{}", self.program, self.level_label())
    }
}

pub struct Inputs {
    pub cells: Vec<Cell>,
    pub clock: SetupClock,
}

/// Named sources, generated from the seed where the workload says so.
fn sources(workload: &str, seed: u64) -> Vec<(String, String)> {
    if workload == "wide_program" {
        let mut rng = util::Rng::new(seed);
        (0..WIDE_PROGRAMS)
            .map(|p| (format!("wide{p}"), gen::program(&mut rng, WIDE_FUNCTIONS)))
            .collect()
    } else {
        binpart_workloads::suite()
            .into_iter()
            .map(|b| (b.name.to_string(), b.source.to_string()))
            .collect()
    }
}

/// Times the workload's set-up: source generation plus the minicc
/// compiles. The first build happens before the run; the others are spread
/// over the measured window, so `setup_s` samples the same host conditions
/// as the passes.
pub struct SetupClock {
    workload: String,
    seed: u64,
    setup_s: Vec<f64>,
    compile_s: Vec<f64>,
}

type Binaries = Vec<(String, OptLevel, Binary)>;

impl SetupClock {
    fn build(&mut self) -> Result<Binaries, String> {
        let t = Instant::now();
        let srcs = sources(&self.workload, self.seed);
        let tc = Instant::now();
        let mut binaries = Vec::new();
        for (name, src) in srcs {
            for level in OptLevel::ALL {
                let bin = compile(&src, level).map_err(|e| format!("{name} -{level:?}: {e}"))?;
                binaries.push((name.clone(), level, bin));
            }
        }
        self.compile_s.push(tc.elapsed().as_secs_f64());
        self.setup_s.push(t.elapsed().as_secs_f64());
        Ok(binaries)
    }

    /// Called between passes: builds once more each time the run passes
    /// the next `1 / SETUP_REPS` of its length. The build already
    /// succeeded once with the same sources, so its result is dropped.
    pub fn between_passes(&mut self, elapsed_s: f64, seconds: f64) {
        let due = seconds * self.setup_s.len() as f64 / SETUP_REPS as f64;
        if self.setup_s.len() < SETUP_REPS && elapsed_s >= due {
            let _ = self.build();
        }
    }

    /// Median set-up and compile seconds over [`SETUP_REPS`] builds.
    pub fn finish(&mut self) -> (f64, f64) {
        while self.setup_s.len() < SETUP_REPS {
            let _ = self.build();
        }
        (util::median(&self.setup_s), util::median(&self.compile_s))
    }
}

/// Builds the workload's binaries, then runs each once on the reference
/// interpreter.
fn setup(args: &Args) -> Result<Inputs, String> {
    let mut clock = SetupClock {
        workload: args.workload.clone(),
        seed: args.seed,
        setup_s: Vec::new(),
        compile_s: Vec::new(),
    };
    let binaries = clock.build()?;
    let sim = flow_options().sim;
    let mut cells = Vec::new();
    for (program, level, binary) in binaries {
        let mut m = ReferenceMachine::with_config(&binary, sim).map_err(|e| e.to_string())?;
        let exit = m.run().map_err(|e| format!("{program} -{level:?}: {e}"))?;
        let reference = Reference {
            exit_value: exit.reg(Reg::V0),
            cycles: exit.cycles,
            instrs: exit.instrs,
        };
        cells.push(Cell {
            program,
            level,
            binary,
            reference,
        });
    }
    // A program's checksum is the same at every level.
    for group in cells.chunks(OptLevel::ALL.len()) {
        if group
            .iter()
            .any(|c| c.reference.exit_value != group[0].reference.exit_value)
        {
            return Err(format!(
                "{}: checksum differs across levels",
                group[0].program
            ));
        }
    }
    Ok(Inputs { cells, clock })
}

/// Metrics in print order, with log lines for the human-readable report.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push((name.into(), value, unit));
    }

    pub fn push_rss(&mut self) {
        match util::peak_rss_mb() {
            Some(mb) => self.push("peak_rss_mb", mb, "MiB"),
            None => self.note("peak RSS unavailable".into()),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = match setup(&args) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("flowbench: setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let binaries = inputs.cells.len();
    let out = if args.workload == "explore_sweep" {
        sweep::run(&args, inputs)
    } else {
        flow::run(&args, inputs)
    };
    let run = if args.trace { "traced" } else { "timed" };
    println!(
        "flowbench {} seed={} seconds={} run={run} binaries={binaries}",
        args.workload, args.seed, args.seconds
    );
    for line in out.notes.iter().chain(&out.metrics.notes) {
        println!("  {line}");
    }
    if !args.trace {
        println!(
            "  error_rate = {} ({} failed / {} attempted)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
    }
    let finite = out.metrics.items.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &out.metrics.items {
        println!("  {name:<40} {value:>16.6} {unit:<6} [{run}]");
    }
    let metrics: Vec<String> = out
        .metrics
        .items
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0 && finite,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
