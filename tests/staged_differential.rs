//! Differential verification of the staged/optimized paths against their
//! cold/reference counterparts:
//!
//! * one shared `binpart::core::stage::StagedFlow` per binary, serving memo
//!   hits across option points, vs a cold `Flow::run` per point —
//!   identical `HybridReport` and `Partition` across the benchmark ×
//!   OptLevel matrix;
//! * the dense (index/bitset-based) SSA construction vs the retained
//!   map-based oracle (`ssa::reference_construct`) — identical functions
//!   (same phi placement, same SSA names), identical live-ins, identical
//!   live-in/live-out sets from the bitset liveness;
//! * the staged sweep engine vs the naive per-point loop on a grid.

use binpart::cdfg::dataflow::Liveness;
use binpart::cdfg::ssa;
use binpart::core::flow::{Flow, FlowOptions};
use binpart::core::lift;
use binpart::core::stage::StagedFlow;
use binpart::core::{DecompileError, DecompileOptions, LiftError, PassStats};
use binpart::minicc::OptLevel;
use binpart::platform::Platform;
use binpart::workloads::suite;

/// Evaluation through one shared `StagedFlow` (profile, CDFG and synthesis
/// served from its caches after the first point) must be bit-identical to
/// a cold `Flow::run` per point for every (benchmark, OptLevel) cell,
/// including the cells where CDFG recovery fails.
#[test]
fn shared_staged_flow_matches_cold_flow_across_matrix() {
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let staged = StagedFlow::new(&binary);
            for clock in [40e6, 200e6, 400e6] {
                for budget in [15_000u64, 250_000] {
                    let mut options = FlowOptions {
                        platform: Platform::mips_virtex2(clock),
                        ..Default::default()
                    };
                    options.decompile.recover_jump_tables = true;
                    options.partition.area_budget_gates = budget;
                    let tag = format!("{} {level} @{clock}Hz/{budget}", b.name);
                    let cold = Flow::new(options.clone()).run(&binary);
                    let st = staged.evaluate(&options);
                    match (cold, st) {
                        (Ok(m), Ok(s)) => {
                            assert_eq!(
                                m.hybrid.app_speedup.to_bits(),
                                s.hybrid.app_speedup.to_bits(),
                                "{tag}: speedup"
                            );
                            assert_eq!(
                                m.hybrid.energy_savings.to_bits(),
                                s.hybrid.energy_savings.to_bits(),
                                "{tag}: energy"
                            );
                            assert_eq!(
                                m.hybrid.hybrid_time_s.to_bits(),
                                s.hybrid.hybrid_time_s.to_bits(),
                                "{tag}: time"
                            );
                            assert_eq!(
                                m.hybrid.total_area_gates, s.hybrid.total_area_gates,
                                "{tag}: area"
                            );
                            assert_eq!(m.sw_cycles, s.sw_cycles, "{tag}: cycles");
                            assert_eq!(m.sw_exit_value, s.sw_exit_value, "{tag}: exit");
                            assert_eq!(m.stats, s.stats, "{tag}: decompile stats");
                            assert_eq!(m.partition.log, s.partition.log, "{tag}: log");
                            assert_eq!(
                                m.partition.total_area_gates, s.partition.total_area_gates,
                                "{tag}: partition area"
                            );
                            assert_eq!(
                                m.partition.kernels.len(),
                                s.partition.kernels.len(),
                                "{tag}: kernel count"
                            );
                            for (km, ks) in m.partition.kernels.iter().zip(&s.partition.kernels)
                            {
                                assert_eq!(km.name, ks.name, "{tag}");
                                assert_eq!(km.step, ks.step, "{tag} {}", km.name);
                                assert_eq!(km.sw_cycles, ks.sw_cycles, "{tag} {}", km.name);
                                assert_eq!(
                                    km.invocations, ks.invocations,
                                    "{tag} {}",
                                    km.name
                                );
                                assert_eq!(
                                    km.mem_in_bram, ks.mem_in_bram,
                                    "{tag} {}",
                                    km.name
                                );
                                assert_eq!(
                                    km.synth.area.gate_equivalents,
                                    ks.synth.area.gate_equivalents,
                                    "{tag} {}",
                                    km.name
                                );
                                assert_eq!(
                                    km.synth.timing.hw_cycles, ks.synth.timing.hw_cycles,
                                    "{tag} {}",
                                    km.name
                                );
                                assert_eq!(km.synth.vhdl, ks.synth.vhdl, "{tag} {}", km.name);
                            }
                        }
                        (Err(m), Err(s)) => {
                            assert_eq!(format!("{m}"), format!("{s}"), "{tag}: errors differ")
                        }
                        (m, s) => panic!(
                            "{tag}: cold {:?} vs staged {:?}",
                            m.map(|r| r.hybrid.app_speedup),
                            s.map(|r| r.hybrid.app_speedup)
                        ),
                    }
                }
            }
        }
    }
}

/// The telemetry overhead gate, correctness leg: with a live recorder
/// attached, every observable artifact — the software `Exit` (profile +
/// cycles) and the full evaluation — must be bit-identical to the
/// uninstrumented `NullTelemetry` flow across the whole suite matrix.
/// Telemetry may *observe* the flow; it may never perturb it.
#[test]
fn telemetry_instrumented_flow_is_bit_identical_suite_wide() {
    use binpart::telemetry::{Counter, Recorder};
    let recorder = Recorder::new();
    let mut cells = 0usize;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let mut options = FlowOptions::default();
            options.decompile.recover_jump_tables = true;
            // Superblocks on: the trace-cache counter harvest is the one
            // telemetry path that touches simulator state accessors.
            options.sim.superblocks = true;
            let plain = StagedFlow::new(&binary);
            let instrumented = StagedFlow::with_telemetry(&binary, &recorder);
            let tag = format!("{} {level}", b.name);

            let exit_plain = plain.profile(options.sim).unwrap();
            let exit_inst = instrumented.profile(options.sim).unwrap();
            assert_eq!(exit_plain.cycles, exit_inst.cycles, "{tag}: cycles");
            assert_eq!(exit_plain.instrs, exit_inst.instrs, "{tag}: instrs");
            assert_eq!(exit_plain.regs, exit_inst.regs, "{tag}: registers");
            assert_eq!(exit_plain.profile, exit_inst.profile, "{tag}: profile");

            match (plain.evaluate(&options), instrumented.evaluate(&options)) {
                (Ok(p), Ok(i)) => {
                    assert_eq!(
                        p.hybrid.app_speedup.to_bits(),
                        i.hybrid.app_speedup.to_bits(),
                        "{tag}: speedup"
                    );
                    assert_eq!(
                        p.hybrid.energy_savings.to_bits(),
                        i.hybrid.energy_savings.to_bits(),
                        "{tag}: energy"
                    );
                    assert_eq!(p.partition.log, i.partition.log, "{tag}: log");
                    assert_eq!(
                        p.partition.total_area_gates, i.partition.total_area_gates,
                        "{tag}: area"
                    );
                }
                (Err(p), Err(i)) => {
                    assert_eq!(format!("{p}"), format!("{i}"), "{tag}: errors differ")
                }
                (p, i) => panic!(
                    "{tag}: plain {:?} vs instrumented {:?}",
                    p.map(|r| r.hybrid.app_speedup),
                    i.map(|r| r.hybrid.app_speedup)
                ),
            }
            cells += 1;
        }
    }
    assert_eq!(cells, 80, "matrix should cover the suite");
    // The recorder actually observed the pass: every cell missed its
    // profile slot exactly once, and the superblock engine reported in.
    assert_eq!(recorder.counter_total(Counter::ProfileStageMiss), 80);
    assert!(recorder.counter_total(Counter::TracePasses) > 0);
}

/// The plain-recovery failure cells (the paper's 2-of-20) must fail
/// identically through both entries.
#[test]
fn staged_flow_reports_same_jump_table_failures() {
    for b in suite() {
        let binary = match b.compile(OptLevel::O1) {
            Ok(bin) => bin,
            Err(e) => panic!("{}: {e}", b.name),
        };
        let options = FlowOptions::default();
        let staged = StagedFlow::new(&binary);
        let mono = Flow::new(options.clone()).run(&binary);
        let st = staged.evaluate(&options);
        match (&mono, &st) {
            (Ok(_), Ok(_)) => {}
            (
                Err(binpart::core::FlowError::Decompile(DecompileError::Lift(
                    LiftError::IndirectJump { pc: a },
                ))),
                Err(binpart::core::FlowError::Decompile(DecompileError::Lift(
                    LiftError::IndirectJump { pc: c },
                ))),
            ) => assert_eq!(a, c, "{}", b.name),
            other => panic!("{}: {other:?}", b.name),
        }
    }
}

/// The dense SSA construction must produce *bit-identical* functions to
/// the retained map-based oracle — same phi placement and argument order,
/// same fresh-name numbering, same recovered live-ins — and the bitset
/// liveness over both must agree, on every function of the suite matrix.
#[test]
fn dense_ssa_matches_reference_oracle_on_suite() {
    let opts = DecompileOptions {
        recover_jump_tables: true,
        ..Default::default()
    };
    let mut functions_checked = 0usize;
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let lifted = match lift::lift_program(&binary, opts) {
                Ok(l) => l,
                Err(e) => panic!("{} {level}: lift failed: {e}", b.name),
            };
            for f in lifted.functions {
                // The pipeline runs stack-op removal pre-SSA; mirror it so
                // the oracle sees the same input shapes.
                let mut pre = f.clone();
                let mut stats = PassStats::default();
                binpart::core::opts::stack_op_removal(&mut pre, &mut stats);
                let mut dense = pre.clone();
                let mut reference = pre;
                let info_dense = ssa::construct(&mut dense);
                let info_ref = ssa::reference_construct(&mut reference);
                let tag = format!("{} {level} fn {}", b.name, dense.name);
                assert_eq!(
                    info_dense.live_ins, info_ref.live_ins,
                    "{tag}: live-ins differ"
                );
                assert_eq!(
                    format!("{dense}"),
                    format!("{reference}"),
                    "{tag}: SSA functions differ"
                );
                ssa::verify(&dense).unwrap_or_else(|e| panic!("{tag}: {e}"));
                // Liveness over both must agree set-for-set.
                let ld = Liveness::compute(&dense);
                let lr = Liveness::compute(&reference);
                for bi in dense.block_ids() {
                    assert_eq!(
                        ld.live_in[bi.index()], lr.live_in[bi.index()],
                        "{tag}: live-in at {bi:?}"
                    );
                    assert_eq!(
                        ld.live_out[bi.index()], lr.live_out[bi.index()],
                        "{tag}: live-out at {bi:?}"
                    );
                }
                functions_checked += 1;
            }
        }
    }
    assert!(
        functions_checked >= 80,
        "matrix should cover the suite ({functions_checked} functions)"
    );
}
