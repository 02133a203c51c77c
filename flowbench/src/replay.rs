//! Times the decompiler's sub-layers by replaying `decompile()`'s exact
//! pass order from the public functions of `binpart_core` and
//! `binpart_cdfg`.
//!
//! The replay's [`DecompileStats`] are compared with the real
//! `decompile()`'s on every binary it sees, so the replay cannot drift from
//! the real pipeline unnoticed.

use binpart_cdfg::ir::VReg;
use binpart_cdfg::{cfg, ssa, structure};
use binpart_core::lift::{self, DecompileError, DecompileOptions};
use binpart_core::{opts, DecompileStats};
use binpart_mips::{Binary, Reg};
use std::time::Instant;

/// The sub-layers, in pipeline order.
pub const SUBLAYERS: [&str; 8] = [
    "lift",
    "opts.stack_op_removal",
    "ssa",
    "opts.const_copy_prop",
    "opts.strength_promotion",
    "opts.loop_reroll",
    "opts.size_reduction",
    "structure",
];

/// Seconds spent in each of [`SUBLAYERS`].
pub type SubTimes = [f64; SUBLAYERS.len()];

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Replays `decompile(binary, options)` pass by pass. Only the
/// configuration the benchmark uses is replayed: optimization on, software
/// fallback off (every failure is a whole-program error).
pub fn replay(
    binary: &Binary,
    options: DecompileOptions,
) -> Result<(DecompileStats, SubTimes), DecompileError> {
    assert!(
        options.optimize && !options.software_fallback,
        "replayed configuration"
    );
    let mut t: SubTimes = [0.0; SUBLAYERS.len()];
    let mut stats = DecompileStats::default();
    let lifted = timed(&mut t[0], || lift::lift_program(binary, options))?;
    for mut f in lifted.functions {
        timed(&mut t[1], || {
            opts::stack_op_removal(&mut f, &mut stats.passes)
        });
        timed(&mut t[2], || {
            let info = ssa::construct(&mut f);
            // Calling-convention recovery, as decompile() does it.
            let mut params: Vec<(u32, VReg)> = info
                .live_ins
                .iter()
                .map(|(orig, name)| (orig.0, *name))
                .filter(|(n, _)| (Reg::A0.number() as u32..=Reg::A3.number() as u32).contains(n))
                .collect();
            params.sort();
            f.params = params.into_iter().map(|(_, v)| v).collect();
        });
        timed(&mut t[3], || {
            opts::const_copy_prop(&mut f, &mut stats.passes)
        })?;
        timed(&mut t[4], || {
            opts::strength_promotion(&mut f, &mut stats.passes)
        });
        timed(&mut t[5], || opts::loop_reroll(&mut f, &mut stats.passes))?;
        timed(&mut t[3], || {
            opts::const_copy_prop(&mut f, &mut stats.passes)
        })?;
        timed(&mut t[6], || {
            opts::size_reduction(&mut f, &mut stats.passes)
        });
        let st = timed(&mut t[7], || {
            cfg::remove_unreachable(&mut f);
            structure::recover(&f).stats()
        });
        stats.functions += 1;
        stats.blocks += f.blocks.len();
        let s = &mut stats.structure;
        s.blocks += st.blocks;
        s.ifs += st.ifs;
        s.if_elses += st.if_elses;
        s.whiles += st.whiles;
        s.do_whiles += st.do_whiles;
        s.self_loops += st.self_loops;
        s.switches += st.switches;
        s.unstructured += st.unstructured;
    }
    Ok((stats, t))
}
