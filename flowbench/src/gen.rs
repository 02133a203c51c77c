//! Seeded generator for the `wide_program` workload: mini-C programs with
//! many small, call-free loop functions, each called once from `main`.
//!
//! The suite hands the decompiler one or two functions per binary, so its
//! per-function passes never see volume. These programs do: lift, SSA, the
//! optimizer passes and structure recovery run over ~200 functions per
//! binary, while the simulator runs mostly cold, run-once code and the
//! partitioner sees many small candidate loops instead of a few hot ones.
//!
//! Every program is deterministic: `main` returns a checksum that must be
//! identical at every optimization level. Generated code stays inside the
//! subset where that holds: array indices are in bounds by construction,
//! shift amounts are constants below 32, there is no division, and no
//! `switch` (so no jump tables).

use crate::util::Rng;
use std::fmt::Write;

/// Global arrays every generated function may read and write.
const ARRAYS: [&str; 3] = ["ga", "gb", "gc"];
/// Elements per global array.
const ARRAY_LEN: u64 = 64;

/// One generated program's source.
pub fn program(rng: &mut Rng, functions: usize) -> String {
    let mut src = String::new();
    for a in ARRAYS {
        let _ = writeln!(src, "int {a}[{ARRAY_LEN}];");
    }
    src.push_str("unsigned char gd[64];\n");
    for k in 0..functions {
        function(rng, k, &mut src);
    }
    src.push_str("int main(void) {\n  int i; int chk = 0;\n");
    let _ = writeln!(
        src,
        "  for (i = 0; i < {ARRAY_LEN}; i++) {{ ga[i] = (i * {}) & 1023; gb[i] = i - {}; gc[i] = (i * {}) ^ {}; gd[i] = (unsigned char)(i * 7); }}",
        rng.range(3, 97) | 1,
        rng.range(1, 40),
        rng.range(5, 61),
        rng.range(0, 255),
    );
    for k in 0..functions {
        let combine = ["+", "^", "-"][rng.below(3) as usize];
        let _ = writeln!(
            src,
            "  chk = chk {combine} f{k}(chk & {});",
            rng.range(7, 63)
        );
    }
    src.push_str("  return chk & 0xffff;\n}\n");
    src
}

fn array(rng: &mut Rng) -> &'static str {
    ARRAYS[rng.below(ARRAYS.len() as u64) as usize]
}

fn binop(rng: &mut Rng) -> &'static str {
    ["+", "-", "^", "|", "&", "*"][rng.below(6) as usize]
}

/// One `int f<k>(int x)` with a call-free loop body of one of six shapes
/// (reduction, map, conditional, nested loop, bit loop, while), taken in
/// turn so every program has the same mix; the seed draws the operators,
/// constants, arrays and trip counts.
fn function(rng: &mut Rng, k: usize, src: &mut String) {
    let trip = rng.range(8, 17);
    // Highest offset that keeps `i + off` inside the array.
    let off = rng.range(0, ARRAY_LEN - trip);
    let (a, b) = (array(rng), array(rng));
    let (c1, c2) = (rng.range(1, 255), rng.range(1, 31));
    let (op1, op2) = (binop(rng), binop(rng));
    let _ = writeln!(src, "int f{k}(int x) {{\n  int i; int acc = x;");
    match k % 6 {
        0 => {
            let _ = writeln!(
                src,
                "  for (i = 0; i < {trip}; i++) acc = acc {op1} ({a}[i + {off}] {op2} {c1});"
            );
        }
        1 => {
            let _ = writeln!(
                src,
                "  for (i = 0; i < {trip}; i++) {{ {b}[i + {off}] = ({a}[i] {op1} {c1}) {op2} x; acc += {b}[i + {off}]; }}"
            );
        }
        2 => {
            let _ = writeln!(
                src,
                "  for (i = 0; i < {trip}; i++) {{ if ({a}[i + {off}] > {c1}) acc += {a}[i + {off}]; else acc = acc {op1} {c2}; }}"
            );
        }
        3 => {
            let inner = rng.range(8, 25);
            let _ = writeln!(
                src,
                "  int j;\n  for (i = 0; i < {trip}; i++) for (j = 0; j < {inner}; j++) acc = acc + ({a}[i + j] {op1} {c1});"
            );
        }
        4 => {
            let _ = writeln!(
                src,
                "  unsigned int w; int n;\n  for (i = 0; i < {trip}; i++) {{ w = (unsigned int)gd[i + {off}]; for (n = 0; n < 8; n++) {{ acc = acc ^ (int)(w & 1u); w = w >> 1; }} }}"
            );
        }
        _ => {
            let _ = writeln!(
                src,
                "  i = 0;\n  while (i < {trip}) {{ acc = acc * {} + ({a}[i] << {}); i++; }}",
                rng.range(2, 9),
                rng.below(8)
            );
        }
    }
    let _ = writeln!(src, "  return acc;\n}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_source() {
        let a = program(&mut Rng::new(42), 20);
        let b = program(&mut Rng::new(42), 20);
        assert_eq!(a, b);
        assert_ne!(a, program(&mut Rng::new(43), 20));
    }
}
