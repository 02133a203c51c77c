//! Per-kernel synthesis-estimate caching.
//!
//! Behavioral synthesis is the most expensive step of the partitioning
//! flow's inner loop: every candidate region is scheduled, bound, and
//! emitted to VHDL each time the partitioner considers it — and a
//! design-space sweep considers the *same* regions at every (clock, area
//! budget) point, because neither affects the synthesis result. This
//! module memoizes [`synthesize`] per kernel.
//!
//! # Keying and sharing rules
//!
//! A cache entry is keyed by everything [`synthesize`] reads:
//!
//! * the kernel — a **slot index**, one per harvested candidate region of
//!   **one decompiled program** (profile attached). The cache does not
//!   fingerprint function bodies or regions, so a cache must only be
//!   shared across calls that pass the *same* program and the same
//!   candidate list, each candidate always under its own index. The staged
//!   flow owns one cache per `EstimatedProgram` artifact, sized to its
//!   candidate set, which guarantees this by construction.
//! * the [`Variant`]: block-RAM placement (`mem_in_bram`, `bram_bytes`),
//!   resource budget and technology library, compared exactly (float
//!   fields by bit pattern, library name included) so two different
//!   configurations can never alias an entry.
//!
//! Synthesis is deterministic, so a cached result is bit-identical to a
//! fresh run — sweeps that share a cache produce exactly the numbers of the
//! uncached flow.
//!
//! # Layout: one slot chain per candidate
//!
//! Each slot is a grow-only singly linked chain of nodes, one node per
//! variant seen for that kernel (typically one or two: external memory and
//! block RAM). Every link and every node's result is a [`OnceLock`], so
//! the structure only ever grows and a published node never moves:
//!
//! * a **hit** walks the chain with [`OnceLock::get`] (one acquire load
//!   per link) and returns a borrow of the cached
//!   `Result<Arc<SynthesisResult>, SynthError>` — no lock, no atomic
//!   read-modify-write, no allocation;
//! * a **miss** appends a node with `get_or_init` (a racing thread that
//!   loses the append sees the winner's node and walks on), then fills
//!   its result with `get_or_init`, so each key is synthesized exactly
//!   once even under concurrency. Only a miss builds a
//!   [`SynthesisInput`] (region `Vec` and library clone).
//!
//! Lookups count hits and misses into a caller-owned [`MemoTally`]; the
//! caller adds it to the cache-wide [`hits`](EstimateCache::hits) /
//! [`misses`](EstimateCache::misses) totals once per batch with
//! [`record`](EstimateCache::record), so concurrent sweep points share no
//! counter cache line per lookup and each batch knows its own exact
//! counts.

use crate::{synthesize, ResourceBudget, SynthError, SynthesisInput, SynthesisResult, TechLibrary};
use binpart_cdfg::ir::{BlockId, Function};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The synthesis inputs of one lookup besides the kernel itself. Two
/// variants are the same entry only when every field is equal, floats by
/// bit pattern.
#[derive(Debug, Clone, Copy)]
pub struct Variant<'a> {
    /// Whether arrays live in block RAM.
    pub mem_in_bram: bool,
    /// Bytes of array data in block RAM.
    pub bram_bytes: u64,
    /// Resource budget.
    pub budget: &'a ResourceBudget,
    /// Technology library.
    pub library: &'a TechLibrary,
}

/// Hit/miss counts of a batch of lookups (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoTally {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that ran synthesis.
    pub misses: u64,
}

type Memo = Result<Arc<SynthesisResult>, SynthError>;
type Link = OnceLock<Box<Node>>;

/// One variant of one kernel: its owned key and its memoized result.
struct Node {
    mem_in_bram: bool,
    bram_bytes: u64,
    budget: ResourceBudget,
    library: TechLibrary,
    result: OnceLock<Memo>,
    next: Link,
}

impl Node {
    fn new(v: &Variant<'_>) -> Node {
        Node {
            mem_in_bram: v.mem_in_bram,
            bram_bytes: v.bram_bytes,
            budget: *v.budget,
            library: v.library.clone(),
            result: OnceLock::new(),
            next: OnceLock::new(),
        }
    }

    fn matches(&self, v: &Variant<'_>) -> bool {
        self.mem_in_bram == v.mem_in_bram
            && self.bram_bytes == v.bram_bytes
            && same_budget(&self.budget, v.budget)
            && same_library(&self.library, v.library)
    }
}

// Both comparisons destructure exhaustively, so a field added to either
// struct fails to compile here instead of silently aliasing entries.
fn same_budget(a: &ResourceBudget, b: &ResourceBudget) -> bool {
    let ResourceBudget {
        multipliers,
        mem_ports,
        target_period_ns,
    } = a;
    *multipliers == b.multipliers
        && *mem_ports == b.mem_ports
        && target_period_ns.to_bits() == b.target_period_ns.to_bits()
}

fn same_library(a: &TechLibrary, b: &TechLibrary) -> bool {
    let TechLibrary {
        name,
        lut_delay_ns,
        ff_overhead_ns,
        gates_per_lut,
        gates_per_ff,
        gates_per_mult,
        gates_per_bram,
        bram_block_bits,
        div_cycles,
        ext_mem_cycles,
    } = a;
    *name == b.name
        && lut_delay_ns.to_bits() == b.lut_delay_ns.to_bits()
        && ff_overhead_ns.to_bits() == b.ff_overhead_ns.to_bits()
        && gates_per_lut.to_bits() == b.gates_per_lut.to_bits()
        && gates_per_ff.to_bits() == b.gates_per_ff.to_bits()
        && gates_per_mult.to_bits() == b.gates_per_mult.to_bits()
        && gates_per_bram.to_bits() == b.gates_per_bram.to_bits()
        && *bram_block_bits == b.bram_block_bits
        && *div_cycles == b.div_cycles
        && *ext_mem_cycles == b.ext_mem_cycles
}

/// A shareable memo of [`synthesize`] results with one slot per kernel
/// (see the module docs). Thread-safe; wrap in `Arc` or borrow to share.
pub struct EstimateCache {
    slots: Box<[Link]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EstimateCache {
    /// An empty cache with `slots` kernel slots (one per candidate).
    pub fn new(slots: usize) -> EstimateCache {
        EstimateCache {
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Memoized [`synthesize`] of `region` of `function` — the kernel of
    /// `slot` — under `variant`: returns the cached result or synthesizes
    /// it (exactly once per key, even under concurrency), counting the
    /// lookup into `tally`. Errors are cached like results.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the slot count given to
    /// [`EstimateCache::new`].
    pub fn synthesize(
        &self,
        slot: usize,
        function: &Function,
        region: &[BlockId],
        variant: &Variant<'_>,
        tally: &mut MemoTally,
    ) -> &Result<Arc<SynthesisResult>, SynthError> {
        let node = self.node(slot, variant);
        if let Some(result) = node.result.get() {
            tally.hits += 1;
            return result;
        }
        let mut built = false;
        let result = node.result.get_or_init(|| {
            built = true;
            synthesize(&SynthesisInput {
                function,
                region: region.to_vec(),
                mem_in_bram: variant.mem_in_bram,
                bram_bytes: variant.bram_bytes,
                budget: *variant.budget,
                library: variant.library.clone(),
            })
            .map(Arc::new)
        });
        if built {
            tally.misses += 1;
        } else {
            tally.hits += 1;
        }
        result
    }

    /// The node for `variant` in `slot`'s chain, appended if absent.
    fn node(&self, slot: usize, variant: &Variant<'_>) -> &Node {
        let mut link = &self.slots[slot];
        loop {
            let node = match link.get() {
                Some(node) => node,
                None => link.get_or_init(|| Box::new(Node::new(variant))),
            };
            if node.matches(variant) {
                return node;
            }
            link = &node.next;
        }
    }

    /// Adds a batch's counts to the cache-wide totals.
    pub fn record(&self, tally: MemoTally) {
        self.hits.fetch_add(tally.hits, Ordering::Relaxed);
        self.misses.fetch_add(tally.misses, Ordering::Relaxed);
    }

    /// Recorded cache hits so far (observability for benches and tests).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Recorded synthesis runs so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct (kernel, variant) results cached.
    pub fn len(&self) -> usize {
        let mut n = 0;
        for mut link in self.slots.iter() {
            while let Some(node) = link.get() {
                n += usize::from(node.result.get().is_some());
                link = &node.next;
            }
        }
        n
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for EstimateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimateCache")
            .field("slots", &self.slots.len())
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{BinOp, MemWidth, Op, Operand, Terminator};
    use binpart_cdfg::ssa;

    fn kernel(name: &str, op: BinOp) -> Function {
        let mut f = Function::new(name);
        let x = f.new_vreg();
        let y = f.new_vreg();
        let e = f.entry;
        f.block_mut(e).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).push(Op::Bin {
            op,
            dst: y,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(3),
        });
        f.block_mut(e).push(Op::Store {
            src: Operand::Reg(y),
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
        });
        f.block_mut(e).term = Terminator::Return { value: None };
        f.block_mut(e).profile_count = 10;
        ssa::construct(&mut f);
        f
    }

    fn empty() -> Function {
        let mut f = Function::new("e");
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        f
    }

    fn variant<'a>(input: &'a SynthesisInput<'_>) -> Variant<'a> {
        Variant {
            mem_in_bram: input.mem_in_bram,
            bram_bytes: input.bram_bytes,
            budget: &input.budget,
            library: &input.library,
        }
    }

    fn lookup<'c>(
        cache: &'c EstimateCache,
        input: &SynthesisInput<'_>,
        tally: &mut MemoTally,
    ) -> &'c Result<Arc<SynthesisResult>, SynthError> {
        cache.synthesize(0, input.function, &input.region, &variant(input), tally)
    }

    #[test]
    fn cached_result_matches_fresh_synthesis() {
        let f = kernel("k", BinOp::Add);
        let region: Vec<BlockId> = f.block_ids().collect();
        let input = SynthesisInput::new(&f, region);
        let fresh = synthesize(&input).unwrap();
        let cache = EstimateCache::new(1);
        let mut tally = MemoTally::default();
        let first = lookup(&cache, &input, &mut tally).as_ref().unwrap();
        let second = lookup(&cache, &input, &mut tally).as_ref().unwrap();
        assert_eq!(tally, MemoTally { hits: 1, misses: 1 });
        assert!(Arc::ptr_eq(first, second));
        assert_eq!(first.area.gate_equivalents, fresh.area.gate_equivalents);
        assert_eq!(first.timing.hw_cycles, fresh.timing.hw_cycles);
        assert_eq!(
            first.timing.clock_mhz.to_bits(),
            fresh.timing.clock_mhz.to_bits()
        );
        assert_eq!(first.vhdl, fresh.vhdl);
        // Lookups only count into the tally; `record` adds it once.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.record(tally);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_bram_placement_is_a_different_entry() {
        let f = kernel("k", BinOp::Add);
        let region: Vec<BlockId> = f.block_ids().collect();
        let mut input = SynthesisInput::new(&f, region);
        let cache = EstimateCache::new(1);
        let mut tally = MemoTally::default();
        let bram = lookup(&cache, &input, &mut tally).clone().unwrap();
        input.mem_in_bram = false;
        let ext = lookup(&cache, &input, &mut tally).clone().unwrap();
        assert_eq!(tally.misses, 2);
        assert!(ext.timing.hw_cycles > bram.timing.hw_cycles);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_library_is_a_different_entry() {
        let f = kernel("k", BinOp::Add);
        let region: Vec<BlockId> = f.block_ids().collect();
        let mut input = SynthesisInput::new(&f, region);
        let cache = EstimateCache::new(1);
        let mut tally = MemoTally::default();
        let _ = lookup(&cache, &input, &mut tally);
        input.library.gates_per_lut *= 2.0;
        let _ = lookup(&cache, &input, &mut tally);
        input.library.gates_per_lut /= 2.0;
        input.library.name = "renamed".into();
        let _ = lookup(&cache, &input, &mut tally);
        assert_eq!(tally.misses, 3);
    }

    #[test]
    fn errors_are_cached_too() {
        let f = empty();
        let region: Vec<BlockId> = f.block_ids().collect();
        let input = SynthesisInput::new(&f, region);
        let cache = EstimateCache::new(1);
        let mut tally = MemoTally::default();
        for _ in 0..2 {
            assert_eq!(
                lookup(&cache, &input, &mut tally).as_ref().unwrap_err(),
                &SynthError::EmptyRegion
            );
        }
        assert_eq!(tally, MemoTally { hits: 1, misses: 1 });
    }

    /// 4 threads × 200 mixed lookups over 3 candidates × 2 BRAM
    /// placements: every key is synthesized exactly once, every lookup is
    /// counted exactly once, and every thread is served the same `Arc`.
    #[test]
    fn concurrent_lookups_synthesize_each_key_once() {
        const THREADS: usize = 4;
        const LOOKUPS: usize = 200;
        let functions = [
            kernel("add", BinOp::Add),
            kernel("mul", BinOp::Mul),
            empty(),
        ];
        let regions: Vec<Vec<BlockId>> =
            functions.iter().map(|f| f.block_ids().collect()).collect();
        let budget = ResourceBudget::default();
        let library = TechLibrary::virtex2();
        let keys: Vec<(usize, bool)> = (0..3).flat_map(|c| [(c, true), (c, false)]).collect();
        let cache = EstimateCache::new(functions.len());
        let start = std::sync::Barrier::new(THREADS);
        // The same memoized result, `Arc` identity included.
        let same = |a: &Memo, b: &Memo| match (a, b) {
            (Ok(a), Ok(b)) => Arc::ptr_eq(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        // Per thread: the result seen for each key, plus per-key misses.
        let per_thread: Vec<(Vec<Option<Memo>>, Vec<u64>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, functions, regions, keys) = (&cache, &functions, &regions, &keys);
                    let (budget, library, start) = (&budget, &library, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut seen: Vec<Option<Memo>> = vec![None; keys.len()];
                        let mut misses = vec![0u64; keys.len()];
                        let mut tally = MemoTally::default();
                        let mut state = 0x9e37_79b9u32.wrapping_mul(t as u32 + 1);
                        for _ in 0..LOOKUPS {
                            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                            let k = (state >> 16) as usize % keys.len();
                            let (c, mem_in_bram) = keys[k];
                            let variant = Variant {
                                mem_in_bram,
                                bram_bytes: 0,
                                budget,
                                library,
                            };
                            let before = tally.misses;
                            let r = cache.synthesize(
                                c,
                                &functions[c],
                                &regions[c],
                                &variant,
                                &mut tally,
                            );
                            misses[k] += tally.misses - before;
                            if let Some(prev) = &seen[k] {
                                assert!(same(prev, r), "key {k} changed result");
                            }
                            seen[k] = Some(r.clone());
                        }
                        assert_eq!(tally.hits + tally.misses, LOOKUPS as u64);
                        cache.record(tally);
                        (seen, misses)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), keys.len() as u64, "one synthesis per key");
        assert_eq!(cache.hits() + cache.misses(), (THREADS * LOOKUPS) as u64);
        assert_eq!(cache.len(), keys.len());
        for k in 0..keys.len() {
            let total_misses: u64 = per_thread.iter().map(|(_, m)| m[k]).sum();
            assert_eq!(total_misses, 1, "key {k} synthesized once");
            let results: Vec<&Memo> = per_thread
                .iter()
                .filter_map(|(s, _)| s[k].as_ref())
                .collect();
            assert!(results.len() > 1, "key {k} looked up by several threads");
            assert!(
                results.windows(2).all(|w| same(w[0], w[1])),
                "key {k}: same Arc everywhere"
            );
            // The empty region's error is served from the memo too.
            assert_eq!(results[0].is_err(), keys[k].0 == 2);
        }
    }
}
