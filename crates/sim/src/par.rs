//! A parallel CCSS engine: [`EssentSim`] plus a fan-out runtime that
//! runs only when measured activity pays for it.
//!
//! The acyclic partitioning that makes singular *sequential* schedules
//! possible also exposes parallelism: the dependence analysis in
//! [`essent_core::depgraph`] synthesizes a static **dataflow** schedule
//! — compile-time partition→worker assignment, per-edge waits on
//! per-partition `done` cycle counters instead of global barriers, and
//! cycle-boundary overlap for partitions proved independent of the
//! serial phase. That is this engine's one N-worker schedule.
//!
//! Fanning out has a fixed per-cycle price (the `done` publications and
//! cross-worker handoffs), and at the paper's low activity factors a
//! cycle holds far less work than that price: on r18 running a pointer
//! chase, about 140 ops per cycle against 2121 partition flags. So the
//! engine decides at every [`step`](Simulator::step) call from its own
//! counters: when the previous call's mean evaluated ops per cycle
//! reached [`FANOUT_CROSSOVER_OPS`] it runs the N-worker schedule;
//! otherwise it runs [`EssentSim`]'s own cycle on the calling thread,
//! with no threads spawned. The engine's first cycle (every flag starts
//! set) never counts toward the measurement, and calls shorter than 64
//! cycles never fan out. The decision is a pure function of the
//! counters, so runs stay reproducible. The dependence graph and the
//! N-worker schedule are built on the first fan-out only.
//!
//! The N-worker schedule evaluates each partition exactly as
//! [`EssentSim`]'s cycle does, over the same trigger tables, flags and
//! snapshot storage, and books the same
//! [`WorkCounters`](crate::WorkCounters): outputs and counters do not
//! depend on the path, the worker count or the engine.
//!
//! Memory-write elision is disabled here (concurrent in-partition writes
//! to a shared bank would race — see [`PlanOptions::elide_mem`]); register
//! elision is kept, since each register is written by exactly one
//! partition into a private slot and the schedule orders every reader
//! before the in-place commit. Triggering is push-only.
//!
//! This is the direction of the follow-on research building on ESSENT
//! (thread-parallel simulation over replication-free partitionings); it
//! is not part of the DAC 2020 evaluation and is benchmarked separately
//! (the `bsp` bench bin; DESIGN.md §12 records the crossover).
//!
//! [`PlanOptions::elide_mem`]: essent_core::plan::PlanOptions::elide_mem

use crate::compile::{Block, Item};
use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::essent::{build_plan, span, EssentSim};
use crate::jit;
use crate::machine::{self, Machine, MemBank};
use crate::profile::{NoProfile, ProfileReport, Profiler};
use crate::step1::{Flag, TierStats};
use essent_bits::Bits;
use essent_core::depgraph::{
    synthesize_dataflow, DataflowSchedule, DepGraph, FANOUT_CROSSOVER_OPS,
};
use essent_core::partition::ActivityPrior;
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalDef};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// The level derivation lives in `essent_core::plan` (shared with the
// bench tooling); re-exported so existing `essent_sim::par::plan_levels`
// users keep working. `essent-verify` keeps its own independent
// re-derivation.
pub use essent_core::plan::plan_levels;

/// `step` calls shorter than this never fan out, and a measurement
/// window shorter than this never justifies fanning out: spawning the
/// workers costs tens of microseconds, which only a run of many cycles
/// pays back, and a mean over a few cycles says little about the next
/// call (the reset `step(2)` of every workload is such a call).
const FANOUT_MIN_CYCLES: u64 = 64;

/// The fan-out decision for one `step(n)` call: a pure function of the
/// worker budget, the call length, and the `(ops, cycles)` the previous
/// call evaluated (the engine's first cycle excluded).
fn fans_out(threads: usize, n: u64, window: (u64, u64)) -> bool {
    let (ops, cycles) = window;
    threads > 1
        && n >= FANOUT_MIN_CYCLES
        && cycles >= FANOUT_MIN_CYCLES
        && ops >= FANOUT_CROSSOVER_OPS.saturating_mul(cycles)
}

/// Per-partition cost estimates: they weigh the dataflow schedule's
/// earliest-finish-time placement and the JIT's selection threshold.
///
/// Units are *approximately nanoseconds per simulated cycle*: measured
/// priors record expected eval time per cycle, and the static fallback
/// counts single-word steps (~1 ns each). The unit only weighs
/// partitions against each other, so the approximation is harmless.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Estimated cost per scheduled partition (always ≥ 1).
    pub costs: Vec<u64>,
}

impl CostModel {
    /// Builds the cost table for a plan: measured per-cycle eval cost
    /// where `prior` covers a partition's members, static step counts
    /// elsewhere.
    pub fn build(plan: &CcssPlan, blocks: &[Block], prior: Option<&ActivityPrior>) -> CostModel {
        let costs = plan
            .partitions
            .iter()
            .zip(blocks)
            .map(|(part, block)| {
                let measured: f64 = prior
                    .map(|pr| {
                        part.members
                            .iter()
                            .filter(|s| s.index() < pr.len())
                            .map(|s| pr.node_cost(s.index()))
                            .sum()
                    })
                    .unwrap_or(0.0);
                let cost = if measured > 0.0 {
                    measured.round() as u64
                } else {
                    block.items.iter().map(Item::step_count).sum::<usize>() as u64
                };
                cost.max(1)
            })
            .collect();
        CostModel { costs }
    }
}

/// Shared arena pointer that workers may dereference under the engine's
/// disjointness discipline.
#[derive(Clone, Copy)]
struct ArenaPtr(*mut u64);
// SAFETY: workers only touch disjoint slots while running concurrently
// (each signal is written by exactly one partition; reads target
// finished producers or state), enforced by the dataflow wait protocol
// and proven statically by the `essent-verify` footprint layer
// (R0502/R0503) and dependence-cover layer (S0601).
unsafe impl Send for ArenaPtr {}
// SAFETY: same disjointness discipline as the `Send` impl above —
// concurrent `&ArenaPtr` access only ever dereferences
// schedule-disjoint word ranges (R0502/R0503, S0601).
unsafe impl Sync for ArenaPtr {}

impl ArenaPtr {
    /// Accessor (closures must capture the Sync wrapper, not the raw
    /// pointer field — Rust 2021 captures precise paths).
    #[inline]
    fn get(&self) -> *mut u64 {
        self.0
    }
}

/// Shared memory-bank pointer for the worker closures.
struct MemsPtr(*mut MemBank, usize);
// SAFETY: workers only *read* the banks during partition evaluation;
// the banks are written exclusively in the serial phase, which runs
// concurrently only with partitions whose exemption proof includes
// bank-read disjointness (S0602).
unsafe impl Send for MemsPtr {}
// SAFETY: same read-only-during-evaluation discipline as `Send`.
unsafe impl Sync for MemsPtr {}
impl MemsPtr {
    /// The banks as a shared slice.
    ///
    /// # Safety
    ///
    /// No bank may be written while the slice is alive, except by the
    /// serial phase concurrently with partitions that read no written
    /// bank (S0602).
    #[inline]
    unsafe fn banks<'a>(&self) -> &'a [MemBank] {
        // SAFETY: the pointer and length come from the machine's bank
        // vector, which outlives every run (caller's contract covers
        // aliasing).
        unsafe { std::slice::from_raw_parts(self.0, self.1) }
    }
}

/// Shared snapshot-buffer pointer for the worker closures.
#[derive(Clone, Copy)]
struct OldPtr(*mut u64);
// SAFETY: the snapshot buffer is partitioned by construction — each
// partition owns a private, pre-assigned range (its outputs' `old_off`
// entries in [`EssentSim`]'s trigger tables), so workers never alias.
unsafe impl Send for OldPtr {}
// SAFETY: same private-per-partition ranges as the `Send` impl.
unsafe impl Sync for OldPtr {}
impl OldPtr {
    #[inline]
    fn get(&self) -> *mut u64 {
        self.0
    }
}

/// The N-worker side of the engine, built on the first fan-out.
struct FanOut {
    /// The synthesized dataflow schedule.
    sched: DataflowSchedule,
    /// Per-partition arena offsets of the stop-condition bits the
    /// partition computes: after evaluating, the owner probes these and
    /// publishes an early halt bound so speculative next-cycle work
    /// never outruns a firing `stop`.
    stop_probe: Vec<Vec<u32>>,
}

/// Thread-parallel CCSS simulator.
pub struct ParEssentSim {
    /// The sequential engine over the parallel plan: every cycle that
    /// does not fan out is its cycle, and the N-worker schedule runs
    /// over its tables, flags and arena.
    seq: EssentSim,
    /// Per-partition [`CostModel`] estimates, kept for the lazily
    /// synthesized N-worker schedule.
    costs: Vec<u64>,
    /// `None` until the first fanned-out call.
    fanout: Option<FanOut>,
    /// Testing hook ([`ParEssentSim::force_fanout`]): every call fans out.
    force_fanout: bool,
    /// `(ops, cycles)` the previous `step` call evaluated, the engine's
    /// first cycle excluded: what the next call's decision reads.
    window: (u64, u64),
    /// Cycles run on an N-worker schedule.
    fanout_cycles: u64,
    threads: usize,
    /// [`EngineConfig::race_sanitizer`]: fanned-out runs record every
    /// arena access into `shadow`.
    #[cfg(feature = "race-sanitizer")]
    sanitize: bool,
    /// Shadow memory for the dynamic race oracle, built with the
    /// N-worker schedule (it needs the schedule's ordering edges).
    #[cfg(feature = "race-sanitizer")]
    shadow: Option<Box<crate::sanitizer::ShadowMem>>,
}

impl ParEssentSim {
    /// Partitions the design and builds the parallel simulator with
    /// `threads` workers (0 = available parallelism).
    pub fn new(netlist: &Netlist, config: &EngineConfig, threads: usize) -> ParEssentSim {
        ParEssentSim::new_shared(Arc::new(netlist.clone()), config, threads)
    }

    /// [`ParEssentSim::new`] with a measured activity prior: the
    /// partitioning gains the profile-guided merge phase and the cost
    /// model weighs partitions by measured cost instead of static step
    /// counts.
    pub fn new_with_prior(
        netlist: &Netlist,
        config: &EngineConfig,
        threads: usize,
        prior: &ActivityPrior,
    ) -> ParEssentSim {
        ParEssentSim::new_shared_with_prior(Arc::new(netlist.clone()), config, threads, Some(prior))
    }

    /// [`ParEssentSim::new`] over an already-shared netlist (no deep
    /// clone).
    pub fn new_shared(
        netlist: Arc<Netlist>,
        config: &EngineConfig,
        threads: usize,
    ) -> ParEssentSim {
        ParEssentSim::new_shared_with_prior(netlist, config, threads, None)
    }

    /// The general constructor behind [`ParEssentSim::new_shared`] and
    /// [`ParEssentSim::new_with_prior`]: an [`EssentSim`] over a plan
    /// without memory-write elision, push-triggered (pull mode's only
    /// effect here is to turn trigger fusion off).
    pub fn new_shared_with_prior(
        netlist: Arc<Netlist>,
        config: &EngineConfig,
        threads: usize,
        prior: Option<&ActivityPrior>,
    ) -> ParEssentSim {
        let plan = build_plan(&netlist, config, prior, false);
        let config = EngineConfig {
            trigger_push: true,
            fuse_triggers: config.fuse_triggers && config.trigger_push,
            ..config.clone()
        };
        let seq = EssentSim::from_plan_shared_with_prior(netlist, plan, &config, prior);
        let costs = CostModel::build(&seq.plan, &seq.blocks, prior).costs;
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        ParEssentSim {
            seq,
            costs,
            fanout: None,
            force_fanout: false,
            window: (0, 0),
            fanout_cycles: 0,
            threads,
            #[cfg(feature = "race-sanitizer")]
            sanitize: config.race_sanitizer,
            #[cfg(feature = "race-sanitizer")]
            shadow: None,
        }
    }

    /// Number of dependency levels in the plan (the critical path, in
    /// partitions, of one cycle).
    pub fn level_count(&self) -> usize {
        plan_levels(&self.seq.plan).len()
    }

    /// Borrow of the underlying machine (testing, activity profiling).
    pub fn machine(&self) -> &Machine {
        self.seq.machine()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.seq.partition_count()
    }

    /// Aggregated word-specialization coverage over all partitions
    /// (`None` when the tier is disabled).
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.seq.tier_stats()
    }

    /// Number of partitions currently running native-compiled bodies
    /// (0 when the JIT is off or unsupported on this target).
    pub fn jit_compiled_count(&self) -> usize {
        self.seq.jit_compiled_count()
    }

    /// Number of cycles run on the N-worker schedule (0 while every call
    /// stayed below the fan-out crossover).
    pub fn fanout_cycles(&self) -> u64 {
        self.fanout_cycles
    }

    /// Testing hook: makes every later `step` call run the N-worker
    /// schedule whatever the measured activity, so tests and the race
    /// sanitizer cover the concurrent path on any design. Returns the
    /// schedule's worker count (1 when `threads` or the partition count
    /// leaves nothing to share; such a schedule runs on the calling
    /// thread).
    pub fn force_fanout(&mut self) -> usize {
        self.force_fanout = true;
        self.fanout().sched.worker_count()
    }

    /// Discards the compiled body for one partition, forcing it back to
    /// the tier-1 interpreter (deopt testing). Returns whether a body
    /// was actually dropped.
    pub fn force_deopt(&mut self, sched: usize) -> bool {
        self.seq.force_deopt(sched)
    }

    /// Discards every compiled body; returns how many were dropped.
    pub fn force_deopt_all(&mut self) -> usize {
        self.seq.force_deopt_all()
    }

    /// Testing hook: see [`EssentSim::jit_compile_all`].
    pub fn jit_compile_all(&mut self) -> usize {
        self.seq.jit_compile_all()
    }

    /// Borrow of the compiled partitions (verification, tests).
    pub fn jit_parts(&self) -> Option<&jit::JitParts> {
        self.seq.jit_parts()
    }

    /// The N-worker dataflow schedule; `None` until the engine first
    /// fanned out (or [`ParEssentSim::force_fanout`] built it).
    pub fn dataflow_schedule(&self) -> Option<&DataflowSchedule> {
        self.fanout.as_ref().map(|f| &f.sched)
    }

    /// The N-worker side, built on first use: the dependence graph, the
    /// synthesized schedule, its stop probes and (under the race
    /// sanitizer) the shadow memory with the schedule's ordering edges.
    fn fanout(&mut self) -> &FanOut {
        if self.fanout.is_none() {
            let (netlist, plan) = (&self.seq.machine.netlist, &self.seq.plan);
            let graph = DepGraph::derive(netlist, plan);
            let sched = synthesize_dataflow(plan, &graph, &self.costs, self.threads);
            let mut stop_probe = vec![Vec::new(); plan.partitions.len()];
            for st in netlist.stops() {
                if matches!(
                    netlist.signal(st.en).def,
                    SignalDef::Op(_) | SignalDef::MemRead { .. }
                ) {
                    let owner = plan.sched_of_signal[st.en.index()] as usize;
                    stop_probe[owner].push(self.seq.machine.layout.offset(st.en) as u32);
                }
            }
            // The sanitizer needs the schedule's same-cycle ordering
            // relation to tell legal handoffs from races.
            #[cfg(feature = "race-sanitizer")]
            if self.sanitize {
                let edges = graph
                    .preds
                    .iter()
                    .enumerate()
                    .flat_map(|(p, preds)| {
                        preds.iter().map(move |&q| ((q as u64) << 32) | p as u64)
                    })
                    .collect();
                self.shadow = Some(Box::new(crate::sanitizer::ShadowMem::new(
                    self.seq.machine.layout.total_words(),
                    edges,
                )));
            }
            self.fanout = Some(FanOut { sched, stop_probe });
        }
        self.fanout.as_ref().expect("built above")
    }

    /// Worker routine: evaluate one partition (flag already claimed),
    /// step for step as [`EssentSim`]'s cycle does, booking the same
    /// ops and dynamic checks into `work`.
    ///
    /// # Safety
    ///
    /// Caller must guarantee that no partition evaluating concurrently
    /// with `sched` writes any arena word this partition reads or
    /// writes: the dataflow waits, which `essent-verify` proves cover
    /// every footprint overlap (`R0501`–`R0504`, `S0601`–`S0604`) and
    /// the `race-sanitizer` feature checks dynamically. `flags` must be
    /// the engine's activity flags and `old_vals` its snapshot storage.
    #[allow(clippy::too_many_arguments)]
    unsafe fn eval_partition<P: Profiler>(
        &self,
        sched: usize,
        arena: ArenaPtr,
        mems: &[MemBank],
        flags: &[AtomicBool],
        old_vals: OldPtr,
        work: &mut Work,
        prof: &mut P,
    ) {
        let seq = &self.seq;
        let tr = &seq.triggers;
        let spans = tr.parts[sched];
        // Snapshot outputs.
        for o in span(spans.outs) {
            let (off, w, old) = (tr.out_off[o], tr.out_words[o], tr.old_off[o]);
            #[cfg(feature = "race-sanitizer")]
            crate::sanitizer::note_read(off, w as u32);
            // SAFETY: `off..off+w` are this partition's own output
            // slots (no concurrent writer per R0502/R0503); the `old`
            // range is this partition's private snapshot storage.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    arena.get().add(off as usize),
                    old_vals.get().add(old as usize),
                    w as usize,
                );
            }
        }
        match &seq.programs {
            Some(progs) => {
                let native = seq
                    .jit
                    .as_ref()
                    .and_then(|j| j.part(sched).map(|p| (p, j.banks())));
                if let Some((part, banks)) = native {
                    // SAFETY: the compiled body touches only arena
                    // offsets lowered from this partition's tier-1
                    // program, whose footprint equals the generic
                    // block's (R0501) — proved disjoint from concurrent
                    // partitions and in-bounds (R0502–R0504) — and is
                    // independently audited against the emitted bytes
                    // by the J07xx verify layer. Wakes are 1-byte stores
                    // of `true` into the `AtomicBool` flags (one byte
                    // each; single-byte stores are hardware-atomic on
                    // the supported targets, matching the relaxed atomic
                    // sink). Banks are read-only here, through the
                    // pinned bank table built from this machine's mems.
                    let (o, d) = unsafe {
                        part.run(arena.get(), flags.as_ptr().cast::<u8>().cast_mut(), banks)
                    };
                    work.ops += o;
                    work.dynamic += d;
                } else {
                    // SAFETY: the tier-1 program's footprint equals the
                    // generic block's (R0501), which the footprint layer
                    // proved disjoint from concurrent partitions and
                    // in-bounds (R0502–R0504); banks are read-only here.
                    unsafe {
                        prof.run_tier1(
                            &progs[sched],
                            arena.get(),
                            mems,
                            flags,
                            sched,
                            &mut work.ops,
                            &mut work.dynamic,
                        )
                    }
                }
            }
            // SAFETY: the generic block's footprint is exactly what the
            // footprint layer analyzed and proved disjoint from
            // concurrent partitions and in-bounds (R0502–R0504); banks
            // are read-only here.
            None => unsafe {
                machine::run_items_raw(&seq.blocks[sched].items, arena.get(), mems, &mut work.ops)
            },
        }
        // Elided registers: private slots, single writer. (The parallel
        // plan elides no memory write.)
        debug_assert!(span(spans.writes).is_empty());
        for r in &tr.regs[span(spans.regs)] {
            work.dynamic += 1;
            // SAFETY: the elided register's `next` and `out` slots are
            // in this partition's footprint (counted by the footprint
            // layer's engine-access pass), hence exclusive to it.
            let changed = unsafe {
                machine::commit_state_raw(
                    arena.get(),
                    r.next as usize,
                    r.out as usize,
                    r.words as usize,
                )
            };
            if changed {
                for &c in &tr.reg_wakes[span(r.wakes)] {
                    flags[c as usize].raise();
                    prof.wake_state_reg(r.plan as usize, c);
                }
            }
        }
        // Output triggers.
        for o in span(spans.outs) {
            work.dynamic += 1;
            let (off, w, old) = (tr.out_off[o], tr.out_words[o], tr.old_off[o]);
            #[cfg(feature = "race-sanitizer")]
            crate::sanitizer::note_read(off, w as u32);
            // SAFETY: output slots are written only by this partition
            // (R0502/R0503); the snapshot range is private. Both ranges
            // are in-bounds by construction.
            let (cur, snap) = unsafe {
                (
                    std::slice::from_raw_parts(arena.get().add(off as usize), w as usize),
                    std::slice::from_raw_parts(old_vals.get().add(old as usize), w as usize),
                )
            };
            if cur != snap {
                for &c in &tr.consumers[tr.cons_start[o] as usize..tr.cons_end[o] as usize] {
                    flags[c as usize].raise();
                    prof.wake_output(sched, c);
                }
            }
        }
    }

    /// Claims partition `p`'s activity flag and evaluates it, or books
    /// a skip. The relaxed load before the claiming RMW makes an idle
    /// partition cost one load: only the partition's own worker clears
    /// its flag, so the load cannot miss a wake ordered before this
    /// visit (by list order on one worker, by the wait edges on several
    /// — producer wakes precede their `done` stores, serial wakes
    /// precede `serial_done`, and the serial phase never wakes an
    /// exempt partition, S0602).
    ///
    /// # Safety
    ///
    /// As [`ParEssentSim::eval_partition`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn claim_and_eval<P: Profiler>(
        &self,
        p: usize,
        arena: ArenaPtr,
        banks: &[MemBank],
        flags: &[AtomicBool],
        old_vals: OldPtr,
        work: &mut Work,
        prof: &mut P,
    ) {
        if flags[p].load(Ordering::Relaxed) && flags[p].swap(false, Ordering::Relaxed) {
            let ops_before = work.ops;
            let t0 = prof.eval_begin(p);
            // SAFETY: caller's contract.
            unsafe { self.eval_partition(p, arena, banks, flags, old_vals, work, prof) };
            prof.eval_end(p, t0, work.ops - ops_before);
        } else {
            prof.unit_skip(p);
        }
    }

    /// End-of-cycle serial phase, as [`EssentSim`]'s cycle closes:
    /// printf/stop sampling, memory writes, and non-elided register
    /// commits, with their wake flags.
    ///
    /// # Safety
    ///
    /// No concurrently running partition evaluation may touch any arena
    /// word or memory bank this phase accesses: only *exempt* partitions
    /// run concurrently, whose footprints the dependence analysis
    /// proves disjoint from the serial footprint (verified as S0602).
    unsafe fn serial_phase<P: Profiler>(
        &self,
        arena: ArenaPtr,
        mems: &MemsPtr,
        flags: &[AtomicBool],
        run: &mut RunTally,
        prof: &mut P,
    ) {
        let seq = &self.seq;
        let (netlist, layout, plan) = (&*seq.machine.netlist, &seq.machine.layout, &seq.plan);
        if seq.machine.capture_printf {
            for p in netlist.printfs() {
                // SAFETY: serial-footprint word (caller's contract),
                // layout offsets in-bounds by construction.
                if unsafe { *arena.get().add(layout.offset(p.en)) } & 1 == 0 {
                    continue;
                }
                let args: Vec<Bits> = p
                    .args
                    .iter()
                    .map(|&a| {
                        let w = layout.words(a);
                        // SAFETY: serial-footprint words, in-bounds
                        // layout range (as above).
                        let slice = unsafe {
                            std::slice::from_raw_parts(arena.get().add(layout.offset(a)), w)
                        };
                        Bits::from_limbs(slice.to_vec(), netlist.signal(a).width)
                    })
                    .collect();
                run.printf_log
                    .push(essent_netlist::interp::format_printf(&p.fmt, &args));
            }
        }
        for st in netlist.stops() {
            // SAFETY: serial-footprint word, in-bounds layout offset.
            let en = unsafe { *arena.get().add(layout.offset(st.en)) } & 1 == 1;
            if en && run.halted.is_none() {
                run.halted = Some(st.code);
            }
        }
        // Memory writes (all serial in this engine), then register
        // commits.
        for &wi in &seq.commit_writes {
            let wp = &plan.mem_write_plans[wi];
            let m = wp.mem.index();
            // SAFETY: the banks are serial-phase-exclusive (caller's
            // contract: concurrent partitions read no written bank,
            // S0602); `m` indexes a real bank.
            let bank = unsafe { &mut *mems.0.add(m) };
            // SAFETY: serial-footprint words; `m`/`writer` index real
            // mems/writers, layout is in-bounds.
            let changed = unsafe {
                machine::run_mem_write_raw(netlist, layout, arena.get(), bank, m, wp.writer)
            };
            if changed {
                for &c in &wp.wake_on_change {
                    flags[c as usize].raise();
                    prof.wake_state_mem(wi, c);
                }
            }
        }
        for &ri in &seq.commit_regs {
            let reg = &netlist.regs()[ri];
            // SAFETY: `next` and `out` are distinct in-bounds layout
            // ranges in the serial footprint (non-elided registers).
            let changed = unsafe {
                machine::commit_state_raw(
                    arena.get(),
                    layout.offset(reg.next),
                    layout.offset(reg.out),
                    layout.words(reg.out),
                )
            };
            if changed {
                for &c in &plan.reg_plans[ri].wake_on_change {
                    flags[c as usize].raise();
                    prof.wake_state_reg(ri, c);
                }
            }
        }
        run.ran += 1;
    }

    /// The N-worker schedule for `n` cycles, with the engine's profile
    /// (if any) taken out for the run so the runtime monomorphizes over
    /// it as [`EssentSim`]'s cycle loop does. A schedule with one worker
    /// runs [`EssentSim`]'s cycle instead.
    fn run_fanned(&mut self, n: u64) -> u64 {
        if self.fanout().sched.worker_count() == 1 {
            return self.seq.step(n);
        }
        if n == 0 || self.seq.machine.halted.is_some() {
            return 0;
        }
        match self.seq.profile.take() {
            Some(mut p) => {
                let ran = self.run_workers(n, &mut *p);
                self.seq.profile = Some(p);
                ran
            }
            None => self.run_workers(n, &mut NoProfile),
        }
    }

    /// The N-worker dataflow runtime: no barriers — each worker walks
    /// its static partition list every cycle, synchronizing through
    /// per-partition `done` cycle counters.
    ///
    /// Protocol, per worker `t`, cycle `k` (1-based), partition `p`:
    ///
    /// 1. wait `done[q] >= k` for `q` in `waits_same[p]` (same-cycle
    ///    producers and elision anti-edges, reduced per foreign worker);
    /// 2. if `p` is *exempt* (footprint-disjoint from the serial
    ///    phase): wait `serial_done >= k-2` (one cycle of skew) and
    ///    `done[q] >= k-1` for `q` in `waits_prev[p]` (p's same-cycle
    ///    successors — whose cycle-`k-1` reads and flag claims p must
    ///    not outrun — plus the stop owners, so a published halt is
    ///    visible before speculating); otherwise wait
    ///    `serial_done >= k-1` (cycle `k-1` fully closed);
    /// 3. bail if a halt at a cycle before `k` was published (before
    ///    touching the activity flag, so poke/wake state survives for a
    ///    later `step` exactly as on one worker);
    /// 4. claim the flag and evaluate (or skip); probe any owned stop
    ///    bits and publish `halt_at = min(halt_at, k)` *before* step 5,
    ///    so no cycle `k+1` evaluation can start once a stop fired;
    /// 5. publish `done[p] = k` (release).
    ///
    /// The main worker additionally closes each cycle: waits every
    /// worker's tail `done >= k`, runs the serial phase (concurrent
    /// only with exempt partitions — disjoint by S0602), and publishes
    /// `serial_done = k`. Deadlock freedom: `waits_same` targets are
    /// schedule-order predecessors and worker lists ascend in schedule
    /// order, so all same-cycle waiting follows a total order; `waits_prev`
    /// and `serial_done` waits reference strictly earlier cycles
    /// (verified as S0603/S0605).
    ///
    /// Each other worker counts into its own [`Profiler::fork`], folded
    /// into `prof` after the run.
    fn run_workers<P: Profiler + Send>(&mut self, n: u64, prof: &mut P) -> u64 {
        let np = self.seq.plan.partitions.len();
        let arena = ArenaPtr(self.seq.machine.arena.as_mut_ptr());
        let mems = MemsPtr(
            self.seq.machine.mems.as_mut_ptr(),
            self.seq.machine.mems.len(),
        );
        let old_vals = OldPtr(self.seq.triggers.old_vals.as_mut_ptr());
        // SAFETY: `AtomicBool` has the same size, alignment and bit
        // validity as `bool`; the flag vector is borrowed mutably here
        // and, until this run returns, accessed only through this view.
        let flags: &[AtomicBool] =
            unsafe { std::slice::from_raw_parts(self.seq.flags.as_mut_ptr().cast(), np) };
        let this = &*self;
        let fo = this.fanout.as_ref().expect("built by run_fanned");
        let ds = &fo.sched;

        let done: Vec<AtomicU64> = (0..np).map(|_| AtomicU64::new(0)).collect();
        let serial_done = AtomicU64::new(0);
        // First cycle (exclusive) every worker must bail before; a stop
        // at cycle `k` halts the run after cycle `k` completes.
        let halt_at = AtomicU64::new(u64::MAX);
        let mut run = RunTally::new(this.seq.machine.halted);
        let mut work = Work::default();

        // Reserve one epoch per cycle so the sanitizer can tell
        // overlapping cycles apart (no-op without the feature).
        #[cfg(feature = "race-sanitizer")]
        let epoch_base = this
            .shadow
            .as_deref()
            .map(|s| s.advance_base(n + 2))
            .unwrap_or(0);

        // Bounded-spin wait: true once `ctr >= target`, false if a halt
        // before cycle `k` is published first (the worker must bail).
        let wait = |ctr: &AtomicU64, target: u64, k: u64| -> bool {
            let mut spins = 0u32;
            loop {
                if ctr.load(Ordering::Acquire) >= target {
                    return true;
                }
                if halt_at.load(Ordering::Acquire) < k {
                    return false;
                }
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        };
        // One worker's sweep of its partition list for cycle `k`;
        // returns false when the worker must bail (halt published).
        let sweep = |tid: usize, k: u64, work: &mut Work, prof: &mut P| -> bool {
            // SAFETY: banks are written only in the serial phase, which
            // runs concurrently only with exempt partitions whose bank
            // reads are disjoint from every written bank (S0602);
            // non-exempt partitions hold no bank access while the
            // serial phase runs (they wait on `serial_done`).
            let banks = unsafe { mems.banks() };
            for &p in &ds.workers[tid] {
                let p = p as usize;
                for &q in &ds.waits_same[p] {
                    if !wait(&done[q as usize], k, k) {
                        return false;
                    }
                }
                if ds.exempt[p] {
                    if !wait(&serial_done, k.saturating_sub(2), k) {
                        return false;
                    }
                    for &q in &ds.waits_prev[p] {
                        if !wait(&done[q as usize], k - 1, k) {
                            return false;
                        }
                    }
                } else if !wait(&serial_done, k - 1, k) {
                    return false;
                }
                if halt_at.load(Ordering::Acquire) < k {
                    return false;
                }
                {
                    // Tag accesses with this cycle's epoch (overlapping
                    // cycles are in flight at once).
                    #[cfg(feature = "race-sanitizer")]
                    let _sanitizer_scope = this
                        .shadow
                        .as_deref()
                        .map(|s| crate::sanitizer::enter_at(s, p as u32, epoch_base + k));
                    // SAFETY: every cross-partition footprint overlap is
                    // covered by a wait edge passed above (S0601), and
                    // cross-cycle overlap only pairs footprint-disjoint
                    // partitions (S0602/S0604).
                    unsafe { this.claim_and_eval(p, arena, banks, flags, old_vals, work, prof) };
                }
                // Publish a halt bound for any owned stop bits BEFORE
                // `done[p]`, so every wait on `done[p] >= k` also sees
                // the halt (stop owners are serial-conflicting, and
                // exempt partitions wait on the owners via
                // `waits_prev`).
                for &off in &fo.stop_probe[p] {
                    // SAFETY: the stop bit is `p`'s own member slot
                    // (owners are chosen by `sched_of_signal`), in
                    // bounds by construction.
                    let en = unsafe { *arena.get().add(off as usize) } & 1 == 1;
                    if en {
                        halt_at.fetch_min(k, Ordering::AcqRel);
                    }
                }
                done[p].store(k, Ordering::Release);
            }
            true
        };

        let forks: Vec<P> = (1..ds.worker_count()).map(|_| prof.fork()).collect();
        std::thread::scope(|scope| {
            let sweep = &sweep;
            let handles: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(i, mut fork)| {
                    scope.spawn(move || {
                        let mut work = Work::default();
                        for k in 1..=n {
                            fork.begin_cycle();
                            if !sweep(i + 1, k, &mut work, &mut fork) {
                                break;
                            }
                        }
                        (work, fork)
                    })
                })
                .collect();

            for k in 1..=n {
                prof.begin_cycle();
                if !sweep(0, k, &mut work, prof) {
                    break;
                }
                // Close cycle `k`: every worker's last partition done.
                let closed = ds.workers[1..]
                    .iter()
                    .filter_map(|list| list.last())
                    .all(|&tail| wait(&done[tail as usize], k, k));
                if !closed {
                    break;
                }
                // SAFETY: all workers finished cycle `k`; the only
                // evaluations that can be running concurrently are
                // exempt partitions at cycle `k+1`, whose footprints
                // the dependence analysis proves disjoint from every
                // word and bank the serial phase touches (S0602).
                unsafe { this.serial_phase(arena, &mems, flags, &mut run, prof) };
                if run.halted.is_some() {
                    // The halting cycle still counts (it completed);
                    // everything later bails before touching flags.
                    halt_at.fetch_min(k, Ordering::AcqRel);
                    break;
                }
                serial_done.store(k, Ordering::Release);
            }
            for (i, h) in handles.into_iter().enumerate() {
                let (w, fork) = h.join().expect("worker join");
                work.ops += w.ops;
                work.dynamic += w.dynamic;
                prof.absorb(fork, i as u32 + 1);
            }
        });

        self.fanout_cycles += run.ran;
        self.finish_run(run, work)
    }

    /// Folds one fanned-out run's tally back into the machine, booking
    /// the static checks [`EssentSim`]'s cycle books: one flag test per
    /// partition and one commit check per serial write or register, per
    /// cycle. Returns the cycles run.
    fn finish_run(&mut self, run: RunTally, work: Work) -> u64 {
        let seq = &mut self.seq;
        let per_cycle =
            (seq.plan.partitions.len() + seq.commit_writes.len() + seq.commit_regs.len()) as u64;
        let c = &mut seq.machine.counters;
        c.ops_evaluated += work.ops;
        c.dynamic_checks += work.dynamic;
        c.static_checks += per_cycle * run.ran;
        c.cycles += run.ran;
        seq.machine.cycle += run.ran;
        seq.machine.halted = run.halted;
        seq.machine.printf_log.extend(run.printf_log);
        run.ran
    }
}

/// One worker's share of a fanned-out run's work counters.
#[derive(Default)]
struct Work {
    ops: u64,
    dynamic: u64,
}

/// Serial-phase state of one run, folded back into the machine by
/// [`ParEssentSim::finish_run`].
struct RunTally {
    ran: u64,
    halted: Option<u64>,
    printf_log: Vec<String>,
}

impl RunTally {
    fn new(halted: Option<u64>) -> RunTally {
        RunTally {
            ran: 0,
            halted,
            printf_log: Vec::new(),
        }
    }
}

impl Simulator for ParEssentSim {
    fn poke(&mut self, name: &str, value: Bits) {
        self.seq.poke(name, value);
    }

    fn step(&mut self, n: u64) -> u64 {
        if self.seq.machine.halted.is_some() || n == 0 {
            return 0;
        }
        let mut first = 0;
        if self.seq.machine.cycle == 0 && !self.force_fanout {
            // The first cycle evaluates every partition (all flags start
            // set): run it on its own and keep it out of the window.
            first = self.seq.step(1);
        }
        let ops_before = self.seq.machine.counters.ops_evaluated;
        let rest = if self.force_fanout || fans_out(self.threads, n, self.window) {
            self.run_fanned(n - first)
        } else {
            self.seq.step(n - first)
        };
        self.window = (self.seq.machine.counters.ops_evaluated - ops_before, rest);
        first + rest
    }

    fn engine_name(&self) -> &'static str {
        "essent-parallel"
    }

    fn profile_report(&self) -> Option<ProfileReport> {
        self.seq
            .profile_arena()
            .map(|p| p.report("essent-parallel"))
    }

    delegate_simulator_basics!(seq.machine);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EssentSim, FullCycleSim};

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    /// One engine per thread count, collapsed (`false`) and forced to
    /// fan out (`true`).
    fn engines(n: &Netlist, cfg: &EngineConfig) -> Vec<(usize, bool, ParEssentSim)> {
        let mut out = Vec::new();
        for threads in [1, 2, 4] {
            for forced in [false, true] {
                let mut sim = ParEssentSim::new(n, cfg, threads);
                if forced {
                    sim.force_fanout();
                }
                out.push((threads, forced, sim));
            }
        }
        out
    }

    #[test]
    fn parallel_counter_counts() {
        let n = netlist_of(COUNTER);
        for (threads, forced, mut sim) in engines(&n, &EngineConfig::default()) {
            sim.poke("reset", Bits::from_u64(0, 1));
            sim.step(10);
            assert_eq!(
                sim.peek("q").to_u64(),
                Some(9),
                "threads={threads} forced={forced}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_on_wide_design() {
        // Many independent register pipelines: real parallel work.
        let mut body = String::new();
        use std::fmt::Write;
        for i in 0..16 {
            let _ = writeln!(body, "    reg a{i} : UInt<16>, clock");
            let _ = writeln!(body, "    reg b{i} : UInt<16>, clock");
            let _ = writeln!(body, "    a{i} <= bits(add(x, UInt<16>({i})), 15, 0)");
            let _ = writeln!(
                body,
                "    b{i} <= xor(a{i}, bits(mul(a{i}, UInt<8>(37)), 15, 0))"
            );
        }
        let mut xorall = String::from("b0");
        for i in 1..16 {
            xorall = format!("xor({xorall}, b{i})");
        }
        let _ = writeln!(body, "    o <= {xorall}");
        let src = format!(
            "circuit W :\n  module W :\n    input clock : Clock\n    input x : UInt<16>\n    output o : UInt<16>\n{body}"
        );
        let n = netlist_of(&src);
        let cfg = EngineConfig {
            c_p: 2,
            ..EngineConfig::default()
        };
        let mut pars = engines(&n, &cfg);
        let mut seq = EssentSim::new(&n, &cfg);
        let mut full = FullCycleSim::new(&n, &EngineConfig::default());
        for cycle in 0..60u64 {
            let x = Bits::from_u64((cycle * 2654435761) & 0xffff, 16);
            seq.poke("x", x.clone());
            full.poke("x", x.clone());
            seq.step(1);
            full.step(1);
            assert_eq!(seq.peek("o"), full.peek("o"), "cycle {cycle}");
            for (threads, forced, par) in &mut pars {
                par.poke("x", x.clone());
                par.step(1);
                assert_eq!(
                    par.peek("o"),
                    seq.peek("o"),
                    "cycle {cycle} threads={threads} forced={forced}"
                );
            }
        }
    }

    #[test]
    fn parallel_respects_stop() {
        let src = "circuit S :\n  module S :\n    input clock : Clock\n    input reset : UInt<1>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    stop(clock, eq(r, UInt<4>(5)), 9)\n";
        let n = netlist_of(src);
        for (threads, forced, mut sim) in engines(&n, &EngineConfig::default()) {
            let tag = format!("threads={threads} forced={forced}");
            sim.poke("reset", Bits::from_u64(0, 1));
            let ran = sim.step(100);
            assert_eq!(sim.halted(), Some(9), "{tag}");
            assert!(ran < 100, "{tag}");
            // Post-halt steps are no-ops.
            assert_eq!(sim.step(5), 0, "{tag}");
        }
    }

    /// The fan-out rule: a pure function of the worker budget, the call
    /// length and the previous call's `(ops, cycles)`.
    #[test]
    fn fanout_decision_rule() {
        let busy = FANOUT_CROSSOVER_OPS;
        let long = FANOUT_MIN_CYCLES;
        // Measured activity at the crossover over a long window fans out.
        assert!(fans_out(2, long, (busy * long, long)));
        // One worker never fans out.
        assert!(!fans_out(1, long, (busy * long, long)));
        // Short calls (the reset `step(2)`) never fan out.
        assert!(!fans_out(2, 2, (busy * long, long)));
        // A short window (the first call's cycle after the all-flags-set
        // first cycle, or a `step(1)` loop) is no measurement.
        assert!(!fans_out(2, long, (busy * 100, 1)));
        // Below the crossover stays collapsed.
        assert!(!fans_out(2, long, (busy * long - 1, long)));
        // Nothing measured yet.
        assert!(!fans_out(4, u64::MAX, (0, 0)));
    }

    #[test]
    fn low_activity_runs_stay_on_the_calling_thread() {
        let n = netlist_of(COUNTER);
        let mut sim = ParEssentSim::new(&n, &EngineConfig::default(), 4);
        sim.poke("reset", Bits::from_u64(0, 1));
        for _ in 0..4 {
            sim.step(1000);
        }
        assert_eq!(sim.fanout_cycles(), 0);
        // The N-worker side is never built.
        assert!(sim.dataflow_schedule().is_none());
        assert_eq!(sim.peek("q").to_u64(), Some(((4000 - 1) % 256) as u64));
    }

    /// `n` independent self-feedback registers: every register's only
    /// reader is its own next function, so all of them elide and the
    /// serial phase has (almost) nothing to do — the shape where
    /// cycle-boundary overlap exemption actually fires. Every register
    /// changes every cycle, so the whole farm is active.
    fn register_farm(nregs: usize) -> String {
        use std::fmt::Write;
        let mut body = String::new();
        for i in 0..nregs {
            let _ = writeln!(body, "    reg r{i} : UInt<16>, clock");
            let _ = writeln!(
                body,
                "    r{i} <= bits(add(xor(r{i}, x), UInt<16>({})), 15, 0)",
                (i * 2654435761usize) & 0xffff
            );
        }
        let _ = writeln!(body, "    o <= r0");
        format!(
            "circuit F :\n  module F :\n    input clock : Clock\n    input x : UInt<16>\n    output o : UInt<16>\n{body}"
        )
    }

    /// `nregs` independent registers whose next-state function chains
    /// `depth` xor/add rounds: every register changes every cycle, so an
    /// all-active cycle evaluates about `3 * depth * nregs` ops.
    fn busy_farm(nregs: usize, depth: usize) -> String {
        use std::fmt::Write;
        let mut body = String::new();
        for i in 0..nregs {
            let _ = writeln!(body, "    reg r{i} : UInt<16>, clock");
            let mut e = format!("r{i}");
            for d in 0..depth {
                e = format!("bits(add(xor({e}, x), UInt<16>({})), 15, 0)", (i + d) | 1);
            }
            let _ = writeln!(body, "    r{i} <= {e}");
        }
        let _ = writeln!(body, "    o <= r0");
        format!(
            "circuit B :\n  module B :\n    input clock : Clock\n    input x : UInt<16>\n    output o : UInt<16>\n{body}"
        )
    }

    #[test]
    fn busy_runs_fan_out_and_stay_exact() {
        // Enough work that an all-active cycle clears the crossover.
        let depth = 16;
        let nregs = (FANOUT_CROSSOVER_OPS as usize).div_ceil(2 * depth) + 8;
        let n = netlist_of(&busy_farm(nregs, depth));
        let cfg = EngineConfig::default();
        let mut seq = EssentSim::new(&n, &cfg);
        let mut par = ParEssentSim::new(&n, &cfg, 2);
        let x = Bits::from_u64(0x1234, 16);
        seq.poke("x", x.clone());
        par.poke("x", x);
        // The first call measures (its all-flags-set first cycle aside);
        // only the second may fan out.
        let first = FANOUT_MIN_CYCLES + 1;
        for (call, n, expect_fanned) in [(0, first, 0), (1, FANOUT_MIN_CYCLES, FANOUT_MIN_CYCLES)] {
            seq.step(n);
            par.step(n);
            assert_eq!(par.fanout_cycles(), expect_fanned, "call {call}");
            assert_eq!(par.peek("o"), seq.peek("o"), "call {call}");
        }
        let c = par.counters();
        assert!(c.ops_evaluated >= FANOUT_CROSSOVER_OPS * c.cycles, "{c:?}");
        // Short calls fall back to the calling thread.
        seq.step(2);
        par.step(2);
        assert_eq!(par.fanout_cycles(), FANOUT_MIN_CYCLES);
        let last = format!("r{}", nregs - 1);
        assert_eq!(par.peek(&last), seq.peek(&last));
    }

    #[test]
    fn forced_fanout_matches_sequential_on_register_farm() {
        let n = netlist_of(&register_farm(768));
        let cfg = EngineConfig {
            c_p: 2,
            ..EngineConfig::default()
        };
        let mut seq = EssentSim::new(&n, &cfg);
        let mut dts: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                let mut sim = ParEssentSim::new(&n, &cfg, t);
                assert_eq!(sim.force_fanout(), t);
                sim
            })
            .collect();
        // The farm has exempt partitions at 2+ workers, so the
        // cross-cycle overlap path is exercised (batched steps below).
        assert!(dts[2].dataflow_schedule().unwrap().exempt_count() > 0);
        let probes = ["r1", "r100", "r767", "o"];
        for cycle in 0..40u64 {
            let x = Bits::from_u64((cycle * 2654435761) & 0xffff, 16);
            seq.poke("x", x.clone());
            seq.step(1);
            for df in &mut dts {
                df.poke("x", x.clone());
                df.step(1);
                for p in probes {
                    assert_eq!(df.peek(p), seq.peek(p), "{p} cycle {cycle}");
                }
            }
        }
        assert_eq!(dts[0].fanout_cycles(), 0, "one worker runs collapsed");
        assert_eq!(dts[2].fanout_cycles(), 40);
        // Batched steps keep adjacent cycles in flight simultaneously.
        let mut batched = ParEssentSim::new(&n, &cfg, 4);
        batched.force_fanout();
        let mut seq = EssentSim::new(&n, &cfg);
        batched.poke("x", Bits::from_u64(0x1234, 16));
        seq.poke("x", Bits::from_u64(0x1234, 16));
        batched.step(64);
        seq.step(64);
        for p in probes {
            assert_eq!(batched.peek(p), seq.peek(p), "{p} batched");
        }
    }

    /// A register farm (so 2+ workers get exempt partitions speculating
    /// one cycle ahead) plus a counter-armed stop whose fire cycle is an
    /// *input*: the stage for sweeping a halt across every offset of
    /// one batched `step`.
    fn stopping_farm(nregs: usize) -> String {
        use std::fmt::Write;
        let mut body = String::new();
        let _ = writeln!(body, "    reg c : UInt<16>, clock");
        let _ = writeln!(body, "    c <= bits(add(c, UInt<16>(1)), 15, 0)");
        let _ = writeln!(body, "    stop(clock, eq(c, t), 7)");
        for i in 0..nregs {
            let _ = writeln!(body, "    reg r{i} : UInt<16>, clock");
            let _ = writeln!(
                body,
                "    r{i} <= bits(add(xor(r{i}, x), UInt<16>({})), 15, 0)",
                (i * 2654435761usize) & 0xffff
            );
        }
        let _ = writeln!(body, "    o <= r0");
        format!(
            "circuit H :\n  module H :\n    input clock : Clock\n    input x : UInt<16>\n    input t : UInt<16>\n    output o : UInt<16>\n{body}"
        )
    }

    /// The `halt_at` publication protocol, empirically: a stop firing at
    /// *every* cycle offset inside one batched `step` must leave the
    /// parallel engine with exactly the golden sequential state — no
    /// speculated cycle may survive a halt, and the halting cycle itself
    /// must complete. Covers the collapsed sweep and the N-worker
    /// schedule where exempt partitions run a cycle ahead of the stop
    /// owner's publication.
    #[test]
    fn batched_halt_at_every_offset_matches_sequential() {
        let n = netlist_of(&stopping_farm(768));
        let cfg = EngineConfig {
            c_p: 2,
            ..EngineConfig::default()
        };
        // The farm must actually exercise cross-cycle speculation.
        let mut probe = ParEssentSim::new(&n, &cfg, 4);
        probe.force_fanout();
        assert!(probe.dataflow_schedule().unwrap().exempt_count() > 0);
        let probes = ["c", "r0", "r17", "r95", "o"];
        const BATCH: u64 = 64;
        for offset in 0..BATCH {
            let t = Bits::from_u64(offset, 16);
            let x = Bits::from_u64(0xA5C3, 16);
            let mut seq = EssentSim::new(&n, &cfg);
            seq.poke("t", t.clone());
            seq.poke("x", x.clone());
            let seq_ran = seq.step(BATCH);
            assert_eq!(seq.halted(), Some(7), "offset {offset}");
            for (threads, forced) in [(4, false), (2, true), (4, true)] {
                let mut par = ParEssentSim::new(&n, &cfg, threads);
                if forced {
                    par.force_fanout();
                }
                par.poke("t", t.clone());
                par.poke("x", x.clone());
                let ran = par.step(BATCH);
                let tag = format!("offset {offset} threads {threads} forced {forced}");
                assert_eq!(ran, seq_ran, "{tag}: cycle count");
                assert_eq!(par.halted(), Some(7), "{tag}: halt code");
                for p in probes {
                    assert_eq!(par.peek(p), seq.peek(p), "{tag}: {p}");
                }
                // Post-halt steps stay no-ops with state frozen.
                assert_eq!(par.step(3), 0, "{tag}: post-halt step");
                assert_eq!(par.peek("o"), seq.peek("o"), "{tag}: post-halt o");
            }
        }
    }

    /// One profile per engine: whichever path ran each cycle, the one
    /// report decomposes the work counters exactly — every op charged
    /// to one unit, every partition evaluated or skipped every cycle.
    #[test]
    fn profile_report_sums_to_work_counters_on_every_path() {
        let n = netlist_of(&register_farm(96));
        let cfg = EngineConfig {
            c_p: 2,
            profile: true,
            ..EngineConfig::default()
        };
        // (label, threads, cycle from which the run is forced to fan out)
        for (label, threads, force_at) in [
            ("collapsed", 2, None),
            ("forced", 2, Some(0)),
            ("forced", 4, Some(0)),
            ("mixed", 3, Some(20)),
        ] {
            let mut sim = ParEssentSim::new(&n, &cfg, threads);
            for call in 0..12u64 {
                if force_at.is_some_and(|c| sim.cycle() >= c) {
                    sim.force_fanout();
                }
                sim.poke("x", Bits::from_u64((call * 0x9E37) & 0xffff, 16));
                sim.step(call % 3 * 5 + 1);
            }
            let tag = format!("{label} threads={threads}");
            assert_eq!(sim.fanout_cycles() > 0, force_at.is_some(), "{tag}");
            let c = sim.counters();
            let report = sim.profile_report().expect("profile is on");
            assert_eq!(report.engine, "essent-parallel");
            assert_eq!(report.cycles, c.cycles, "{tag}");
            assert_eq!(report.total_ops(), c.ops_evaluated, "{tag}");
            assert_eq!(
                report.total_evals() + report.total_skips(),
                sim.partition_count() as u64 * c.cycles,
                "{tag}"
            );
            let buckets = c.cycles.div_ceil(report.bucket) as usize;
            assert_eq!(report.heat.len(), buckets * sim.partition_count(), "{tag}");
            assert_eq!(
                report.heat.iter().sum::<u64>(),
                report.total_evals(),
                "{tag}"
            );
        }
    }

    #[test]
    fn dataflow_schedule_is_sane() {
        let n = netlist_of(COUNTER);
        let mut sim = ParEssentSim::new(&n, &EngineConfig::default(), 4);
        assert!(sim.dataflow_schedule().is_none(), "built lazily");
        sim.force_fanout();
        let ds = sim.dataflow_schedule().unwrap();
        let np = sim.partition_count();
        let mut seen = vec![false; np];
        for list in &ds.workers {
            for &p in list {
                assert!(!seen[p as usize], "partition {p} scheduled twice");
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every partition scheduled");
        for p in 0..np {
            if ds.exempt[p] {
                assert!(ds.worker_count() > 1);
            }
        }
    }

    #[test]
    fn levels_respect_dependencies() {
        let n = netlist_of(COUNTER);
        let sim = ParEssentSim::new(
            &n,
            &EngineConfig {
                c_p: 1,
                ..EngineConfig::default()
            },
            1,
        );
        assert!(sim.level_count() >= 1);
        assert_eq!(
            plan_levels(&sim.seq.plan)
                .iter()
                .map(Vec::len)
                .sum::<usize>(),
            sim.partition_count()
        );
    }
}
