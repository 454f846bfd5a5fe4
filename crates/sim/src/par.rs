//! A parallel CCSS engine that fans out only when measured activity
//! pays for it.
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
//! otherwise it runs the one-worker sweep on the calling thread, with
//! no threads spawned and the sequential engine's chunked idle-flag
//! scan. The engine's first cycle (every flag starts set) never counts
//! toward the measurement, and calls shorter than 64 cycles never fan
//! out. The decision is a pure function of the counters, so runs stay
//! reproducible. The dependence graph and the N-worker schedule are
//! built on the first fan-out only. Both paths evaluate exactly the
//! same partitions, so outputs and
//! [`WorkCounters`](crate::WorkCounters) do not depend on the path.
//!
//! Memory-write elision is disabled here (concurrent in-partition writes
//! to a shared bank would race — see [`PlanOptions::elide_mem`]); register
//! elision is kept, since each register is written by exactly one
//! partition into a private slot and the schedule orders every reader
//! before the in-place commit.
//!
//! This is the direction of the follow-on research building on ESSENT
//! (thread-parallel simulation over replication-free partitionings); it
//! is not part of the DAC 2020 evaluation and is benchmarked separately
//! (the `bsp` bench bin; DESIGN.md §12 records the crossover).

use crate::compile::{compile_plan, Block, Item};
use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::essent::scan_flags;
use crate::jit;
use crate::machine::{self, Machine, MemBank};
use crate::profile::{AtomicProfile, ProfileReport, ProfileWiring};
use crate::step1::{
    lower_tier1, run_tier1_raw, AtomicFlags, OutSpec, ProfAtomicFlags, Tier1Program,
};
use essent_bits::Bits;
use essent_core::depgraph::{
    synthesize_dataflow, DataflowSchedule, DepGraph, FANOUT_CROSSOVER_OPS,
};
use essent_core::partition::{partition, partition_with_prior, ActivityMergeParams, ActivityPrior};
use essent_core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent_netlist::{Netlist, SignalDef, SignalId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
// finished producers or state), enforced by schedule order on one
// worker and by the dataflow wait protocol on several, and proven statically by the `essent-verify`
// footprint layer (R0502/R0503) and dependence-cover layer (S0601).
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
    #[inline]
    fn get(&self) -> (*mut MemBank, usize) {
        (self.0, self.1)
    }

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
struct OldPtr(*mut u64);
// SAFETY: the snapshot buffer is partitioned by construction — each
// partition owns a private, pre-assigned range (the `old` offsets in
// `part_triggers`), so workers never alias.
unsafe impl Send for OldPtr {}
// SAFETY: same private-per-partition ranges as the `Send` impl.
unsafe impl Sync for OldPtr {}
impl OldPtr {
    #[inline]
    fn get(&self) -> *mut u64 {
        self.0
    }
}

/// One partition's flattened trigger table entry.
struct PartTriggers {
    /// (arena offset, words, old-value offset) per output.
    outs: Vec<(u32, u16, u32)>,
    /// (consumer range) per output into `consumers`.
    cons: Vec<(u32, u32)>,
    consumers: Vec<u32>,
    /// Elided registers: (next offset, out offset, words, register plan
    /// index, wake list).
    regs: Vec<(u32, u32, u16, u32, Vec<u32>)>,
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
    machine: Machine,
    plan: CcssPlan,
    blocks: Vec<Block>,
    /// Word-specialized programs per partition (`config.tier1`); fused
    /// trigger writes go through the atomic flag sink.
    programs: Option<Vec<Tier1Program>>,
    /// Native-compiled partitions (`config.jit`): entries are `Some` for
    /// partitions whose cost estimate cleared
    /// [`jit::JIT_MIN_COST`] and whose program was eligible.
    jit: Option<jit::JitParts>,
    flags: Vec<AtomicBool>,
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
    part_triggers: Vec<PartTriggers>,
    /// Per-partition private snapshot storage, indexed by the offsets in
    /// `part_triggers[p].outs`.
    old_vals: Vec<u64>,
    input_wake: HashMap<SignalId, Vec<u32>>,
    commit_regs: Vec<usize>,
    /// Per memory, per write port: its `mem_write_plans` index.
    mem_write_plan: Vec<Vec<Option<usize>>>,
    threads: usize,
    /// Telemetry counters ([`EngineConfig::profile`]); atomic because
    /// workers update them concurrently through `&self`.
    profile: Option<Box<AtomicProfile>>,
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
    /// [`ParEssentSim::new_with_prior`].
    pub fn new_shared_with_prior(
        netlist: Arc<Netlist>,
        config: &EngineConfig,
        threads: usize,
        prior: Option<&ActivityPrior>,
    ) -> ParEssentSim {
        let (dag, writes) = extended_dag(&netlist);
        let parts = match prior {
            Some(pr) => {
                partition_with_prior(
                    &dag,
                    config.c_p,
                    pr,
                    &ActivityMergeParams::for_cp(config.c_p),
                )
                .0
            }
            None => partition(&dag, config.c_p),
        };
        let plan = CcssPlan::from_partitioning(
            &netlist,
            &dag,
            &writes,
            &parts,
            PlanOptions {
                elide_state: config.elide_state,
                elide_mem: false,
            },
        );
        let mut machine = Machine::from_arc(Arc::clone(&netlist));
        machine.capture_printf = config.capture_printf;
        let blocks = compile_plan(&netlist, &machine.layout, &plan, config);

        let fuse = config.tier1 && config.fuse_triggers && config.trigger_push;
        let programs: Option<Vec<Tier1Program>> = config.tier1.then(|| {
            plan.partitions
                .iter()
                .zip(&blocks)
                .map(|(part, block)| {
                    let outs: Vec<OutSpec> = part
                        .outputs
                        .iter()
                        .map(|o| OutSpec {
                            sig: o.signal,
                            consumers: o.consumers.clone(),
                        })
                        .collect();
                    lower_tier1(&netlist, block, &outs, fuse)
                })
                .collect()
        });

        let np = plan.partitions.len();

        // Flattened per-partition trigger + elided-register tables,
        // covering only the outputs the tier did not fuse.
        let mut old_vals = Vec::new();
        let mut part_triggers = Vec::with_capacity(np);
        for (sched, part) in plan.partitions.iter().enumerate() {
            let mut outs = Vec::new();
            let mut cons = Vec::new();
            let mut consumers = Vec::new();
            for (oi, o) in part.outputs.iter().enumerate() {
                if let Some(progs) = &programs {
                    if !progs[sched].unfused.contains(&oi) {
                        continue;
                    }
                }
                let off = machine.layout.offset(o.signal) as u32;
                let w = machine.layout.words(o.signal) as u16;
                outs.push((off, w, old_vals.len() as u32));
                old_vals.extend(std::iter::repeat_n(0, w as usize));
                let start = consumers.len() as u32;
                consumers.extend(o.consumers.iter().copied());
                cons.push((start, consumers.len() as u32));
            }
            let regs = part
                .elided_regs
                .iter()
                .map(|&ri| {
                    let reg = &netlist.regs()[ri];
                    (
                        machine.layout.offset(reg.next) as u32,
                        machine.layout.offset(reg.out) as u32,
                        machine.layout.words(reg.out) as u16,
                        ri as u32,
                        plan.reg_plans[ri].wake_on_change.clone(),
                    )
                })
                .collect();
            part_triggers.push(PartTriggers {
                outs,
                cons,
                consumers,
                regs,
            });
        }

        let input_wake = plan
            .input_wakes
            .iter()
            .map(|(sig, wakes)| (*sig, wakes.clone()))
            .collect();
        let commit_regs = plan
            .reg_plans
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.elided)
            .map(|(i, _)| i)
            .collect();
        let mut mem_write_plan: Vec<Vec<Option<usize>>> = netlist
            .mems()
            .iter()
            .map(|m| vec![None; m.writers.len()])
            .collect();
        for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
            mem_write_plan[wp.mem.index()][wp.writer] = Some(wi);
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let costs = CostModel::build(&plan, &blocks, prior).costs;

        // Native tier (`config.jit`): compile partitions whose cost
        // estimate clears the threshold. Skipped when profiling (wake
        // attribution needs the interpreter's flag sinks) and under the
        // race sanitizer (the dynamic oracle instruments the
        // interpreter loop).
        let jit = (config.jit
            && !config.profile
            && !cfg!(feature = "race-sanitizer")
            && jit::supported())
        .then(|| {
            programs
                .as_ref()
                .map(|progs| jit::JitParts::build(progs, &costs, &machine.mems))
        })
        .flatten();

        let profile = config
            .profile
            .then(|| Box::new(AtomicProfile::new(ProfileWiring::for_plan(&netlist, &plan))));
        ParEssentSim {
            machine,
            plan,
            blocks,
            programs,
            jit,
            flags: (0..np).map(|_| AtomicBool::new(true)).collect(),
            costs,
            fanout: None,
            force_fanout: false,
            window: (0, 0),
            fanout_cycles: 0,
            part_triggers,
            old_vals,
            input_wake,
            commit_regs,
            mem_write_plan,
            threads,
            profile,
            #[cfg(feature = "race-sanitizer")]
            sanitize: config.race_sanitizer,
            #[cfg(feature = "race-sanitizer")]
            shadow: None,
        }
    }

    /// Number of dependency levels in the plan (the critical path, in
    /// partitions, of one cycle).
    pub fn level_count(&self) -> usize {
        plan_levels(&self.plan).len()
    }

    /// Borrow of the underlying machine (testing, activity profiling).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.plan.partitions.len()
    }

    /// Number of partitions currently running native-compiled bodies
    /// (0 when the JIT is off or unsupported on this target).
    pub fn jit_compiled_count(&self) -> usize {
        self.jit.as_ref().map_or(0, |j| j.compiled_count())
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
        self.jit.as_mut().is_some_and(|j| j.deopt(sched))
    }

    /// Discards every compiled body; returns how many were dropped.
    pub fn force_deopt_all(&mut self) -> usize {
        self.jit.as_mut().map_or(0, |j| j.deopt_all())
    }

    /// Testing hook: compiles every eligible partition regardless of the
    /// cost threshold, so deopt tests cover partitions the threshold
    /// would leave interpreted. Returns how many bodies now exist; 0 on
    /// unsupported targets or when the tier/profile gating forbids JIT.
    pub fn jit_compile_all(&mut self) -> usize {
        if self.profile.is_some() || cfg!(feature = "race-sanitizer") || !jit::supported() {
            return 0;
        }
        match &self.programs {
            Some(progs) => {
                let j = jit::JitParts::build_all(progs, &self.machine.mems);
                let n = j.compiled_count();
                self.jit = Some(j);
                n
            }
            None => 0,
        }
    }

    /// Borrow of the compiled partitions (verification, tests).
    pub fn jit_parts(&self) -> Option<&jit::JitParts> {
        self.jit.as_ref()
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
            let netlist = &self.machine.netlist;
            let graph = DepGraph::derive(netlist, &self.plan);
            let sched = synthesize_dataflow(&self.plan, &graph, &self.costs, self.threads);
            let mut stop_probe = vec![Vec::new(); self.plan.partitions.len()];
            for st in netlist.stops() {
                if matches!(
                    netlist.signal(st.en).def,
                    SignalDef::Op(_) | SignalDef::MemRead { .. }
                ) {
                    let owner = self.plan.sched_of_signal[st.en.index()] as usize;
                    stop_probe[owner].push(self.machine.layout.offset(st.en) as u32);
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
                    self.machine.layout.total_words(),
                    edges,
                )));
            }
            self.fanout = Some(FanOut { sched, stop_probe });
        }
        self.fanout.as_ref().expect("built above")
    }

    /// Worker routine: evaluate one partition (flag already claimed).
    ///
    /// # Safety
    ///
    /// Caller must guarantee that no partition evaluating concurrently
    /// with `sched` writes any arena word this partition reads or
    /// writes: trivially on one worker, and on several by the dataflow
    /// waits, which `essent-verify` proves cover every footprint
    /// overlap (`R0501`–`R0504`, `S0601`–`S0604`) and the
    /// `race-sanitizer` feature checks dynamically.
    unsafe fn eval_partition(
        &self,
        sched: usize,
        arena: ArenaPtr,
        mems: &[MemBank],
        old_vals: *mut u64,
        ops: &mut u64,
        prof: Option<&AtomicProfile>,
    ) {
        let tr = &self.part_triggers[sched];
        // Snapshot outputs.
        for &(off, w, old) in &tr.outs {
            #[cfg(feature = "race-sanitizer")]
            crate::sanitizer::note_read(off, w as u32);
            // SAFETY: `off..off+w` are this partition's own output
            // slots (no co-leveled writer per R0502/R0503); the `old`
            // range is this partition's private snapshot storage.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    arena.get().add(off as usize),
                    old_vals.add(old as usize),
                    w as usize,
                );
            }
        }
        match &self.programs {
            Some(_)
                if prof.is_none() && self.jit.as_ref().is_some_and(|j| j.part(sched).is_some()) =>
            {
                let j = self.jit.as_ref().expect("jit checked above");
                let part = j.part(sched).expect("part checked above");
                // SAFETY: the compiled body touches only arena offsets
                // lowered from this partition's tier-1 program, whose
                // footprint equals the generic block's (R0501) — proved
                // level-disjoint and in-bounds (R0502–R0504) — and is
                // independently audited against the emitted bytes by
                // the J07xx verify layer. Wakes are 1-byte stores of
                // `true` into the `AtomicBool` flags (one byte each;
                // single-byte stores are hardware-atomic on the
                // supported targets, matching the relaxed atomic sink).
                // Banks are read-only here, through the pinned bank
                // table built from this machine's mems.
                let (o, _d) = unsafe {
                    part.run(
                        arena.get(),
                        self.flags.as_ptr().cast::<u8>().cast_mut(),
                        j.banks(),
                    )
                };
                *ops += o;
            }
            Some(progs) => {
                // Fused trigger writes go straight to the atomic flags;
                // this engine does not track dynamic-check counts.
                let mut dynamic = 0u64;
                match prof {
                    // SAFETY: the tier-1 program's footprint equals the
                    // generic block's (R0501), which the footprint
                    // layer proved level-disjoint and in-bounds
                    // (R0502–R0504); banks are read-only here.
                    Some(p) => unsafe {
                        run_tier1_raw(
                            &progs[sched],
                            arena.get(),
                            mems,
                            &ProfAtomicFlags {
                                flags: &self.flags,
                                caused: p.caused_cell(sched),
                                woke: p.woke_output_cells(),
                            },
                            ops,
                            &mut dynamic,
                        )
                    },
                    // SAFETY: as above (R0501–R0504 footprint proof).
                    None => unsafe {
                        run_tier1_raw(
                            &progs[sched],
                            arena.get(),
                            mems,
                            &AtomicFlags(&self.flags),
                            ops,
                            &mut dynamic,
                        )
                    },
                }
            }
            // SAFETY: the generic block's footprint is exactly what the
            // footprint layer analyzed and proved level-disjoint and
            // in-bounds (R0502–R0504); banks are read-only here.
            None => unsafe {
                machine::run_items_raw(&self.blocks[sched].items, arena.get(), mems, ops)
            },
        }
        // Elided registers: private slots, single writer.
        for (next_off, out_off, w, ri, wake) in &tr.regs {
            // SAFETY: the elided register's `next` and `out` slots are
            // in this partition's footprint (counted by the footprint
            // layer's engine-access pass), hence level-exclusive.
            let changed = unsafe {
                machine::commit_state_raw(
                    arena.get(),
                    *next_off as usize,
                    *out_off as usize,
                    *w as usize,
                )
            };
            if changed {
                for &c in wake {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                    if let Some(p) = prof {
                        p.wake_state_reg(*ri as usize, c);
                    }
                }
            }
        }
        // Output triggers.
        for (oi, &(off, w, old)) in tr.outs.iter().enumerate() {
            #[cfg(feature = "race-sanitizer")]
            crate::sanitizer::note_read(off, w as u32);
            // SAFETY: output slots are written only by this partition
            // within the level (R0502/R0503); the snapshot range is
            // private. Both ranges are in-bounds by construction.
            let (cur, snap) = unsafe {
                (
                    std::slice::from_raw_parts(arena.get().add(off as usize), w as usize),
                    std::slice::from_raw_parts(old_vals.add(old as usize), w as usize),
                )
            };
            if cur != snap {
                let (s, e) = tr.cons[oi];
                for ci in s..e {
                    self.flags[tr.consumers[ci as usize] as usize].store(true, Ordering::Relaxed);
                    if let Some(p) = prof {
                        p.wake_output(sched, tr.consumers[ci as usize]);
                    }
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
    #[inline(always)]
    unsafe fn claim_and_eval(
        &self,
        p: usize,
        tid: usize,
        arena: ArenaPtr,
        banks: &[MemBank],
        old_vals: *mut u64,
        ops: &mut u64,
    ) {
        if self.flags[p].load(Ordering::Relaxed) && self.flags[p].swap(false, Ordering::Relaxed) {
            match self.profile.as_deref() {
                Some(prof) => {
                    let t0 = prof.eval_begin(p);
                    let mut part_ops = 0u64;
                    // SAFETY: caller's contract.
                    unsafe {
                        self.eval_partition(p, arena, banks, old_vals, &mut part_ops, Some(prof))
                    };
                    prof.eval_end_on(p, tid as u32, t0, part_ops);
                    *ops += part_ops;
                }
                // SAFETY: caller's contract.
                None => unsafe { self.eval_partition(p, arena, banks, old_vals, ops, None) },
            }
        } else if let Some(prof) = self.profile.as_deref() {
            prof.unit_skip(p);
        }
    }

    /// End-of-cycle serial phase: printf/stop sampling, memory writes,
    /// and non-elided register commits, with their wake flags.
    ///
    /// # Safety
    ///
    /// No concurrently running partition evaluation may touch any arena
    /// word or memory bank this phase accesses. On one worker nothing
    /// runs concurrently; on several, only *exempt* partitions do,
    /// whose footprints the dependence analysis proves disjoint from
    /// the serial footprint (verified as S0602).
    unsafe fn serial_phase(&self, arena: ArenaPtr, mems: &MemsPtr, run: &mut RunTally) {
        let netlist = &*self.machine.netlist;
        let layout = &self.machine.layout;
        for p in netlist.printfs() {
            // SAFETY: serial-footprint word (caller's contract), layout
            // offsets in-bounds by construction.
            let en = unsafe { *arena.get().add(layout.offset(p.en)) } & 1 == 1;
            if en && self.machine.capture_printf {
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
        for (m, ports) in self.mem_write_plan.iter().enumerate() {
            for (w, &wi) in ports.iter().enumerate() {
                run.static_checks += 1;
                // SAFETY: the banks are serial-phase-exclusive (caller's
                // contract: no worker or bank-disjoint ones by S0602).
                let bank = unsafe { &mut *mems.get().0.add(m) };
                // SAFETY: serial-footprint words; `m`/`w` index real
                // mems/writers, layout is in-bounds.
                let changed =
                    unsafe { machine::run_mem_write_raw(netlist, layout, arena.get(), bank, m, w) };
                if let (true, Some(wi)) = (changed, wi) {
                    for &c in &self.plan.mem_write_plans[wi].wake_on_change {
                        self.flags[c as usize].store(true, Ordering::Relaxed);
                        if let Some(p) = self.profile.as_deref() {
                            p.wake_state_mem(wi, c);
                        }
                    }
                }
            }
        }
        for &ri in &self.commit_regs {
            run.static_checks += 1;
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
                for &c in &self.plan.reg_plans[ri].wake_on_change {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                    if let Some(p) = self.profile.as_deref() {
                        p.wake_state_reg(ri, c);
                    }
                }
            }
        }
        run.ran += 1;
    }

    /// Folds one run's tally back into the machine; returns the cycles
    /// run.
    fn finish_run(&mut self, run: RunTally, ops: u64) -> u64 {
        let m = &mut self.machine;
        m.counters.ops_evaluated += ops;
        m.counters.static_checks += run.static_checks;
        m.counters.cycles += run.ran;
        m.cycle += run.ran;
        m.halted = run.halted;
        m.printf_log.extend(run.printf_log);
        run.ran
    }

    /// The one-worker sweep on the calling thread: schedule order alone
    /// carries every dependence, so no signaling is needed — each cycle
    /// is a chunked idle scan over the flags, then the serial phase.
    fn run_collapsed(&mut self, n: u64) -> u64 {
        let arena = ArenaPtr(self.machine.arena.as_mut_ptr());
        let mems = MemsPtr(self.machine.mems.as_mut_ptr(), self.machine.mems.len());
        let old_vals = self.old_vals.as_mut_ptr();
        let mut run = RunTally::new(self.machine.halted);
        let mut ops = 0u64;
        let this = &*self;
        let prof = this.profile.as_deref();
        // SAFETY: one thread; banks are written only by the serial
        // phase below, between scans.
        let banks = unsafe { mems.banks() };
        while run.ran < n && run.halted.is_none() {
            if let Some(p) = prof {
                p.begin_cycle();
            }
            // SAFETY: `AtomicBool` is one byte (0 or 1) and no other
            // thread exists; evaluation in schedule order on one thread
            // satisfies `claim_and_eval`'s contract.
            unsafe {
                scan_flags(
                    this.flags.as_ptr().cast::<u8>(),
                    this.flags.len(),
                    &mut ops,
                    |_, s| {
                        if let Some(p) = prof {
                            (s..s + 8).for_each(|q| p.unit_skip(q));
                        }
                    },
                    |ops, p| this.claim_and_eval(p, 0, arena, banks, old_vals, ops),
                )
            };
            // SAFETY: no other worker exists.
            unsafe { this.serial_phase(arena, &mems, &mut run) };
        }
        self.finish_run(run, ops)
    }

    /// The N-worker dataflow runtime: no barriers — each worker walks
    /// its static partition list every cycle, synchronizing through
    /// per-partition `done` cycle counters. A schedule with one worker
    /// runs [`ParEssentSim::run_collapsed`] instead.
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
    fn run_fanned(&mut self, n: u64) -> u64 {
        if self.fanout().sched.worker_count() == 1 {
            return self.run_collapsed(n);
        }
        if n == 0 || self.machine.halted.is_some() {
            return 0;
        }
        let arena = ArenaPtr(self.machine.arena.as_mut_ptr());
        let mems = MemsPtr(self.machine.mems.as_mut_ptr(), self.machine.mems.len());
        let old_ptr = OldPtr(self.old_vals.as_mut_ptr());
        let fo = self.fanout.as_ref().expect("built above");
        let ds = &fo.sched;
        let np = self.plan.partitions.len();

        let done: Vec<AtomicU64> = (0..np).map(|_| AtomicU64::new(0)).collect();
        let serial_done = AtomicU64::new(0);
        // First cycle (exclusive) every worker must bail before; a stop
        // at cycle `k` halts the run after cycle `k` completes.
        let halt_at = AtomicU64::new(u64::MAX);
        let total_ops = AtomicUsize::new(0);
        let mut run = RunTally::new(self.machine.halted);

        // Reserve one epoch per cycle so the sanitizer can tell
        // overlapping cycles apart (no-op without the feature).
        #[cfg(feature = "race-sanitizer")]
        let epoch_base = self
            .shadow
            .as_deref()
            .map(|s| s.advance_base(n + 2))
            .unwrap_or(0);

        let this = &*self;

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
        let sweep = |tid: usize, k: u64, ops: &mut u64| -> bool {
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
                    unsafe { this.claim_and_eval(p, tid, arena, banks, old_ptr.get(), ops) };
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

        std::thread::scope(|scope| {
            let sweep = &sweep;
            let handles: Vec<_> = (1..ds.worker_count())
                .map(|t| {
                    scope.spawn(move || {
                        let mut ops = 0u64;
                        for k in 1..=n {
                            if !sweep(t, k, &mut ops) {
                                break;
                            }
                        }
                        ops
                    })
                })
                .collect();

            let mut ops0 = 0u64;
            for k in 1..=n {
                if let Some(p) = this.profile.as_deref() {
                    p.begin_cycle();
                }
                if !sweep(0, k, &mut ops0) {
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
                unsafe { this.serial_phase(arena, &mems, &mut run) };
                if run.halted.is_some() {
                    // The halting cycle still counts (it completed);
                    // everything later bails before touching flags.
                    halt_at.fetch_min(k, Ordering::AcqRel);
                    break;
                }
                serial_done.store(k, Ordering::Release);
            }
            total_ops.fetch_add(ops0 as usize, Ordering::Relaxed);
            for h in handles {
                total_ops.fetch_add(h.join().expect("worker join") as usize, Ordering::Relaxed);
            }
        });

        self.fanout_cycles += run.ran;
        self.finish_run(run, total_ops.load(Ordering::Relaxed) as u64)
    }
}

/// Serial-phase state of one run, folded back into the machine by
/// [`ParEssentSim::finish_run`].
struct RunTally {
    ran: u64,
    halted: Option<u64>,
    printf_log: Vec<String>,
    static_checks: u64,
}

impl RunTally {
    fn new(halted: Option<u64>) -> RunTally {
        RunTally {
            ran: 0,
            halted,
            printf_log: Vec::new(),
            static_checks: 0,
        }
    }
}

impl Simulator for ParEssentSim {
    fn poke(&mut self, name: &str, value: Bits) {
        let id = self.machine.netlist.expect_signal(name);
        assert!(
            matches!(
                self.machine.netlist.signal(id).def,
                essent_netlist::SignalDef::Input
            ),
            "`{name}` is not an input"
        );
        if self.machine.set_value(id, &value) {
            if let Some(wakes) = self.input_wake.get(&id) {
                for &c in wakes {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                    if let Some(p) = self.profile.as_deref() {
                        p.wake_input(id, c);
                    }
                }
            }
        }
    }

    fn step(&mut self, n: u64) -> u64 {
        if self.machine.halted.is_some() || n == 0 {
            return 0;
        }
        let mut first = 0;
        if self.machine.cycle == 0 && !self.force_fanout {
            // The first cycle evaluates every partition (all flags start
            // set): run it on its own and keep it out of the window.
            first = self.run_collapsed(1);
        }
        let ops_before = self.machine.counters.ops_evaluated;
        let rest = if self.force_fanout || fans_out(self.threads, n, self.window) {
            self.run_fanned(n - first)
        } else {
            self.run_collapsed(n - first)
        };
        self.window = (self.machine.counters.ops_evaluated - ops_before, rest);
        first + rest
    }

    fn engine_name(&self) -> &'static str {
        "essent-parallel"
    }

    fn profile_report(&self) -> Option<ProfileReport> {
        self.profile.as_ref().map(|p| p.report("essent-parallel"))
    }

    delegate_simulator_basics!();
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
            plan_levels(&sim.plan).iter().map(Vec::len).sum::<usize>(),
            sim.partition_count()
        );
    }
}
