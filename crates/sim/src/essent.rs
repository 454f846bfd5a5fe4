//! The ESSENT engine: **conditional, coarsened, singular, static (CCSS)**
//! execution (paper Section III, Figure 1).
//!
//! The design is coarsened into acyclic partitions by `essent-core`; each
//! partition carries an activation flag. Per cycle, the engine walks the
//! static schedule once (singular): an inactive partition costs a single
//! flag test (the static overhead); an active partition
//!
//! 1. deactivates itself for the next cycle,
//! 2. snapshots the old values of its outputs,
//! 3. evaluates its members with full-cycle-style straight-line code,
//! 4. updates elided registers/memories in place, immediately waking
//!    their next-cycle consumers (Section III-B1 — safe because every
//!    consumer is scheduled no later than the writer, so a flag set now
//!    is consumed only in the following cycle),
//! 5. compares each output against its snapshot and wakes the consumers
//!    of changed outputs (push-direction triggering; per-output
//!    granularity avoids unnecessary activations).
//!
//! Non-elidable state falls back to an end-of-cycle commit with change
//! detection, and external input changes wake their reader partitions in
//! the main eval function.

use crate::compile::{compile_plan, Block};
use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::jit;
use crate::machine::{commit_state_raw, Machine};
use crate::profile::{NoProfile, ProfileArena, ProfileReport, ProfileWiring, Profiler};
use crate::step1::{lower_plan, Tier1Program, TierStats};
use essent_bits::Bits;
use essent_core::partition::{partition, partition_with_prior, ActivityMergeParams, ActivityPrior};
use essent_core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent_netlist::{Netlist, SignalId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Flattened per-partition tables (hot-loop friendly): each
/// partition's unfused outputs with their snapshot words, and its elided
/// state updates. A partition's entries are a private range, so the
/// parallel engine's workers share these tables.
#[derive(Debug, Default)]
pub(crate) struct Triggers {
    /// Per partition: its ranges in the tables below.
    pub(crate) parts: Vec<PartSpan>,
    /// Per output: arena offset and word count.
    pub(crate) out_off: Vec<u32>,
    pub(crate) out_words: Vec<u16>,
    /// Per output: offset of its snapshot in `old_vals`.
    pub(crate) old_off: Vec<u32>,
    /// Per output: range into `consumers`.
    pub(crate) cons_start: Vec<u32>,
    pub(crate) cons_end: Vec<u32>,
    pub(crate) consumers: Vec<u32>,
    /// Elided registers, committed in place after their partition.
    pub(crate) regs: Vec<ElidedReg>,
    /// The elided registers' wake lists, flattened.
    pub(crate) reg_wakes: Vec<u32>,
    /// Elided memory writes (`mem_write_plans` indices), run in place
    /// after their partition.
    pub(crate) writes: Vec<u32>,
    /// Snapshot storage.
    pub(crate) old_vals: Vec<u64>,
}

/// One partition's `start..end` ranges into the [`Triggers`] tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartSpan {
    pub(crate) outs: [u32; 2],
    pub(crate) regs: [u32; 2],
    pub(crate) writes: [u32; 2],
}

/// An elided register: its `reg_plans` index, `next` and `out` arena
/// offsets, word count, and range into [`Triggers::reg_wakes`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ElidedReg {
    pub(crate) plan: u32,
    pub(crate) next: u32,
    pub(crate) out: u32,
    pub(crate) words: u32,
    pub(crate) wakes: [u32; 2],
}

/// A `[start, end]` table range as an index range.
#[inline(always)]
pub(crate) fn span([start, end]: [u32; 2]) -> std::ops::Range<usize> {
    start as usize..end as usize
}

/// The CCSS simulator. The parallel engine ([`crate::ParEssentSim`])
/// is one of these plus its fan-out runtime, which reads the fields
/// marked `pub(crate)`.
pub struct EssentSim {
    pub(crate) machine: Machine,
    pub(crate) plan: CcssPlan,
    pub(crate) blocks: Vec<Block>,
    /// Word-specialized programs per partition (`config.tier1`); `None`
    /// runs the generic item interpreter.
    pub(crate) programs: Option<Vec<Tier1Program>>,
    /// Native-compiled partitions (`config.jit`): entries are `Some` for
    /// partitions that cleared the cost threshold and lowered cleanly;
    /// everything else stays on the tier-1 interpreter.
    pub(crate) jit: Option<jit::JitParts>,
    /// One activity flag per partition, in schedule order.
    pub(crate) flags: Vec<bool>,
    pub(crate) triggers: Triggers,
    input_wake: HashMap<SignalId, Vec<u32>>,
    /// Indices of non-elided register / memory-write plans (end-of-cycle
    /// commit path).
    pub(crate) commit_regs: Vec<usize>,
    pub(crate) commit_writes: Vec<usize>,
    /// Total steps a full-cycle evaluation would run (for effective
    /// activity factor reporting).
    full_steps: usize,
    /// Push (true) or pull (false) activity triggering.
    push: bool,
    /// Pull mode: per-partition cross-partition input snapshots.
    pull_inputs: PullInputs,
    /// Telemetry arena ([`EngineConfig::profile`]); taken out of the
    /// option for the duration of a `step` so the cycle loop
    /// monomorphizes over the enabled/disabled profiler.
    pub(crate) profile: Option<Box<ProfileArena>>,
}

/// Pull-direction snapshot tables: each partition's cross-partition input
/// signals and their last-seen values.
#[derive(Debug, Default)]
struct PullInputs {
    in_off: Vec<u32>,
    in_words: Vec<u16>,
    snap_off: Vec<u32>,
    part_start: Vec<u32>,
    part_end: Vec<u32>,
    snapshots: Vec<u64>,
}

impl EssentSim {
    /// Partitions the netlist at `config.c_p` and compiles the CCSS
    /// simulator.
    pub fn new(netlist: &Netlist, config: &EngineConfig) -> EssentSim {
        EssentSim::new_shared(Arc::new(netlist.clone()), config)
    }

    /// [`EssentSim::new`] over an already-shared netlist (no deep clone).
    pub fn new_shared(netlist: Arc<Netlist>, config: &EngineConfig) -> EssentSim {
        EssentSim::new_shared_with_prior(netlist, config, None)
    }

    /// [`EssentSim::new`] with a measured activity prior: the structural
    /// partitioning gains the profile-guided `activity_merge` phase
    /// before the plan is built (the feedback loop's repartitioning
    /// step). A neutral prior reproduces [`EssentSim::new`] exactly.
    pub fn new_with_prior(
        netlist: &Netlist,
        config: &EngineConfig,
        prior: &ActivityPrior,
    ) -> EssentSim {
        EssentSim::new_shared_with_prior(Arc::new(netlist.clone()), config, Some(prior))
    }

    /// The general constructor behind [`EssentSim::new_shared`] and
    /// [`EssentSim::new_with_prior`].
    pub fn new_shared_with_prior(
        netlist: Arc<Netlist>,
        config: &EngineConfig,
        prior: Option<&ActivityPrior>,
    ) -> EssentSim {
        let plan = build_plan(&netlist, config, prior, config.elide_state);
        EssentSim::from_plan_shared_with_prior(netlist, plan, config, prior)
    }

    /// Builds the simulator from a pre-computed plan (used by the `C_p`
    /// sweep harness to reuse partitioning work).
    pub fn from_plan(netlist: &Netlist, plan: CcssPlan, config: &EngineConfig) -> EssentSim {
        EssentSim::from_plan_shared(Arc::new(netlist.clone()), plan, config)
    }

    /// [`EssentSim::from_plan`] over an already-shared netlist.
    pub fn from_plan_shared(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
    ) -> EssentSim {
        EssentSim::from_plan_shared_with_prior(netlist, plan, config, None)
    }

    /// [`EssentSim::from_plan_shared`] with a measured activity prior:
    /// the JIT cost model selects hot partitions by measured eval-tick
    /// cost instead of static step counts.
    pub fn from_plan_shared_with_prior(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
        prior: Option<&ActivityPrior>,
    ) -> EssentSim {
        let mut machine = Machine::from_arc(Arc::clone(&netlist));
        machine.capture_printf = config.capture_printf;
        let blocks = compile_plan(&netlist, &machine.layout, &plan, config);

        let programs = lower_plan(&netlist, &plan, &blocks, config);

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
            programs.as_ref().map(|progs| {
                let cost = crate::par::CostModel::build(&plan, &blocks, prior);
                jit::JitParts::build(progs, &cost.costs, &machine.mems)
            })
        })
        .flatten();

        // Snapshot-compare tables cover only the outputs the tier did not
        // fuse (all of them when the tier is off).
        let mut triggers = Triggers::default();
        let (layout, regs) = (&machine.layout, netlist.regs());
        for (sched, part) in plan.partitions.iter().enumerate() {
            let tr = &mut triggers;
            let (out_start, reg_start, write_start) =
                (tr.out_off.len(), tr.regs.len(), tr.writes.len());
            for (oi, out) in part.outputs.iter().enumerate() {
                if let Some(progs) = &programs {
                    if !progs[sched].unfused.contains(&oi) {
                        continue;
                    }
                }
                let words = layout.words(out.signal) as u16;
                tr.out_off.push(layout.offset(out.signal) as u32);
                tr.out_words.push(words);
                tr.old_off.push(tr.old_vals.len() as u32);
                tr.old_vals.extend(std::iter::repeat_n(0, words as usize));
                tr.cons_start.push(tr.consumers.len() as u32);
                tr.consumers.extend(out.consumers.iter().copied());
                tr.cons_end.push(tr.consumers.len() as u32);
            }
            for &ri in &part.elided_regs {
                let (reg, wake) = (&regs[ri], &plan.reg_plans[ri].wake_on_change);
                let wake_start = tr.reg_wakes.len() as u32;
                tr.reg_wakes.extend(wake.iter().copied());
                tr.regs.push(ElidedReg {
                    plan: ri as u32,
                    next: layout.offset(reg.next) as u32,
                    out: layout.offset(reg.out) as u32,
                    words: layout.words(reg.out) as u32,
                    wakes: [wake_start, tr.reg_wakes.len() as u32],
                });
            }
            tr.writes
                .extend(part.elided_writes.iter().map(|&wi| wi as u32));
            let range = |start: usize, end: usize| [start as u32, end as u32];
            tr.parts.push(PartSpan {
                outs: range(out_start, tr.out_off.len()),
                regs: range(reg_start, tr.regs.len()),
                writes: range(write_start, tr.writes.len()),
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
        let commit_writes = plan
            .mem_write_plans
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.elided)
            .map(|(i, _)| i)
            .collect();
        let full_steps = blocks
            .iter()
            .flat_map(|b| b.items.iter())
            .map(crate::compile::Item::step_count)
            .sum();

        // Pull-direction tables: the cross-partition signals each
        // partition's members read (deduplicated), with snapshot storage.
        let mut pull_inputs = PullInputs::default();
        if !config.trigger_push {
            for (sched, part) in plan.partitions.iter().enumerate() {
                pull_inputs.part_start.push(pull_inputs.in_off.len() as u32);
                let mut seen = std::collections::BTreeSet::new();
                for &m in &part.members {
                    for dep in netlist.deps(m) {
                        // Inputs from outside this partition, except
                        // register outputs and external inputs — those are
                        // still interesting (their changes are what pull
                        // mode detects by value), so include everything
                        // not computed in this partition.
                        if plan.sched_of_signal[dep.index()] as usize != sched
                            || !matches!(
                                netlist.signal(dep).def,
                                essent_netlist::SignalDef::Op(_)
                                    | essent_netlist::SignalDef::MemRead { .. }
                            )
                        {
                            seen.insert(dep);
                        }
                    }
                }
                for dep in seen {
                    pull_inputs.in_off.push(machine.layout.offset(dep) as u32);
                    let words = machine.layout.words(dep) as u16;
                    pull_inputs.in_words.push(words);
                    pull_inputs
                        .snap_off
                        .push(pull_inputs.snapshots.len() as u32);
                    pull_inputs
                        .snapshots
                        .extend(std::iter::repeat_n(0, words as usize));
                }
                pull_inputs.part_end.push(pull_inputs.in_off.len() as u32);
            }
        }

        let profile = config
            .profile
            .then(|| Box::new(ProfileArena::new(ProfileWiring::for_plan(&netlist, &plan))));
        let flags = vec![true; plan.partitions.len()];
        EssentSim {
            machine,
            plan,
            blocks,
            programs,
            flags,
            triggers,
            input_wake,
            commit_regs,
            commit_writes,
            full_steps,
            push: config.trigger_push,
            pull_inputs,
            profile,
            jit,
        }
    }

    /// Number of partitions in the schedule.
    pub fn partition_count(&self) -> usize {
        self.plan.partitions.len()
    }

    /// The compiled plan (reports, tests).
    pub fn plan(&self) -> &CcssPlan {
        &self.plan
    }

    /// Steps a full-cycle evaluation of this design would run per cycle;
    /// `counters().ops_evaluated / (cycles * full_steps_per_cycle)` is the
    /// *effective activity factor* of Figure 7.
    pub fn full_steps_per_cycle(&self) -> usize {
        self.full_steps
    }

    /// Borrow of the underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Aggregated word-specialization coverage over all partitions
    /// (`None` when the tier is disabled).
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.programs.as_ref().map(|ps| {
            ps.iter()
                .fold(TierStats::default(), |acc, p| acc.merged(&p.stats))
        })
    }

    /// Number of partitions currently running native-compiled bodies
    /// (0 when the JIT is off or unsupported on this target).
    pub fn jit_compiled_count(&self) -> usize {
        self.jit.as_ref().map_or(0, |j| j.compiled_count())
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

    /// Borrow of the telemetry arena (trace export; `None` unless built
    /// with [`EngineConfig::profile`]).
    pub fn profile_arena(&self) -> Option<&ProfileArena> {
        self.profile.as_deref()
    }

    /// Mutable borrow of the telemetry arena (trace window / heatmap
    /// bucket configuration).
    pub fn profile_arena_mut(&mut self) -> Option<&mut ProfileArena> {
        self.profile.as_deref_mut()
    }

    fn run_cycle<P: Profiler>(&mut self, prof: &mut P) {
        prof.begin_cycle();
        let machine = &mut self.machine;
        // Interior-mutable view of the activity flags so fused trigger
        // writes inside the tier-1 interpreter can wake consumers while
        // the flag slice stays borrowed here.
        let flags = Cell::from_mut(self.flags.as_mut_slice()).as_slice_of_cells();
        let tr = &mut self.triggers;
        let code = Code {
            plan: &self.plan,
            blocks: &self.blocks,
            programs: self.programs.as_deref(),
            jit: self.jit.as_ref(),
        };
        let plan = code.plan;
        let np = plan.partitions.len();

        if self.push {
            // One activity flag test per partition per cycle, accounted
            // in bulk: the chunked scan below performs the same tests
            // eight at a time.
            machine.counters.static_checks += np as u64;
            let mut ctx = (&mut *machine, &mut *tr, &mut *prof);
            // SAFETY: `np` in-bounds flag cells; `Cell<bool>` is one
            // byte (0 or 1) and no other thread exists.
            unsafe {
                scan_flags(
                    flags.as_ptr().cast::<u8>(),
                    np,
                    &mut ctx,
                    |(_, _, prof), s| (s..s + 8).for_each(|p| prof.unit_skip(p)),
                    |(machine, tr, prof), s| {
                        if flags[s].get() {
                            code.eval_active(s, machine, flags, tr, true, &mut **prof);
                        } else {
                            prof.unit_skip(s);
                        }
                    },
                )
            };
        } else {
            let pull = &mut self.pull_inputs;
            for sched in 0..np {
                machine.counters.static_checks += 1;
                // Pull direction: compare every cross-partition input
                // against its snapshot — per-cycle work proportional to
                // the partition's inputs, the overhead the paper's push
                // choice avoids.
                let inputs = pull.part_start[sched] as usize..pull.part_end[sched] as usize;
                let mut active = flags[sched].get();
                for i in inputs.clone() {
                    if active {
                        break;
                    }
                    machine.counters.static_checks += 1;
                    let off = pull.in_off[i] as usize;
                    let w = pull.in_words[i] as usize;
                    let snap = pull.snap_off[i] as usize;
                    active = machine.arena[off..off + w] != pull.snapshots[snap..snap + w];
                }
                if !active {
                    prof.unit_skip(sched);
                    continue;
                }
                // Refresh input snapshots for the next pull comparison.
                for i in inputs {
                    let off = pull.in_off[i] as usize;
                    let w = pull.in_words[i] as usize;
                    let snap = pull.snap_off[i] as usize;
                    pull.snapshots[snap..snap + w].copy_from_slice(&machine.arena[off..off + w]);
                }
                code.eval_active(sched, machine, flags, tr, false, prof);
            }
        }

        // Side effects observe end-of-cycle values.
        machine.side_effects();

        // Non-elided state: end-of-cycle commit with change detection.
        // Memory writes first — their fields may alias register outputs
        // (the plan additionally forbids eliding a register read by a
        // non-elided write action, so intra-cycle values are observed).
        for &wi in &self.commit_writes {
            machine.counters.static_checks += 1;
            let wp = &plan.mem_write_plans[wi];
            if machine.run_mem_write(wp.mem.index(), wp.writer) {
                for &c in &wp.wake_on_change {
                    flags[c as usize].set(true);
                    prof.wake_state_mem(wi, c);
                }
            }
        }
        for &ri in &self.commit_regs {
            machine.counters.static_checks += 1;
            if machine.commit_reg(ri) {
                for &c in &plan.reg_plans[ri].wake_on_change {
                    flags[c as usize].set(true);
                    prof.wake_state_reg(ri, c);
                }
            }
        }
        machine.cycle += 1;
        machine.counters.cycles += 1;
    }
}

/// The compiled, read-only side of an [`EssentSim`]: the plan and the
/// partitions' code in each tier.
#[derive(Clone, Copy)]
struct Code<'a> {
    plan: &'a CcssPlan,
    blocks: &'a [Block],
    programs: Option<&'a [Tier1Program]>,
    jit: Option<&'a jit::JitParts>,
}

impl Code<'_> {
    /// Evaluates one active partition (steps 1–5 of the module docs;
    /// pull mode has refreshed its input snapshots already).
    fn eval_active<P: Profiler>(
        self,
        sched: usize,
        machine: &mut Machine,
        flags: &[Cell<bool>],
        tr: &mut Triggers,
        push: bool,
        prof: &mut P,
    ) {
        let ops_before = machine.counters.ops_evaluated;
        let t0 = prof.eval_begin(sched);
        // 1. Deactivate for the next cycle.
        flags[sched].set(false);

        // 2. Snapshot old output values.
        let spans = tr.parts[sched];
        for o in span(spans.outs) {
            let off = tr.out_off[o] as usize;
            let w = tr.out_words[o] as usize;
            let old = tr.old_off[o] as usize;
            tr.old_vals[old..old + w].copy_from_slice(&machine.arena[off..off + w]);
        }

        // 3. Evaluate members — through the word-specialized tier
        //    when lowered (fused outputs compare-and-wake inline),
        //    through the generic item interpreter otherwise.
        match self.programs {
            Some(progs) => {
                let arena = machine.arena.as_mut_ptr();
                let native = self.jit.and_then(|j| j.part(sched).map(|p| (p, j.banks())));
                if let Some((part, banks)) = native {
                    // SAFETY: exclusive machine access through
                    // &mut Machine; the compiled body touches only
                    // arena offsets lowered from this partition's
                    // tier-1 program (audited by the J07xx verify
                    // layer), wakes consumers through the flag
                    // bytes (Cell<bool> is a byte, 1 == true), and
                    // reads memory banks through the pinned bank
                    // table built from this machine's mems.
                    let (o, d) =
                        unsafe { part.run(arena, flags.as_ptr().cast::<u8>().cast_mut(), banks) };
                    machine.counters.ops_evaluated += o;
                    machine.counters.dynamic_checks += d;
                } else {
                    // SAFETY: exclusive machine access through
                    // &mut Machine; the flag cells alias no arena or
                    // bank storage.
                    unsafe {
                        prof.run_tier1(
                            &progs[sched],
                            arena,
                            &machine.mems,
                            flags,
                            sched,
                            &mut machine.counters.ops_evaluated,
                            &mut machine.counters.dynamic_checks,
                        )
                    }
                }
            }
            None => machine.run_items(&self.blocks[sched].items),
        }

        // 4. Elided state updates: write in place, wake next-cycle
        //    consumers (they are scheduled at or before this
        //    partition, so the flags persist into the next cycle).
        //    Memory writes before register updates: a write's fields
        //    may alias a register output in this same partition and
        //    must see its intra-cycle value.
        for &wi in &tr.writes[span(spans.writes)] {
            machine.counters.dynamic_checks += 1;
            let wp = &self.plan.mem_write_plans[wi as usize];
            if machine.run_mem_write(wp.mem.index(), wp.writer) {
                for &c in &wp.wake_on_change {
                    flags[c as usize].set(true);
                    prof.wake_state_mem(wi as usize, c);
                }
            }
        }
        for r in &tr.regs[span(spans.regs)] {
            machine.counters.dynamic_checks += 1;
            // SAFETY: exclusive machine access through &mut Machine;
            // `next` and `out` are distinct signals' slots.
            let changed = unsafe {
                commit_state_raw(
                    machine.arena.as_mut_ptr(),
                    r.next as usize,
                    r.out as usize,
                    r.words as usize,
                )
            };
            if changed {
                for &c in &tr.reg_wakes[span(r.wakes)] {
                    flags[c as usize].set(true);
                    prof.wake_state_reg(r.plan as usize, c);
                }
            }
        }

        // 5. Push direction only: per-output change detection; wake
        //    consumers of changed outputs (branchless OR-reduction in
        //    the generated C++; a compare + flag writes here).
        if push {
            for o in span(spans.outs) {
                machine.counters.dynamic_checks += 1;
                let off = tr.out_off[o] as usize;
                let w = tr.out_words[o] as usize;
                let old = tr.old_off[o] as usize;
                if machine.arena[off..off + w] != tr.old_vals[old..old + w] {
                    for ci in tr.cons_start[o]..tr.cons_end[o] {
                        flags[tr.consumers[ci as usize] as usize].set(true);
                        prof.wake_output(sched, tr.consumers[ci as usize]);
                    }
                }
            }
        }
        prof.eval_end(sched, t0, machine.counters.ops_evaluated - ops_before);
    }
}

/// Chunked idle scan over one-byte activity flags. With
/// the paper's low activity factors most flags are clear most cycles,
/// so the sweep tests eight flag bytes with one word load and hands a
/// whole idle run to `idle8` (called with the run's first index).
/// A non-zero chunk falls back to `visit` per partition, in schedule
/// order, which must re-read the flag at arrival — an earlier partition
/// in the same chunk may wake a later one mid-scan.
///
/// # Safety
///
/// `flags` must point to `np` readable flag bytes, each 0 or 1, that
/// no other thread writes during the scan (so an unaligned 8-byte read
/// observes exactly the eight flags as currently set).
#[inline(always)]
unsafe fn scan_flags<C: ?Sized>(
    flags: *const u8,
    np: usize,
    ctx: &mut C,
    mut idle8: impl FnMut(&mut C, usize),
    mut visit: impl FnMut(&mut C, usize),
) {
    let mut sched = 0;
    while sched < np {
        if np - sched >= 8 {
            // SAFETY: `sched + 8 <= np` in-bounds flag bytes, not written
            // concurrently (caller's contract).
            let word = unsafe { flags.add(sched).cast::<u64>().read_unaligned() };
            if word == 0 {
                idle8(ctx, sched);
                sched += 8;
                continue;
            }
        }
        for _ in 0..(np - sched).min(8) {
            visit(ctx, sched);
            sched += 1;
        }
    }
}

/// Partitions the netlist at `config.c_p` (with the profile-guided
/// merge phase when `prior` is given) and plans it, eliding registers
/// per `config.elide_state` and memory writes per `elide_mem`.
pub(crate) fn build_plan(
    netlist: &Netlist,
    config: &EngineConfig,
    prior: Option<&ActivityPrior>,
    elide_mem: bool,
) -> CcssPlan {
    let (dag, writes) = extended_dag(netlist);
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
    CcssPlan::from_partitioning(
        netlist,
        &dag,
        &writes,
        &parts,
        PlanOptions {
            elide_state: config.elide_state,
            elide_mem,
        },
    )
}

impl Simulator for EssentSim {
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
                    self.flags[c as usize] = true;
                    if let Some(p) = &mut self.profile {
                        p.wake_input(id, c);
                    }
                }
            }
        }
    }

    fn step(&mut self, n: u64) -> u64 {
        // Take/put the arena so the cycle loop monomorphizes: the
        // disabled path compiles with every probe erased.
        match self.profile.take() {
            Some(mut p) => {
                let ran = self.step_profiled(n, &mut *p);
                self.profile = Some(p);
                ran
            }
            None => self.step_profiled(n, &mut NoProfile),
        }
    }

    fn engine_name(&self) -> &'static str {
        "essent"
    }

    fn profile_report(&self) -> Option<ProfileReport> {
        self.profile.as_ref().map(|p| p.report("essent"))
    }

    delegate_simulator_basics!();
}

impl EssentSim {
    fn step_profiled<P: Profiler>(&mut self, n: u64, prof: &mut P) -> u64 {
        for i in 0..n {
            if self.machine.halted.is_some() {
                return i;
            }
            self.run_cycle(prof);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn counter_counts_with_activity() {
        let n = netlist_of(COUNTER);
        let mut sim = EssentSim::new(&n, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek("q").to_u64(), Some(9));
    }

    /// A design where half the logic is gated off: ESSENT must evaluate
    /// dramatically fewer ops than full-cycle once the gated half sleeps.
    #[test]
    fn idle_logic_is_skipped() {
        let src = "circuit G :\n  module G :\n    input clock : Clock\n    input en : UInt<1>\n    input a : UInt<8>\n    output o : UInt<8>\n    output busy : UInt<8>\n    reg idle : UInt<8>, clock\n    when en :\n      idle <= xor(mul(a, a), idle)\n    o <= idle\n    reg spin : UInt<8>, clock\n    spin <= tail(add(spin, UInt<8>(1)), 1)\n    busy <= spin\n";
        let n = netlist_of(src);
        let mut sim = EssentSim::new(
            &n,
            &EngineConfig {
                c_p: 2,
                ..EngineConfig::default()
            },
        );
        sim.poke("en", Bits::from_u64(0, 1));
        sim.poke("a", Bits::from_u64(3, 8));
        sim.step(5); // settle
        let before = sim.counters().ops_evaluated;
        sim.step(100);
        let idle_ops = sim.counters().ops_evaluated - before;
        // The spinning counter keeps its partition busy, but the gated
        // multiplier partition must sleep.
        let full = (sim.full_steps_per_cycle() * 100) as u64;
        assert!(
            idle_ops < full,
            "ESSENT evaluated {idle_ops} of {full} full-cycle ops"
        );
        // And correctness: enable it and check the value updates.
        sim.poke("en", Bits::from_u64(1, 1));
        sim.step(1);
        sim.step(1);
        assert_eq!(sim.peek("o").to_u64(), Some(9));
    }

    #[test]
    fn quiescent_design_costs_only_flag_checks() {
        let n = netlist_of(COUNTER);
        let mut sim = EssentSim::new(&n, &EngineConfig::default());
        // Hold reset: the register value pins at 0, and after the first
        // few cycles nothing changes, so no partition re-activates...
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(5);
        let before = sim.counters().ops_evaluated;
        sim.step(50);
        let delta = sim.counters().ops_evaluated - before;
        assert_eq!(delta, 0, "a quiescent design must evaluate nothing");
    }

    #[test]
    fn matches_full_cycle_on_counter() {
        let n = netlist_of(COUNTER);
        let mut essent = EssentSim::new(&n, &EngineConfig::default());
        let mut full = crate::FullCycleSim::new(&n, &EngineConfig::default());
        for cycle in 0..30u64 {
            let rst = Bits::from_u64((cycle < 2 || cycle == 17) as u64, 1);
            essent.poke("reset", rst.clone());
            full.poke("reset", rst);
            essent.step(1);
            full.step(1);
            assert_eq!(essent.peek("q"), full.peek("q"), "cycle {cycle}");
        }
    }

    #[test]
    fn works_across_cp_values() {
        let n = netlist_of(COUNTER);
        for cp in [1, 2, 4, 8, 64] {
            let mut sim = EssentSim::new(
                &n,
                &EngineConfig {
                    c_p: cp,
                    ..EngineConfig::default()
                },
            );
            sim.poke("reset", Bits::from_u64(0, 1));
            sim.step(12);
            assert_eq!(sim.peek("q").to_u64(), Some(11), "cp={cp}");
        }
    }

    #[test]
    fn elision_off_still_correct() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            elide_state: false,
            ..EngineConfig::default()
        };
        let mut sim = EssentSim::new(&n, &config);
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek("q").to_u64(), Some(9));
        assert!(sim.plan().reg_plans.iter().all(|r| !r.elided));
    }
}
