//! The measured pipeline, two ways.
//!
//! * [`setup`] is the public path a user calls: `essent::compile` and
//!   the engine's combined constructor.
//! * [`setup_traced`] makes the same calls one layer at a time —
//!   `essent::compile`'s four stages, then `extended_dag` + `partition`,
//!   `CcssPlan::from_partitioning` and the engine constructor from the
//!   plan — each inside a span. The benchmark's tests prove both paths
//!   build the same engine.
//!
//! [`Engine::run`] steps every lane to `tohost` the way
//! `essent_designs::workloads::run_workload` does (the single-instance
//! engines call it directly); [`Engine::run_traced`] adds a span around
//! each `step` call.

use crate::golden::MAX_CYCLES;
use crate::trace::Trace;
use crate::workload::{EngineKind, Kind};
use essent::bits::Bits;
use essent::core::partition::partition;
use essent::core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent::designs::workloads::{run_workload, RunResult, Workload};
use essent::netlist::opt::{optimize, OptConfig};
use essent::netlist::Netlist;
use essent::sim::{BatchSim, EngineConfig, EssentSim, ParEssentSim, Simulator, WorkCounters};
use std::error::Error;
use std::sync::Arc;

/// Cycles per `step` call, as in `run_workload`.
const CHUNK: u64 = 8192;

/// The compile-layer spans of [`setup_traced`], in pipeline order; they
/// nest directly inside its `setup` span and together cover it.
pub const LAYERS: [&str; 7] = [
    "firrtl.parse",
    "firrtl.lower",
    "netlist.build",
    "netlist.opt",
    "core.partition",
    "core.plan",
    "sim.build",
];

/// The engine configuration a workload uses: the defaults, plus the
/// lane count for the batched sweep.
pub fn config(kind: Kind) -> EngineConfig {
    match kind.engine() {
        EngineKind::Batch { lanes } => EngineConfig {
            lanes,
            ..EngineConfig::default()
        },
        EngineKind::Seq | EngineKind::Par { .. } => EngineConfig::default(),
    }
}

pub enum Engine {
    Seq(EssentSim),
    Par(ParEssentSim, usize),
    Batch(BatchSim),
}

/// FIRRTL text → engine ready to step, through the public combined
/// calls.
pub fn setup(kind: Kind, firrtl: &str) -> Result<Engine, Box<dyn Error>> {
    let netlist = essent::compile(firrtl)?;
    let config = config(kind);
    Ok(match kind.engine() {
        EngineKind::Seq => Engine::Seq(EssentSim::new(&netlist, &config)),
        EngineKind::Par { threads } => {
            Engine::Par(ParEssentSim::new(&netlist, &config, threads), threads)
        }
        EngineKind::Batch { .. } => Engine::Batch(BatchSim::new(&netlist, &config)),
    })
}

/// [`setup`] one layer call at a time, each in a span named after
/// [`LAYERS`], all inside one `setup` span.
///
/// `ParEssentSim` has no constructor from a plan, so on the parallel
/// workload `sim.build` covers its internal partition, plan and
/// schedule build, and `core.partition` / `core.plan` are not recorded.
pub fn setup_traced(kind: Kind, firrtl: &str, tr: &mut Trace) -> Result<Engine, Box<dyn Error>> {
    let span = tr.begin("setup");
    let built = layers(kind, firrtl, tr);
    tr.end(span);
    built
}

fn layers(kind: Kind, firrtl: &str, tr: &mut Trace) -> Result<Engine, Box<dyn Error>> {
    let circuit = tr.span("firrtl.parse", || essent::firrtl::parse(firrtl))?;
    let lowered = tr.span("firrtl.lower", || essent::firrtl::passes::lower(circuit))?;
    let mut netlist = tr.span("netlist.build", || Netlist::from_circuit(&lowered))?;
    // Temporaries are dropped where the combined calls drop them: the
    // lowered circuit when `essent::compile` returns, the DAG and the
    // partitioning when the engine constructor returns.
    tr.span("netlist.opt", || {
        optimize(&mut netlist, &OptConfig::default());
        drop(lowered);
    });
    let config = config(kind);
    if let EngineKind::Par { threads } = kind.engine() {
        let sim = tr.span("sim.build", || {
            let sim = ParEssentSim::new(&netlist, &config, threads);
            drop(netlist);
            sim
        });
        return Ok(Engine::Par(sim, threads));
    }
    // As `EssentSim::new` / `BatchSim::new` build their plans.
    let (dag, writes, parts) = tr.span("core.partition", || {
        let (dag, writes) = extended_dag(&netlist);
        let parts = partition(&dag, config.c_p);
        (dag, writes, parts)
    });
    let plan = tr.span("core.plan", || {
        CcssPlan::from_partitioning(
            &netlist,
            &dag,
            &writes,
            &parts,
            PlanOptions {
                elide_state: config.elide_state,
                elide_mem: config.elide_state,
            },
        )
    });
    let engine = tr.span("sim.build", || {
        let engine = match kind.engine() {
            EngineKind::Batch { .. } => Engine::Batch(BatchSim::from_plan_shared(
                Arc::new(netlist.clone()),
                plan,
                &config,
            )),
            _ => Engine::Seq(EssentSim::from_plan(&netlist, plan, &config)),
        };
        drop((netlist, dag, writes, parts));
        engine
    });
    Ok(engine)
}

/// One run: every lane's outcome, and the batch cycles it took (equal
/// to the lane's cycles on a single-instance engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub lanes: Vec<RunResult>,
    pub batch_cycles: u64,
}

impl Run {
    pub fn lane_cycles(&self) -> u64 {
        self.lanes.iter().map(|r| r.cycles).sum()
    }
}

impl Engine {
    /// Runs `programs` (one per lane) to `tohost`.
    pub fn run(&mut self, programs: &[Workload]) -> Run {
        match self {
            Engine::Seq(sim) => single(run_workload(sim, &programs[0], MAX_CYCLES)),
            Engine::Par(sim, _) => single(run_workload(sim, &programs[0], MAX_CYCLES)),
            Engine::Batch(sim) => run_batch(sim, programs, None),
        }
    }

    /// [`Engine::run`] with a `sim.step` span around every `step` call.
    pub fn run_traced(&mut self, programs: &[Workload], tr: &mut Trace) -> Run {
        match self {
            Engine::Seq(sim) => single(run_single_traced(sim, &programs[0], tr)),
            Engine::Par(sim, _) => single(run_single_traced(sim, &programs[0], tr)),
            Engine::Batch(sim) => run_batch(sim, programs, Some(tr)),
        }
    }

    pub fn partition_count(&self) -> usize {
        match self {
            Engine::Seq(sim) => sim.partition_count(),
            Engine::Par(sim, _) => sim.partition_count(),
            Engine::Batch(sim) => sim.partition_count(),
        }
    }

    /// Work counters, summed over lanes.
    pub fn counters(&self) -> WorkCounters {
        match self {
            Engine::Seq(sim) => sim.counters(),
            Engine::Par(sim, _) => sim.counters(),
            Engine::Batch(sim) => {
                let mut sum = WorkCounters::default();
                for lane in 0..sim.lanes() {
                    let c = sim.counters_of(lane);
                    sum.ops_evaluated += c.ops_evaluated;
                    sum.static_checks += c.static_checks;
                    sum.dynamic_checks += c.dynamic_checks;
                    sum.events += c.events;
                    sum.cycles += c.cycles;
                }
                sum
            }
        }
    }

    /// Arena words of one design instance.
    pub fn arena_words(&self) -> usize {
        match self {
            Engine::Seq(sim) => sim.machine().arena.len(),
            Engine::Par(sim, _) => sim.machine().arena.len(),
            Engine::Batch(sim) => sim.lane_arena(0).len(),
        }
    }

    /// Share of source steps lowered into the one-word tier; `None` on
    /// the parallel engine, which does not expose its tier statistics.
    pub fn tier1_coverage(&self) -> Option<f64> {
        let stats = match self {
            Engine::Seq(sim) => sim.tier_stats(),
            Engine::Par(..) => None,
            Engine::Batch(sim) => sim.tier_stats(),
        }?;
        Some(stats.tier1_steps as f64 / stats.total_steps.max(1) as f64)
    }

    pub fn jit_compiled(&self) -> usize {
        match self {
            Engine::Seq(sim) => sim.jit_compiled_count(),
            Engine::Par(sim, _) => sim.jit_compiled_count(),
            Engine::Batch(_) => 0,
        }
    }

    pub fn compactions(&self) -> u64 {
        match self {
            Engine::Batch(sim) => sim.compactions(),
            _ => 0,
        }
    }

    pub fn lanes(&self) -> usize {
        match self {
            Engine::Batch(sim) => sim.lanes(),
            _ => 1,
        }
    }

    /// Dependency levels of the parallel engine (0 elsewhere).
    pub fn par_levels(&self) -> usize {
        match self {
            Engine::Par(sim, _) => sim.level_count(),
            _ => 0,
        }
    }

    /// Worker threads stepping the design.
    pub fn workers(&self) -> usize {
        match self {
            Engine::Par(_, threads) => *threads,
            _ => 1,
        }
    }
}

fn single(result: RunResult) -> Run {
    Run {
        batch_cycles: result.cycles,
        lanes: vec![result],
    }
}

/// `run_workload` with a span around each `step` call.
fn run_single_traced<S: Simulator>(sim: &mut S, workload: &Workload, tr: &mut Trace) -> RunResult {
    for (i, &word) in workload.words.iter().enumerate() {
        sim.write_mem("imem", i, Bits::from_u64(word as u64, 32));
    }
    sim.poke("reset", Bits::from_u64(1, 1));
    sim.step(2);
    sim.poke("reset", Bits::from_u64(0, 1));
    let start = sim.cycle();
    let mut remaining = MAX_CYCLES;
    while remaining > 0 && sim.halted().is_none() {
        let n = remaining.min(CHUNK);
        tr.span("sim.step", || sim.step(n));
        remaining -= n;
    }
    RunResult {
        cycles: sim.cycle() - start,
        instret: sim.peek("instret_r").to_u64().unwrap_or(0),
        tohost: sim.peek("tohost_r").to_u64().unwrap_or(0),
        finished: sim.halted().is_some(),
    }
}

/// The batch-engine analogue of `run_workload`: one program per lane,
/// reset released on all lanes, stepped until every lane halts.
fn run_batch(sim: &mut BatchSim, programs: &[Workload], mut tr: Option<&mut Trace>) -> Run {
    assert_eq!(programs.len(), sim.lanes(), "one program per lane");
    for (lane, workload) in programs.iter().enumerate() {
        for (i, &word) in workload.words.iter().enumerate() {
            sim.write_mem_lane(lane, "imem", i, &Bits::from_u64(word as u64, 32));
        }
    }
    sim.poke("reset", Bits::from_u64(1, 1));
    sim.step(2);
    sim.poke("reset", Bits::from_u64(0, 1));
    let start: Vec<u64> = (0..sim.lanes()).map(|l| sim.cycle_of(l)).collect();
    let mut batch_cycles = 0;
    let mut remaining = MAX_CYCLES;
    while remaining > 0 {
        let n = remaining.min(CHUNK);
        let did = match tr.as_deref_mut() {
            Some(tr) => tr.span("sim.step", || sim.step(n)),
            None => sim.step(n),
        };
        batch_cycles += did;
        if did < n {
            break;
        }
        remaining -= n;
    }
    let lanes = (0..sim.lanes())
        .map(|lane| RunResult {
            cycles: sim.cycle_of(lane) - start[lane],
            instret: sim.peek_lane(lane, "instret_r").to_u64().unwrap_or(0),
            tohost: sim.peek_lane(lane, "tohost_r").to_u64().unwrap_or(0),
            finished: sim.halted_of(lane).is_some(),
        })
        .collect();
    Run {
        lanes,
        batch_cycles,
    }
}
