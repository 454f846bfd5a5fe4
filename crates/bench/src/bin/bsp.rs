//! **BSP** — the parallel engine's fan-out decision, measured.
//!
//! [`ParEssentSim`] runs [`EssentSim`]'s cycle on the calling thread
//! until the previous `step` call's mean evaluated ops per cycle reach
//! [`FANOUT_CROSSOVER_OPS`], and its N-worker dataflow schedule above
//! it. This bin measures both sides of that rule:
//!
//! * **designs** — per SoC design, dhrystone run to completion by the
//!   sequential engine ([`EssentSim`]), by `ParEssentSim` left to its
//!   own decision (`par`), and by `ParEssentSim` forced onto its
//!   N-worker schedule ([`ParEssentSim::force_fanout`]). The rows show
//!   each run's mean ops per cycle next to the rates.
//! * **crossover** — a register farm whose every register changes every
//!   cycle (activity 1), swept in width, run one-worker and forced. The
//!   measured crossover is the least ops/cycle from which the forced
//!   N-worker schedule wins at every wider point of the sweep; the bin
//!   prints it next to the constant the engine uses.
//!
//! The binary fails (exit 1 via panic) when any engine disagrees on
//! architectural results ([`RunResult`]), when the forced run's
//! [`WorkCounters`](essent_sim::WorkCounters) differ from the
//! one-worker run's — the schedule may only change *when* partitions
//! run, never what they compute — or when the farm's forced and
//! one-worker states differ; with `--verify`, also when the full
//! verifier stack (including the `S06xx` dependence/schedule layer)
//! finds an error.
//!
//! Run: `cargo run --release -p essent-bench --bin bsp
//! [--quick|--full] [--verify] [tiny r16 r18 boom]`.
//! Writes `BENCH_bsp.json` to the working directory.

use essent_bench::{build_design, verify_built, workload_set, BuiltDesign, Cli};
use essent_bits::Bits;
use essent_core::depgraph::FANOUT_CROSSOVER_OPS;
use essent_designs::workloads::{run_workload, RunResult, Workload};
use essent_netlist::Netlist;
use essent_sim::{EngineConfig, EssentSim, ParEssentSim, Simulator};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    name: String,
    cycles: u64,
    ops_per_cycle: f64,
    seq_khz: f64,
    par_khz: f64,
    par_fanout_cycles: u64,
    forced_khz: f64,
    workers: usize,
    exempt: usize,
    partitions: usize,
}

struct FarmPoint {
    registers: usize,
    ops_per_cycle: f64,
    one_worker_us: f64,
    forced_us: f64,
}

fn quiet() -> EngineConfig {
    EngineConfig {
        capture_printf: false,
        ..EngineConfig::default()
    }
}

fn timed(
    sim: &mut dyn Simulator,
    workload: &Workload,
    label: &str,
    name: &str,
) -> (RunResult, f64) {
    let start = Instant::now();
    let result = run_workload(sim, workload, u64::MAX / 2);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(result.finished, "{label} did not finish on `{name}`");
    (result, result.cycles as f64 / elapsed / 1e3)
}

fn measure(design: &BuiltDesign, workload: &Workload, threads: usize) -> Row {
    let name = &design.config.name;
    let mut seq = EssentSim::new(&design.optimized, &quiet());
    let (r_seq, seq_khz) = timed(&mut seq, workload, "seq", name);

    let mut par = ParEssentSim::new(&design.optimized, &quiet(), threads);
    let (r_par, par_khz) = timed(&mut par, workload, "par", name);

    let mut forced = ParEssentSim::new(&design.optimized, &quiet(), threads);
    let workers = forced.force_fanout();
    let (r_forced, forced_khz) = timed(&mut forced, workload, "forced", name);

    for (label, r) in [("par", &r_par), ("forced", &r_forced)] {
        assert_eq!(
            (r.cycles, r.instret, r.tohost, r.finished),
            (r_seq.cycles, r_seq.instret, r_seq.tohost, r_seq.finished),
            "{label} changed architectural results on `{name}`"
        );
    }
    // One plan, two paths: the counters must agree exactly. (The
    // sequential engine plans with memory-write elision, so only its
    // architectural results are comparable.)
    assert_eq!(
        forced.counters(),
        par.counters(),
        "forced fan-out changed the work done on `{name}`"
    );

    let ds = forced
        .dataflow_schedule()
        .expect("force_fanout builds the schedule");
    let counters = par.counters();
    Row {
        name: name.clone(),
        cycles: r_seq.cycles,
        ops_per_cycle: counters.ops_evaluated as f64 / counters.cycles.max(1) as f64,
        seq_khz,
        par_khz,
        par_fanout_cycles: par.fanout_cycles(),
        forced_khz,
        workers,
        exempt: ds.exempt_count(),
        partitions: ds.worker_of.len(),
    }
}

/// `n` independent self-feedback registers, each changing every cycle:
/// an all-active design whose per-cycle work scales with `n`.
fn register_farm(n: usize) -> Netlist {
    let mut src = String::from(
        "circuit F :\n  module F :\n    input clock : Clock\n    input x : UInt<16>\n    output o : UInt<16>\n",
    );
    for i in 0..n {
        let _ = writeln!(src, "    reg r{i} : UInt<16>, clock");
        let _ = writeln!(
            src,
            "    r{i} <= bits(add(xor(r{i}, x), UInt<16>({})), 15, 0)",
            (i * 2654435761usize) & 0xffff | 1
        );
    }
    let _ = writeln!(src, "    o <= r0");
    let circuit = essent_firrtl::parse(&src).expect("farm parses");
    let lowered = essent_firrtl::passes::lower(circuit).expect("farm lowers");
    Netlist::from_circuit(&lowered).expect("farm builds")
}

/// Median microseconds per cycle of one-worker vs forced runs on a
/// register farm, sampled in interleaved pairs.
fn farm_point(registers: usize, threads: usize, scale: u32) -> FarmPoint {
    let netlist = register_farm(registers);
    let mut one = ParEssentSim::new(&netlist, &quiet(), 1);
    let mut forced = ParEssentSim::new(&netlist, &quiet(), threads);
    forced.force_fanout();
    for sim in [&mut one, &mut forced] {
        sim.poke("x", Bits::from_u64(0x5A5A, 16));
        sim.step(64);
    }
    // About 20 ms of one-worker stepping per sample at ~1 ns per op.
    let ops0 = one.counters().ops_evaluated;
    let cycles = (20_000_000 * scale as u64 / (ops0 / 64).max(1)).clamp(64, 1 << 20);
    let time = |sim: &mut ParEssentSim| {
        let start = Instant::now();
        sim.step(cycles);
        start.elapsed().as_secs_f64() * 1e6 / cycles as f64
    };
    let (mut t_one, mut t_forced) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        t_one.push(time(&mut one));
        t_forced.push(time(&mut forced));
    }
    for probe in ["o", &format!("r{}", registers - 1)] {
        assert_eq!(
            one.peek(probe),
            forced.peek(probe),
            "farm of {registers}: `{probe}` differs between paths"
        );
    }
    assert_eq!(one.counters(), forced.counters(), "farm of {registers}");
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let c = one.counters();
    FarmPoint {
        registers,
        ops_per_cycle: c.ops_evaluated as f64 / c.cycles as f64,
        one_worker_us: median(&mut t_one),
        forced_us: median(&mut t_forced),
    }
}

/// The least ops/cycle from which forced fan-out wins at every wider
/// farm point (`None` if the widest point still loses).
fn measured_crossover(points: &[FarmPoint]) -> Option<f64> {
    let mut crossover = None;
    for p in points.iter().rev() {
        if p.forced_us >= p.one_worker_us {
            break;
        }
        crossover = Some(p.ops_per_cycle);
    }
    crossover
}

fn main() {
    let cli = Cli::parse();
    let workloads = workload_set(cli.scale);
    let workload = &workloads[0];

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Oversubscribing a small host would measure scheduler thrash, not
    // the schedule.
    let threads = hw.min(4);
    eprintln!("bsp: {threads} worker(s) ({hw} hardware thread(s))");

    let mut rows = Vec::new();
    for config in cli.configs() {
        let design = build_design(&config);
        verify_built(&cli, &design);
        rows.push(measure(&design, workload, threads));
    }
    print_table(&rows);

    let farm: Vec<FarmPoint> = if threads > 1 {
        [64usize, 256, 1024, 4096, 8192, 16384, 32768]
            .iter()
            .map(|&n| farm_point(n, threads, cli.scale))
            .collect()
    } else {
        Vec::new()
    };
    print_farm(&farm);
    let crossover = measured_crossover(&farm);
    match crossover {
        Some(ops) => println!(
            "measured crossover: {ops:.0} ops/cycle at {threads} workers \
             (engine constant FANOUT_CROSSOVER_OPS = {FANOUT_CROSSOVER_OPS})"
        ),
        None => println!(
            "measured crossover: not reached in the sweep at {threads} worker(s) \
             (engine constant FANOUT_CROSSOVER_OPS = {FANOUT_CROSSOVER_OPS})"
        ),
    }

    let json = render_json(cli.scale, threads, &rows, &farm, crossover);
    std::fs::write("BENCH_bsp.json", &json).expect("write BENCH_bsp.json");
    eprintln!("wrote BENCH_bsp.json");
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>14}",
        "design", "ops/cyc", "seq", "par", "fanned", "forced", "workers", "exempt"
    );
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>14}",
        "", "", "(kHz)", "(kHz)", "(cycles)", "(kHz)", "", "(partitions)"
    );
    for r in rows {
        println!(
            "{:<6} {:>9.0} {:>9.1} {:>9.1} {:>9} {:>9.1} {:>8} {:>7}/{:<6}",
            r.name,
            r.ops_per_cycle,
            r.seq_khz,
            r.par_khz,
            r.par_fanout_cycles,
            r.forced_khz,
            r.workers,
            r.exempt,
            r.partitions,
        );
    }
}

fn print_farm(points: &[FarmPoint]) {
    println!(
        "\n{:>9} {:>9} {:>12} {:>12} {:>8}",
        "registers", "ops/cyc", "1-worker us", "forced us", "forced"
    );
    for p in points {
        println!(
            "{:>9} {:>9.0} {:>12.2} {:>12.2} {:>7.2}x",
            p.registers,
            p.ops_per_cycle,
            p.one_worker_us,
            p.forced_us,
            p.one_worker_us / p.forced_us
        );
    }
}

fn render_json(
    scale: u32,
    threads: usize,
    rows: &[Row],
    farm: &[FarmPoint],
    crossover: Option<f64>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"bsp\",");
    let _ = writeln!(s, "  \"scale\": {scale},");
    let _ = writeln!(s, "  \"workers\": {threads},");
    let _ = writeln!(s, "  \"fanout_crossover_ops\": {FANOUT_CROSSOVER_OPS},");
    match crossover {
        Some(ops) => {
            let _ = writeln!(s, "  \"measured_crossover_ops\": {ops:.0},");
        }
        None => {
            let _ = writeln!(s, "  \"measured_crossover_ops\": null,");
        }
    }
    let _ = writeln!(s, "  \"designs\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"cycles\": {},", r.cycles);
        let _ = writeln!(s, "      \"ops_per_cycle\": {:.1},", r.ops_per_cycle);
        let _ = writeln!(s, "      \"seq_khz\": {:.1},", r.seq_khz);
        let _ = writeln!(s, "      \"par_khz\": {:.1},", r.par_khz);
        let _ = writeln!(s, "      \"par_fanout_cycles\": {},", r.par_fanout_cycles);
        let _ = writeln!(s, "      \"forced_khz\": {:.1},", r.forced_khz);
        let _ = writeln!(s, "      \"workers\": {},", r.workers);
        let _ = writeln!(s, "      \"exempt_partitions\": {},", r.exempt);
        let _ = writeln!(s, "      \"partitions\": {}", r.partitions);
        let _ = writeln!(s, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"farm\": [");
    for (i, p) in farm.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"registers\": {}, \"ops_per_cycle\": {:.1}, \"one_worker_us\": {:.3}, \
             \"forced_us\": {:.3} }}{}",
            p.registers,
            p.ops_per_cycle,
            p.one_worker_us,
            p.forced_us,
            if i + 1 < farm.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
