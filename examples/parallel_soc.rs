//! Compare the sequential and thread-parallel CCSS engines on a large
//! SoC.
//!
//! The parallel engine runs a static dataflow schedule over the acyclic
//! partitioning on a worker pool — the direction of the follow-on
//! research building on ESSENT — but only when the measured work per
//! cycle pays for the cross-worker handoffs; below that crossover it
//! runs the sequential engine's own cycle on the calling thread. A low-activity workload like this one
//! stays below it, so this example reports what it measures honestly
//! rather than promising a win.
//!
//! Run with: `cargo run --release --example parallel_soc`

use essent::designs::soc::{generate_soc, SocConfig};
use essent::designs::workloads::{dhrystone, run_workload};
use essent::prelude::*;
use essent::sim::ParEssentSim;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");

    let config = SocConfig::boom();
    let netlist = essent::compile(&generate_soc(&config))?;
    println!("design `{}`: {}", config.name, netlist.stats());
    let workload = dhrystone(40)?;
    let quiet = EngineConfig {
        capture_printf: false,
        ..EngineConfig::default()
    };

    let t0 = Instant::now();
    let mut seq = EssentSim::new(&netlist, &quiet);
    let r_seq = run_workload(&mut seq, &workload, 10_000_000);
    let t_seq = t0.elapsed();
    println!(
        "sequential ESSENT : {:>8.1?} for {} cycles",
        t_seq, r_seq.cycles
    );

    let threads = cores.clamp(2, 8);
    let t1 = Instant::now();
    let mut par = ParEssentSim::new(&netlist, &quiet, threads);
    let r_par = run_workload(&mut par, &workload, 10_000_000);
    let t_par = t1.elapsed();
    assert_eq!((r_seq.cycles, r_seq.tohost), (r_par.cycles, r_par.tohost));
    println!(
        "parallel  ESSENT : {:>8.1?} with up to {} threads, {} of {} cycles fanned out",
        t_par,
        threads,
        par.fanout_cycles(),
        par.cycle()
    );
    let ratio = t_seq.as_secs_f64() / t_par.as_secs_f64();
    println!("speedup: {ratio:.2}x");
    Ok(())
}
