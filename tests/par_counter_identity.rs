//! `ParEssentSim` is `EssentSim` plus a fan-out runtime: on the same
//! plan (memory-write elision off, as the parallel engine plans), it
//! must match `EssentSim::from_plan` after every `step` — outputs, every
//! arena word and all work counters — whether it stays on the calling
//! thread or is forced onto its N-worker schedule. The counters may
//! depend on neither the engine nor the path.

use essent::core::partition::partition;
use essent::core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent::designs::soc::{generate_soc, SocConfig};
use essent::designs::workloads::{dhrystone, run_workload};
use essent::netlist::Netlist;
use essent::prelude::*;
use essent::sim::testgen::gen_circuit;
use essent::sim::ParEssentSim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sequential engine on the parallel engine's plan.
fn seq_on_par_plan(netlist: &Netlist, config: &EngineConfig) -> EssentSim {
    let (dag, writes) = extended_dag(netlist);
    let plan = CcssPlan::from_partitioning(
        netlist,
        &dag,
        &writes,
        &partition(&dag, config.c_p),
        PlanOptions {
            elide_state: config.elide_state,
            elide_mem: false,
        },
    );
    EssentSim::from_plan(netlist, plan, config)
}

/// The three ways to run the parallel engine: left to its own decision
/// (which stays on the calling thread at these activities), and forced
/// onto its N-worker schedule at 2 and 3 workers.
fn par_engines(netlist: &Netlist, config: &EngineConfig) -> Vec<(String, ParEssentSim)> {
    let mut out = vec![(
        "collapsed".to_string(),
        ParEssentSim::new(netlist, config, 2),
    )];
    for threads in [2, 3] {
        let mut sim = ParEssentSim::new(netlist, config, threads);
        let workers = sim.force_fanout();
        out.push((format!("forced {threads} ({workers} workers)"), sim));
    }
    out
}

fn assert_identical(seq: &EssentSim, par: &ParEssentSim, outputs: &[String], tag: &str) {
    assert_eq!(par.counters(), seq.counters(), "{tag}: work counters");
    assert_eq!(par.cycle(), seq.cycle(), "{tag}: cycle");
    assert_eq!(par.halted(), seq.halted(), "{tag}: halt");
    for out in outputs {
        assert_eq!(par.peek(out), seq.peek(out), "{tag}: output {out}");
    }
    assert!(
        par.machine().arena == seq.machine().arena,
        "{tag}: arena words differ"
    );
}

fn build(source: &str) -> Netlist {
    let lowered = essent::firrtl::passes::lower(essent::firrtl::parse(source).unwrap()).unwrap();
    Netlist::from_circuit(&lowered).unwrap()
}

fn check_seed(seed: u64, label: &str, config: &EngineConfig) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    let mut seq = seq_on_par_plan(&netlist, config);
    let mut pars = par_engines(&netlist, config);
    if config.jit {
        // Native bodies for every eligible partition, so their dynamic
        // checks are counted on both sides (0 where unsupported).
        seq.jit_compile_all();
        for (_, par) in &mut pars {
            par.jit_compile_all();
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    for call in 0..24u64 {
        for (name, width) in &circuit.inputs {
            let value = if name == "reset" {
                Bits::from_u64((call < 2 || rng.gen_bool(0.05)) as u64, 1)
            } else {
                Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
            };
            seq.poke(name, value.clone());
            for (_, par) in &mut pars {
                par.poke(name, value.clone());
            }
        }
        // Mostly single cycles; every fourth call a batch, so forced
        // runs keep adjacent cycles in flight at once.
        let n = if call % 4 == 3 { 5 } else { 1 };
        seq.step(n);
        for (way, par) in &mut pars {
            par.step(n);
            let tag = format!("seed {seed} [{label}] {way} call {call}");
            assert_identical(&seq, par, &circuit.outputs, &tag);
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_counters_on_random_circuits() {
    let configs = [
        ("default", EngineConfig::default()),
        (
            "unfused",
            EngineConfig {
                fuse_triggers: false,
                ..EngineConfig::default()
            },
        ),
        (
            "generic",
            EngineConfig {
                tier1: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no elision",
            EngineConfig {
                elide_state: false,
                ..EngineConfig::default()
            },
        ),
        (
            "jit",
            EngineConfig {
                jit: true,
                ..EngineConfig::default()
            },
        ),
    ];
    for seed in 0..12u64 {
        for (label, config) in &configs {
            let config = EngineConfig {
                c_p: 4,
                ..config.clone()
            };
            check_seed(seed, label, &config);
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_counters_on_tiny_soc_dhrystone() {
    let netlist = essent::compile(&generate_soc(&SocConfig::tiny())).unwrap();
    let workload = dhrystone(20).unwrap();
    let config = EngineConfig {
        capture_printf: false,
        ..EngineConfig::default()
    };
    let outputs = ["instret_r".to_string(), "tohost_r".to_string()];
    let mut seq = seq_on_par_plan(&netlist, &config);
    let mut pars = par_engines(&netlist, &config);
    let load = |sim: &mut dyn Simulator| {
        for (i, &word) in workload.words.iter().enumerate() {
            sim.write_mem("imem", i, Bits::from_u64(word as u64, 32));
        }
        sim.poke("reset", Bits::from_u64(1, 1));
    };
    load(&mut seq);
    for (_, par) in &mut pars {
        load(par);
    }
    let mut call = 0u64;
    while seq.halted().is_none() {
        assert!(call < 10_000, "dhrystone did not finish");
        if call == 1 {
            seq.poke("reset", Bits::from_u64(0, 1));
            for (_, par) in &mut pars {
                par.poke("reset", Bits::from_u64(0, 1));
            }
        }
        // The reset call, then calls of varied length.
        let n = if call == 0 { 2 } else { 97 + call % 5 * 60 };
        let ran = seq.step(n);
        for (way, par) in &mut pars {
            assert_eq!(par.step(n), ran, "{way} call {call}: cycles run");
            assert_identical(&seq, par, &outputs, &format!("soc {way} call {call}"));
        }
        call += 1;
    }
    // And the run is the workload's: the default sequential engine
    // (its own plan, memory writes elided) reaches the same results.
    let expect = run_workload(&mut EssentSim::new(&netlist, &config), &workload, 1 << 20);
    assert!(expect.finished && expect.instret > 5000, "{expect:?}");
    assert_eq!(seq.cycle() - 2, expect.cycles);
    for (way, par) in &pars {
        assert_eq!(
            par.peek("instret_r").to_u64(),
            Some(expect.instret),
            "{way}"
        );
        assert_eq!(par.peek("tohost_r").to_u64(), Some(expect.tohost), "{way}");
    }
}
