//! The set-up layers must produce the same output however they compute
//! it. Two layers keep incremental algorithms whose only contract is to
//! match a simpler full recompute:
//!
//! * the dataflow analysis re-evaluates a signal only when something it
//!   reads changed; [`reference_analyze`] below re-runs every transfer
//!   function on every sweep and must agree on every value, every
//!   demanded width and the sweep count;
//! * Phase B of the partitioner generates its candidates without
//!   materializing every sibling pair (its naive oracle lives in
//!   `crates/core/tests/prop_partition.rs`).
//!
//! The pinned figures fix the whole compile path's output on the SoC
//! designs: signal and edge counts after `optimize`, and the partition
//! count and an FNV-1a hash of the partition assignment at `C_p = 8`.

use essent::core::partition::partition;
use essent::core::plan::extended_dag;
use essent::designs::soc::{generate_soc, SocConfig};
use essent::netlist::analysis::demand::demanded_widths;
use essent::netlist::analysis::{
    analyze, transfer, AbsVal, Analysis, MAX_SWEEPS, RANGE_WIDEN_SWEEP, TOP_WIDEN_SWEEP,
};
use essent::netlist::graph;
use essent::netlist::netlist::{Netlist, SignalDef};
use essent::prelude::Bits;
use essent::sim::testgen::gen_circuit;

/// The register fixpoint with a full forward sweep every time: every
/// signal's transfer function re-runs on every sweep.
fn reference_analyze(netlist: &Netlist) -> Analysis {
    let order = graph::topo_order(netlist).expect("acyclic");
    let mut values: Vec<AbsVal> = netlist
        .signals()
        .iter()
        .map(|s| AbsVal::top(s.width, s.signed))
        .collect();
    let mut reg_abs: Vec<AbsVal> = netlist
        .regs()
        .iter()
        .map(|r| AbsVal::exact(&Bits::zero(r.width), r.signed))
        .collect();
    let full_sweep = |reg_abs: &[AbsVal], values: &mut Vec<AbsVal>| {
        for &id in &order {
            let sig = netlist.signal(id);
            let v = match &sig.def {
                SignalDef::Input | SignalDef::MemRead { .. } => AbsVal::top(sig.width, sig.signed),
                SignalDef::Const(c) => AbsVal::exact(c, sig.signed),
                SignalDef::RegOut(r) => transfer::cast(&reg_abs[r.index()], sig.width, sig.signed),
                SignalDef::Op(op) => {
                    let srcs: Vec<&AbsVal> = op.args.iter().map(|a| &values[a.index()]).collect();
                    transfer::transfer(op.kind, &op.params, sig.width, sig.signed, &srcs)
                }
            };
            values[id.index()] = v;
        }
    };
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        full_sweep(&reg_abs, &mut values);
        let mut changed = false;
        for (i, reg) in netlist.regs().iter().enumerate() {
            let next = transfer::cast(&values[reg.next.index()], reg.width, reg.signed);
            let mut joined = reg_abs[i].join(&next);
            if joined != reg_abs[i] {
                if sweeps >= TOP_WIDEN_SWEEP {
                    joined = AbsVal::top(reg.width, reg.signed);
                } else if sweeps >= RANGE_WIDEN_SWEEP {
                    joined.widen_range();
                }
                if joined != reg_abs[i] {
                    reg_abs[i] = joined;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if sweeps >= MAX_SWEEPS {
            for (i, reg) in netlist.regs().iter().enumerate() {
                reg_abs[i] = AbsVal::top(reg.width, reg.signed);
            }
            sweeps += 1;
            full_sweep(&reg_abs, &mut values);
            break;
        }
    }
    let demanded = demanded_widths(netlist, &order);
    Analysis {
        values,
        demanded,
        sweeps,
    }
}

fn assert_analysis_matches_reference(netlist: &Netlist, what: &str) {
    let fast = analyze(netlist).expect("acyclic");
    let reference = reference_analyze(netlist);
    assert_eq!(fast.sweeps, reference.sweeps, "{what}: sweep count");
    assert_eq!(fast.demanded, reference.demanded, "{what}: demanded widths");
    for (i, (f, r)) in fast.values.iter().zip(&reference.values).enumerate() {
        assert_eq!(f, r, "{what}: value of signal {i}");
    }
    assert_eq!(fast.values.len(), reference.values.len(), "{what}");
}

fn designs() -> [(&'static str, SocConfig); 4] {
    [
        ("tiny", SocConfig::tiny()),
        ("r16", SocConfig::r16()),
        ("r18", SocConfig::r18()),
        ("boom", SocConfig::boom()),
    ]
}

#[test]
fn incremental_analysis_matches_full_recompute_on_soc_designs() {
    for (name, config) in designs() {
        let source = generate_soc(&config);
        let unoptimized = essent::compile_unoptimized(&source).unwrap();
        assert_analysis_matches_reference(&unoptimized, &format!("{name} unoptimized"));
        let optimized = essent::compile(&source).unwrap();
        assert_analysis_matches_reference(&optimized, &format!("{name} optimized"));
    }
}

#[test]
fn incremental_analysis_matches_full_recompute_on_testgen_corpus() {
    for seed in 0..40u64 {
        let circuit = gen_circuit(seed);
        let unoptimized = essent::compile_unoptimized(&circuit.source).unwrap();
        assert_analysis_matches_reference(&unoptimized, &format!("testgen seed {seed}"));
        let optimized = essent::compile(&circuit.source).unwrap();
        assert_analysis_matches_reference(&optimized, &format!("testgen seed {seed} optimized"));
    }
}

/// A counter feeding a shift chain longer than `MAX_SWEEPS`: each sweep
/// moves the change one register further, so only the ⊤ fallback ends
/// the fixpoint.
#[test]
fn incremental_analysis_matches_full_recompute_at_the_sweep_cap() {
    let stages = MAX_SWEEPS + 4;
    let mut src = String::from(
        "circuit S :\n  module S :\n    input clock : Clock\n    output o : UInt<8>\n    reg c : UInt<8>, clock\n    c <= bits(add(c, UInt<8>(1)), 7, 0)\n",
    );
    for i in 0..stages {
        src.push_str(&format!("    reg s{i} : UInt<8>, clock\n"));
        let prev = if i == 0 {
            "c".to_string()
        } else {
            format!("s{}", i - 1)
        };
        src.push_str(&format!("    s{i} <= {prev}\n"));
    }
    src.push_str(&format!("    o <= s{}\n", stages - 1));
    let netlist = essent::compile_unoptimized(&src).unwrap();
    let facts = analyze(&netlist).unwrap();
    assert_eq!(facts.sweeps, MAX_SWEEPS + 1, "the fallback sweep ran");
    assert_analysis_matches_reference(&netlist, "shift chain");
}

/// FNV-1a over the assignment's ids as little-endian `u64`s.
fn assignment_hash(assignment: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in assignment {
        for byte in (p as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Post-`optimize` signals and edges, partitions and assignment hash at
/// `C_p = 8`, as the full-recompute analysis and the all-pairs Phase B
/// produced them.
#[test]
fn compile_and_partition_outputs_are_pinned() {
    let pins = [
        (
            "r16",
            SocConfig::r16(),
            3719,
            6193,
            787,
            0x9f15_4ca3_d5ac_3870u64,
        ),
        (
            "r18",
            SocConfig::r18(),
            10488,
            17633,
            2121,
            0xe715_bb4b_f197_2f00,
        ),
        (
            "boom",
            SocConfig::boom(),
            24859,
            41489,
            4546,
            0x8574_b391_081e_f8eb,
        ),
    ];
    for (name, config, signals, edges, partitions, hash) in pins {
        let netlist = essent::compile(&generate_soc(&config)).unwrap();
        assert_eq!(netlist.signal_count(), signals, "{name} signals");
        assert_eq!(netlist.edge_count(), edges, "{name} edges");
        let (dag, _) = extended_dag(&netlist);
        let parts = partition(&dag, 8);
        assert_eq!(
            parts.live_partitions().count(),
            partitions,
            "{name} partitions"
        );
        assert_eq!(
            assignment_hash(parts.assignment()),
            hash,
            "{name} partition assignment"
        );
    }
}
