//! Computes the golden-interpreter references for every full-length
//! program a seed can pick and prints them as `golden.tsv` rows.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin golden > e2ebench/golden.tsv
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin golden -- --check
//! ```
//!
//! `--check` re-derives every row and compares it with the checked-in
//! table instead of printing (slow: tens of minutes on one core).

use e2ebench::golden::{format_row, interpret, GoldenTable};
use e2ebench::workload::{program_space, Kind, Length};
use std::time::Instant;

fn main() {
    let mut check = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => check = true,
            _ => usage(),
        }
    }
    let table = GoldenTable::builtin();
    let mut done = std::collections::BTreeSet::new();
    let mut mismatches = 0;
    if !check {
        println!(
            "# design\tprogram\tcycles\tinstret\ttohost (golden interpreter, optimized netlist)"
        );
    }
    for kind in Kind::ALL {
        let design = kind.design();
        let netlist = essent::compile(&essent::designs::soc::generate_soc(&design))
            .expect("generated SoC compiles");
        for program in program_space(kind, Length::Full) {
            if !done.insert((design.name.clone(), program)) {
                continue;
            }
            let start = Instant::now();
            let got = interpret(&netlist, &program.assemble().words).unwrap_or_else(|| {
                panic!("{} {} never reached tohost", design.name, program.key())
            });
            eprintln!(
                "{} {}: {} cycles in {:.1}s",
                design.name,
                program.key(),
                got.cycles,
                start.elapsed().as_secs_f64()
            );
            if check {
                if table.get(&design.name, program) != Some(got) {
                    eprintln!(
                        "  MISMATCH: table has {:?}",
                        table.get(&design.name, program)
                    );
                    mismatches += 1;
                }
            } else {
                println!("{}", format_row(&design.name, program, got));
            }
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} golden rows disagree with the interpreter");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: golden [--check]");
    std::process::exit(2);
}
