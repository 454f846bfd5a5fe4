//! Golden references: expected `(cycles, instret, tohost)` per lane.
//!
//! Expected values come only from `essent_netlist::interp::Interpreter`,
//! never from an engine under measurement. The interpreter runs at
//! roughly 0.25–3 kHz on these designs, so the references for every
//! full-length program a seed can pick are computed once by the
//! `golden` binary and kept in `golden.tsv` next to this crate; the
//! benchmark's tests re-derive them live on shortened variants.

use crate::workload::Program;
use essent::bits::Bits;
use essent::netlist::interp::Interpreter;
use essent::netlist::Netlist;
use std::collections::BTreeMap;

/// Cycle cap for every run, golden or measured; the longest program
/// needs about 0.28M cycles.
pub const MAX_CYCLES: u64 = 20_000_000;

/// The checked-in reference table.
const TABLE: &str = include_str!("../golden.tsv");

/// One lane's architectural outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub cycles: u64,
    pub instret: u64,
    pub tohost: u64,
}

/// `(design, program key) → Expected`.
#[derive(Debug, Default)]
pub struct GoldenTable {
    rows: BTreeMap<(String, String), Expected>,
}

impl GoldenTable {
    /// Parses `design <TAB> program <TAB> cycles <TAB> instret <TAB>
    /// tohost` rows; `#` lines are comments.
    fn parse(text: &str) -> Result<GoldenTable, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("golden.tsv line {}: bad field {i}", n + 1))
            };
            if f.len() != 5 {
                return Err(format!("golden.tsv line {}: want 5 fields", n + 1));
            }
            let row = Expected {
                cycles: num(2)?,
                instret: num(3)?,
                tohost: num(4)?,
            };
            rows.insert((f[0].to_string(), f[1].to_string()), row);
        }
        Ok(GoldenTable { rows })
    }

    /// The checked-in table.
    pub fn builtin() -> GoldenTable {
        GoldenTable::parse(TABLE).expect("golden.tsv is well-formed")
    }

    pub fn get(&self, design: &str, program: Program) -> Option<Expected> {
        self.rows.get(&(design.to_string(), program.key())).copied()
    }
}

/// One table row in the `golden.tsv` format.
pub fn format_row(design: &str, program: Program, e: Expected) -> String {
    format!(
        "{design}\t{}\t{}\t{}\t{}",
        program.key(),
        e.cycles,
        e.instret,
        e.tohost
    )
}

/// Runs `words` on the golden interpreter exactly as
/// `essent_designs::workloads::run_workload` drives an engine; `None` if
/// the program never reaches `tohost` within [`MAX_CYCLES`].
pub fn interpret(netlist: &Netlist, words: &[u32]) -> Option<Expected> {
    let mut sim = Interpreter::new(netlist);
    for (i, &word) in words.iter().enumerate() {
        sim.write_mem("imem", i, Bits::from_u64(word as u64, 32))
            .expect("the SoC has an imem");
    }
    sim.poke("reset", Bits::from_u64(1, 1));
    sim.step(2);
    sim.poke("reset", Bits::from_u64(0, 1));
    let start = sim.cycle();
    let mut remaining = MAX_CYCLES;
    while remaining > 0 && sim.halted().is_none() {
        let n = remaining.min(8192);
        sim.step(n);
        remaining -= n;
    }
    sim.halted()?;
    // `peek` on a register output reads the pre-commit value; the
    // engines' `run_workload` reads committed state, which after the
    // halting cycle is the register's `next` value.
    let committed = |name: &str| -> u64 {
        netlist
            .regs()
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| sim.peek_id(r.next).to_u64())
            .unwrap_or(0)
    };
    Some(Expected {
        cycles: sim.cycle() - start,
        instret: committed("instret_r"),
        tohost: committed("tohost_r"),
    })
}
