//! Dataflow analysis over the netlist: per-signal **known bits** and
//! **value ranges** (forward), plus **demanded bits** (backward).
//!
//! The combinational graph is acyclic, so one topological sweep
//! propagates abstract values from sources (inputs, constants, register
//! outputs, memory reads) to sinks. Cycles exist only through register
//! state: a register's output this cycle is its next-value from the last
//! cycle. [`analyze`] closes those feedback arcs by fixpoint iteration —
//! registers start at their reset value (all engines zero-initialize
//! state), each sweep joins the next-value's abstract value into the
//! register's, and iteration stops when no register changes. Sweeps after
//! the first re-evaluate only signals whose inputs changed, which yields
//! exactly what a full recompute would.
//!
//! Joins only *widen* register values, but the range component can climb
//! long chains (a counter's interval grows by one per sweep), so after
//! [`RANGE_WIDEN_SWEEP`] sweeps any still-changing register has its range
//! widened to the full domain, and after [`TOP_WIDEN_SWEEP`] sweeps it is
//! dropped to ⊤ outright. Both accelerations lose precision, never
//! soundness. [`MAX_SWEEPS`] is a defensive hard cap.
//!
//! Consumers:
//! * `opt::narrow` — shrinks signal widths the analysis proves unused;
//! * `opt::const_prop` — folds ops decided by partially-known bits;
//! * `essent-verify` — surfaces the facts as `L0006`–`L0009` lints.

pub mod absval;
pub mod demand;
pub mod transfer;

pub use absval::AbsVal;

use crate::graph;
use crate::netlist::{Netlist, Signal, SignalDef, SignalId};
use essent_bits::Bits;

/// Sweep after which still-changing registers get their range widened.
pub const RANGE_WIDEN_SWEEP: usize = 4;
/// Sweep after which still-changing registers are dropped to ⊤.
pub const TOP_WIDEN_SWEEP: usize = 8;
/// Hard cap on fixpoint sweeps (defensive; widening converges sooner).
pub const MAX_SWEEPS: usize = 16;

/// The result of [`analyze`]: abstract facts for every signal.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-signal abstract value (known bits + range), indexed by
    /// `SignalId::index()`.
    pub values: Vec<AbsVal>,
    /// Per-signal demanded width: how many low bits any observable sink
    /// can distinguish. See [`demand::demanded_widths`].
    pub demanded: Vec<u32>,
    /// Number of forward sweeps the register fixpoint took.
    pub sweeps: usize,
}

impl Analysis {
    /// The abstract value of `id`.
    pub fn value(&self, id: SignalId) -> &AbsVal {
        &self.values[id.index()]
    }

    /// The demanded width of `id`.
    pub fn demanded(&self, id: SignalId) -> u32 {
        self.demanded[id.index()]
    }
}

/// Runs the forward known-bits/range analysis and the backward
/// demanded-bits analysis. `Err` returns the combinational cycle if the
/// graph is not acyclic (impossible for netlists built through
/// `Netlist::from_circuit`, which rejects cycles).
pub fn analyze(netlist: &Netlist) -> Result<Analysis, Vec<SignalId>> {
    let order = graph::topo_order(netlist)?;
    let mut values: Vec<AbsVal> = netlist
        .signals()
        .iter()
        .map(|s| AbsVal::top(s.width, s.signed))
        .collect();
    // Registers start at their reset/zero-initialized state.
    let mut reg_abs: Vec<AbsVal> = netlist
        .regs()
        .iter()
        .map(|r| AbsVal::exact(&Bits::zero(r.width), r.signed))
        .collect();

    // All registers count as changed on the first sweep: every signal is
    // evaluated once from scratch.
    let mut reg_changed = vec![true; reg_abs.len()];
    let mut changed = vec![false; values.len()];
    // A register whose last join left it unchanged and whose next-value
    // did not change since would join to itself again (joins are
    // deterministic), so it is skipped.
    let mut settled = vec![false; reg_abs.len()];
    let mut sweeps = 0;
    loop {
        sweep(
            netlist,
            &order,
            &reg_abs,
            &reg_changed,
            sweeps == 0,
            &mut values,
            &mut changed,
        );
        sweeps += 1;
        let mut any = false;
        for (i, reg) in netlist.regs().iter().enumerate() {
            reg_changed[i] = false;
            if settled[i] && !changed[reg.next.index()] {
                continue;
            }
            let next = transfer::cast(&values[reg.next.index()], reg.width, reg.signed);
            let mut joined = reg_abs[i].join(&next);
            settled[i] = joined == reg_abs[i];
            if !settled[i] {
                if sweeps >= TOP_WIDEN_SWEEP {
                    joined = AbsVal::top(reg.width, reg.signed);
                } else if sweeps >= RANGE_WIDEN_SWEEP {
                    joined.widen_range();
                }
                if joined != reg_abs[i] {
                    reg_abs[i] = joined;
                    reg_changed[i] = true;
                    any = true;
                }
            }
        }
        if !any {
            break;
        }
        if sweeps >= MAX_SWEEPS {
            // Defensive: give up on precision, stay sound.
            for (i, reg) in netlist.regs().iter().enumerate() {
                reg_abs[i] = AbsVal::top(reg.width, reg.signed);
            }
            reg_changed.fill(true);
            sweep(
                netlist,
                &order,
                &reg_abs,
                &reg_changed,
                false,
                &mut values,
                &mut changed,
            );
            sweeps += 1;
            break;
        }
    }

    let demanded = demand::demanded_widths(netlist, &order);
    Ok(Analysis {
        values,
        demanded,
        sweeps,
    })
}

/// One forward pass in topological order that re-evaluates only what can
/// have changed since the previous pass: a `RegOut` whose register's
/// value changed (`reg_changed`), and an `Op` one of whose operands
/// changed earlier in this pass. `Input`, `Const` and `MemRead` depend on
/// nothing and are evaluated on the `first` pass only, where every signal
/// is evaluated. Transfer functions are deterministic, so a skipped
/// signal keeps exactly the value a full recompute would give it.
/// `changed` is overwritten with which values differ from the previous
/// pass.
fn sweep(
    netlist: &Netlist,
    order: &[SignalId],
    reg_abs: &[AbsVal],
    reg_changed: &[bool],
    first: bool,
    values: &mut [AbsVal],
    changed: &mut [bool],
) {
    for &id in order {
        let sig = netlist.signal(id);
        let v = match &sig.def {
            _ if first => eval(sig, reg_abs, values),
            SignalDef::RegOut(r) if reg_changed[r.index()] => eval(sig, reg_abs, values),
            SignalDef::Op(op) if op.args.iter().any(|a| changed[a.index()]) => {
                eval(sig, reg_abs, values)
            }
            _ => {
                changed[id.index()] = false;
                continue;
            }
        };
        changed[id.index()] = v != values[id.index()];
        values[id.index()] = v;
    }
}

/// The transfer function of one signal over the current operand values.
fn eval(sig: &Signal, reg_abs: &[AbsVal], values: &[AbsVal]) -> AbsVal {
    match &sig.def {
        SignalDef::Input => AbsVal::top(sig.width, sig.signed),
        SignalDef::Const(c) => AbsVal::exact(c, sig.signed),
        SignalDef::RegOut(r) => transfer::cast(&reg_abs[r.index()], sig.width, sig.signed),
        // Memory contents are not tracked; reads are opaque.
        SignalDef::MemRead { .. } => AbsVal::top(sig.width, sig.signed),
        SignalDef::Op(op) => {
            let srcs: Vec<&AbsVal> = op.args.iter().map(|a| &values[a.index()]).collect();
            transfer::transfer(op.kind, &op.params, sig.width, sig.signed, &srcs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::build_test_netlist;

    fn analyzed(src: &str) -> (Netlist, Analysis) {
        let n = build_test_netlist(src);
        let a = analyze(&n).expect("acyclic");
        (n, a)
    }

    #[test]
    fn and_mask_pins_upper_bits() {
        let (n, a) = analyzed(
            "circuit M :\n  module M :\n    input x : UInt<8>\n    output o : UInt<8>\n    node m = and(x, UInt<8>(15))\n    o <= m\n",
        );
        let v = a.value(n.expect_signal("m"));
        for i in 4..8 {
            assert_eq!(v.bit(i), Some(false), "bit {i}");
        }
        assert_eq!(v.significant_width(), 4);
    }

    #[test]
    fn counter_register_range_converges() {
        // r <= mux(eq(r, 9), 0, add(r, 1) truncated): r stays in [0, 9].
        let src = "circuit K :\n  module K :\n    input clock : Clock\n    output o : UInt<4>\n    reg r : UInt<4>, clock\n    node wrap = eq(r, UInt<4>(9))\n    node inc = bits(add(r, UInt<4>(1)), 3, 0)\n    r <= mux(wrap, UInt<4>(0), inc)\n    o <= r\n";
        let (n, a) = analyzed(src);
        let v = a.value(n.regs()[0].out);
        // With widening the range may blow to the domain, but the value
        // must at least stay sound and the fixpoint must terminate.
        assert!(a.sweeps <= MAX_SWEEPS + 1);
        assert!(v.contains(&Bits::from_u64(9, 4)));
        assert!(v.contains(&Bits::from_u64(0, 4)));
    }

    #[test]
    fn stuck_register_stays_exact_zero() {
        let src = "circuit Z :\n  module Z :\n    input clock : Clock\n    output o : UInt<8>\n    reg r : UInt<8>, clock\n    r <= r\n    o <= r\n";
        let (n, a) = analyzed(src);
        let v = a.value(n.regs()[0].out);
        assert_eq!(v.as_singleton(), Some(Bits::zero(8)));
        assert_eq!(a.sweeps, 1);
    }

    #[test]
    fn constant_comparison_is_decided() {
        let (n, a) = analyzed(
            "circuit C :\n  module C :\n    input x : UInt<8>\n    output o : UInt<1>\n    node low = and(x, UInt<8>(15))\n    node c = lt(low, UInt<8>(200))\n    o <= c\n",
        );
        let v = a.value(n.expect_signal("c"));
        assert_eq!(v.as_singleton(), Some(Bits::from_u64(1, 1)));
    }
}
