//! Graph algorithms over the netlist: topological scheduling, strongly
//! connected components, fan-out construction, and reachability.
//!
//! The combinational graph has an edge `a -> b` when signal `b`'s
//! definition reads signal `a` ([`Netlist::deps`]). Register outputs and
//! inputs are sources; register next-values, memory write fields, and
//! outputs are sinks. Because the builder splits every state element,
//! a well-formed synchronous design yields a DAG here.

use crate::netlist::{Netlist, SignalId};

/// Computes a topological order of all signals (dependencies first).
///
/// # Errors
///
/// On a combinational cycle, returns the signals of one cycle.
pub fn topo_order(netlist: &Netlist) -> Result<Vec<SignalId>, Vec<SignalId>> {
    let n = netlist.signal_count();
    let (fanouts, mut indegree) = fanouts_and_indegree(netlist);
    let mut queue: Vec<SignalId> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| SignalId(i as u32))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        order.push(id);
        for &succ in &fanouts[id.index()] {
            indegree[succ.index()] -= 1;
            if indegree[succ.index()] == 0 {
                queue.push(succ);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        // Extract one cycle for the error message: walk predecessors among
        // the unordered residue until a repeat.
        let leftover: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
        let mut cycle = Vec::new();
        if let Some(&start) = leftover.first() {
            let mut seen = vec![false; n];
            let mut cur = start;
            loop {
                if seen[cur] {
                    break;
                }
                seen[cur] = true;
                cycle.push(SignalId(cur as u32));
                // Follow any dependency that is also stuck.
                let next = netlist
                    .deps(SignalId(cur as u32))
                    .into_iter()
                    .find(|d| indegree[d.index()] > 0);
                match next {
                    Some(d) => cur = d.index(),
                    None => break,
                }
            }
        }
        Err(cycle)
    }
}

/// Builds the fan-out adjacency lists: `fanouts[a]` holds every signal
/// whose definition reads `a` (duplicates preserved when a signal is read
/// twice — callers that need sets must dedup).
pub fn fanout_lists(netlist: &Netlist) -> Vec<Vec<SignalId>> {
    fanouts_and_indegree(netlist).0
}

/// [`fanout_lists`] plus each signal's in-degree (its dependency count,
/// duplicates included), taken from the same walk over the dependency
/// lists.
fn fanouts_and_indegree(netlist: &Netlist) -> (Vec<Vec<SignalId>>, Vec<u32>) {
    let n = netlist.signal_count();
    let mut fanouts = vec![Vec::new(); n];
    let mut indegree = vec![0u32; n];
    for (i, d) in indegree.iter_mut().enumerate() {
        let id = SignalId(i as u32);
        let deps = netlist.deps(id);
        *d = deps.len() as u32;
        for dep in deps {
            fanouts[dep.index()].push(id);
        }
    }
    (fanouts, indegree)
}

/// Tarjan's strongly-connected-components algorithm (iterative), returning
/// components in reverse topological order.
///
/// Used to diagnose combinational loops and in tests of the acyclicity
/// guarantees. Singleton components without self-loops are "trivial".
pub fn tarjan_scc(netlist: &Netlist) -> Vec<Vec<SignalId>> {
    let n = netlist.signal_count();
    let fanouts = fanout_lists(netlist);
    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut components = Vec::new();

    // Iterative DFS with an explicit frame stack.
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        let mut frames = vec![Frame::Enter(root)];
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut child) => {
                    let mut descended = false;
                    while child < fanouts[v].len() {
                        let w = fanouts[v][child].index();
                        child += 1;
                        if index[w] == u32::MAX {
                            frames.push(Frame::Resume(v, child));
                            frames.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if lowlink[v] == index[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(SignalId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        components.push(component);
                    }
                    // Propagate lowlink to parent.
                    if let Some(Frame::Resume(parent, _)) = frames.last() {
                        let p = *parent;
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                }
            }
        }
    }
    components
}

/// Computes the set of signals reachable (transitively, along fan-out
/// edges) from `sources`, including the sources themselves.
pub fn reachable_from(netlist: &Netlist, sources: &[SignalId]) -> Vec<bool> {
    let fanouts = fanout_lists(netlist);
    let mut seen = vec![false; netlist.signal_count()];
    let mut stack: Vec<SignalId> = sources.to_vec();
    for s in sources {
        seen[s.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &succ in &fanouts[id.index()] {
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    seen
}

/// Computes the set of signals that reach (transitively, along dependency
/// edges) any of `sinks`, including the sinks themselves. This is the
/// "live" set used by dead-code elimination.
pub fn reaching(netlist: &Netlist, sinks: &[SignalId]) -> Vec<bool> {
    let mut seen = vec![false; netlist.signal_count()];
    let mut stack: Vec<SignalId> = sinks.to_vec();
    for s in sinks {
        seen[s.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for dep in netlist.deps(id) {
            if !seen[dep.index()] {
                seen[dep.index()] = true;
                stack.push(dep);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::*;
    use essent_bits::Bits;

    /// Hand-builds a tiny netlist: in -> a -> b -> out, reg feedback.
    fn diamond() -> Netlist {
        let mut n = Netlist::default();
        let mut push = |name: &str, def: SignalDef| {
            let id = SignalId(n.signals.len() as u32);
            n.signals.push(Signal {
                name: name.into(),
                width: 4,
                signed: false,
                def,
            });
            id
        };
        let input = push("in", SignalDef::Input);
        let reg_out = push("r", SignalDef::RegOut(RegId(0)));
        let a = push(
            "a",
            SignalDef::Op(Op {
                kind: OpKind::Add,
                args: vec![input, reg_out],
                params: vec![],
            }),
        );
        let b = push(
            "b",
            SignalDef::Op(Op {
                kind: OpKind::Not,
                args: vec![a],
                params: vec![],
            }),
        );
        let next = push(
            "r$next",
            SignalDef::Op(Op {
                kind: OpKind::Copy,
                args: vec![b],
                params: vec![],
            }),
        );
        n.regs.push(Register {
            name: "r".into(),
            width: 4,
            signed: false,
            out: reg_out,
            next,
        });
        n.inputs.push(input);
        n.outputs.push(b);
        n
    }

    #[test]
    fn topo_order_respects_deps() {
        let n = diamond();
        let order = topo_order(&n).unwrap();
        let pos: Vec<usize> = (0..n.signal_count())
            .map(|i| order.iter().position(|s| s.index() == i).unwrap())
            .collect();
        // a (2) after in (0) and r (1); b (3) after a; next (4) after b.
        assert!(pos[2] > pos[0] && pos[2] > pos[1]);
        assert!(pos[3] > pos[2]);
        assert!(pos[4] > pos[3]);
    }

    #[test]
    fn scc_of_dag_is_all_singletons() {
        let n = diamond();
        let comps = tarjan_scc(&n);
        assert_eq!(comps.len(), n.signal_count());
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scc_detects_intentional_cycle() {
        let mut n = diamond();
        // Introduce a cycle: redefine `a` to also read `b`.
        if let SignalDef::Op(op) = &mut n.signals[2].def {
            op.args.push(SignalId(3));
        }
        assert!(topo_order(&n).is_err());
        let comps = tarjan_scc(&n);
        assert!(comps.iter().any(|c| c.len() == 2), "{comps:?}");
    }

    #[test]
    fn reachability_both_directions() {
        let n = diamond();
        let from_input = reachable_from(&n, &[SignalId(0)]);
        assert!(from_input[2] && from_input[3] && from_input[4]);
        assert!(!from_input[1], "register output is not downstream of input");
        let live = reaching(&n, &[SignalId(4)]);
        assert!(live.iter().all(|&b| b), "everything feeds r$next");
    }

    #[test]
    fn fanout_lists_match_deps() {
        let n = diamond();
        let fan = fanout_lists(&n);
        assert_eq!(fan[0], vec![SignalId(2)]);
        assert_eq!(fan[2], vec![SignalId(3)]);
    }

    #[test]
    fn topo_handles_const_only() {
        let mut n = Netlist::default();
        n.signals.push(Signal {
            name: "c".into(),
            width: 1,
            signed: false,
            def: SignalDef::Const(Bits::from_u64(1, 1)),
        });
        assert_eq!(topo_order(&n).unwrap().len(), 1);
    }
}
