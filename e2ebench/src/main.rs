//! End-to-end benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2ebench -- \
//!     --workload r18-pchase --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the workload's FIRRTL text and programs from `--seed`,
//! makes one untimed warm-up repetition, then repeats FIRRTL text →
//! engine → every lane at `tohost` until `--seconds` have passed (at
//! least [`MIN_REPS`] times), checking every lane against the
//! golden-interpreter table. Prints a context line (workload, programs,
//! host fingerprint) and, last, one JSON result: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! untraced run times a [`hostref`] pass between repetitions and scales
//! each repetition's times to the nominal host; a second context line
//! gives the unscaled medians. The traced run interleaves untraced
//! repetitions to report its own overhead and writes its spans as
//! Chrome trace JSON to `e2ebench/out/trace-<workload>-<seed>.json`.

use e2ebench::golden::{Expected, GoldenTable};
use e2ebench::pipeline::{self, Engine, Run, LAYERS};
use e2ebench::trace::Trace;
use e2ebench::workload::{self, EngineKind, Inputs, Kind, Length};
use e2ebench::{golden, host, hostref};
use essent::sim::{EngineConfig, EssentSim, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

/// Repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: e2ebench --workload <r18-pchase|boom-dhrystone|r16-sweep8|r18-pchase-2t> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Lane-runs attempted and failed (unfinished, panicked, or different
/// from the golden `(cycles, instret, tohost)`).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one repetition's lanes; `true` if every lane passed.
    fn check(&mut self, run: Option<&Run>, expected: &[Expected]) -> bool {
        self.attempted += expected.len() as u64;
        let Some(run) = run else {
            self.failed += expected.len() as u64;
            return false;
        };
        let bad = expected
            .iter()
            .zip(&run.lanes)
            .filter(|(e, r)| {
                !r.finished || (r.cycles, r.instret, r.tohost) != (e.cycles, e.instret, e.tohost)
            })
            .count()
            + expected.len().saturating_sub(run.lanes.len());
        if bad > 0 {
            eprintln!("mismatch: expected {expected:?}, got {:?}", run.lanes);
        }
        self.failed += bad as u64;
        bad == 0
    }
}

/// Timings of one repetition.
struct Rep {
    setup: Duration,
    step: Duration,
    run: Run,
}

impl Rep {
    fn e2e(&self) -> f64 {
        (self.setup + self.step).as_secs_f64()
    }

    fn sim_khz(&self) -> f64 {
        self.run.lane_cycles() as f64 / self.step.as_secs_f64() / 1e3
    }
}

/// One untraced repetition through the public combined path; `None` if
/// it failed to build or panicked.
fn untraced_rep(inputs: &Inputs) -> Option<Rep> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut engine = pipeline::setup(inputs.kind, &inputs.firrtl)?;
        let t1 = Instant::now();
        let run = engine.run(&inputs.words);
        let t2 = Instant::now();
        Ok::<_, Box<dyn std::error::Error>>(Rep {
            setup: t1 - t0,
            step: t2 - t1,
            run,
        })
    }));
    match attempt {
        Ok(Ok(rep)) => Some(rep),
        Ok(Err(e)) => {
            eprintln!("setup failed: {e}");
            None
        }
        Err(_) => None,
    }
}

/// What a traced repetition leaves besides its spans.
struct TracedRep {
    rep: u32,
    run: Run,
    engine: Engine,
}

fn traced_rep(inputs: &Inputs, tr: &mut Trace, rep: u32) -> Option<TracedRep> {
    tr.set_rep(rep);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let e2e = tr.begin("e2e");
        let built = pipeline::setup_traced(inputs.kind, &inputs.firrtl, tr);
        let out = built.map(|mut engine| {
            let span = tr.begin("sim.run");
            let run = engine.run_traced(&inputs.words, tr);
            tr.end(span);
            (engine, run)
        });
        tr.end(e2e);
        out
    }));
    match attempt {
        Ok(Ok((engine, run))) => Some(TracedRep { rep, run, engine }),
        Ok(Err(e)) => {
            eprintln!("setup failed: {e}");
            None
        }
        Err(_) => {
            tr.close_all();
            None
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics: medians over the repetitions, each scaled by
/// its [`hostref::scale`]. Prints the unscaled medians, the median
/// scale and the median reference pass as a context line.
///
/// The parallel workload is not scaled: its two-thread stepping is
/// steady on its own and the one-thread reference does not track it
/// (scaled, its runs spread about twice as wide as unscaled), so it
/// reports wall time and makes no reference passes.
fn untraced(inputs: &Inputs, expected: &[Expected], seconds: f64, tally: &mut Tally) -> Metrics {
    let scaled = !matches!(inputs.kind.engine(), EngineKind::Par { .. });
    let pass = || {
        if scaled {
            hostref::pass()
        } else {
            hostref::NOMINAL_S
        }
    };
    let start = Instant::now();
    let mut reps: Vec<(Rep, f64)> = Vec::new();
    let mut passes = vec![pass()];
    let mut attempts = 0;
    while attempts < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        let rep = untraced_rep(inputs);
        let before = passes[passes.len() - 1];
        let after = pass();
        passes.push(after);
        if tally.check(rep.as_ref().map(|r| &r.run), expected) {
            reps.extend(rep.map(|r| (r, hostref::scale(before, after))));
        }
    }
    eprintln!("{} untraced repetitions", reps.len());
    let med = |f: &dyn Fn(&Rep, f64) -> f64| median(reps.iter().map(|(r, s)| f(r, *s)).collect());
    let reference = if scaled {
        median(passes).to_string()
    } else {
        "null".to_string()
    };
    println!(
        "{{\"unscaled\": {{\"e2e_s\": {}, \"setup_s\": {}, \"sim_khz\": {}}}, \"host_scale\": {}, \"reference_s\": {reference}}}",
        med(&|r, _| r.e2e()),
        med(&|r, _| r.setup.as_secs_f64()),
        med(&|r, _| r.sim_khz()),
        med(&|_, s| s),
    );
    vec![
        ("e2e_s", med(&|r, s| r.e2e() * s), "s"),
        ("setup_s", med(&|r, s| r.setup.as_secs_f64() * s), "s"),
        ("sim_khz", med(&|r, s| r.sim_khz() / s), "kHz"),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
    ]
}

/// Activity factor from a separate profiled `EssentSim` run of lane 0's
/// program (profiling changes the engine, so it never runs in a timed
/// repetition).
fn activity_factor(inputs: &Inputs) -> f64 {
    let netlist = essent::compile(&inputs.firrtl).expect("compiled once already");
    let config = EngineConfig {
        profile: true,
        ..EngineConfig::default()
    };
    let mut sim = EssentSim::new(&netlist, &config);
    essent::designs::workloads::run_workload(&mut sim, &inputs.words[0], golden::MAX_CYCLES);
    sim.profile_report()
        .map_or(0.0, |report| report.activity_factor())
}

fn traced(
    inputs: &Inputs,
    expected: &[Expected],
    seconds: f64,
    tally: &mut Tally,
    trace_out: &str,
    size: (usize, usize),
) -> Metrics {
    let mut tr = Trace::new();
    let start = Instant::now();
    let mut plain = Vec::new();
    // Repetitions whose every lane passed, and the last of them: its
    // engine's counters are exact and the same on every repetition.
    let mut good: Vec<u32> = Vec::new();
    let mut last: Option<TracedRep> = None;
    let mut attempts = 0;
    // Alternate untraced and traced repetitions so both see the same
    // machine state; the untraced ones are the overhead baseline.
    while attempts < 2 * MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        if attempts % 2 == 1 {
            let rep = untraced_rep(inputs);
            if tally.check(rep.as_ref().map(|r| &r.run), expected) {
                plain.extend(rep);
            }
        } else {
            let rep = traced_rep(inputs, &mut tr, attempts as u32);
            if tally.check(rep.as_ref().map(|r| &r.run), expected) {
                good.extend(rep.as_ref().map(|r| r.rep));
                last = rep;
            }
        }
    }
    let activity = activity_factor(inputs);
    if let Some(dir) = std::path::Path::new(trace_out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(trace_out, tr.chrome_json()) {
        Ok(()) => eprintln!("trace written to {trace_out}"),
        Err(e) => eprintln!("could not write {trace_out}: {e}"),
    }

    let per_rep = |name: &str| median(good.iter().map(|&r| tr.rep_secs(r, name)).collect());
    let steps: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "sim.step" && good.contains(&s.rep))
        .map(|s| s.secs() * 1e6)
        .collect();
    let gap = median(
        good.iter()
            .map(|&r| {
                let setup = tr.rep_secs(r, "setup");
                let layers: f64 = LAYERS.iter().map(|l| tr.rep_secs(r, l)).sum();
                (setup - layers) / setup
            })
            .collect(),
    );
    let traced_e2e = per_rep("e2e");
    let plain_e2e = median(plain.iter().map(Rep::e2e).collect());
    eprintln!(
        "{} traced / {} untraced repetitions; tracing overhead {:+.2}% of e2e_s",
        good.len(),
        plain.len(),
        (traced_e2e / plain_e2e - 1.0) * 100.0
    );

    let Some(last) = last else {
        return Vec::new();
    };
    let engine = &last.engine;
    let c = engine.counters();
    let cycles = c.cycles.max(1) as f64;
    let step_s = per_rep("sim.step");
    let lanes = engine.lanes() as f64;
    vec![
        ("firrtl.parse_s", per_rep("firrtl.parse"), "s"),
        ("firrtl.lower_s", per_rep("firrtl.lower"), "s"),
        ("netlist.build_s", per_rep("netlist.build"), "s"),
        ("netlist.opt_s", per_rep("netlist.opt"), "s"),
        ("netlist.signals", size.0 as f64, "count"),
        ("netlist.edges", size.1 as f64, "count"),
        ("core.partition_s", per_rep("core.partition"), "s"),
        ("core.plan_s", per_rep("core.plan"), "s"),
        ("core.partitions", engine.partition_count() as f64, "count"),
        ("sim.build_s", per_rep("sim.build"), "s"),
        ("sim.step_s", step_s, "s"),
        ("sim.step_p50_us", percentile(steps.clone(), 50.0), "us"),
        ("sim.step_p99_us", percentile(steps, 99.0), "us"),
        (
            "sim.ops_per_cycle",
            c.ops_evaluated as f64 / cycles,
            "count",
        ),
        (
            "sim.flag_checks_per_cycle",
            c.static_checks as f64 / cycles,
            "count",
        ),
        (
            "sim.trigger_checks_per_cycle",
            c.dynamic_checks as f64 / cycles,
            "count",
        ),
        (
            "sim.ns_per_work",
            step_s * 1e9 / c.total().max(1) as f64,
            "ns",
        ),
        ("sim.activity_factor", activity, "ratio"),
        ("sim.arena_words", engine.arena_words() as f64, "count"),
        (
            "sim.tier1_coverage",
            engine.tier1_coverage().unwrap_or(0.0),
            "ratio",
        ),
        ("sim.jit_compiled", engine.jit_compiled() as f64, "count"),
        (
            "batch.lane_occupancy",
            last.run.lane_cycles() as f64 / (lanes * last.run.batch_cycles.max(1) as f64),
            "ratio",
        ),
        ("batch.compactions", engine.compactions() as f64, "count"),
        ("par.levels", engine.par_levels() as f64, "count"),
        ("par.workers", engine.workers() as f64, "count"),
        ("trace.setup_s", per_rep("setup"), "s"),
        ("trace.layer_gap_frac", gap, "ratio"),
        ("trace.overhead_frac", traced_e2e / plain_e2e - 1.0, "ratio"),
    ]
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    // Inputs are generated before any clock starts.
    let inputs = workload::inputs(args.kind, args.seed, Length::Full);
    let table = GoldenTable::builtin();
    let expected: Vec<Expected> = inputs
        .programs
        .iter()
        .map(|&p| {
            table.get(&inputs.design, p).unwrap_or_else(|| {
                eprintln!("no golden reference for {} {}", inputs.design, p.key());
                exit(1);
            })
        })
        .collect();
    let netlist = essent::compile(&inputs.firrtl).unwrap_or_else(|e| {
        eprintln!("{} does not compile: {e}", inputs.design);
        exit(1);
    });
    let programs: Vec<String> = inputs
        .programs
        .iter()
        .map(|p| format!("\"{}\"", p.key()))
        .collect();
    let note = match args.kind.engine() {
        workload::EngineKind::Par { .. } => {
            ", \"note\": \"sim.build_s includes ParEssentSim's internal partition, plan and schedule build; core.partition_s and core.plan_s are not recorded; sim.tier1_coverage is not exposed by this engine; end-to-end timings are wall time, not scaled by the host reference\""
        }
        workload::EngineKind::Batch { .. } => {
            ", \"note\": \"sim.activity_factor is measured on lane 0's program with EssentSim\""
        }
        workload::EngineKind::Seq => "",
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"design\": \"{}\", \"programs\": [{}], \"host\": {}{note}}}",
        args.kind.name(),
        args.seed,
        inputs.design,
        programs.join(", "),
        host::fingerprint_json(&netlist),
    );
    // Netlist size after optimization, for the traced run.
    let size = (netlist.signal_count(), netlist.edge_count());
    drop(netlist);

    let mut tally = Tally::default();
    // Warm-up: checked, but timed by neither mode.
    let warm = untraced_rep(&inputs);
    tally.check(warm.as_ref().map(|r| &r.run), &expected);
    let metrics = if args.trace {
        let out = format!("e2ebench/out/trace-{}-{}.json", args.kind.name(), args.seed);
        traced(&inputs, &expected, args.seconds, &mut tally, &out, size)
    } else {
        untraced(&inputs, &expected, args.seconds, &mut tally)
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && !metrics.is_empty(),
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
