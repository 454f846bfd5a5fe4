//! **Sanitize** — runs the parallel CCSS engine under the shadow-memory
//! race sanitizer on real designs and workloads, as the dynamic
//! counterpart of the static footprint and dependence proofs
//! (`essent-verify` `R0501`–`R0504`, `S0601`–`S0605`): the sanitizer
//! panics on any same-cycle cross-partition arena conflict the dataflow
//! schedule does not order, so a clean run is a dynamic witness that
//! the proven schedule is the one actually executed (ready-flag waits
//! cover every conflict, cycle-boundary overlap only between
//! footprint-independent partitions).
//!
//! Both engines are forced onto the N-worker schedule
//! ([`ParEssentSim::force_fanout`]): left to its own fan-out decision a
//! low-activity run stays on one worker, which has no concurrency to
//! check.
//!
//! Two engines per design run the same workload — sanitizer on and off —
//! and the binary fails (exit 1 via panic) when their architectural
//! results ([`RunResult`]) or [`WorkCounters`] diverge, i.e. the
//! sanitizer must be a pure observer.
//!
//! Build with `--features race-sanitizer` for the real check; without
//! the feature the binary still runs the twin comparison but says so
//! (the sanitizer hooks compile away).
//!
//! Run: `cargo run --release -p essent-bench --features race-sanitizer
//! --bin sanitize [--cycles N] [--threads T] [tiny r16 r18 boom]`.

use essent_bench::build_design;
use essent_designs::soc::SocConfig;
use essent_designs::workloads::{dhrystone, run_workload};
use essent_sim::{EngineConfig, ParEssentSim, Simulator};

fn main() {
    let mut designs: Vec<String> = Vec::new();
    let mut max_cycles: u64 = 50_000;
    let mut threads: usize = 3;
    let mut expect_value = false;
    let mut expect: Option<&mut dyn FnMut(&str)> = None;
    let mut set_cycles = |v: &str| max_cycles = v.parse().expect("--cycles takes a number");
    let mut set_threads = |v: &str| threads = v.parse().expect("--threads takes a number");
    for arg in std::env::args().skip(1) {
        if expect_value {
            expect.take().expect("flag parser state")(&arg);
            expect_value = false;
            continue;
        }
        match arg.as_str() {
            "--cycles" => {
                expect = Some(&mut set_cycles);
                expect_value = true;
            }
            "--threads" => {
                expect = Some(&mut set_threads);
                expect_value = true;
            }
            "tiny" | "r16" | "r18" | "boom" => designs.push(arg),
            other => {
                eprintln!("usage: sanitize [--cycles N] [--threads T] [tiny r16 r18 boom]");
                panic!("unknown argument `{other}`");
            }
        }
    }
    assert!(!expect_value, "flag needs a value argument");
    if designs.is_empty() {
        designs = vec!["tiny".to_string()];
    }

    if cfg!(feature = "race-sanitizer") {
        println!("sanitize: race-sanitizer feature ON (shadow memory armed)");
    } else {
        println!("sanitize: race-sanitizer feature OFF (twin comparison only)");
    }
    let workload = dhrystone(20).expect("dhrystone assembles");

    for name in &designs {
        let config = match name.as_str() {
            "tiny" => SocConfig::tiny(),
            "r16" => SocConfig::r16(),
            "r18" => SocConfig::r18(),
            _ => SocConfig::boom(),
        };
        let built = build_design(&config);
        let engine = EngineConfig::default();
        let mut off = ParEssentSim::new(&built.optimized, &engine, threads);
        let mut on = ParEssentSim::new(
            &built.optimized,
            &EngineConfig {
                race_sanitizer: true,
                ..engine
            },
            threads,
        );
        let workers = off.force_fanout();
        on.force_fanout();
        let r_off = run_workload(&mut off, &workload, max_cycles);
        let r_on = run_workload(&mut on, &workload, max_cycles);
        assert_eq!(
            (r_on.cycles, r_on.instret, r_on.tohost, r_on.finished),
            (r_off.cycles, r_off.instret, r_off.tohost, r_off.finished),
            "sanitizer changed architectural results on `{name}`"
        );
        assert_eq!(
            on.counters(),
            off.counters(),
            "sanitizer changed work counters on `{name}`"
        );
        assert!(
            workers < 2 || on.fanout_cycles() == r_on.cycles + 2,
            "`{name}`: every cycle must run on {workers} workers"
        );
        println!(
            "sanitize: `{name}` ok — {} cycle(s), {} instruction(s), \
             tohost {:#x}, {workers} worker(s), {} fanned-out cycle(s), no races observed",
            r_on.cycles,
            r_on.instret,
            r_on.tohost,
            on.fanout_cycles(),
        );
    }
}
