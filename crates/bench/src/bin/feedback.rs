//! **Feedback** — the profile-guided repartitioning loop, closed and
//! gated: profile a design, convert the report into an
//! [`ActivityPrior`], rebuild the engine with the activity-merge phase
//! and measure whether the feedback-guided schedule holds (or beats) the
//! structural baseline.
//!
//! Per design this runs three measurements:
//!
//! * **base** — the stock CCSS engine (the PR-4 configuration),
//!   best-of-N;
//! * a profiled run producing the in-process [`ProfileReport`] that
//!   seeds the prior (complete, not summary-truncated);
//! * **feedback** — the engine rebuilt via `new_with_prior`, best-of-N.
//!   The hard gate: feedback must reach at least
//!   `(1 - REGRESSION_TOLERANCE)` of base — the merge phase's side
//!   conditions are supposed to make it conservative, so a real
//!   slowdown is a bug, not noise. A marginal first batch escalates to
//!   a larger one before failing, like the profile bench's overhead
//!   gate.
//!
//! The parallel engine is measured by the `bsp` bin.
//!
//! Run: `cargo run --release -p essent-bench --bin feedback
//! [--quick|--full|--smoke] [tiny r16 r18 boom]`. `--smoke` is the CI
//! mode: tiny only. Writes `BENCH_feedback.json`.

use essent_bench::{build_design, khz, workload_set, BuiltDesign, TimedRun};
use essent_core::partition::{partition, partition_with_prior, ActivityMergeParams};
use essent_core::plan::extended_dag;
use essent_designs::soc::SocConfig;
use essent_designs::workloads::{run_workload, Workload};
use essent_sim::{EngineConfig, EssentSim, ProfileReport, Simulator};
use std::fmt::Write as _;
use std::time::Instant;

/// How far below the base rate the feedback-guided rate may fall before
/// the bin fails: the activity merge only fuses always-co-active
/// neighbors, so it should never buy a real slowdown.
const REGRESSION_TOLERANCE: f64 = 0.05;

struct Row {
    name: String,
    base_khz: f64,
    feedback_khz: f64,
    /// Live partitions before / after the activity merge, and how many
    /// merges the log records.
    parts_before: usize,
    parts_after: usize,
    merges: usize,
    /// Mean activation rate over the profiled partitions.
    activity: f64,
}

fn main() {
    let mut scale = 1;
    let mut smoke = false;
    let mut designs: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => scale = 10,
            "--quick" => scale = 1,
            "--smoke" => smoke = true,
            "tiny" | "r16" | "r18" | "boom" => designs.push(arg),
            other => {
                eprintln!("usage: feedback [--quick|--full|--smoke] [tiny r16 r18 boom]");
                panic!("unknown argument `{other}`");
            }
        }
    }
    if designs.is_empty() {
        designs = if smoke {
            vec!["tiny".to_string()]
        } else {
            ["tiny", "r16", "r18", "boom"].map(String::from).to_vec()
        };
    }

    let workloads = workload_set(scale);
    let mut rows = Vec::new();
    for name in &designs {
        let config = match name.as_str() {
            "tiny" => SocConfig::tiny(),
            "r16" => SocConfig::r16(),
            "r18" => SocConfig::r18(),
            "boom" => SocConfig::boom(),
            other => panic!("unknown design `{other}`"),
        };
        rows.push(measure(&config, &workloads[0]));
    }

    print_table(&rows);
    for r in &rows {
        assert!(
            r.feedback_khz >= r.base_khz * (1.0 - REGRESSION_TOLERANCE),
            "design `{}`: feedback-guided rate {:.1} kHz fell more than {:.0}% below \
             the base rate {:.1} kHz",
            r.name,
            r.feedback_khz,
            REGRESSION_TOLERANCE * 100.0,
            r.base_khz,
        );
    }
    let json = render_json(scale, smoke, &rows);
    std::fs::write("BENCH_feedback.json", &json).expect("write BENCH_feedback.json");
    eprintln!("wrote BENCH_feedback.json");
}

fn quiet(profile: bool) -> EngineConfig {
    EngineConfig {
        capture_printf: false,
        profile,
        ..EngineConfig::default()
    }
}

/// Times one engine run to workload completion.
fn timed(mut sim: impl Simulator, workload: &Workload, what: &str, name: &str) -> TimedRun {
    let start = Instant::now();
    let result = run_workload(&mut sim, workload, u64::MAX / 2);
    let elapsed = start.elapsed();
    assert!(
        result.finished,
        "{what} did not finish {} on {name}",
        workload.name
    );
    TimedRun { elapsed, result }
}

fn measure(config: &SocConfig, workload: &Workload) -> Row {
    let design = build_design(config);

    // The verifier gate — the full stack, including the F0401 feedback
    // layer, so a broken merge replay fails the bench before any number
    // is reported.
    let report = essent_verify::verify_design(&design.optimized, &EngineConfig::default());
    assert_eq!(
        report.error_count(),
        0,
        "design `{}` failed verification:\n{report}",
        config.name
    );

    // Base: the stock engine, best-of-5.
    let base_batch = |n: usize| {
        (0..n)
            .map(|_| {
                khz(&timed(
                    EssentSim::new(&design.optimized, &quiet(false)),
                    workload,
                    "base CCSS",
                    &config.name,
                ))
            })
            .fold(0.0f64, f64::max)
    };
    let base_khz = base_batch(5);

    // The profiled seeding run: complete in-process report (no summary
    // truncation), converted to a per-node prior.
    let profile = profile_run(&design, workload);
    // The plan the profiled engine ran (the default construction), so
    // unit indices in the report line up with the plan's partitions.
    let plan = essent_core::plan::CcssPlan::build(&design.optimized, quiet(false).c_p);
    let prior = essent_sim::activity_prior(&design.optimized, &plan, &profile);
    let activity = profile.activity_factor();

    // What the merge phase does with that prior, for the report.
    let (dag, _) = extended_dag(&design.optimized);
    let parts_before = partition(&dag, quiet(false).c_p).live_partitions().count();
    let (merged, log) = partition_with_prior(
        &dag,
        quiet(false).c_p,
        &prior,
        &ActivityMergeParams::for_cp(quiet(false).c_p),
    );
    let parts_after = merged.live_partitions().count();

    // Feedback: the engine rebuilt with the prior, best-of-5 with one
    // escalation — the gate compares two same-process measurements, but
    // single draws still vary by a few percent.
    let fb_batch = |n: usize| {
        (0..n)
            .map(|_| {
                khz(&timed(
                    EssentSim::new_with_prior(&design.optimized, &quiet(false), &prior),
                    workload,
                    "feedback CCSS",
                    &config.name,
                ))
            })
            .fold(0.0f64, f64::max)
    };
    let mut feedback_khz = fb_batch(5);
    if feedback_khz < base_khz * (1.0 - REGRESSION_TOLERANCE) {
        feedback_khz = feedback_khz.max(fb_batch(10));
    }

    Row {
        name: config.name.clone(),
        base_khz,
        feedback_khz,
        parts_before,
        parts_after,
        merges: log.len(),
        activity,
    }
}

/// One profiled run producing the seeding report.
fn profile_run(design: &BuiltDesign, workload: &Workload) -> ProfileReport {
    let mut sim = EssentSim::new(&design.optimized, &quiet(true));
    let result = run_workload(&mut sim, workload, u64::MAX / 2);
    assert!(result.finished, "profiled run did not finish");
    let report = sim.profile_report().expect("profile config is on");
    assert!(
        report.total_evals() + report.total_skips() > 0,
        "profiled run recorded nothing"
    );
    report
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<6} {:>10} {:>10} {:>7} {:>14} {:>8}",
        "design", "base(kHz)", "fb(kHz)", "ratio", "parts", "merges"
    );
    for r in rows {
        println!(
            "{:<6} {:>10.1} {:>10.1} {:>6.2}x {:>7}->{:<6} {:>8}",
            r.name,
            r.base_khz,
            r.feedback_khz,
            r.feedback_khz / r.base_khz,
            r.parts_before,
            r.parts_after,
            r.merges,
        );
    }
}

fn render_json(scale: u32, smoke: bool, rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"feedback\",");
    let _ = writeln!(s, "  \"scale\": {scale},");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"regression_tolerance\": {REGRESSION_TOLERANCE},");
    let _ = writeln!(s, "  \"designs\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"base_khz\": {:.1},", r.base_khz);
        let _ = writeln!(s, "      \"feedback_khz\": {:.1},", r.feedback_khz);
        let _ = writeln!(s, "      \"speedup\": {:.3},", r.feedback_khz / r.base_khz);
        let _ = writeln!(s, "      \"activity_factor\": {:.4},", r.activity);
        let _ = writeln!(s, "      \"partitions_before\": {},", r.parts_before);
        let _ = writeln!(s, "      \"partitions_after\": {},", r.parts_after);
        let _ = writeln!(s, "      \"merges\": {}", r.merges);
        let _ = writeln!(s, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
