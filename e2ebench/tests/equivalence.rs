//! The benchmark measures what it claims to measure.
//!
//! On a shortened variant of every workload:
//! * the traced, layer-by-layer set-up builds the same engine as the
//!   public combined path (same partition count, `WorkCounters` and run
//!   result), so the traced run times the same program;
//! * every lane agrees with references re-derived live on the golden
//!   interpreter, as the checked-in table's full-length rows were;
//! * the compile-layer spans sum to the traced set-up time within
//!   [`GAP_TOLERANCE`].

use e2ebench::golden::{interpret, GoldenTable};
use e2ebench::pipeline::{self, LAYERS};
use e2ebench::trace::Trace;
use e2ebench::workload::{inputs, program_space, Kind, Length};

const SEED: u64 = 5;

/// Share of the traced `setup` span the compile-layer spans may leave
/// uncovered (timer reads between consecutive spans), or 200 µs,
/// whichever is larger.
const GAP_TOLERANCE: f64 = 0.01;

fn check_workload(kind: Kind) {
    let inputs = inputs(kind, SEED, Length::Short);
    let netlist = essent::compile(&inputs.firrtl).expect("SoC compiles");
    let golden: Vec<_> = inputs
        .words
        .iter()
        .map(|w| interpret(&netlist, &w.words).expect("golden run reaches tohost"))
        .collect();

    let mut combined = pipeline::setup(kind, &inputs.firrtl).expect("combined set-up");
    let combined_run = combined.run(&inputs.words);

    let mut tr = Trace::new();
    let mut split = pipeline::setup_traced(kind, &inputs.firrtl, &mut tr).expect("layered set-up");
    let split_run = split.run_traced(&inputs.words, &mut tr);

    assert_eq!(split.partition_count(), combined.partition_count());
    assert_eq!(split.counters(), combined.counters());
    assert_eq!(split_run, combined_run);
    assert_eq!(split.arena_words(), combined.arena_words());

    assert_eq!(combined_run.lanes.len(), golden.len());
    for (lane, (got, want)) in combined_run.lanes.iter().zip(&golden).enumerate() {
        assert!(got.finished, "lane {lane} did not reach tohost");
        assert_eq!(
            (got.cycles, got.instret, got.tohost),
            (want.cycles, want.instret, want.tohost),
            "lane {lane} of {}",
            kind.name()
        );
    }

    let setup = tr.rep_secs(0, "setup");
    let layers: f64 = LAYERS.iter().map(|l| tr.rep_secs(0, l)).sum();
    assert!(layers <= setup, "layer spans nest inside setup");
    assert!(
        setup - layers <= (GAP_TOLERANCE * setup).max(200e-6),
        "layers cover {layers}s of a {setup}s setup"
    );
    assert!(tr.spans().iter().any(|s| s.name == "sim.step"));
}

#[test]
fn r18_pchase_split_path_matches_combined_and_golden() {
    check_workload(Kind::R18Pchase);
}

#[test]
fn boom_dhrystone_split_path_matches_combined_and_golden() {
    check_workload(Kind::BoomDhrystone);
}

#[test]
fn r16_sweep8_split_path_matches_combined_and_golden() {
    check_workload(Kind::R16Sweep8);
}

#[test]
fn r18_pchase_2t_split_path_matches_combined_and_golden() {
    check_workload(Kind::R18Pchase2t);
}

#[test]
fn golden_table_covers_every_full_length_program() {
    let table = GoldenTable::builtin();
    for kind in Kind::ALL {
        let design = kind.design().name;
        for program in program_space(kind, Length::Full) {
            let row = table.get(&design, program);
            assert!(row.is_some(), "golden.tsv lacks {design} {}", program.key());
        }
    }
}
