//! The four workloads and their seeded inputs.
//!
//! A seed picks the public generators' parameters from small fixed
//! ranges, so run lengths stay comparable across seeds and the golden
//! table ([`crate::golden`]) can cover every program a seed can pick.
//! The engines only ever receive the generated FIRRTL text and program
//! words.

use essent::designs::soc::{generate_soc, SocConfig};
use essent::designs::workloads::{dhrystone, pchase, Workload};

/// Default `--seed`; claims should be re-checked on another one.
pub const DEFAULT_SEED: u64 = 1;

/// Lanes of the batched sweep workload.
pub const SWEEP_LANES: usize = 8;

/// Worker threads of the parallel workload (the benchmark's 2-thread
/// budget).
pub const PAR_THREADS: usize = 2;

/// A benchmark workload: one design × one program mix × one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// r18 analog × pointer chase on `EssentSim` (lowest activity).
    R18Pchase,
    /// boom analog × dhrystone on `EssentSim` (eval- and memory-bound).
    BoomDhrystone,
    /// r16 analog × 8 dhrystone variants, one per `BatchSim` lane.
    R16Sweep8,
    /// `R18Pchase`'s design and program on `ParEssentSim` with 2 workers.
    R18Pchase2t,
}

/// Which engine a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Seq,
    Par { threads: usize },
    Batch { lanes: usize },
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::R18Pchase,
        Kind::BoomDhrystone,
        Kind::R16Sweep8,
        Kind::R18Pchase2t,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::R18Pchase => "r18-pchase",
            Kind::BoomDhrystone => "boom-dhrystone",
            Kind::R16Sweep8 => "r16-sweep8",
            Kind::R18Pchase2t => "r18-pchase-2t",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn design(self) -> SocConfig {
        match self {
            Kind::R18Pchase | Kind::R18Pchase2t => SocConfig::r18(),
            Kind::BoomDhrystone => SocConfig::boom(),
            Kind::R16Sweep8 => SocConfig::r16(),
        }
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Kind::R18Pchase | Kind::BoomDhrystone => EngineKind::Seq,
            Kind::R16Sweep8 => EngineKind::Batch { lanes: SWEEP_LANES },
            Kind::R18Pchase2t => EngineKind::Par {
                threads: PAR_THREADS,
            },
        }
    }
}

/// Full-length runs (the measured workloads) or shortened variants of
/// the same programs (the benchmark's tests, which re-derive their
/// references live on the slow golden interpreter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    Full,
    Short,
}

/// One program, named by its generator call so references can be keyed
/// on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Program {
    Dhrystone { iterations: u32 },
    Pchase { nodes: u32, steps: u32 },
}

impl Program {
    /// The golden-table key, e.g. `pchase(256,5000)`.
    pub fn key(self) -> String {
        match self {
            Program::Dhrystone { iterations } => format!("dhrystone({iterations})"),
            Program::Pchase { nodes, steps } => format!("pchase({nodes},{steps})"),
        }
    }

    /// Assembles the program with the public generators.
    pub fn assemble(self) -> Workload {
        match self {
            Program::Dhrystone { iterations } => dhrystone(iterations),
            Program::Pchase { nodes, steps } => pchase(nodes, steps),
        }
        .expect("generated workloads assemble")
    }
}

/// SplitMix64: spreads consecutive seeds over all parameter choices.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 512-node build phase takes ~14.8k cycles more than a 256-node one
/// (~285 chase steps of ~52 cycles), so the wider variants chase fewer
/// steps and every full-length variant runs within 0.2% of 275k cycles.
fn pchase_variant(k: u64, length: Length) -> Program {
    let (wide, jitter) = ((k & 1) as u32, (k >> 1) as u32);
    match length {
        Length::Full => Program::Pchase {
            nodes: 256 << wide,
            steps: 5000 - 285 * wide + 8 * jitter,
        },
        Length::Short => Program::Pchase {
            nodes: 16 << wide,
            steps: 50 + jitter,
        },
    }
}

fn boom_variant(k: u64, length: Length) -> Program {
    let iterations = match length {
        Length::Full => 46 + (k % 4) as u32,
        Length::Short => 1 + (k % 2) as u32,
    };
    Program::Dhrystone { iterations }
}

/// Sweep lane offset `o` (0..8) runs dhrystone with 96 + 2·`o`
/// iterations.
fn sweep_program(offset: u32, length: Length) -> Program {
    let iterations = match length {
        Length::Full => 96 + 2 * offset,
        Length::Short => 2 + (offset & 1),
    };
    Program::Dhrystone { iterations }
}

/// The seed permutes the eight offsets over the lanes, so every seed
/// runs the same total work while the lanes still halt at different
/// cycles.
fn sweep_programs(m: u64, length: Length) -> Vec<Program> {
    let mut offsets: Vec<u32> = (0..SWEEP_LANES as u32).collect();
    let mut r = m;
    for i in (1..offsets.len()).rev() {
        let n = i as u64 + 1;
        offsets.swap(i, (r % n) as usize);
        r /= n;
    }
    offsets
        .into_iter()
        .map(|o| sweep_program(o, length))
        .collect()
}

/// The programs `seed` picks, one per lane.
pub fn programs(kind: Kind, seed: u64, length: Length) -> Vec<Program> {
    let m = mix(seed);
    match kind {
        Kind::R18Pchase | Kind::R18Pchase2t => vec![pchase_variant(m % 4, length)],
        Kind::BoomDhrystone => vec![boom_variant(m % 4, length)],
        Kind::R16Sweep8 => sweep_programs(m, length),
    }
}

/// Every program any seed can pick for `kind` at `length`, sorted and
/// deduplicated: the golden table's required coverage.
pub fn program_space(kind: Kind, length: Length) -> Vec<Program> {
    let mut all: Vec<Program> = match kind {
        Kind::R18Pchase | Kind::R18Pchase2t => (0..4).map(|k| pchase_variant(k, length)).collect(),
        Kind::BoomDhrystone => (0..4).map(|k| boom_variant(k, length)).collect(),
        Kind::R16Sweep8 => (0..SWEEP_LANES as u32)
            .map(|o| sweep_program(o, length))
            .collect(),
    };
    all.sort();
    all.dedup();
    all
}

/// A workload's generated inputs, built before any clock starts.
pub struct Inputs {
    pub kind: Kind,
    /// The design's name (`r16`, `r18`, `boom`), the golden-table key.
    pub design: String,
    pub firrtl: String,
    pub programs: Vec<Program>,
    /// Assembled program words, one per lane.
    pub words: Vec<Workload>,
}

pub fn inputs(kind: Kind, seed: u64, length: Length) -> Inputs {
    let config = kind.design();
    let programs = programs(kind, seed, length);
    Inputs {
        kind,
        design: config.name.clone(),
        firrtl: generate_soc(&config),
        words: programs.iter().map(|p| p.assemble()).collect(),
        programs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_stay_inside_the_program_space() {
        for kind in Kind::ALL {
            for length in [Length::Full, Length::Short] {
                let space = program_space(kind, length);
                for seed in 0..64 {
                    for p in programs(kind, seed, length) {
                        assert!(space.contains(&p), "{} seed {seed}: {p:?}", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_are_deterministic_and_varied() {
        let a = programs(Kind::R16Sweep8, 7, Length::Full);
        assert_eq!(a, programs(Kind::R16Sweep8, 7, Length::Full));
        let distinct: std::collections::BTreeSet<_> = (0..16)
            .map(|s| programs(Kind::R18Pchase, s, Length::Full))
            .collect();
        assert_eq!(distinct.len(), 4, "every pchase variant is reachable");
    }

    #[test]
    fn every_sweep_seed_runs_the_same_lane_programs() {
        let space = program_space(Kind::R16Sweep8, Length::Full);
        let orders: std::collections::BTreeSet<_> = (0..16)
            .map(|seed| {
                let lanes = programs(Kind::R16Sweep8, seed, Length::Full);
                let mut sorted = lanes.clone();
                sorted.sort();
                assert_eq!(sorted, space, "seed {seed}");
                lanes
            })
            .collect();
        assert!(orders.len() > 8, "seeds permute the lanes");
    }
}
