//! A fixed reference workload that reads how fast the host is right now.
//!
//! On a shared host the pipeline's speed swings by up to ~1.5× for
//! seconds to minutes at a time, and a run's median cannot average the
//! slow minutes away: set-up and stepping slow down together, while a
//! plain arithmetic loop barely moves. [`pass`] is code of the same
//! kind as the pipeline — a bytecode interpreter over a multi-MiB
//! memory, then a string-keyed symbol table that is filled and sorted —
//! so it slows down with the same host states. The benchmark times a
//! pass before and after every repetition and scales the repetition's
//! times by [`NOMINAL_S`] over their mean ([`scale`]).
//!
//! The reference is the benchmark's own code and calls no library, so a
//! change to the program cannot move it. Changing it or [`NOMINAL_S`]
//! rescales every timing metric: do either only in a change that
//! redefines the benchmark.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`pass`] takes on the host the bounds were set on
/// (2-vCPU x86-64 KVM guest, Xeon family 6 model 207) in its fast
/// state; a repetition timed next to passes of this length is reported
/// unscaled.
pub const NOMINAL_S: f64 = 0.040;

/// Interpreter memory: 4 MiB of words, twice the L2 of one core there.
const MEM_WORDS: usize = 1 << 19;
const CODE_LEN: usize = 4096;
const VM_STEPS: usize = 6_000_000;
const SYMBOLS: u64 = 60_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Runs a fixed random bytecode program; returns its accumulator.
fn interpret() -> u64 {
    let mut r = 0x9e37_79b9_7f4a_7c15_u64;
    let code: Vec<(u8, usize, usize, usize)> = (0..CODE_LEN)
        .map(|_| {
            r = xorshift(r);
            let s = xorshift(r ^ 0x5bd1_e995);
            let m = MEM_WORDS - 1;
            (
                (r % 16) as u8,
                (r >> 8) as usize & m,
                (r >> 32) as usize & m,
                s as usize & m,
            )
        })
        .collect();
    let mut mem: Vec<u64> = (1..=MEM_WORDS as u64).map(xorshift).collect();
    let (mut pc, mut acc) = (0, 1u64);
    for _ in 0..VM_STEPS {
        let (op, a, b, c) = code[pc];
        pc = (pc + 1) % CODE_LEN;
        let (x, y) = (mem[b], mem[c]);
        match op {
            0 => mem[a] = x.wrapping_add(y),
            1 => mem[a] = x.wrapping_sub(y),
            2 => mem[a] = x & y,
            3 => mem[a] = x | y,
            4 => mem[a] = x ^ y,
            5 => mem[a] = x << (y & 63),
            6 => mem[a] = x >> (y & 63),
            7 => mem[a] = (x == y) as u64,
            8 => mem[a] = (x < y) as u64,
            9 => mem[a] = if x & 1 == 1 { y } else { acc },
            10 => mem[a] = x.wrapping_mul(y | 1),
            11 => mem[a] = x.count_ones() as u64,
            12 => acc = acc.wrapping_add(x),
            13 => mem[a] = mem[x as usize & (MEM_WORDS - 1)],
            14 if x & 3 == 0 => pc = y as usize % CODE_LEN,
            _ => acc ^= y,
        }
    }
    acc
}

/// Fills a string-keyed table, then walks it in sorted key order.
fn symbols() -> u64 {
    let mut table: HashMap<String, Vec<u64>> = HashMap::new();
    let mut r = 7u64;
    for i in 0..SYMBOLS {
        r = xorshift(r);
        table
            .entry(format!("sig_{}", r % (SYMBOLS / 2)))
            .or_default()
            .push(i);
    }
    let mut keys: Vec<&String> = table.keys().collect();
    keys.sort();
    keys.iter().map(|k| table[*k].len() as u64).sum()
}

/// One reference pass; returns its wall seconds.
pub fn pass() -> f64 {
    let start = Instant::now();
    black_box(interpret());
    black_box(symbols());
    start.elapsed().as_secs_f64()
}

/// The factor that scales a repetition timed between reference passes
/// of `before` and `after` seconds to the nominal host: below 1 when
/// the host was slow.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computes_the_same_thing_every_time() {
        assert_eq!(interpret(), interpret());
        // Every index in 0..SYMBOLS lands in exactly one key's list.
        assert_eq!(symbols(), SYMBOLS);
    }

    #[test]
    fn a_slow_host_scales_times_down() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) < 1.0);
    }
}
