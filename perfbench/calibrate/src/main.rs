//! Host-speed probe for `perfbench/run.py`.
//!
//!     perfbench-calibrate PASSES
//!
//! Times PASSES passes of a fixed loop and prints each pass's seconds on
//! its own line. A pass mixes dependent integer arithmetic with random
//! reads and writes over a 4 MiB table, so like the simulator it feels
//! both core and cache contention. The loop depends on nothing in the
//! repository, so its time moves only with the host.

use std::hint::black_box;
use std::time::Instant;

const TABLE_WORDS: usize = 1 << 20;
const STEPS_PER_PASS: u32 = 2_000_000;

fn main() {
    let passes: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("usage: perfbench-calibrate PASSES");
            std::process::exit(2);
        }
    };
    // Written in full before the first pass, so no pass pays page faults.
    let mut table: Vec<u32> = (0..TABLE_WORDS as u32).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u32 = 0;
    for _ in 0..passes {
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_PASS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(table[i]).rotate_left(5) ^ (x as u32);
            if acc & 1 == 0 {
                table[i] = acc;
            } else {
                acc = acc.wrapping_mul(31);
            }
        }
        black_box(acc);
        println!("{}", t0.elapsed().as_secs_f64());
    }
}
