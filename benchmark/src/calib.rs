//! Host calibration: the design point that makes wall-clock numbers
//! repeat on a shared host.
//!
//! The same binary on this box has read 27 % apart from one run to the
//! next (ISSUE 11; 12 % in the runs behind README's tables), drifts
//! inside a run and stalls for milliseconds at a time, because the host's speed (frequency, neighbours on the core and
//! in the caches) changes. So every stretch of timed work — a *slice*,
//! closed once it is [`SLICE_S`] long — is bracketed by a fixed spin that
//! belongs to the benchmark, and the slice's times are multiplied by
//! `SPIN_REF_S / mean(spin_before, spin_after)`. A calibrated second is
//! the time the work would have taken on a host where the spin takes
//! exactly [`SPIN_REF_S`]. Raw values are published next to the
//! calibrated ones as `host.*` layer metrics.
//!
//! The spin is built like the code it stands in for — a few independent
//! integer chains, data-dependent loads and stores over a cache-resident
//! table, a branch the predictor cannot learn — because a single
//! dependent ALU chain does not slow down when a neighbour takes cache
//! or issue slots, and the workloads do. Measured on this host (two
//! recordings of 300 s; units of 5–10 ms of fixed work, each between two
//! spins; interquartile range of the per-20 s medians): raw times spread
//! 3.0–5.8 %, an ALU-chain calibration leaves 0.3–1.7 %, this spin
//! 0.2–1.2 %. Slices short enough that most of them see no stall, and
//! medians over them, matter more than the spin's exact recipe.

use std::time::Instant;

/// Steps in one spin.
pub const SPIN_STEPS: u32 = 300_000;
/// What one spin takes on the reference host, in seconds.
pub const SPIN_REF_S: f64 = 0.002;
/// A slice of timed work is closed by a spin once it is this long, in
/// seconds.
pub const SLICE_S: f64 = 0.01;
/// Words in the spin's table (256 KiB: resident in L2).
const TABLE_WORDS: usize = 32 * 1024;

/// The spin and its table.
#[derive(Debug)]
pub struct Spinner(Vec<u64>);

impl Spinner {
    /// A spinner with a fresh table.
    pub fn new() -> Spinner {
        Spinner(vec![1; TABLE_WORDS])
    }

    /// Run the spin and return its wall time in seconds.
    pub fn spin(&mut self) -> f64 {
        let table = &mut self.0[..];
        let mask = TABLE_WORDS - 1;
        let (mut a, mut b) = (0x9E37_79B9_7F4A_7C15_u64, 0xD1B5_4A32_D192_ED03_u64);
        let (mut c, mut d) = (1_u64, 2_u64);
        let start = Instant::now();
        for _ in 0..SPIN_STEPS {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b = b.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ a;
            let (i, j) = (a as usize & mask, b as usize & mask);
            c = c.wrapping_add(table[i]);
            if c & 1 == 0 {
                d ^= table[j];
            } else {
                d = d.wrapping_add(c).rotate_left(7);
            }
            table[j] = d;
        }
        std::hint::black_box((a, b, c, d));
        start.elapsed().as_secs_f64()
    }
}

impl Default for Spinner {
    fn default() -> Spinner {
        Spinner::new()
    }
}

/// The factor that turns raw time measured between two spins into
/// calibrated time.
pub fn scale(spin_before: f64, spin_after: f64) -> f64 {
    SPIN_REF_S / ((spin_before + spin_after) / 2.0)
}
