//! Machine-speed calibration.
//!
//! On a shared host the speed of the same code swings by up to 1.6x
//! between runs minutes apart (other tenants compete for the physical
//! cores). A fixed multiply-throughput kernel, the benchmark's own code,
//! is timed on the benchmark thread right before and right after each
//! timed call, while the program is idle, so neither the program nor a
//! change to it can move the reading. The readings are kept with every
//! result as the host's speed (`host_kernel_us`).
//!
//! Two kinds of `op_s` are expressed on a machine on which the kernel
//! takes [`NOMINAL_US`]:
//! - a call that runs on the benchmark thread for a fraction of a second
//!   (a cold audit) is scaled by the readings right around it, which
//!   measure the core it ran on;
//! - a window of many multi-second calls (a dozen sales) is scaled by the
//!   mean of all readings taken around them ([`window_scale`]): they
//!   sample the host all through the window, and a call's wall time adds
//!   up the slow and fast spells it runs through.
//!
//! A window of one or two long calls (`run_load`) and set-up stay in
//! wall time: the few readings at their ends do not say how fast both
//! cores ran in between, and scaling by them adds noise.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that scaled figures are expressed at.
pub const NOMINAL_US: f64 = 40.0;

/// Kernel timings per reading; the reading is their median.
pub const KERNEL_REPEATS: usize = 5;

/// Times the reference kernel: 3000 rounds of a 4x4-limb schoolbook
/// product, whose sixteen independent 64x64 multiplies per round
/// exercise the same multiplier throughput as Montgomery arithmetic.
pub fn kernel_us() -> f64 {
    let t = Instant::now();
    let mut a: [u64; 4] = black_box([1, 2, 3, 4]);
    let b: [u64; 4] = black_box([
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        7,
    ]);
    for _ in 0..3_000 {
        let mut acc = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let p = u128::from(a[i]) * u128::from(b[j]) + u128::from(acc[i + j]) + carry;
                acc[i + j] = p as u64;
                carry = p >> 64;
            }
            acc[i + 4] = carry as u64;
        }
        a = [
            acc[4] ^ acc[0],
            acc[5] ^ acc[1],
            acc[6] ^ acc[2],
            (acc[7] ^ acc[3]) | 1,
        ];
    }
    black_box(a);
    t.elapsed().as_nanos() as f64 / 1e3
}

/// One kernel reading on the calling thread: the median of
/// [`KERNEL_REPEATS`] timings.
pub fn reading_us() -> f64 {
    let mut t: Vec<f64> = (0..KERNEL_REPEATS).map(|_| kernel_us()).collect();
    t.sort_by(f64::total_cmp);
    t[KERNEL_REPEATS / 2]
}

/// The time of one call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Wall seconds scaled to the nominal machine speed.
    pub scaled_s: f64,
}

impl Timed {
    /// `wall_s` measured while the kernel read `kernel_us`.
    pub fn new(wall_s: f64, kernel_us: f64) -> Timed {
        Timed {
            wall_s,
            scaled_s: wall_s * NOMINAL_US / kernel_us,
        }
    }
}

/// Times one call: a kernel reading, then the wall clock, around it.
pub struct Stopwatch {
    before_us: f64,
    start: Instant,
}

impl Stopwatch {
    /// Takes the reading before the call and starts the clock.
    pub fn start() -> Stopwatch {
        let before_us = reading_us();
        Stopwatch {
            before_us,
            start: Instant::now(),
        }
    }

    /// Stops the clock and takes the reading after the call. Returns the
    /// call's time, scaled by the mean of the two readings, and that mean.
    pub fn stop(self) -> (Timed, f64) {
        let wall_s = self.start.elapsed().as_secs_f64();
        let kernel_us = (self.before_us + reading_us()) / 2.0;
        (Timed::new(wall_s, kernel_us), kernel_us)
    }
}

/// Factor from wall time to nominal time for a window of many calls:
/// the nominal kernel time over the mean of the readings taken around
/// them.
pub fn window_scale(readings: &[f64]) -> Option<f64> {
    let mean = readings.iter().sum::<f64>() / readings.len() as f64;
    (mean > 0.0 && mean.is_finite()).then(|| NOMINAL_US / mean)
}
