//! A fixed reference kernel that measures how fast the host runs at the
//! moment.  Its code is the benchmark's own, so no change to the
//! repository can make it faster or slower; only the host can.
//!
//! On the shared 2-core host this benchmark was built on, the same work
//! takes up to 40 % longer for minutes at a time.  Timed work is
//! therefore rescaled to a nominal host speed: a job timed while the
//! kernel takes `k` seconds (the mean of its runs just before and just
//! after the job) is multiplied by `NOMINAL_S / k`.  In 25 s windows of
//! a fixed 0.7 s simulation, raw medians spread 0.17 (IQR / median over
//! 9 windows) and rescaled ones 0.04.  A `sweep_service` pass keeps both
//! cores busy, so there the kernel runs on both at once: over five runs,
//! raw pass medians spread 0.15 and rescaled ones 0.08.

/// The kernel's duration at the nominal host speed, in seconds (its
/// median on the host the benchmark was tuned on).
pub const NOMINAL_S: f64 = 0.05;

/// 4 MiB of `u32`: larger than L1 and L2, like the simulator's state.
const TABLE_LEN: usize = 1 << 20;

const ITERS: u64 = 10_000_000;

pub struct Reference {
    table: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE_LEN as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }

    /// Seconds one run of the kernel takes now: xorshift-indexed reads
    /// over the table, folded into an accumulator.
    pub fn measure(&self) -> f64 {
        let t = std::time::Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        let mask = TABLE_LEN - 1;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.table[(x as usize) & mask];
            acc = acc.wrapping_mul(31).wrapping_add(u64::from(v) ^ (x >> 32));
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

impl Reference {
    /// Mean seconds of the kernel run on `threads` threads at once, for
    /// a workload that keeps that many cores busy.
    pub fn measure_parallel(&self, threads: usize) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| self.measure())).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the reference kernel does not panic"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// The factor that rescales a time taken while the kernel took
/// `measured` seconds to the nominal host speed.
pub fn scale(measured: f64) -> f64 {
    NOMINAL_S / measured
}
