//! [`Stopwatch`]: the elapsed time of every call, for sites that act on it
//! (the ransim TTI overrun counter).  A site that only feeds a latency
//! histogram takes the sampled [`crate::Histogram::timer`] instead.

/// Wall-clock stopwatch for call sites that need the elapsed value itself
/// (e.g. the ransim TTI overrun check), not just a histogram record.
/// Compiles to nothing under `obs-off`: no clock read, elapsed is 0.
pub struct Stopwatch {
    #[cfg(not(feature = "obs-off"))]
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn start() -> Self {
        Stopwatch { start: std::time::Instant::now() }
    }

    /// No-op: hooks are compiled out.
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn start() -> Self {
        Stopwatch {}
    }

    /// Elapsed nanoseconds since [`Stopwatch::start`] (0 under `obs-off`).
    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Always 0: hooks are compiled out.
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        0
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    #[test]
    fn stopwatch_measures() {
        let sw = super::Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_ns() >= 1_000_000);
    }
}
