//! The workspace's one wall-clock read.
//!
//! Everything else in the repo runs on virtual time, and `bq-lint` rejects
//! `Instant::now` on sight. Measuring real cost (training seconds, decisions
//! per wall second, round-trip times) still needs a real clock, so that code
//! reads the [`WallClock`] trait, and only [`SystemClock`] touches the host
//! clock — on a single line carrying the workspace's one justified
//! wall-clock allow. Wall-clock readings are reporting-only: they must never
//! feed back into scheduling decisions, or the replay contract breaks.

/// An injectable clock reporting elapsed wall seconds since an arbitrary
/// fixed origin.
pub trait WallClock {
    /// Seconds since the clock's origin. Monotone, origin-relative.
    fn now_seconds(&self) -> f64;
}

/// The real host clock, origin-anchored at construction.
#[derive(Debug, Clone)]
pub struct SystemClock {
    epoch: std::time::Instant,
}

impl SystemClock {
    /// Anchor a clock at the current host instant.
    pub fn new() -> Self {
        // bq-lint: allow(wall-clock): the one sanctioned wall-clock read — every wall-clock measurement reads a WallClock and only this line touches the host timer
        let epoch = std::time::Instant::now();
        Self { epoch }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl WallClock for SystemClock {
    fn now_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone_from_its_origin() {
        let clock = SystemClock::new();
        let a = clock.now_seconds();
        let b = clock.now_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
