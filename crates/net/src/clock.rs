//! The wall clock of the transports whose time is not modelled.

use std::time::Instant;

/// Elapsed wall time since the session started (or was last reset), plus
/// whatever was charged on top — the `clock()` of
/// [`crate::ThreadTransport`] and [`crate::ReactorTransport`].
pub(crate) struct WallClock {
    epoch: Instant,
    /// Seconds added on top of elapsed wall time (charged work, floors).
    offset: f64,
}

impl WallClock {
    /// A clock reading zero now.
    pub(crate) fn start() -> WallClock {
        WallClock {
            epoch: Instant::now(),
            offset: 0.0,
        }
    }

    /// Current time in seconds.
    pub(crate) fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() + self.offset
    }

    /// Advances the clock to `t` if `t` is later.
    pub(crate) fn advance_to(&mut self, t: f64) {
        let now = self.now();
        if t > now {
            self.offset += t - now;
        }
    }

    /// Adds `seconds` on top of elapsed time.
    pub(crate) fn charge(&mut self, seconds: f64) {
        self.offset += seconds;
    }
}
