//! Host-speed scaling of wall time.
//!
//! The benchmark shares a few cores of a busy host, whose speed swings by
//! a fifth within seconds and drifts as much over minutes.  A
//! [`ScaledClock`] cuts a timed phase into short segments and runs a
//! fixed probe — benchmark-side work that calls no repository code —
//! right after each; every segment's wall time is scaled by
//! `PROBE_REF_S / probe time`, i.e. to what it would have taken on a host
//! running the probe in `PROBE_REF_S`.  The probe measures the host, not
//! the program: a change to the program moves the segment times and
//! leaves the probe alone.

use std::collections::HashMap;
use std::time::Instant;

/// Probe wall time on the reference host: the median on a 2-vCPU Xeon
/// VM.  Scaled times read as wall times on that host.
pub const PROBE_REF_S: f64 = 0.003;

/// Wall time after which a segment is closed and the host probed.
const SEGMENT_S: f64 = 0.05;

/// Run the fixed probe work once and return its wall seconds.
pub fn probe_s() -> f64 {
    let started = Instant::now();
    let mut acc = 0u64;
    for seed in 0..2u64 {
        let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut x = seed | 1;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buckets.entry(x % 4096).or_default().push(x);
        }
        acc ^= buckets.values().map(|v| v.len() as u64 * v[0]).fold(0, |a, b| a ^ b);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Wall time of a phase, kept both as measured and scaled to the
/// reference host.  Time between [`ScaledClock::pause`] and
/// [`ScaledClock::resume`], and the probes themselves, count in neither.
pub struct ScaledClock {
    segment: Option<Instant>,
    wall_s: f64,
    scaled_s: f64,
}

impl ScaledClock {
    /// A clock running from now.
    pub fn start() -> ScaledClock {
        ScaledClock { segment: Some(Instant::now()), wall_s: 0.0, scaled_s: 0.0 }
    }

    /// Close the current segment once it is `SEGMENT_S` long.
    pub fn tick(&mut self) {
        if self.segment.is_some_and(|s| s.elapsed().as_secs_f64() >= SEGMENT_S) {
            self.pause();
            self.resume();
        }
    }

    /// Close the current segment (probing the host) and stop counting.
    pub fn pause(&mut self) {
        if let Some(started) = self.segment.take() {
            let wall = started.elapsed().as_secs_f64();
            let probe = probe_s();
            self.add(wall, probe);
        }
    }

    /// Start counting again.
    pub fn resume(&mut self) {
        self.segment = Some(Instant::now());
    }

    fn add(&mut self, wall: f64, probe: f64) {
        self.wall_s += wall;
        self.scaled_s += wall * PROBE_REF_S / probe;
    }

    /// Wall seconds counted, as measured.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Wall seconds counted, scaled to the reference host.
    pub fn scaled_s(&self) -> f64 {
        self.scaled_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_scale_by_the_probe_time_after_them() {
        let mut clock = ScaledClock { segment: None, wall_s: 0.0, scaled_s: 0.0 };
        // A segment on a host at half the reference speed, then one at
        // the reference speed.
        clock.add(0.2, 2.0 * PROBE_REF_S);
        clock.add(0.1, PROBE_REF_S);
        assert!((clock.wall_s() - 0.3).abs() < 1e-12);
        assert!((clock.scaled_s() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn paused_time_is_not_counted() {
        let mut clock = ScaledClock::start();
        clock.pause();
        let counted = clock.wall_s();
        std::thread::sleep(std::time::Duration::from_millis(20));
        clock.pause();
        assert_eq!(clock.wall_s(), counted);
        clock.resume();
        clock.pause();
        assert!(clock.wall_s() >= counted);
    }
}
