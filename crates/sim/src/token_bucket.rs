//! Token-bucket rate shaping over simulated time.
//!
//! Used by the cloud-seeding upload governor (the LEDBAT-style extension in
//! `odx-p2p`) and available to any model that needs to throttle a byte
//! stream.

use crate::time::SimTime;

/// A token bucket: accumulates `rate` tokens per second up to `burst`, and
/// callers consume tokens to send bytes (1 token = 1 KB by convention).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` tokens/s with capacity `burst`,
    /// starting full at time zero.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst > 0.0, "burst must be positive");
        TokenBucket { rate_per_sec, burst, tokens: burst, last: SimTime::ZERO }
    }

    /// Refill according to elapsed simulated time.
    fn refill(&mut self, now: SimTime) {
        let elapsed = now.since(self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.burst);
        self.last = now;
    }

    /// Tokens currently available at `now`.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Try to consume `amount` tokens at `now`. Returns `true` on success.
    pub fn try_consume(&mut self, now: SimTime, amount: f64) -> bool {
        self.refill(now);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn starts_full() {
        let mut b = TokenBucket::new(10.0, 100.0);
        assert!(b.try_consume(SimTime::ZERO, 100.0));
        assert!(!b.try_consume(SimTime::ZERO, 1.0));
    }

    #[test]
    fn refills_over_time() {
        let mut b = TokenBucket::new(10.0, 100.0);
        assert!(b.try_consume(SimTime::ZERO, 100.0));
        assert!(!b.try_consume(at(1), 20.0), "only 10 tokens after 1s");
        assert!(b.try_consume(at(2), 20.0), "20 tokens after 2s");
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 50.0);
        assert!((b.available(at(3600)) - 50.0).abs() < 1e-9);
    }
}
