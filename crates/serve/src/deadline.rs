//! Per-request monotonic deadlines.
//!
//! A deadline is fixed when the request is *admitted* (read off the
//! wire), not when a worker picks it up — queue wait burns budget, which
//! is what makes backpressure visible to deadline-sensitive clients. The
//! budget is checked at analysis-loop safepoints (batch-item boundaries,
//! sleep slices, and once before dispatch); a coarse single-shot analysis
//! may overrun its deadline by one analysis duration, but never hangs —
//! the check after it still turns the result into a typed `Timeout`.

use std::time::{Duration, Instant};

use igdb_fault::ServeError;

/// A monotonic request budget.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
            budget,
        }
    }

    /// The budget the deadline was created with, in milliseconds (echoed
    /// in [`ServeError::Timeout`] so clients see what they asked for).
    pub fn budget_ms(&self) -> u64 {
        self.budget.as_millis() as u64
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left, zero once expired.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The safepoint check: `Err(Timeout)` once the budget is spent.
    pub fn check(&self) -> Result<(), ServeError> {
        if self.expired() {
            Err(ServeError::Timeout {
                budget_ms: self.budget_ms(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires_into_typed_timeout() {
        let d = Deadline::after(Duration::from_millis(20));
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert!(d.remaining() <= Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(25));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert_eq!(d.check(), Err(ServeError::Timeout { budget_ms: 20 }));
    }

    #[test]
    fn zero_budget_is_immediately_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.budget_ms(), 0);
    }
}
