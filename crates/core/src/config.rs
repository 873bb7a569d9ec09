//! Engine configuration.

use std::time::Duration;

/// Configuration of an [`crate::MvtlStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvtlConfig {
    /// How long an operation may wait for an unfrozen conflicting lock before
    /// the transaction is aborted with a lock timeout.
    ///
    /// Waiting with a timeout is the deadlock-resolution strategy discussed in
    /// §4.3 ("standard techniques for deadlock detection can be used ...
    /// timeout") and also what the paper's 2PL baseline does (§8.4.1).
    pub lock_wait_timeout: Duration,
}

impl Default for MvtlConfig {
    fn default() -> Self {
        MvtlConfig {
            lock_wait_timeout: Duration::from_millis(100),
        }
    }
}

impl MvtlConfig {
    /// Returns a configuration with the given lock-wait timeout.
    #[must_use]
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sensible() {
        let c = MvtlConfig::default();
        assert!(c.lock_wait_timeout > Duration::ZERO);
    }

    #[test]
    fn builders() {
        let c = MvtlConfig::default().with_lock_wait_timeout(Duration::from_secs(1));
        assert_eq!(c.lock_wait_timeout, Duration::from_secs(1));
    }
}
