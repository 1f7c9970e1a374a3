//! The one backoff schedule: 100 ms doubling to a 1.6 s cap. Workers
//! and serve clients reconnect on its jittered form; the shard
//! scheduler re-leases evicted shards on its jitter-free form.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Nominal delay before retry `attempt` (0-based): 100 ms doubling to a
/// 1.6 s cap.
pub(crate) fn nominal_backoff(attempt: u32) -> Duration {
    const BASE_MS: u64 = 100;
    const CAP_MS: u64 = 1_600;
    Duration::from_millis((BASE_MS << attempt.min(10)).min(CAP_MS))
}

/// Reconnect delay before retry `attempt` (0-based): the nominal
/// schedule with ±25% jitter derived deterministically from
/// (pid, attempt), so a restarted fleet of workers — or of clients
/// hammering a restarting daemon — doesn't reconnect in lockstep.
fn backoff_delay(attempt: u32) -> Duration {
    let nominal = nominal_backoff(attempt).as_millis() as u64;
    let mut seed = [0u8; 8];
    seed[..4].copy_from_slice(&std::process::id().to_le_bytes());
    seed[4..].copy_from_slice(&attempt.to_le_bytes());
    let span = nominal / 2;
    let jitter = clado_telemetry::fnv1a(&seed) % (span + 1);
    Duration::from_millis(nominal - span / 2 + jitter)
}

/// Connects to `addr`, retrying up to `retries` more times on the
/// jittered schedule; `window`, when given, also bounds the total wait.
///
/// # Errors
///
/// The last connect error once the retries (or the window) run out.
pub fn connect_with_retry(
    addr: &str,
    retries: u32,
    window: Option<Duration>,
) -> io::Result<TcpStream> {
    let deadline = window.map(|w| Instant::now() + w);
    let mut attempt = 0u32;
    loop {
        let err = match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => e,
        };
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if attempt >= retries || left == Some(Duration::ZERO) {
            return Err(err);
        }
        let delay = backoff_delay(attempt);
        std::thread::sleep(left.map_or(delay, |left| delay.min(left)));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_with_bounded_jitter() {
        for attempt in 0..12 {
            let nominal = (100u64 << attempt.min(10)).min(1_600);
            let d = backoff_delay(attempt).as_millis() as u64;
            assert!(
                d >= nominal - nominal / 2 / 2 && d <= nominal + nominal / 2 / 2 + 1,
                "attempt {attempt}: delay {d} ms outside ±25% of {nominal} ms"
            );
        }
        // Deterministic within a process.
        assert_eq!(backoff_delay(3), backoff_delay(3));
    }
}
