//! The native hybrid's retry decisions at their exact boundaries, on one
//! thread with no races: the body returns a hand-made `Stop` on its first
//! `k` attempts, so the path that finally commits — fast, slow or serial
//! — and every failover/escalation counter are known in advance for each
//! `failover_after`/`serial_after` setting.

use ufotm_api::{Addr, Stop, TmBackend};
use ufotm_native::{HybridThread, NativeHybrid, NativeHybridPolicy};

#[test]
fn hand_made_stops_fail_over_and_escalate_exactly_at_the_limits() {
    let x = Addr(64);
    for failover_after in [1u32, 2, 4] {
        for serial_after in [1u32, 2] {
            for k in 0..=failover_after + serial_after {
                let label =
                    format!("failover_after={failover_after} serial_after={serial_after} k={k}");
                let policy = NativeHybridPolicy {
                    failover_after,
                    serial_after,
                    ..NativeHybridPolicy::default()
                };
                let h = NativeHybrid::new(1 << 14, 1 << 8, 1 << 13, 1, 1 << 6, policy);
                let mut th = HybridThread::new(&h, None, 0, 1);
                let mut attempts = 0u32;
                th.transaction(|tx| {
                    attempts += 1;
                    let v = tx.read(x)?;
                    tx.write(x, v + 1)?;
                    if attempts <= k {
                        return Err(Stop);
                    }
                    Ok(())
                });
                // A second transaction never aborts: it commits fast.
                th.transaction(|tx| {
                    let v = tx.read(x)?;
                    tx.write(x, v + 1)
                });

                let failed_over = k >= failover_after;
                let escalated = k >= failover_after + serial_after;
                let first = if escalated {
                    (0, 0, 1)
                } else if failed_over {
                    (0, 1, 0)
                } else {
                    (1, 0, 0)
                };
                let s = th.stats();
                assert_eq!(attempts, k + 1, "{label}: body attempts");
                assert_eq!(
                    (s.fast.commits, s.slow.commits, s.serial_commits),
                    (first.0 + 1, first.1, first.2),
                    "{label}: (fast, slow, serial) commits"
                );
                assert_eq!(s.failovers, u64::from(failed_over), "{label}: failovers");
                assert_eq!(
                    s.serial_escalations,
                    u64::from(escalated),
                    "{label}: serial escalations"
                );
                assert_eq!(s.forced_failovers, 0, "{label}: forced failovers");
                assert_eq!(
                    s.fast.total_aborts(),
                    u64::from(k.min(failover_after)),
                    "{label}: fast aborts"
                );
                assert_eq!(
                    h.peek(x),
                    2,
                    "{label}: aborted attempts left a write behind"
                );
            }
        }
    }
}
