//! The native hybrid's retry decisions at their exact boundaries, on one
//! thread with no races: the body returns a hand-made `Stop` on its first
//! `k` attempts, so the path that finally commits — fast, slow or serial
//! — and every failover/escalation counter are known in advance for each
//! `failover_after`/`serial_after` setting, including failover off
//! (`failover_after: None`, the TL2-only system).

use ufotm_api::{Addr, Stop, TmBackend};
use ufotm_native::{HybridThread, NativeHybrid, NativeHybridPolicy};

#[test]
fn hand_made_stops_fail_over_and_escalate_exactly_at_the_limits() {
    let x = Addr(64);
    // `None` is failover off: its `k` runs past where any limit would trip.
    for failover_after in [Some(1u32), Some(2), Some(4), None] {
        for serial_after in [1u32, 2] {
            for k in 0..=failover_after.unwrap_or(6) + serial_after {
                let label =
                    format!("failover_after={failover_after:?} serial_after={serial_after} k={k}");
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

                let failed_over = failover_after.is_some_and(|f| k >= f);
                let escalated = failover_after.is_some_and(|f| k >= f + serial_after);
                let fast_aborts = failover_after.map_or(k, |f| k.min(f));
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
                    u64::from(fast_aborts),
                    "{label}: fast aborts"
                );
                assert_eq!(
                    s.fast.begins,
                    u64::from(fast_aborts) + first.0 + 1,
                    "{label}: fast begins"
                );
                // Every failed slow attempt begins again, up to the
                // escalation; the serial attempt is not counted there.
                let slow_begins = match failover_after {
                    Some(f) if failed_over => (k - f + 1).min(serial_after),
                    _ => 0,
                };
                assert_eq!(
                    s.slow.begins,
                    u64::from(slow_begins),
                    "{label}: slow begins"
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
