//! The backend traits: every workload is written once against
//! [`TmBackend`] / [`TxScope`] and runs unchanged on the cycle-charged
//! simulator (`ufotm-core`'s `TmThread` behind `ufotm-stamp`'s
//! `SimBackend`) and on real OS threads (`ufotm-native`). Backends retry
//! internally; a body only propagates the opaque [`Stop`] with `?`.

use crate::Addr;

/// Opaque "this attempt must stop" token returned by [`TxScope`]
/// methods. The real abort reason is backend-internal; the body's only
/// job is to propagate `Stop` out with `?` so the backend can retry.
///
/// Constructed by backend implementations only; a body has no reason to
/// build one itself (returning a hand-made `Stop` from a body is a
/// protocol violation and backends may panic on it).
#[derive(Clone, Copy, Debug)]
pub struct Stop;

/// The transactional scope a body runs inside: reads, writes,
/// allocation and compute, all abortable.
///
/// Addresses are the same [`Addr`] space on both substrates (the native
/// backend maps them onto a word-indexed host heap), so setup/verify
/// code can share address arithmetic with the workload body.
pub trait TxScope {
    /// Transactionally reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort (conflict, kill, validation
    /// failure — backend-specific).
    fn read(&mut self, addr: Addr) -> Result<u64, Stop>;

    /// Transactionally writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort.
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop>;

    /// Allocates `words` fresh words inside the transaction.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort.
    fn alloc(&mut self, words: u64) -> Result<Addr, Stop>;

    /// Charges `cycles` of in-transaction compute (simulated cycles on
    /// the simulator; a calibrated spin on the native backend).
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort (e.g. an asynchronous kill
    /// observed while computing).
    fn work(&mut self, cycles: u64) -> Result<(), Stop>;
}

/// One thread's view of an execution substrate.
///
/// `transaction` is generic (static dispatch), so the trait is not
/// object-safe — workloads take `B: TmBackend` type parameters, they do
/// not box backends.
pub trait TmBackend {
    /// Runs `body` transactionally until it commits, then returns its
    /// result. Retry policy, failover and abort classification are the
    /// backend's business.
    fn transaction<R>(&mut self, body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R;

    /// Non-transactional (strongly-atomic where the system supports it)
    /// load, for setup phases and read-mostly snapshots between phases.
    fn plain_load(&mut self, addr: Addr) -> u64;

    /// Non-transactional store; see [`TmBackend::plain_load`].
    fn plain_store(&mut self, addr: Addr, value: u64);

    /// Charges `cycles` of non-transactional compute.
    fn compute(&mut self, cycles: u64);

    /// Blocks until every participating thread arrives (phase barrier).
    fn barrier(&mut self);

    /// This thread's id, `0..threads()`.
    fn tid(&self) -> usize;

    /// Number of participating threads.
    fn threads(&self) -> usize;

    /// Requests that the *next* transaction on this thread take the
    /// slow/failover path, if the backend has one. Test and
    /// cross-validation hook; single-path backends ignore it.
    fn force_failover_next(&mut self) {}

    /// `(fast, slow)` commit counts so far for this thread, for hybrid
    /// backends that split commits across a fast and a slow path.
    /// Single-path backends report everything as fast… which is the
    /// default `(0, 0)` unless overridden.
    fn commit_counts(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Number of fast→slow failovers taken so far on this thread
    /// (hybrid backends only; defaults to 0).
    fn failovers(&mut self) -> u64 {
        0
    }

    /// Transactions completed on a serial-irrevocable last-resort tier
    /// (hybrid backends with a watchdog; defaults to 0). Reported
    /// identically by the simulated and native hybrids so robustness
    /// observability is substrate-independent.
    fn serial_commits(&mut self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial single-threaded in-memory backend: proves the traits
    /// are implementable without a machine and pins the retry contract
    /// (the body reruns until it returns `Ok`).
    struct VecBackend {
        words: Vec<u64>,
        next_free: u64,
        forced_stops: u32,
    }

    struct VecScope<'a> {
        b: &'a mut VecBackend,
        staged: Vec<(u64, u64)>,
    }

    impl TxScope for VecScope<'_> {
        fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
            let w = addr.0 / 8;
            for &(sw, v) in self.staged.iter().rev() {
                if sw == w {
                    return Ok(v);
                }
            }
            Ok(self.b.words[w as usize])
        }

        fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
            if self.b.forced_stops > 0 {
                self.b.forced_stops -= 1;
                return Err(Stop);
            }
            self.staged.push((addr.0 / 8, value));
            Ok(())
        }

        fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
            let at = self.b.next_free;
            self.b.next_free += words;
            Ok(Addr(at * 8))
        }

        fn work(&mut self, _cycles: u64) -> Result<(), Stop> {
            Ok(())
        }
    }

    impl TmBackend for VecBackend {
        fn transaction<R>(
            &mut self,
            mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>,
        ) -> R {
            loop {
                let mut scope = VecScope {
                    b: self,
                    staged: Vec::new(),
                };
                if let Ok(r) = body(&mut scope) {
                    let staged = std::mem::take(&mut scope.staged);
                    for (w, v) in staged {
                        self.words[w as usize] = v;
                    }
                    return r;
                }
            }
        }

        fn plain_load(&mut self, addr: Addr) -> u64 {
            self.words[(addr.0 / 8) as usize]
        }

        fn plain_store(&mut self, addr: Addr, value: u64) {
            self.words[(addr.0 / 8) as usize] = value;
        }

        fn compute(&mut self, _cycles: u64) {}

        fn barrier(&mut self) {}

        fn tid(&self) -> usize {
            0
        }

        fn threads(&self) -> usize {
            1
        }
    }

    /// A workload generic over the backend, as STAMP bodies are written.
    fn increment_n<B: TmBackend>(b: &mut B, addr: Addr, n: u64) {
        for _ in 0..n {
            b.transaction(|tx| {
                let v = tx.read(addr)?;
                tx.work(10)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
    }

    #[test]
    fn bodies_rerun_until_commit_and_staged_writes_are_isolated() {
        let mut b = VecBackend {
            words: vec![0; 64],
            next_free: 32,
            forced_stops: 3,
        };
        increment_n(&mut b, Addr(8), 5);
        // Three forced aborts were retried away; nothing double-applied.
        assert_eq!(b.plain_load(Addr(8)), 5);
    }

    #[test]
    fn alloc_returns_fresh_words() {
        let mut b = VecBackend {
            words: vec![0; 64],
            next_free: 32,
            forced_stops: 0,
        };
        let (a1, a2) = b.transaction(|tx| {
            let a1 = tx.alloc(2)?;
            let a2 = tx.alloc(2)?;
            tx.write(a1, 7)?;
            Ok((a1, a2))
        });
        assert_ne!(a1, a2);
        assert_eq!(b.plain_load(a1), 7);
    }

    #[test]
    fn failover_hooks_default_to_single_path_noops() {
        let mut b = VecBackend {
            words: vec![0; 8],
            next_free: 4,
            forced_stops: 0,
        };
        b.force_failover_next(); // must be a harmless no-op
        increment_n(&mut b, Addr(8), 1);
        assert_eq!(b.commit_counts(), (0, 0));
        assert_eq!(b.failovers(), 0);
        assert_eq!(b.serial_commits(), 0);
    }
}
