//! The simulated-NVM persistence domain: a persist buffer over a durable
//! line image, with cycle-charged `flush`/`fence` operations and a
//! power-failure snapshot hook for the chaos engine.
//!
//! The model follows the usual persistent-memory abstraction: ordinary
//! stores land in the *volatile* memory image; a [`Machine::persist_flush`]
//! captures one cache line's current contents into a bounded persist buffer;
//! a [`Machine::persist_fence`] drains the buffer into the *durable* image.
//! Data is guaranteed to survive a power failure only once a fence covering
//! its flush has completed — a flush alone merely queues the line, and a
//! full buffer drains its **oldest** entry early (so large writes become
//! durable in flush order, which is what makes torn multi-line records
//! detectable rather than silently reordered).
//!
//! A power failure ([`ChaosFaultKind::PowerFail`](crate::ChaosFaultKind), or
//! an explicit [`Machine::power_fail`]) *latches* a [`CrashImage`]: a copy
//! of the durable image plus the failing cycle. The simulation itself keeps
//! running (the remainder of the run is the ghost execution a real machine
//! would never perform — harnesses ignore it); recovery is modelled by
//! booting a fresh machine from the latched image via
//! [`Machine::install_image`]. This keeps the machine purely sequential and
//! the pre-crash trace journal bit-for-bit replayable.
//!
//! The domain is off by default; configure it with
//! [`MachineConfig::persist`](crate::MachineConfig).

use std::collections::VecDeque;

use crate::btm::{AbortInfo, AbortReason};
use crate::machine::{AccessError, AccessResult, CpuId, Machine};
use crate::{Addr, LineAddr, LINE_WORDS};

/// Configuration for the persistence domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersistConfig {
    /// Capacity of the persist buffer in cache lines. A flush that finds the
    /// buffer full first drains the oldest buffered line into the durable
    /// image (counted as a buffer eviction).
    pub buffer_lines: usize,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig { buffer_lines: 8 }
    }
}

/// Counters for the persistence domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Lines flushed into the persist buffer.
    pub flushes: u64,
    /// Fences executed (each drains the whole buffer).
    pub fences: u64,
    /// Cycles charged by flushes.
    pub flush_cycles: u64,
    /// Cycles charged by fences.
    pub fence_cycles: u64,
    /// Oldest-entry drains forced by flushing into a full buffer.
    pub buffer_evictions: u64,
    /// High-water mark of persist-buffer occupancy (lines).
    pub max_buffer_occupancy: u64,
}

impl PersistStats {
    /// Adds another machine's persistence counters into this one.
    ///
    /// Destructures exhaustively so a newly added counter is a compile
    /// error until it is merged.
    pub fn merge(&mut self, other: &PersistStats) {
        let PersistStats {
            flushes,
            fences,
            flush_cycles,
            fence_cycles,
            buffer_evictions,
            max_buffer_occupancy,
        } = other;
        self.flushes += flushes;
        self.fences += fences;
        self.flush_cycles += flush_cycles;
        self.fence_cycles += fence_cycles;
        self.buffer_evictions += buffer_evictions;
        self.max_buffer_occupancy = self.max_buffer_occupancy.max(*max_buffer_occupancy);
    }
}

/// The durable state latched by a power failure.
#[derive(Clone, Debug)]
pub struct CrashImage {
    cycle: u64,
    cpu: CpuId,
    words: Vec<u64>,
}

impl CrashImage {
    /// The failing CPU's local clock when power was lost.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The CPU at whose instruction boundary the failure was injected.
    #[must_use]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// The durable memory image (fenced lines only; everything volatile —
    /// including flushed-but-unfenced buffer entries — is gone).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Per-machine persistence state (crate-internal).
#[derive(Clone, Debug)]
pub(crate) struct PersistState {
    cfg: PersistConfig,
    /// The durable image: what survives a power failure. Same geometry as
    /// the volatile memory image; updated only by fences, buffer evictions,
    /// and host-side pokes.
    durable: Vec<u64>,
    /// The persist buffer: flushed lines awaiting a fence, oldest first.
    queue: VecDeque<(LineAddr, [u64; LINE_WORDS as usize])>,
    pub stats: PersistStats,
    crash: Option<CrashImage>,
}

impl PersistState {
    pub fn new(cfg: PersistConfig, memory_words: u64) -> Self {
        assert!(
            cfg.buffer_lines >= 1,
            "persist buffer needs at least one line"
        );
        PersistState {
            cfg,
            durable: vec![0; usize::try_from(memory_words).expect("memory size fits usize")],
            queue: VecDeque::new(),
            stats: PersistStats::default(),
            crash: None,
        }
    }

    /// Writes one buffered line into the durable image.
    fn drain(&mut self, line: LineAddr, words: &[u64; LINE_WORDS as usize]) {
        let base = line.base_addr().word_index();
        for (i, &w) in words.iter().enumerate() {
            let idx = base + i as u64;
            if idx < self.durable.len() as u64 {
                self.durable[idx as usize] = w;
            }
        }
    }

    pub fn poke_durable(&mut self, addr: Addr, value: u64) {
        let idx = addr.word_index();
        if idx < self.durable.len() as u64 {
            self.durable[idx as usize] = value;
        }
    }
}

impl Machine {
    /// Whether a persistence domain is configured.
    #[must_use]
    pub fn persist_enabled(&self) -> bool {
        self.persist.is_some()
    }

    /// Persistence counters (all zero when no domain is configured).
    #[must_use]
    pub fn persist_stats(&self) -> PersistStats {
        self.persist.as_ref().map(|p| p.stats).unwrap_or_default()
    }

    /// Captures the line containing `addr` (its current committed memory
    /// contents) into the persist buffer. A no-op without a persistence
    /// domain, so volatile runs are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if issued inside a BTM transaction
    /// (persistence operations are not transactional — modelled as an
    /// illegal operation, like UFO-bit updates) or if a pending doom is
    /// discovered.
    pub fn persist_flush(&mut self, cpu: CpuId, addr: Addr) -> AccessResult<()> {
        if self.persist.is_none() {
            return Ok(());
        }
        self.begin_op(cpu)?;
        let cost = self.cfg.costs.persist_flush;
        self.charge(cpu, cost);
        if self.btm[cpu].active {
            let info = AbortInfo::at(AbortReason::IllegalOp, addr);
            self.finalize_abort(cpu, info);
            return Err(AccessError::TxnAbort(info));
        }
        let line = addr.line();
        let base = line.base_addr().word_index();
        let mut words = [0u64; LINE_WORDS as usize];
        for (i, w) in words.iter_mut().enumerate() {
            let idx = base + i as u64;
            if idx < self.mem.len() {
                *w = self.mem.read(Addr::from_word_index(idx));
            }
        }
        let p = self.persist.as_mut().expect("persist present");
        p.stats.flushes += 1;
        p.stats.flush_cycles += cost;
        if p.queue.len() >= p.cfg.buffer_lines {
            if let Some((l, w)) = p.queue.pop_front() {
                p.stats.buffer_evictions += 1;
                p.drain(l, &w);
            }
        }
        p.queue.push_back((line, words));
        p.stats.max_buffer_occupancy = p.stats.max_buffer_occupancy.max(p.queue.len() as u64);
        Ok(())
    }

    /// Drains the entire persist buffer into the durable image, oldest
    /// entry first. This is the durability point: a line survives a power
    /// failure only once a fence covering its flush has completed. A no-op
    /// without a persistence domain.
    ///
    /// # Errors
    ///
    /// As for [`Machine::persist_flush`].
    pub fn persist_fence(&mut self, cpu: CpuId) -> AccessResult<()> {
        if self.persist.is_none() {
            return Ok(());
        }
        self.begin_op(cpu)?;
        let cost = self.cfg.costs.persist_fence;
        self.charge(cpu, cost);
        if self.btm[cpu].active {
            let info = AbortInfo::new(AbortReason::IllegalOp);
            self.finalize_abort(cpu, info);
            return Err(AccessError::TxnAbort(info));
        }
        let p = self.persist.as_mut().expect("persist present");
        p.stats.fences += 1;
        p.stats.fence_cycles += cost;
        while let Some((l, w)) = p.queue.pop_front() {
            p.drain(l, &w);
        }
        Ok(())
    }

    /// Latches a power failure at `cpu`'s current cycle: the durable image
    /// (fenced lines only) is snapshotted into a [`CrashImage`], and
    /// everything else — the volatile memory deltas, the persist buffer's
    /// unfenced lines, caches, live transactions — is considered lost.
    ///
    /// The simulation keeps running (the rest of the run is ghost execution
    /// a real machine would never perform); harnesses model the reboot by
    /// installing the latched image into a fresh machine with
    /// [`Machine::install_image`]. Returns whether the latch landed (`false`
    /// without a persistence domain, or if a failure was already latched).
    pub fn power_fail(&mut self, cpu: CpuId) -> bool {
        let cycle = self.clock[cpu];
        let Some(p) = &mut self.persist else {
            return false;
        };
        if p.crash.is_some() {
            return false;
        }
        p.crash = Some(CrashImage {
            cycle,
            cpu,
            words: p.durable.clone(),
        });
        true
    }

    /// Whether a power failure has been latched.
    #[must_use]
    pub fn power_failed(&self) -> bool {
        self.persist.as_ref().is_some_and(|p| p.crash.is_some())
    }

    /// The latched power-failure snapshot, if any.
    #[must_use]
    pub fn crash_image(&self) -> Option<&CrashImage> {
        self.persist.as_ref().and_then(|p| p.crash.as_ref())
    }

    /// A copy of the current durable image (`None` without a persistence
    /// domain). For recovery harnesses and durability assertions.
    #[must_use]
    pub fn durable_image(&self) -> Option<Vec<u64>> {
        self.persist.as_ref().map(|p| p.durable.clone())
    }

    /// Boots this machine from a memory image: both the volatile memory and
    /// (if a persistence domain is configured) the durable image are set to
    /// `words`. For crash-recovery harnesses — a freshly constructed machine
    /// plus `install_image(crash.words())` is the post-reboot state.
    ///
    /// # Panics
    ///
    /// Panics if any CPU is inside a BTM transaction or if `words` does not
    /// match the configured memory size.
    pub fn install_image(&mut self, words: &[u64]) {
        assert!(
            self.btm.iter().all(|b| !b.active),
            "install_image while a BTM transaction is active"
        );
        self.mem.load(words);
        if let Some(p) = &mut self.persist {
            assert_eq!(
                p.durable.len(),
                words.len(),
                "image size does not match configured memory"
            );
            p.durable.copy_from_slice(words);
            p.queue.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosFaultKind, FaultPlan, MachineConfig};

    fn word(n: u64) -> Addr {
        Addr::from_word_index(n)
    }

    fn persistent_machine(buffer_lines: usize) -> Machine {
        let mut cfg = MachineConfig::small(2);
        cfg.persist = Some(PersistConfig { buffer_lines });
        Machine::new(cfg)
    }

    #[test]
    fn flush_alone_is_not_durable() {
        let mut m = persistent_machine(8);
        m.store(0, word(0), 7).unwrap();
        m.persist_flush(0, word(0)).unwrap();
        assert!(m.power_fail(0));
        assert_eq!(
            m.crash_image().unwrap().words()[0],
            0,
            "unfenced flush lost"
        );
    }

    #[test]
    fn fence_makes_flushed_lines_durable() {
        let mut m = persistent_machine(8);
        m.store(0, word(0), 7).unwrap();
        m.store(0, word(8), 9).unwrap(); // a different line
        m.persist_flush(0, word(0)).unwrap();
        m.persist_fence(0).unwrap();
        assert!(m.power_fail(0));
        let img = m.crash_image().unwrap().words();
        assert_eq!(img[0], 7, "fenced line survives");
        assert_eq!(img[8], 0, "unflushed line does not");
        let s = m.persist_stats();
        assert_eq!((s.flushes, s.fences), (1, 1));
        assert!(s.flush_cycles > 0 && s.fence_cycles > 0);
    }

    #[test]
    fn full_buffer_drains_oldest_entry() {
        let mut m = persistent_machine(1);
        m.store(0, word(0), 1).unwrap();
        m.store(0, word(8), 2).unwrap();
        m.persist_flush(0, word(0)).unwrap();
        m.persist_flush(0, word(8)).unwrap(); // evicts line 0 to durable
        assert!(m.power_fail(0));
        let img = m.crash_image().unwrap().words();
        assert_eq!(img[0], 1, "evicted entry drained to durable");
        assert_eq!(img[8], 0, "still-buffered entry lost");
        assert_eq!(m.persist_stats().buffer_evictions, 1);
        assert_eq!(m.persist_stats().max_buffer_occupancy, 1);
    }

    #[test]
    fn flush_captures_contents_at_flush_time() {
        let mut m = persistent_machine(8);
        m.store(0, word(0), 1).unwrap();
        m.persist_flush(0, word(0)).unwrap();
        m.store(0, word(0), 2).unwrap(); // after the flush
        m.persist_fence(0).unwrap();
        assert_eq!(m.durable_image().unwrap()[0], 1);
    }

    #[test]
    fn poke_writes_through_to_durable() {
        let mut m = persistent_machine(8);
        m.poke(word(3), 42);
        assert_eq!(m.durable_image().unwrap()[3], 42);
    }

    #[test]
    fn volatile_machine_ops_are_noops() {
        let mut m = Machine::new(MachineConfig::small(1));
        let before = m.now(0);
        m.persist_flush(0, word(0)).unwrap();
        m.persist_fence(0).unwrap();
        assert_eq!(m.now(0), before, "no cycles charged without a domain");
        assert!(!m.power_fail(0));
        assert!(m.durable_image().is_none());
    }

    #[test]
    fn persist_ops_inside_txn_are_illegal() {
        let mut m = persistent_machine(8);
        m.btm_begin(0).unwrap();
        match m.persist_flush(0, word(0)).unwrap_err() {
            AccessError::TxnAbort(info) => assert_eq!(info.reason, AbortReason::IllegalOp),
            other => panic!("{other:?}"),
        }
        m.btm_begin(0).unwrap();
        assert!(m.persist_fence(0).is_err());
    }

    #[test]
    fn install_image_restores_both_images() {
        let mut m = persistent_machine(8);
        m.store(0, word(0), 5).unwrap();
        m.persist_flush(0, word(0)).unwrap();
        m.persist_fence(0).unwrap();
        assert!(m.power_fail(0));
        let img = m.crash_image().unwrap().words().to_vec();
        let mut fresh = persistent_machine(8);
        fresh.install_image(&img);
        assert_eq!(fresh.peek(word(0)), 5);
        assert_eq!(fresh.durable_image().unwrap()[0], 5);
        assert!(!fresh.power_failed());
    }

    #[test]
    fn power_fail_latches_once() {
        let mut m = persistent_machine(8);
        assert!(m.power_fail(0));
        m.store(0, word(0), 9).unwrap();
        m.persist_flush(0, word(0)).unwrap();
        m.persist_fence(0).unwrap();
        assert!(!m.power_fail(1), "second failure does not re-latch");
        assert_eq!(m.crash_image().unwrap().words()[0], 0);
        assert_eq!(m.crash_image().unwrap().cpu(), 0);
    }

    #[test]
    fn planned_power_fail_fires_at_cycle() {
        let mut plan = FaultPlan::quiet(5);
        plan.power_fail_at = Some(1_000);
        let mut cfg = MachineConfig::small(1).with_fault_plan(plan);
        cfg.persist = Some(PersistConfig::default());
        let mut m = Machine::new(cfg);
        m.store(0, word(0), 3).unwrap();
        m.persist_flush(0, word(0)).unwrap();
        m.persist_fence(0).unwrap();
        assert!(!m.power_failed());
        m.work(0, 2_000).unwrap();
        m.work(0, 1).unwrap(); // first boundary past the fail cycle
        assert!(m.power_failed());
        let crash = m.crash_image().unwrap();
        assert!(crash.cycle() >= 1_000);
        assert_eq!(crash.words()[0], 3);
        assert_eq!(m.chaos_stats().power_fails, 1);
        let events = m.drain_chaos_events();
        assert!(events.iter().any(|e| e.kind == ChaosFaultKind::PowerFail));
        // The ghost execution keeps running and never re-fires.
        m.work(0, 10_000).unwrap();
        assert_eq!(m.chaos_stats().power_fails, 1);
    }

    #[test]
    fn planned_power_fail_replays_bit_for_bit() {
        let run = || {
            let mut plan = FaultPlan::mixed(77);
            plan.power_fail_at = Some(5_000);
            let mut cfg = MachineConfig::small(2).with_fault_plan(plan);
            cfg.persist = Some(PersistConfig::default());
            let mut m = Machine::new(cfg);
            for round in 0..60u64 {
                for cpu in 0..2 {
                    let a = word((round % 8) * 8);
                    let _ = m.load(cpu, a).and_then(|v| m.store(cpu, a, v + 1));
                    if round % 4 == 0 {
                        let _ = m.persist_flush(cpu, a);
                        let _ = m.persist_fence(cpu);
                    }
                }
            }
            let crash = m.crash_image().expect("failure fired");
            (
                crash.cycle(),
                crash.cpu(),
                crash.words().to_vec(),
                m.chaos_stats(),
            )
        };
        assert_eq!(run(), run(), "same seed must latch the same crash image");
    }
}
