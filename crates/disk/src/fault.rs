//! Deterministic fault injection for the disk substrate.
//!
//! A [`FaultPlan`] is a finite schedule of faults keyed by `(drive,
//! per-drive operation sequence number)`: the `n`-th track transfer a
//! [`FaultInjectingBackend`] performs on drive `d` fires the fault planned
//! for `(d, n)`, if any. Because the key is the backend's own operation
//! counter — not wall-clock time — identically-seeded runs inject
//! identically, which is what lets the recovery tests demand byte-identical
//! final state between a faulty and a fault-free run.
//!
//! Every fault except a scheduled worker death fires **once** and is then
//! consumed, so a retry (which advances the per-drive counter) or a
//! superstep replay observes the fault gone. A plan without deaths is
//! therefore always recoverable given enough retries/replays: the schedule
//! is finite and strictly consumed.
//!
//! Injection sites by kind:
//!
//! * [`FaultKind::Transient`] — the transfer fails with a
//!   [`DiskError::WorkerIo`] and has no effect on stored bytes.
//! * [`FaultKind::TornWrite`] — a **write** persists only a prefix of the
//!   frame (the tail keeps its previous content) and then reports a
//!   transient error, modelling a power cut mid-track. On a read op it
//!   degrades to `Transient`.
//! * [`FaultKind::BitFlip`] — a **read** silently returns the stored frame
//!   with one bit flipped, modelling a transient media error. The stored
//!   bytes are untouched, so a checksummed retry recovers. On a write op it
//!   degrades to `Transient`.
//! * [`FaultKind::Death`] — the drive's worker dies: the keyed operation
//!   and every later one on that drive fail with [`DiskError::WorkerLost`].
//!   Never recoverable; simulators surface it as a typed error with a
//!   fault report.
//!
//! Cloning a plan clones the schedule but **shares** the [`FaultStats`]
//! counters (via `Arc`), so the per-processor backends of a parallel
//! simulator aggregate into one report.

use crate::{DiskBackend, DiskError, DiskResult, TrackOutcomes};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One scheduled fault (see the module docs for per-kind semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The transfer fails with a transient I/O error; no bytes change.
    Transient,
    /// A write persists only the first `prefix` bytes of the frame, then
    /// reports a transient error.
    TornWrite {
        /// Number of frame bytes that reach the platter.
        prefix: usize,
    },
    /// A read returns the stored frame with one bit flipped (silently).
    BitFlip {
        /// Byte offset of the flipped bit (taken modulo the frame size).
        byte: usize,
        /// Bit index within that byte (0–7).
        bit: u8,
    },
    /// The drive's worker dies at this operation and stays dead.
    Death,
}

/// Shared injection counters, aggregated across plan clones.
#[derive(Debug, Default)]
pub struct FaultStats {
    transient: AtomicU64,
    torn: AtomicU64,
    bitflips: AtomicU64,
    dead_ops: AtomicU64,
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient errors injected (including the error halves of torn writes).
    pub transient: u64,
    /// Torn writes injected.
    pub torn: u64,
    /// Bit flips injected.
    pub bitflips: u64,
    /// Operations refused because their drive's worker was dead.
    pub dead_ops: u64,
}

impl FaultCounts {
    /// Total faults across all kinds.
    pub fn total(&self) -> u64 {
        self.transient + self.torn + self.bitflips + self.dead_ops
    }
}

impl FaultStats {
    /// Snapshot the counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            transient: self.transient.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            bitflips: self.bitflips.load(Ordering::Relaxed),
            dead_ops: self.dead_ops.load(Ordering::Relaxed),
        }
    }

    /// Total faults injected so far.
    pub fn total(&self) -> u64 {
        let c = self.counts();
        c.transient + c.torn + c.bitflips + c.dead_ops
    }
}

/// A seeded, finite schedule of disk faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: HashMap<(usize, u64), FaultKind>,
    dead_from: HashMap<usize, u64>,
    stats: Arc<FaultStats>,
}

impl FaultPlan {
    /// An empty plan: injects nothing, but still exercises the injection
    /// and recovery machinery end to end (the "fault-free path").
    pub fn none() -> Self {
        FaultPlan { events: HashMap::new(), dead_from: HashMap::new(), stats: Arc::default() }
    }

    /// Schedule a transient error on drive `disk`'s `op`-th transfer.
    pub fn with_transient(mut self, disk: usize, op: u64) -> Self {
        self.events.insert((disk, op), FaultKind::Transient);
        self
    }

    /// Schedule a torn write persisting `prefix` frame bytes.
    pub fn with_torn_write(mut self, disk: usize, op: u64, prefix: usize) -> Self {
        self.events.insert((disk, op), FaultKind::TornWrite { prefix });
        self
    }

    /// Schedule a silent single-bit read corruption.
    pub fn with_bit_flip(mut self, disk: usize, op: u64, byte: usize, bit: u8) -> Self {
        self.events.insert((disk, op), FaultKind::BitFlip { byte, bit: bit % 8 });
        self
    }

    /// Schedule drive `disk`'s worker to die at its `op`-th transfer.
    pub fn with_worker_death(mut self, disk: usize, op: u64) -> Self {
        let entry = self.dead_from.entry(disk).or_insert(op);
        *entry = (*entry).min(op);
        self
    }

    /// Generate a *recoverable* plan from a seed: transient errors, torn
    /// writes and read bit-flips (never worker deaths), at roughly
    /// `rate_per_mille` faults per thousand transfers over the first
    /// `horizon_ops` transfers of each of `num_disks` drives.
    ///
    /// The generator is a self-contained splitmix64 stream, so a given
    /// `(seed, num_disks, horizon_ops, rate_per_mille)` always yields the
    /// same schedule.
    pub fn seeded(seed: u64, num_disks: usize, horizon_ops: u64, rate_per_mille: u32) -> Self {
        let mut plan = FaultPlan::none();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for disk in 0..num_disks {
            for op in 0..horizon_ops {
                let roll = next();
                if roll % 1000 < rate_per_mille as u64 {
                    let pick = next();
                    let kind = match pick % 3 {
                        0 => FaultKind::Transient,
                        1 => FaultKind::TornWrite { prefix: (pick >> 8) as usize },
                        _ => FaultKind::BitFlip {
                            byte: (pick >> 8) as usize,
                            bit: ((pick >> 3) % 8) as u8,
                        },
                    };
                    plan.events.insert((disk, op), kind);
                }
            }
        }
        plan
    }

    /// Number of one-shot faults still scheduled.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules at least one worker death, i.e. is not
    /// recoverable by retries and replays alone.
    pub fn has_deaths(&self) -> bool {
        !self.dead_from.is_empty()
    }

    /// Handle to the shared injection counters (survives the plan being
    /// moved into a backend; shared across clones).
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }
}

/// A [`DiskBackend`] decorator that injects the faults of a [`FaultPlan`].
///
/// Sits directly above the raw storage backend, below the checksum and
/// retry layers, so injected corruption is subject to CRC verification and
/// injected transient errors are subject to the retry policy — exactly like
/// real media faults would be.
///
/// Every track transfer passes the injection point: a stripe's tracks draw
/// their fates from the per-drive schedule one by one, in request order,
/// each advancing its drive's operation counter by one. The tracks whose
/// transfer is to happen (no fault, or a read whose result gets a bit
/// flipped afterwards) are then forwarded to the inner backend as **one**
/// stripe, so the file backend's intra-stripe overlap survives fault
/// testing; a faulted track reports its own error in its own slot and
/// never disturbs the stripe's other tracks. Because a stripe holds at most
/// one track per drive, each drive's counter and transfer sequence are
/// exactly what a track-at-a-time caller would produce.
pub struct FaultInjectingBackend<B: DiskBackend> {
    inner: B,
    plan: FaultPlan,
    op_seq: Vec<u64>,
}

impl<B: DiskBackend> FaultInjectingBackend<B> {
    /// Wrap `inner`, injecting according to `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        let d = inner.num_disks();
        FaultInjectingBackend { inner, plan, op_seq: vec![0; d] }
    }

    /// Decide the fate of the current transfer on `disk` and advance the
    /// per-drive sequence number.
    fn next_fault(&mut self, disk: usize) -> Option<FaultKind> {
        let op = self.op_seq[disk];
        self.op_seq[disk] += 1;
        if let Some(&from) = self.plan.dead_from.get(&disk) {
            if op >= from {
                self.plan.stats.dead_ops.fetch_add(1, Ordering::Relaxed);
                return Some(FaultKind::Death);
            }
        }
        self.plan.events.remove(&(disk, op))
    }

    /// Count and build the error of an injected transient failure.
    fn transient(&self, disk: usize) -> DiskError {
        self.plan.stats.transient.fetch_add(1, Ordering::Relaxed);
        DiskError::WorkerIo { disk, source: io::Error::other("injected transient fault") }
    }

    /// Persist only the first `prefix` bytes of `data` — the tail of the
    /// track keeps whatever it held before — then fail transiently.
    fn tear(&mut self, disk: usize, track: usize, data: &[u8], prefix: usize) -> DiskResult<()> {
        let keep = prefix % (data.len() + 1);
        let mut torn = vec![0u8; data.len()];
        self.inner.read_track(disk, track, &mut torn)?;
        torn[..keep].copy_from_slice(&data[..keep]);
        self.inner.write_track(disk, track, &torn)?;
        self.plan.stats.torn.fetch_add(1, Ordering::Relaxed);
        Err(self.transient(disk))
    }
}

impl<B: DiskBackend> DiskBackend for FaultInjectingBackend<B> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        self.read_stripe(&[(disk, track)], &mut [buf])
    }

    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        self.write_stripe(&[(disk, track, data)])
    }

    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let fates: Vec<Option<FaultKind>> =
            addrs.iter().map(|&(disk, _)| self.next_fault(disk)).collect();
        // A bit flip corrupts the *result* of a transfer that does happen.
        let transfers =
            |fate: &Option<FaultKind>| matches!(fate, None | Some(FaultKind::BitFlip { .. }));
        let mut forwarded = {
            let (addrs, mut bufs): (Vec<(usize, usize)>, Vec<&mut [u8]>) =
                (addrs.iter().zip(bufs.iter_mut()).zip(&fates))
                    .filter(|(_, fate)| transfers(fate))
                    .map(|((&addr, buf), _)| (addr, &mut **buf))
                    .unzip();
            self.inner.read_stripe_each(&addrs, &mut bufs).into_iter()
        };
        let mut transferred = || forwarded.next().expect("one outcome per forwarded track");
        (fates.into_iter().zip(addrs).zip(bufs.iter_mut()))
            .map(|((fate, &(disk, _)), buf)| match fate {
                None => transferred(),
                Some(FaultKind::BitFlip { byte, bit }) => transferred().map(|()| {
                    if !buf.is_empty() {
                        buf[byte % buf.len()] ^= 1 << (bit % 8);
                    }
                    self.plan.stats.bitflips.fetch_add(1, Ordering::Relaxed);
                }),
                Some(FaultKind::Death) => Err(DiskError::WorkerLost { disk }),
                Some(FaultKind::Transient | FaultKind::TornWrite { .. }) => {
                    Err(self.transient(disk))
                }
            })
            .collect()
    }

    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        let fates: Vec<Option<FaultKind>> =
            writes.iter().map(|&(disk, _, _)| self.next_fault(disk)).collect();
        let clean: Vec<(usize, usize, &[u8])> = (writes.iter().zip(&fates))
            .filter(|(_, fate)| fate.is_none())
            .map(|(&write, _)| write)
            .collect();
        let mut forwarded = self.inner.write_stripe_each(&clean).into_iter();
        (fates.into_iter().zip(writes))
            .map(|(fate, &(disk, track, data))| match fate {
                None => forwarded.next().expect("one outcome per forwarded track"),
                Some(FaultKind::TornWrite { prefix }) => self.tear(disk, track, data, prefix),
                Some(FaultKind::Death) => Err(DiskError::WorkerLost { disk }),
                Some(FaultKind::Transient | FaultKind::BitFlip { .. }) => Err(self.transient(disk)),
            })
            .collect()
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.inner.sync()
    }

    fn take_retried_blocks(&mut self) -> u64 {
        self.inner.take_retried_blocks()
    }

    fn fault_op_counts(&self) -> Option<Vec<u64>> {
        Some(self.op_seq.clone())
    }

    /// The schedule is keyed by these counters, so restoring them from a
    /// checkpoint makes a resumed process see exactly the *remaining*
    /// schedule: one-shot events below the restored counts can never fire
    /// again (their keys are unreachable) and `dead_from` thresholds line
    /// up with the uninterrupted run. Counting from process start instead
    /// — the pre-checkpoint behaviour — replayed the whole schedule on
    /// every reattach.
    fn restore_fault_op_counts(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.op_seq.len(), "fault counter drive count mismatch");
        self.op_seq.copy_from_slice(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBackend;

    #[test]
    fn transient_fault_fires_once_then_clears() {
        let plan = FaultPlan::none().with_transient(0, 1);
        let stats = plan.stats();
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        be.write_track(0, 0, &[7u8; 8]).unwrap(); // op 0: clean
        let err = be.write_track(0, 0, &[8u8; 8]).unwrap_err(); // op 1: injected
        assert!(err.is_transient());
        be.write_track(0, 0, &[9u8; 8]).unwrap(); // op 2: consumed
        assert_eq!(stats.counts().transient, 1);
        let mut buf = [0u8; 8];
        be.read_track(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 8], "failed write must not persist");
    }

    #[test]
    fn torn_write_persists_prefix_and_keeps_tail() {
        let plan = FaultPlan::none().with_torn_write(0, 1, 3);
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        be.write_track(0, 5, &[0xAA; 8]).unwrap();
        let err = be.write_track(0, 5, &[0xBB; 8]).unwrap_err();
        assert!(err.is_transient());
        let mut buf = [0u8; 8];
        be.read_track(0, 5, &mut buf).unwrap();
        assert_eq!(&buf[..3], &[0xBB; 3], "prefix of the new data lands");
        assert_eq!(&buf[3..], &[0xAA; 5], "tail keeps the old content");
    }

    #[test]
    fn bit_flip_corrupts_the_read_not_the_media() {
        let plan = FaultPlan::none().with_bit_flip(0, 1, 2, 4);
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        be.write_track(0, 0, &[0u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        be.read_track(0, 0, &mut buf).unwrap(); // op 1: flipped
        assert_eq!(buf[2], 1 << 4);
        be.read_track(0, 0, &mut buf).unwrap(); // clean again
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn dead_worker_rejects_everything_from_its_op_on() {
        let plan = FaultPlan::none().with_worker_death(1, 2);
        let stats = plan.stats();
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(2), plan);
        be.write_track(1, 0, &[1u8; 4]).unwrap();
        be.write_track(1, 1, &[2u8; 4]).unwrap();
        for _ in 0..3 {
            let err = be.write_track(1, 2, &[3u8; 4]).unwrap_err();
            assert!(matches!(err, DiskError::WorkerLost { disk: 1 }));
            assert!(!err.is_transient());
        }
        // Drive 0 is unaffected.
        be.write_track(0, 0, &[4u8; 4]).unwrap();
        assert_eq!(stats.counts().dead_ops, 3);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_recoverable() {
        let a = FaultPlan::seeded(0xF16, 4, 200, 50);
        let b = FaultPlan::seeded(0xF16, 4, 200, 50);
        assert_eq!(a.events, b.events);
        assert!(a.pending_events() > 0, "a 5% rate over 800 ops must schedule something");
        assert!(!a.has_deaths());
        let c = FaultPlan::seeded(0xF17, 4, 200, 50);
        assert_ne!(a.events, c.events, "different seeds give different schedules");
    }

    #[test]
    fn restored_op_counts_resume_the_remaining_schedule() {
        // An uninterrupted run on drive 0: ops 0,1 clean, op 2 transient,
        // dead from op 4. A "resumed" backend restoring count 2 must see
        // exactly the remaining schedule: transient now, death at its 4th
        // op overall — while a naive fresh backend would replay op 0 clean.
        let plan = FaultPlan::none().with_transient(0, 2).with_worker_death(0, 4);
        let mut first = FaultInjectingBackend::new(MemoryBackend::new(1), plan.clone());
        first.write_track(0, 0, &[1u8; 4]).unwrap(); // op 0
        first.write_track(0, 1, &[2u8; 4]).unwrap(); // op 1
        let counts = first.fault_op_counts().unwrap();
        assert_eq!(counts, vec![2]);

        let mut resumed = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        resumed.restore_fault_op_counts(&counts);
        let err = resumed.write_track(0, 2, &[3u8; 4]).unwrap_err(); // op 2: injected
        assert!(err.is_transient());
        resumed.write_track(0, 2, &[3u8; 4]).unwrap(); // op 3: clean
        let err = resumed.write_track(0, 3, &[4u8; 4]).unwrap_err(); // op 4: dead
        assert!(matches!(err, DiskError::WorkerLost { disk: 0 }));
    }

    #[test]
    fn plan_clones_share_stats() {
        let plan = FaultPlan::none().with_transient(0, 0);
        let stats = plan.stats();
        let mut a = FaultInjectingBackend::new(MemoryBackend::new(1), plan.clone());
        let mut b = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        a.write_track(0, 0, &[0u8; 4]).unwrap_err();
        b.write_track(0, 0, &[0u8; 4]).unwrap_err();
        assert_eq!(stats.counts().transient, 2, "clones aggregate into one counter");
    }
}
