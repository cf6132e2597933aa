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
//! A batch's tracks draw their fates in request order, so a drive sees all
//! of a batch's first attempts before any retry — on every stack.
//!
//! Every fault except a scheduled drive death fires **once** and is then
//! consumed, so a retry (which advances the per-drive counter) or a
//! superstep replay observes the fault gone; a burst is consumed after its
//! last failing transfer. A plan without deaths is therefore always
//! recoverable given enough retries/replays: the schedule is finite and
//! strictly consumed.
//!
//! Injection sites by kind:
//!
//! * [`FaultKind::Transient`] — the transfer fails with a
//!   [`DiskError::WorkerIo`] and has no effect on stored bytes.
//! * [`FaultKind::Burst`] — the transfer fails transiently, and so do the
//!   next transfers of the *same track* on that drive until `transfers`
//!   have failed. A burst as long as a retry budget exhausts it on the
//!   track it hits, whatever else the drive moves in between.
//! * [`FaultKind::TornWrite`] — a **write** persists only a prefix of the
//!   frame (the tail keeps its previous content) and then reports a
//!   transient error, modelling a power cut mid-track. On a read op it
//!   degrades to `Transient`.
//! * [`FaultKind::BitFlip`] — a **read** silently returns the stored frame
//!   with one bit flipped, modelling a transient media error. The stored
//!   bytes are untouched, so a checksummed retry recovers. On a write op it
//!   degrades to `Transient`.
//! * [`FaultKind::Death`] — the drive dies: the keyed operation
//!   and every later one on that drive fail with [`DiskError::WorkerLost`].
//!   Never recoverable; simulators surface it as a typed error with a
//!   fault report.
//!
//! Cloning a plan clones the schedule but **shares** the [`FaultStats`]
//! counters (via `Arc`), so the per-processor backends of a parallel
//! simulator aggregate into one report.

use crate::backend::sub_batch;
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
    /// The transfer and the next ones of the same track fail transiently,
    /// `transfers` in all.
    Burst {
        /// Number of consecutive transfers of the track that fail (≥ 1).
        transfers: u32,
    },
    /// The drive dies at this operation and stays dead.
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
    /// Operations refused because their drive was dead.
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

    /// Schedule a burst on drive `disk`'s `op`-th transfer: the track that
    /// transfer moves fails it and its next `transfers − 1` transfers. A
    /// burst of zero transfers schedules nothing. A burst under way lives
    /// in the injecting layer, not in the counters a checkpoint keeps, so
    /// a resumed process does not continue it.
    pub fn with_burst(mut self, disk: usize, op: u64, transfers: u32) -> Self {
        if transfers > 0 {
            self.events.insert((disk, op), FaultKind::Burst { transfers });
        }
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

    /// Schedule drive `disk` to die at its `op`-th transfer.
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

/// The per-drive operation counters of a [`FaultInjectingBackend`] — the
/// clock its plan's schedule is keyed by — shared with every handle, the
/// way [`FaultPlan::stats`] shares [`FaultStats`], so the array that
/// boxed the layer can still read and restore them.
#[derive(Debug, Clone)]
pub(crate) struct FaultOps(Arc<[AtomicU64]>);

impl FaultOps {
    /// Per-drive counts of the track transfers seen so far.
    pub(crate) fn counts(&self) -> Vec<u64> {
        self.0.iter().map(|ops| ops.load(Ordering::Relaxed)).collect()
    }

    /// Restore counters a previous process exported, so one-shot events
    /// below them can never fire again and `dead_from` thresholds line up
    /// with the uninterrupted run. Counts for another number of drives are
    /// [`DiskError::InvalidConfig`].
    pub(crate) fn restore(&self, counts: &[u64]) -> DiskResult<()> {
        if counts.len() != self.0.len() {
            return Err(DiskError::InvalidConfig("fault counters for another number of drives"));
        }
        for (ops, &count) in self.0.iter().zip(counts) {
            ops.store(count, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// A [`DiskBackend`] decorator that injects the faults of a [`FaultPlan`].
///
/// Sits directly above the raw storage backend, below the checksum and
/// retry layers, so injected corruption is subject to CRC verification and
/// injected transient errors are subject to the retry policy — exactly like
/// real media faults would be.
///
/// A batch is taken whole. Its tracks draw their fates from the per-drive
/// schedule one by one, in request order, each advancing its drive's
/// operation counter by one; the tracks whose transfer is to happen (no
/// fault, or a read whose result gets a bit flipped afterwards) then go to
/// the inner backend as **one** batch call in which every track keeps its
/// stripe, so the layers below still move each drive's share at once. A
/// faulted track reports its own error in its own slot and never disturbs
/// the batch's other tracks; a torn write does its read-modify-write
/// alone, after the batch.
pub struct FaultInjectingBackend<B: DiskBackend> {
    inner: B,
    plan: FaultPlan,
    ops: FaultOps,
    /// Tracks a [`FaultKind::Burst`] follows: `(disk, track)` → transfers
    /// still to fail.
    bursts: HashMap<(usize, usize), u32>,
}

impl<B: DiskBackend> FaultInjectingBackend<B> {
    /// Wrap `inner`, injecting according to `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        let ops = FaultOps((0..inner.num_disks()).map(|_| AtomicU64::new(0)).collect());
        FaultInjectingBackend { inner, plan, ops, bursts: HashMap::new() }
    }

    /// Handle to this layer's per-drive operation counters.
    pub(crate) fn ops(&self) -> FaultOps {
        self.ops.clone()
    }

    /// Decide the fate of the current transfer of `(disk, track)` and
    /// advance the drive's sequence number.
    fn next_fault(&mut self, disk: usize, track: usize) -> Option<FaultKind> {
        let op = self.ops.0[disk].fetch_add(1, Ordering::Relaxed);
        if let Some(&from) = self.plan.dead_from.get(&disk) {
            if op >= from {
                self.plan.stats.dead_ops.fetch_add(1, Ordering::Relaxed);
                return Some(FaultKind::Death);
            }
        }
        let planned = self.plan.events.remove(&(disk, op));
        if let Some(FaultKind::Burst { transfers }) = planned {
            self.bursts.insert((disk, track), transfers);
        }
        match self.bursts.get_mut(&(disk, track)) {
            Some(left) => {
                *left -= 1;
                if *left == 0 {
                    self.bursts.remove(&(disk, track));
                }
                Some(FaultKind::Transient)
            }
            None => planned,
        }
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
        self.inner.read_stripe(&[(disk, track)], &mut [&mut torn])?;
        torn[..keep].copy_from_slice(&data[..keep]);
        self.inner.write_stripe(&[(disk, track, &torn)])?;
        self.plan.stats.torn.fetch_add(1, Ordering::Relaxed);
        Err(self.transient(disk))
    }
}

impl<B: DiskBackend> DiskBackend for FaultInjectingBackend<B> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let fates: Vec<Option<FaultKind>> =
            addrs.iter().map(|&(disk, track)| self.next_fault(disk, track)).collect();
        // A bit flip corrupts the *result* of a transfer that does happen.
        let transfers =
            |fate: &Option<FaultKind>| matches!(fate, None | Some(FaultKind::BitFlip { .. }));
        let kept: Vec<usize> = (0..fates.len()).filter(|&i| transfers(&fates[i])).collect();
        let mut forwarded = {
            let (addrs, mut bufs): (Vec<(usize, usize)>, Vec<&mut [u8]>) =
                (addrs.iter().zip(bufs.iter_mut()).zip(&fates))
                    .filter(|(_, fate)| transfers(fate))
                    .map(|((&addr, buf), _)| (addr, &mut **buf))
                    .unzip();
            self.inner.read_batch_each(&sub_batch(stripes, &kept), &addrs, &mut bufs).into_iter()
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
                Some(
                    FaultKind::Transient | FaultKind::TornWrite { .. } | FaultKind::Burst { .. },
                ) => Err(self.transient(disk)),
            })
            .collect()
    }

    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let fates: Vec<Option<FaultKind>> =
            writes.iter().map(|&(disk, track, _)| self.next_fault(disk, track)).collect();
        let kept: Vec<usize> = (0..fates.len()).filter(|&i| fates[i].is_none()).collect();
        let clean: Vec<(usize, usize, &[u8])> = kept.iter().map(|&i| writes[i]).collect();
        let mut forwarded =
            self.inner.write_batch_each(&sub_batch(stripes, &kept), &clean).into_iter();
        (fates.into_iter().zip(writes))
            .map(|(fate, &(disk, track, data))| match fate {
                None => forwarded.next().expect("one outcome per forwarded track"),
                Some(FaultKind::TornWrite { prefix }) => self.tear(disk, track, data, prefix),
                Some(FaultKind::Death) => Err(DiskError::WorkerLost { disk }),
                Some(
                    FaultKind::Transient | FaultKind::BitFlip { .. } | FaultKind::Burst { .. },
                ) => Err(self.transient(disk)),
            })
            .collect()
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::CountingBackend;
    use crate::MemoryBackend;

    #[test]
    fn transient_fault_fires_once_then_clears() {
        let plan = FaultPlan::none().with_transient(0, 1);
        let stats = plan.stats();
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        be.write_stripe(&[(0, 0, &[7u8; 8])]).unwrap(); // op 0: clean
        let err = be.write_stripe(&[(0, 0, &[8u8; 8])]).unwrap_err(); // op 1: injected
        assert!(err.is_transient());
        be.write_stripe(&[(0, 0, &[9u8; 8])]).unwrap(); // op 2: consumed
        assert_eq!(stats.counts().transient, 1);
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [9u8; 8], "failed write must not persist");
    }

    #[test]
    fn torn_write_persists_prefix_and_keeps_tail() {
        let plan = FaultPlan::none().with_torn_write(0, 1, 3);
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        be.write_stripe(&[(0, 5, &[0xAA; 8])]).unwrap();
        let err = be.write_stripe(&[(0, 5, &[0xBB; 8])]).unwrap_err();
        assert!(err.is_transient());
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 5)], &mut [&mut buf]).unwrap();
        assert_eq!(&buf[..3], &[0xBB; 3], "prefix of the new data lands");
        assert_eq!(&buf[3..], &[0xAA; 5], "tail keeps the old content");
    }

    #[test]
    fn bit_flip_corrupts_the_read_not_the_media() {
        let plan = FaultPlan::none().with_bit_flip(0, 1, 2, 4);
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        be.write_stripe(&[(0, 0, &[0u8; 8])]).unwrap();
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap(); // op 1: flipped
        assert_eq!(buf[2], 1 << 4);
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap(); // clean again
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn dead_worker_rejects_everything_from_its_op_on() {
        let plan = FaultPlan::none().with_worker_death(1, 2);
        let stats = plan.stats();
        let mut be = FaultInjectingBackend::new(MemoryBackend::new(2), plan);
        be.write_stripe(&[(1, 0, &[1u8; 4])]).unwrap();
        be.write_stripe(&[(1, 1, &[2u8; 4])]).unwrap();
        for _ in 0..3 {
            let err = be.write_stripe(&[(1, 2, &[3u8; 4])]).unwrap_err();
            assert!(matches!(err, DiskError::WorkerLost { disk: 1 }));
            assert!(!err.is_transient());
        }
        // Drive 0 is unaffected.
        be.write_stripe(&[(0, 0, &[4u8; 4])]).unwrap();
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
        first.write_stripe(&[(0, 0, &[1u8; 4])]).unwrap(); // op 0
        first.write_stripe(&[(0, 1, &[2u8; 4])]).unwrap(); // op 1
        let counts = first.ops().counts();
        assert_eq!(counts, vec![2]);

        let mut resumed = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        assert!(matches!(resumed.ops().restore(&[2, 0]), Err(DiskError::InvalidConfig(_))));
        resumed.ops().restore(&counts).unwrap();
        let err = resumed.write_stripe(&[(0, 2, &[3u8; 4])]).unwrap_err(); // op 2: injected
        assert!(err.is_transient());
        resumed.write_stripe(&[(0, 2, &[3u8; 4])]).unwrap(); // op 3: clean
        let err = resumed.write_stripe(&[(0, 3, &[4u8; 4])]).unwrap_err(); // op 4: dead
        assert!(matches!(err, DiskError::WorkerLost { disk: 0 }));
    }

    #[test]
    fn a_batch_under_a_plan_is_one_inner_call_per_direction() {
        const D: usize = 3;
        // Three full stripes. Drive 1's second transfer — the middle
        // stripe's write — fails; drive 0's fourth — the first stripe's
        // read — is bit-flipped; drive 2's sixth — the last stripe's read —
        // fails.
        let plan =
            FaultPlan::none().with_transient(1, 1).with_bit_flip(0, 3, 0, 0).with_transient(2, 5);
        let mut be = FaultInjectingBackend::new(CountingBackend::new(D), plan);
        let stripes = [D; 3];
        let addrs: Vec<(usize, usize)> = (0..3 * D).map(|g| (g % D, g / D)).collect();
        let payloads: Vec<[u8; 4]> = (0..addrs.len()).map(|i| [i as u8 + 1; 4]).collect();
        let writes: Vec<(usize, usize, &[u8])> =
            addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, &p[..])).collect();
        let written = be.write_batch_each(&stripes, &writes);
        let mut blocks = vec![[0u8; 4]; addrs.len()];
        let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
        let read = be.read_batch_each(&stripes, &addrs, &mut bufs);

        let without = |skip: usize| -> Vec<(usize, usize)> {
            (addrs.iter().enumerate()).filter(|&(i, _)| i != skip).map(|(_, &a)| a).collect()
        };
        let kept =
            |skip: usize| -> Vec<usize> { (0..addrs.len()).filter(|&i| i != skip).collect() };
        assert_eq!(
            be.inner.calls.drain(),
            [
                (true, sub_batch(&stripes, &kept(4)), without(4)),
                (false, sub_batch(&stripes, &kept(8)), without(8)),
            ],
            "one inner call per direction, the faulted track left out"
        );
        assert_eq!(sub_batch(&stripes, &kept(4)), [3, 2, 3]);
        for (i, (w, r)) in written.iter().zip(&read).enumerate() {
            assert_eq!(w.is_err(), i == 4, "write {i}: {w:?}");
            assert_eq!(r.is_err(), i == 8, "read {i}: {r:?}");
        }
        assert_eq!(blocks[0], [0, 1, 1, 1], "the flipped read arrived, one bit off");
        assert_eq!(blocks[4], [0; 4], "the failed write never landed");
        assert_eq!(blocks[7], payloads[7]);
        assert_eq!(be.ops().counts(), [6, 6, 6]);
    }

    #[test]
    fn a_burst_follows_its_track_through_a_batch_and_its_retries() {
        use crate::{RetryPolicy, RetryingBackend};
        // Drive 0's op 1 is the middle stripe's track; its op 2, the last
        // stripe's, is clean. The burst fails the middle track's first
        // attempt and both retries, exhausting a three-attempt budget.
        let plan = FaultPlan::none().with_burst(0, 1, 3);
        let stats = plan.stats();
        let fault = FaultInjectingBackend::new(MemoryBackend::new(2), plan);
        let ops = fault.ops();
        let mut be = RetryingBackend::new(fault, RetryPolicy::new(3));
        let retried = be.retried();
        let payloads: Vec<[u8; 4]> = (0..6).map(|g| [g as u8 + 1; 4]).collect();
        let writes: Vec<(usize, usize, &[u8])> =
            (0..6).map(|g| (g % 2, g / 2, &payloads[g][..])).collect();
        let outcomes = be.write_batch_each(&[2, 2, 2], &writes);
        for (g, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.is_err(), g == 2, "track {g}: {outcome:?}");
        }
        assert!(matches!(outcomes[2], Err(DiskError::WorkerIo { disk: 0, .. })));
        assert_eq!((stats.counts().transient, retried.load(Ordering::Relaxed)), (3, 2));
        assert_eq!(ops.counts(), [5, 3]);
        // Spent: the next write of the track lands.
        be.write_stripe(&[writes[2]]).unwrap();
        assert_eq!(stats.counts().transient, 3);
        assert!(FaultPlan::none().with_burst(0, 0, 0).events.is_empty());
    }

    #[test]
    fn plan_clones_share_stats() {
        let plan = FaultPlan::none().with_transient(0, 0);
        let stats = plan.stats();
        let mut a = FaultInjectingBackend::new(MemoryBackend::new(1), plan.clone());
        let mut b = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        a.write_stripe(&[(0, 0, &[0u8; 4])]).unwrap_err();
        b.write_stripe(&[(0, 0, &[0u8; 4])]).unwrap_err();
        assert_eq!(stats.counts().transient, 2, "clones aggregate into one counter");
    }
}
