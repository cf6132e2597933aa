//! Durable checkpoint/restart support for the EM simulators.
//!
//! Both [`SeqEmSimulator`](crate::SeqEmSimulator) and
//! [`ParEmSimulator`](crate::ParEmSimulator) can persist a *manifest* at
//! every barrier sync describing exactly the state needed to resume the
//! run after a process crash: the next superstep to execute, the track
//! allocator's held tracks, the group counts of the last completed
//! superstep and the final region they were routed into,
//! the committed [`IoStats`], the communication ledger and the fault
//! injection schedule position. Manifests are written through
//! [`em_disk::CheckpointStore`] (write-new → fsync → rename), so a crash
//! mid-commit leaves the previous committed manifest intact and a CRC
//! check rejects torn files.
//!
//! Superstep writes that land *after* the last committed barrier are made
//! undoable by the durable pre-image journal
//! ([`em_disk::JournalFile`]): resume first rolls the drive files back to
//! the committed barrier, then deterministically replays from there.
//!
//! Crashes themselves are simulated in-process via [`KillPoint`] so the
//! whole kill-and-resume cycle is testable deterministically.

use em_disk::IoStats;

use em_bsp::SuperstepComm;

use crate::error::EmError;
use crate::report::PhaseIo;

/// A simulated crash point for chaos testing.
///
/// A simulator configured with a kill point runs normally until the
/// named superstep, then returns [`EmError::Killed`] leaving the on-disk
/// state exactly as a real crash at that moment would: drive files,
/// checkpoint manifests and the pre-image journal are whatever had been
/// made durable so far. A subsequent `resume` call must reproduce the
/// uninterrupted run bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Crash immediately *after* the barrier commit of superstep `b`
    /// completed in full (manifest committed, journal cleared). Resume
    /// replays from superstep `b + 1`.
    AtBarrier(usize),
    /// Crash *during* the manifest write of superstep `b`'s barrier:
    /// superstep writes are on disk and the journal is intact, but the
    /// new manifest is torn. Resume must detect the torn manifest, fall
    /// back to the previous committed one and undo superstep `b` via the
    /// journal. On the parallel simulator only worker 0 tears its
    /// manifest; the other workers commit in full, exercising the
    /// one-superstep commit skew the recovery protocol tolerates.
    MidManifest(usize),
    /// Crash after superstep `b`'s data writes were synced but before
    /// any barrier commit began: no new manifest, journal intact.
    /// Resume undoes superstep `b` and replays it.
    MidSuperstep(usize),
}

impl KillPoint {
    /// The superstep this kill point interrupts.
    pub fn step(self) -> usize {
        match self {
            KillPoint::AtBarrier(s) | KillPoint::MidManifest(s) | KillPoint::MidSuperstep(s) => s,
        }
    }
}

/// Derive the RNG seed for one superstep attempt of one worker.
///
/// Checkpoint durability forbids snapshotting RNG state: a resumed
/// process must reconstruct exactly the stream the uninterrupted run
/// used, starting *mid-run*. Instead every superstep attempt reseeds
/// from `(seed, worker, step)` through a splitmix64-style finalizer, so
/// replay after a rollback — in-process or across a crash — is trivially
/// deterministic and manifests only need to store the base seed.
pub(crate) fn superstep_seed(seed: u64, worker: u64, step: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker.wrapping_add(1)))
        .wrapping_add(0x6A09_E667_F3BC_C909u64.wrapping_mul(step.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one worker needs to resume from a committed barrier.
///
/// Serialized as the payload of a CRC-framed manifest
/// ([`em_disk::CheckpointStore::commit_manifest`]). The first block of
/// fields is a *shape guard*: resume refuses to continue a run whose
/// program geometry, machine shape, seed or worker identity differ from
/// the checkpointed run, because replay determinism would be silently
/// lost.
///
/// The final region's base and stride follow the fixed-size header, so
/// they sit at fixed payload offsets: [`REGION_BASE_AT`] (77) and the
/// eight bytes after it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    /// Number of virtual processors.
    pub v: u64,
    /// Contexts per group (sequential) or per batch slot (parallel).
    pub k: u64,
    /// Number of groups / batches.
    pub num_groups: u64,
    /// Declared μ (max context bytes).
    pub mu: u64,
    /// Declared γ envelope (max comm bytes).
    pub gamma: u64,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Drives per (simulated) processor.
    pub num_disks: u32,
    /// Logical block size in bytes.
    pub block_bytes: u64,
    /// Simulated processor count (1 for the sequential simulator).
    pub p: u32,
    /// Which worker wrote this manifest.
    pub worker: u32,
    /// The next superstep to execute on resume.
    pub next_step: u64,
    /// Whether the program had already terminated at this barrier.
    pub finished: bool,
    /// `GroupCounts::base`: where the last completed superstep's final
    /// region starts.
    pub region_base: u64,
    /// `GroupCounts::bucket_tracks`: that region's tracks per bucket.
    pub bucket_tracks: u64,
    /// `GroupCounts::counts` of the last completed superstep.
    pub counts: Vec<u64>,
    /// `GroupCounts::prefix_in_bucket` of the last completed superstep.
    pub prefix: Vec<u64>,
    /// Track allocator frontier per drive.
    pub alloc_next: Vec<u64>,
    /// Track allocator free lists per drive.
    pub alloc_free: Vec<Vec<u64>>,
    /// Per-drive fault-injection operation counters, when a fault plan
    /// is attached.
    pub fault_ops: Option<Vec<u64>>,
    /// Committed per-phase parallel I/O counters.
    pub phases: PhaseIo,
    /// Committed I/O statistics up to and including this barrier.
    pub io: IoStats,
    /// Routing balance factors of the completed supersteps.
    pub balances: Vec<f64>,
    /// Communication ledger (worker 0 only on the parallel simulator).
    pub ledger: Vec<SuperstepComm>,
    /// Real exchanged bytes so far (parallel simulator, worker 0).
    pub real_comm: u64,
    /// Supersteps recovered by in-process replay so far.
    pub recovered: u64,
    /// Total in-process replays so far.
    pub replays: u64,
}

/// Payload offset of [`Manifest::region_base`]: after six `u64`s, a `u32`,
/// a `u64`, two `u32`s, a `u64` and the `finished` byte.
const REGION_BASE_AT: usize = 6 * 8 + 4 + 8 + 2 * 4 + 8 + 1;

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        put_u64(out, x);
    }
}

/// A bounds-checked little-endian reader over a manifest payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn truncated() -> EmError {
        EmError::InvalidConfig("checkpoint payload truncated".into())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EmError> {
        let end = self.pos.checked_add(n).ok_or_else(Self::truncated)?;
        if end > self.buf.len() {
            return Err(Self::truncated());
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, EmError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, EmError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u64s(&mut self) -> Result<Vec<u64>, EmError> {
        let n = self.u64()? as usize;
        if n > self.buf.len() / 8 + 1 {
            return Err(Self::truncated());
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), EmError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(EmError::InvalidConfig("checkpoint payload has trailing bytes".into()))
        }
    }
}

impl Manifest {
    /// Serialize to the little-endian payload stored inside the
    /// CRC-framed manifest file.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_u64(&mut out, self.v);
        put_u64(&mut out, self.k);
        put_u64(&mut out, self.num_groups);
        put_u64(&mut out, self.mu);
        put_u64(&mut out, self.gamma);
        put_u64(&mut out, self.seed);
        put_u32(&mut out, self.num_disks);
        put_u64(&mut out, self.block_bytes);
        put_u32(&mut out, self.p);
        put_u32(&mut out, self.worker);
        put_u64(&mut out, self.next_step);
        out.push(self.finished as u8);
        debug_assert_eq!(out.len(), REGION_BASE_AT);
        put_u64(&mut out, self.region_base);
        put_u64(&mut out, self.bucket_tracks);
        put_u64s(&mut out, &self.counts);
        put_u64s(&mut out, &self.prefix);
        put_u64s(&mut out, &self.alloc_next);
        put_u64(&mut out, self.alloc_free.len() as u64);
        for free in &self.alloc_free {
            put_u64s(&mut out, free);
        }
        match &self.fault_ops {
            None => out.push(0),
            Some(ops) => {
                out.push(1);
                put_u64s(&mut out, ops);
            }
        }
        put_u64(&mut out, self.phases.fetch_ctx);
        put_u64(&mut out, self.phases.fetch_msg);
        put_u64(&mut out, self.phases.scatter);
        put_u64(&mut out, self.phases.write_ctx);
        put_u64(&mut out, self.phases.routing);
        put_u64(&mut out, self.io.parallel_ops);
        put_u64(&mut out, self.io.blocks_read);
        put_u64(&mut out, self.io.blocks_written);
        put_u64(&mut out, self.io.bytes_read);
        put_u64(&mut out, self.io.bytes_written);
        put_u64s(&mut out, &self.io.per_disk_reads);
        put_u64s(&mut out, &self.io.per_disk_writes);
        put_u64(&mut out, self.io.retried_blocks);
        put_u64(&mut out, self.io.recovery_ops);
        put_u64(&mut out, self.balances.len() as u64);
        for &b in &self.balances {
            put_u64(&mut out, b.to_bits());
        }
        put_u64(&mut out, self.ledger.len() as u64);
        for s in &self.ledger {
            put_u64(&mut out, s.msgs);
            put_u64(&mut out, s.bytes);
            put_u64(&mut out, s.h_bytes);
            put_u64(&mut out, s.h_msgs);
            put_u64(&mut out, s.h_packets);
            put_u64(&mut out, s.w_comp);
        }
        put_u64(&mut out, self.real_comm);
        put_u64(&mut out, self.recovered);
        put_u64(&mut out, self.replays);
        out
    }

    /// Decode a manifest payload, rejecting truncated or over-long
    /// buffers with [`EmError::InvalidConfig`].
    pub fn decode(buf: &[u8]) -> Result<Manifest, EmError> {
        let mut c = Cursor::new(buf);
        let v = c.u64()?;
        let k = c.u64()?;
        let num_groups = c.u64()?;
        let mu = c.u64()?;
        let gamma = c.u64()?;
        let seed = c.u64()?;
        let num_disks = c.u32()?;
        let block_bytes = c.u64()?;
        let p = c.u32()?;
        let worker = c.u32()?;
        let next_step = c.u64()?;
        let finished = c.take(1)?[0] != 0;
        let region_base = c.u64()?;
        let bucket_tracks = c.u64()?;
        let counts = c.u64s()?;
        let prefix = c.u64s()?;
        let alloc_next = c.u64s()?;
        let free_len = c.u64()? as usize;
        if free_len > buf.len() {
            return Err(Cursor::truncated());
        }
        let mut alloc_free = Vec::with_capacity(free_len);
        for _ in 0..free_len {
            alloc_free.push(c.u64s()?);
        }
        let fault_ops = match c.take(1)?[0] {
            0 => None,
            _ => Some(c.u64s()?),
        };
        let phases = PhaseIo {
            fetch_ctx: c.u64()?,
            fetch_msg: c.u64()?,
            scatter: c.u64()?,
            write_ctx: c.u64()?,
            routing: c.u64()?,
        };
        let mut io = IoStats::new(num_disks as usize);
        io.parallel_ops = c.u64()?;
        io.blocks_read = c.u64()?;
        io.blocks_written = c.u64()?;
        io.bytes_read = c.u64()?;
        io.bytes_written = c.u64()?;
        io.per_disk_reads = c.u64s()?;
        io.per_disk_writes = c.u64s()?;
        io.retried_blocks = c.u64()?;
        io.recovery_ops = c.u64()?;
        let n_bal = c.u64()? as usize;
        if n_bal > buf.len() {
            return Err(Cursor::truncated());
        }
        let mut balances = Vec::with_capacity(n_bal);
        for _ in 0..n_bal {
            balances.push(f64::from_bits(c.u64()?));
        }
        let n_steps = c.u64()? as usize;
        if n_steps > buf.len() {
            return Err(Cursor::truncated());
        }
        let mut ledger = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            ledger.push(SuperstepComm {
                msgs: c.u64()?,
                bytes: c.u64()?,
                h_bytes: c.u64()?,
                h_msgs: c.u64()?,
                h_packets: c.u64()?,
                w_comp: c.u64()?,
            });
        }
        let real_comm = c.u64()?;
        let recovered = c.u64()?;
        let replays = c.u64()?;
        c.done()?;
        Ok(Manifest {
            v,
            k,
            num_groups,
            mu,
            gamma,
            seed,
            num_disks,
            block_bytes,
            p,
            worker,
            next_step,
            finished,
            region_base,
            bucket_tracks,
            counts,
            prefix,
            alloc_next,
            alloc_free,
            fault_ops,
            phases,
            io,
            balances,
            ledger,
            real_comm,
            recovered,
            replays,
        })
    }

    /// Validate the shape-guard fields against the resuming run's
    /// configuration, returning a descriptive error on any mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn check_shape(
        &self,
        mu: u64,
        gamma: u64,
        seed: u64,
        num_disks: u32,
        block_bytes: u64,
        p: u32,
        worker: u32,
    ) -> Result<(), EmError> {
        let mismatch = |what: &str| {
            Err(EmError::InvalidConfig(format!(
                "checkpoint resume shape mismatch: {what} differs from the checkpointed run"
            )))
        };
        if self.mu != mu {
            return mismatch("max_state_bytes (mu)");
        }
        if self.gamma != gamma {
            return mismatch("max_comm_bytes (gamma)");
        }
        if self.seed != seed {
            return mismatch("seed");
        }
        if self.num_disks != num_disks {
            return mismatch("num_disks");
        }
        if self.block_bytes != block_bytes {
            return mismatch("block_bytes");
        }
        if self.p != p {
            return mismatch("processor count");
        }
        if self.worker != worker {
            return mismatch("worker index");
        }
        // Per-drive vectors: one entry per drive, or a resume would index
        // past them (the fault counters) or fold them in at another width.
        let drives = num_disks as usize;
        if self.fault_ops.as_ref().is_some_and(|ops| ops.len() != drives) {
            return mismatch("fault counter drive count");
        }
        if self.io.per_disk_reads.len() != drives || self.io.per_disk_writes.len() != drives {
            return mismatch("per-drive I/O counter drive count");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            v: 16,
            k: 4,
            num_groups: 4,
            mu: 128,
            gamma: 512,
            seed: 0xD15C_5EED,
            num_disks: 4,
            block_bytes: 256,
            p: 1,
            worker: 0,
            next_step: 3,
            finished: false,
            region_base: 6,
            bucket_tracks: 1,
            counts: vec![4, 4, 4, 4],
            prefix: vec![0, 1, 2, 3],
            alloc_next: vec![7, 7, 6, 6],
            alloc_free: vec![vec![], vec![2], vec![], vec![1, 3]],
            fault_ops: Some(vec![10, 11, 12, 13]),
            phases: PhaseIo { fetch_ctx: 8, fetch_msg: 4, scatter: 2, write_ctx: 8, routing: 3 },
            io: {
                let mut io = IoStats::new(4);
                io.parallel_ops = 25;
                io.blocks_read = 80;
                io.blocks_written = 60;
                io.bytes_read = 80 * 256;
                io.bytes_written = 60 * 256;
                io.per_disk_reads = vec![20, 20, 20, 20];
                io.per_disk_writes = vec![15, 15, 15, 15];
                io.retried_blocks = 1;
                io.recovery_ops = 5;
                io
            },
            balances: vec![1.0, 1.25, 0.75],
            ledger: vec![SuperstepComm {
                msgs: 12,
                bytes: 480,
                h_bytes: 160,
                h_msgs: 4,
                h_packets: 4,
                w_comp: 99,
            }],
            real_comm: 480,
            recovered: 1,
            replays: 2,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn none_fault_ops_round_trips() {
        let mut m = sample();
        m.fault_ops = None;
        m.finished = true;
        m.ledger.clear();
        let back = Manifest::decode(&m.encode()).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = sample().encode();
        for cut in [0, 1, 8, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn the_region_sits_at_its_fixed_offsets() {
        let bytes = sample().encode();
        let at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        assert_eq!(REGION_BASE_AT, 77);
        assert_eq!((at(REGION_BASE_AT), at(REGION_BASE_AT + 8)), (6, 1));
        // Cut inside either field: typed, not a panic.
        for cut in [REGION_BASE_AT, REGION_BASE_AT + 3, REGION_BASE_AT + 8, REGION_BASE_AT + 15] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Manifest::decode(&bytes).is_err());
    }

    #[test]
    fn shape_guard_rejects_mismatches() {
        let m = sample();
        assert!(m.check_shape(128, 512, 0xD15C_5EED, 4, 256, 1, 0).is_ok());
        assert!(m.check_shape(129, 512, 0xD15C_5EED, 4, 256, 1, 0).is_err());
        assert!(m.check_shape(128, 513, 0xD15C_5EED, 4, 256, 1, 0).is_err());
        assert!(m.check_shape(128, 512, 1, 4, 256, 1, 0).is_err());
        assert!(m.check_shape(128, 512, 0xD15C_5EED, 5, 256, 1, 0).is_err());
        assert!(m.check_shape(128, 512, 0xD15C_5EED, 4, 512, 1, 0).is_err());
        assert!(m.check_shape(128, 512, 0xD15C_5EED, 4, 256, 2, 0).is_err());
        assert!(m.check_shape(128, 512, 0xD15C_5EED, 4, 256, 1, 1).is_err());
        for bad in [
            Manifest { fault_ops: Some(vec![10, 11, 12, 13, 14]), ..m.clone() },
            Manifest { io: IoStats { per_disk_reads: vec![20; 3], ..m.io.clone() }, ..m.clone() },
            Manifest { io: IoStats { per_disk_writes: vec![15; 5], ..m.io.clone() }, ..m.clone() },
        ] {
            assert!(bad.check_shape(128, 512, 0xD15C_5EED, 4, 256, 1, 0).is_err());
        }
    }

    #[test]
    fn superstep_seeds_are_distinct_across_workers_and_steps() {
        let mut seen = std::collections::HashSet::new();
        for worker in 0..8u64 {
            for step in 0..64u64 {
                assert!(seen.insert(superstep_seed(42, worker, step)));
            }
        }
        // And deterministic.
        assert_eq!(superstep_seed(42, 3, 7), superstep_seed(42, 3, 7));
        assert_ne!(superstep_seed(42, 0, 0), superstep_seed(43, 0, 0));
    }

    #[test]
    fn kill_point_reports_its_step() {
        assert_eq!(KillPoint::AtBarrier(3).step(), 3);
        assert_eq!(KillPoint::MidManifest(2).step(), 2);
        assert_eq!(KillPoint::MidSuperstep(0).step(), 0);
    }
}
