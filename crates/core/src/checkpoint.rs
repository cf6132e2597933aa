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
//! Nothing a superstep writes after the last committed barrier needs
//! undoing: a checkpointed run keeps two context generations and holds the
//! final region its messages were fetched from until the barrier commits,
//! so every write lands on a track the committed barrier left free. Resume
//! loads the manifest and deterministically replays from there.
//!
//! Crashes themselves are simulated in-process via [`KillPoint`] so the
//! whole kill-and-resume cycle is testable deterministically.

use em_disk::IoStats;

use crate::error::EmError;
use crate::msg::GroupCounts;
use crate::par_sim::RunGlobals;
use crate::report::PhaseIo;

/// A simulated crash point for chaos testing.
///
/// A simulator configured with a kill point runs normally until the
/// named superstep, then returns [`EmError::Killed`] leaving the on-disk
/// state exactly as a real crash at that moment would: drive files and
/// checkpoint manifests are whatever had been made durable so far. A subsequent `resume` call must reproduce the
/// uninterrupted run bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Crash immediately *after* the barrier commit of superstep `b`
    /// completed in full (every manifest committed). Resume replays from
    /// superstep `b + 1`.
    AtBarrier(usize),
    /// Crash *during* the manifest write of superstep `b`'s barrier:
    /// superstep writes are on disk, but the new manifest is torn. Resume
    /// must detect the torn manifest, fall back to the previous committed
    /// one and replay superstep `b`. On the parallel simulator only worker
    /// 0 tears its manifest; the other workers commit in full, exercising
    /// the one-superstep commit skew the recovery protocol tolerates.
    MidManifest(usize),
    /// Crash after superstep `b`'s data writes were synced but before
    /// any barrier commit began: no new manifest. Resume replays
    /// superstep `b`.
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
/// Serialized by [`em_serial`] as the payload of a CRC-framed manifest
/// ([`em_disk::CheckpointStore::commit_manifest`]), in field order:
/// fixed-width little-endian integers, `usize` as a `u64`, `bool` and
/// `Option` as a 0/1 tag byte, a `Vec` as a `u64` length and its items
/// (checkpoint format 5, whose payload layout is format 3's). The first
/// block of fields is a *shape guard*: resume refuses to continue a run
/// whose program geometry, machine shape, seed or worker identity differ
/// from the checkpointed run, because replay determinism would be
/// silently lost.
///
/// The fields before `counts` have fixed sizes, so the final region's base
/// and height — the first two fields of `counts` — sit at payload offsets
/// 77 and 85.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    /// Number of virtual processors.
    pub v: usize,
    /// Contexts per group (sequential) or per batch slot (parallel).
    pub k: usize,
    /// Number of groups / batches.
    pub num_groups: usize,
    /// Declared μ (max context bytes).
    pub mu: usize,
    /// Declared γ envelope (max comm bytes).
    pub gamma: usize,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Drives per (simulated) processor.
    pub num_disks: u32,
    /// Logical block size in bytes.
    pub block_bytes: usize,
    /// Simulated processor count (1 for the sequential simulator).
    pub p: u32,
    /// Which worker wrote this manifest.
    pub worker: u32,
    /// The next superstep to execute on resume.
    pub next_step: usize,
    /// Whether the program had already terminated at this barrier.
    pub finished: bool,
    /// The last completed superstep's group counts and final region.
    pub counts: GroupCounts,
    /// The track allocator, as [`em_disk::TrackAllocator::export_state`]
    /// returns it: per drive, the frontier and the free tracks below it.
    pub alloc: (Vec<usize>, Vec<Vec<usize>>),
    /// Per-drive fault-injection operation counters, when a fault plan
    /// is attached.
    pub fault_ops: Option<Vec<u64>>,
    /// Committed per-phase parallel I/O counters.
    pub phases: PhaseIo,
    /// Committed I/O statistics up to and including this barrier.
    pub io: IoStats,
    /// Routing balance factors of the completed supersteps.
    pub balances: Vec<f64>,
    /// The ledger and run totals (worker 0 only; empty elsewhere).
    pub globals: RunGlobals,
}

em_serial::impl_serial_struct!(Manifest {
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
    counts,
    alloc,
    fault_ops,
    phases,
    io,
    balances,
    globals,
});

impl Manifest {
    /// Decode a manifest payload, rejecting truncated, over-long or
    /// malformed buffers with [`EmError::InvalidConfig`].
    pub fn decode(buf: &[u8]) -> Result<Manifest, EmError> {
        em_serial::from_bytes(buf)
            .map_err(|e| EmError::InvalidConfig(format!("checkpoint manifest payload: {e}")))
    }

    /// Validate the shape-guard fields against the resuming run's
    /// configuration, returning a descriptive error on any mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn check_shape(
        &self,
        mu: usize,
        gamma: usize,
        seed: u64,
        num_disks: u32,
        block_bytes: usize,
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
    use em_bsp::{CommLedger, SuperstepComm};
    use em_serial::to_bytes;

    /// Payload offset of the final region's base: after six `u64`s, a
    /// `u32`, a `u64`, two `u32`s, a `u64` and the `finished` byte.
    const REGION_BASE_AT: usize = 6 * 8 + 4 + 8 + 2 * 4 + 8 + 1;

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
            counts: GroupCounts {
                counts: vec![4, 4, 4, 4],
                prefix_in_bucket: vec![0, 1, 2, 3],
                base: 6,
                height: 1,
                ..GroupCounts::empty(4)
            },
            alloc: (vec![7, 7, 6, 6], vec![vec![], vec![2], vec![], vec![1, 3]]),
            fault_ops: Some(vec![10, 11, 12, 13]),
            phases: PhaseIo { fetch_ctx: 8, fetch_msg: 4, scatter: 2, write_ctx: 8, routing: 3 },
            io: IoStats {
                parallel_ops: 25,
                blocks_read: 80,
                blocks_written: 60,
                bytes_read: 80 * 256,
                bytes_written: 60 * 256,
                per_disk_reads: vec![20, 20, 20, 20],
                per_disk_writes: vec![15, 15, 15, 15],
                retried_blocks: 1,
                recovery_ops: 5,
            },
            balances: vec![1.0, 1.25, 0.75],
            globals: RunGlobals {
                ledger: CommLedger {
                    steps: vec![SuperstepComm {
                        msgs: 12,
                        bytes: 480,
                        h_bytes: 160,
                        h_msgs: 4,
                        h_packets: 4,
                        w_comp: 99,
                    }],
                },
                real_comm: 480,
                recovered: 1,
                replays: 2,
            },
        }
    }

    /// `sample()` without fault counters or ledger, at a finished barrier.
    fn finished_sample() -> Manifest {
        let mut m = sample();
        m.fault_ops = None;
        m.finished = true;
        m.globals.ledger.steps.clear();
        m
    }

    /// Checkpoint format 3 as the hand-written encoder that preceded
    /// `em_serial`'s wrote `sample()`...
    const SAMPLE_HEX: &str = concat!(
        "10000000000000000400000000000000040000000000000080000000000000000002000000000000ed5e5cd100000000",
        "040000000001000000000000010000000000000003000000000000000006000000000000000100000000000000040000",
        "000000000004000000000000000400000000000000040000000000000004000000000000000400000000000000000000",
        "000000000001000000000000000200000000000000030000000000000004000000000000000700000000000000070000",
        "000000000006000000000000000600000000000000040000000000000000000000000000000100000000000000020000",
        "000000000000000000000000000200000000000000010000000000000003000000000000000104000000000000000a00",
        "0000000000000b000000000000000c000000000000000d00000000000000080000000000000004000000000000000200",
        "00000000000008000000000000000300000000000000190000000000000050000000000000003c000000000000000050",
        "000000000000003c00000000000004000000000000001400000000000000140000000000000014000000000000001400",
        "00000000000004000000000000000f000000000000000f000000000000000f000000000000000f000000000000000100",
        "00000000000005000000000000000300000000000000000000000000f03f000000000000f43f000000000000e83f0100",
        "0000000000000c00000000000000e001000000000000a000000000000000040000000000000004000000000000006300",
        "000000000000e00100000000000001000000000000000200000000000000",
    );

    /// ...and `finished_sample()`.
    const FINISHED_SAMPLE_HEX: &str = concat!(
        "10000000000000000400000000000000040000000000000080000000000000000002000000000000ed5e5cd100000000",
        "040000000001000000000000010000000000000003000000000000000106000000000000000100000000000000040000",
        "000000000004000000000000000400000000000000040000000000000004000000000000000400000000000000000000",
        "000000000001000000000000000200000000000000030000000000000004000000000000000700000000000000070000",
        "000000000006000000000000000600000000000000040000000000000000000000000000000100000000000000020000",
        "000000000000000000000000000200000000000000010000000000000003000000000000000008000000000000000400",
        "000000000000020000000000000008000000000000000300000000000000190000000000000050000000000000003c00",
        "0000000000000050000000000000003c0000000000000400000000000000140000000000000014000000000000001400",
        "000000000000140000000000000004000000000000000f000000000000000f000000000000000f000000000000000f00",
        "000000000000010000000000000005000000000000000300000000000000000000000000f03f000000000000f43f0000",
        "00000000e83f0000000000000000e00100000000000001000000000000000200000000000000",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn format_3_bytes_are_pinned() {
        for (m, hex) in [(sample(), SAMPLE_HEX), (finished_sample(), FINISHED_SAMPLE_HEX)] {
            let bytes = unhex(hex);
            assert_eq!(Manifest::decode(&bytes).expect("decode"), m);
            assert_eq!(to_bytes(&m), bytes);
        }
    }

    #[test]
    fn a_tag_byte_other_than_0_or_1_is_refused() {
        let mut bytes = to_bytes(&sample());
        let at = REGION_BASE_AT - 1;
        assert_eq!(bytes[at], 0, "the finished flag");
        bytes[at] = 2;
        assert!(matches!(Manifest::decode(&bytes), Err(EmError::InvalidConfig(_))));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = to_bytes(&sample());
        for cut in [0, 1, 8, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn the_region_sits_at_its_fixed_offsets() {
        let bytes = to_bytes(&sample());
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
        let mut bytes = to_bytes(&sample());
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

    /// A manifest's group counts are checked against the geometry on
    /// resume: the region's height must be the sum of the per-bucket
    /// strides the counts give. Four groups of four blocks over four
    /// buckets and drives take one track a bucket, four in all; the one
    /// stride that format 4 stored for every bucket (1) is refused, as is
    /// any height off by one.
    #[test]
    fn a_height_that_disagrees_with_the_counts_is_refused() {
        let geom = crate::msg::MsgGeometry::new(16, 4, 512, 4, 256, 4).unwrap();
        let whole = GroupCounts { base: 6, ..GroupCounts::compute(&geom, vec![4, 4, 4, 4]) };
        assert_eq!((whole.height, &whole.prefix_in_bucket[..]), (4, &[0, 0, 0, 0][..]));
        let through_manifest = |counts: GroupCounts| {
            let bytes = to_bytes(&Manifest { counts, ..sample() });
            Manifest::decode(&bytes)
                .expect("the codec does not check heights")
                .counts
                .resolve(&geom)
        };
        assert_eq!(through_manifest(whole.clone()).unwrap(), whole);
        for height in [1, 3, 5] {
            let bad = GroupCounts { height, ..whole.clone() };
            assert!(
                matches!(through_manifest(bad), Err(EmError::InvalidConfig(_))),
                "height {height}"
            );
        }
    }

    /// A directory checkpointed in format 4 — whose region word was one
    /// stride for every bucket — is refused by resume with a typed error,
    /// not read as format 5.
    #[test]
    fn a_format_4_frame_is_refused_on_resume() {
        use crate::test_programs::Diffuse;
        use crate::{EmMachine, SeqEmSimulator};
        let dir = std::env::temp_dir().join(format!("em-ckpt-format-4-{}", std::process::id()));
        let prog = Diffuse { rounds: 4 };
        let sim = SeqEmSimulator::new(EmMachine::uniprocessor(256, 2, 64, 1))
            .with_seed(9)
            .with_file_backend(&dir)
            .with_checkpointing(true);
        let killed = sim.clone().with_kill_point(KillPoint::AtBarrier(2)).run(&prog, vec![1; 16]);
        assert!(matches!(killed, Err(EmError::Killed { .. })));
        let store = em_disk::CheckpointStore::attach(&dir).unwrap();
        let mut restamped = 0;
        for step in 0..=3 {
            let path = store.manifest_path(step);
            let Ok(mut bytes) = std::fs::read(&path) else { continue };
            // Version word at 8..12, CRC over everything after the magic.
            bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
            let body = bytes.len() - 4;
            let crc = em_disk::crc32(&bytes[8..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            restamped += 1;
        }
        assert_eq!(restamped, 2, "two manifests are kept");
        assert!(matches!(sim.resume(&prog), Err(EmError::InvalidConfig(_))));
        std::fs::remove_dir_all(&dir).ok();
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
