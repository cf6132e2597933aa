//! Algorithm 2 — `SimulateRouting`: reorganize the scratch message blocks
//! written during the superstep into each destination group's
//! consecutive, fully-striped place in the superstep's final region.
//!
//! **Space** comes from the superstep's own traffic, in two bands. When
//! routing starts every group's block count is known, so it first reserves
//! the final region — one stride of `⌈bucket_total / D⌉` tracks per bucket,
//! stacked (see [`crate::msg`], "Buckets and regions") — first fit at or
//! above the superstep's lowest scratch track, counting the scratch tracks
//! as free: Step 1 reads every scratch block before Step 2 writes the
//! region. It then takes one staging track per block on one of its
//! bucket's drives, the lowest free ones, which is where the fetched final
//! region was. Scratch tracks outside the region are freed after Step 1
//! and staging tracks after Step 2, so between supersteps only the final
//! region is held. The final region the superstep's messages were fetched
//! from is the caller's to release: the simulators release it just before
//! routing, so staging reuses its tracks, or — in a run that keeps its
//! barriers intact — only once the barrier commits; either way the new
//! region lands only on tracks the barrier left free or the superstep's
//! own scratch tracks.
//!
//! **Step 1** (gather per bucket): in parallel rounds `j = 0, 1, …`, read
//! one block of bucket `d` from disk `(d + j) mod D` (a bijection in `d`,
//! hence a legal stripe) and write the fetched blocks back one bucket per
//! disk: the block of bucket `d` with in-bucket rank `r` (prefix of its
//! group + `gseq`) goes onto rank `r`'s staging track on disk `d`. With
//! fewer buckets than disks, bucket `d` owns disks `d, d + num_buckets,
//! …` and stages its ranks on them round-robin, so no drive holds a whole
//! bucket (on `listrank-par`, one bucket, that was a whole superstep's
//! blocks on disk 0). Buckets own disjoint disks, so a round's one block
//! per bucket is still a legal stripe. If a
//! bucket has no remaining block on the designated disk, its slot idles
//! that round — this is exactly the imbalance that Lemma 2 bounds with
//! high probability, and it is visible in the measured operation counts.
//!
//! **Step 2** (scatter to final format): in rounds `j`, read the `j`-th
//! staged block of every bucket `d` in parallel and write it to disk
//! `(d + j) mod D`, track `base + row_d + ⌊j/D⌋`, `row_d` the strides of
//! the buckets before `d` — the paper's rotation,
//! which simultaneously (a) never collides within a round and (b) leaves
//! every group's blocks consecutive and striped round-robin (standard
//! consecutive format, Figure 2).
//!
//! # Plans, then moves
//!
//! Both steps are executed from **per-bucket plans** — the complete
//! `(round, read location, write location)` schedule of every block —
//! built first and then *applied* by a loop that does nothing but gather
//! the precomputed locations of the next rounds and hand them to the array
//! as one move. The schedule is closed-form, not a cursor scan: Step 1
//! probes pile `(b, (b+j) mod D)` at round `j` and consumes its next entry
//! on a hit, piles never grow, and a pile is probed exactly every `D`
//! rounds — so entry `c` of pile `(b, dd)` is consumed at exactly round
//! `((dd − b) mod D) + c·D`. Every entry is scheduled at a finite round up
//! front, so non-termination is impossible rather than merely detected.
//!
//! # Moving, not making (DESIGN.md §3.2.5)
//!
//! A round is one read stripe and one write stripe of the same blocks, and
//! neither step looks inside a block. So the rounds are not issued one by
//! one: a **window** of consecutive rounds goes to
//! [`DiskArray::move_batch`] — all of the window's reads, then all of its
//! writes, counted as the `2 ·` rounds parallel operations they are —
//! through at most [`WINDOW_BLOCKS`] `B`-byte buffers borrowed from the
//! caller's pool for the duration of the call. Reading a window ahead of
//! its writes is safe because each step reads one set of tracks and writes
//! another: Step 1 reads scratch tracks and writes staging tracks, which
//! were taken while the scratch tracks and the region were held, so they
//! lie clear of both; Step 2 reads the staging tracks and writes the final
//! region, which covers scratch tracks only — all read by then, as Step 1
//! ended before Step 2 began.

use crate::context_store::BufferPool;
use crate::msg::{GroupCounts, MsgGeometry, ScratchState};
use crate::EmResult;
use em_disk::{DiskArray, TrackAllocator};

/// Observability record of one routing invocation (drives the Figure 2
/// trace experiment and the ablation benches).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTrace {
    /// Rounds used by Step 1 (`≥ ⌈R_max⌉` where `R_max` is the largest
    /// bucket-per-disk pile; equals `total/D` under perfect balance).
    pub step1_rounds: usize,
    /// Rounds used by Step 2 (max staged blocks per disk).
    pub step2_rounds: usize,
    /// Blocks moved (each is read+written twice across the two steps).
    pub blocks: usize,
    /// Read slots that idled in Step 1 because the designated disk had no
    /// block of the bucket left — the measurable imbalance cost.
    pub idle_slots: usize,
    /// Empirical Lemma 2 balance factor of the scratch distribution
    /// (worst bucket-on-disk load over its even share `R/D`).
    pub balance_factor: f64,
}

/// One scheduled block move: read `read` at round `round`, write it to
/// `write` in the same round's write stripe. Plans hold one entry per
/// block, sorted by round (rounds are unique within a bucket).
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    round: usize,
    read: (usize, usize),
    write: (usize, usize),
}

/// Most blocks one [`DiskArray::move_batch`] carries: the buffers routing
/// borrows, and so the memory Algorithm 2 holds beyond its plans. The paper
/// needs `O(D·B)` — one round; the window is a constant number of blocks
/// more, never more than one group's message budget (which the Fetching
/// Phase holds in memory anyway) and never less than one round.
pub(crate) const WINDOW_BLOCKS: usize = 64;

/// Reusable bookkeeping for [`simulate_routing`]: the per-bucket plan
/// buffers, staging tracks and the location lists of the window being
/// moved.
///
/// The simulators keep one per run next to their [`BufferPool`]s, so
/// steady-state routing stops allocating fresh scratch each superstep.
/// Like the pool it caches only *capacity*, never content — every call
/// re-derives all state from its inputs, so recovery replay needs no
/// snapshot of it and an empty default is always valid.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    /// Per-bucket plan buffers.
    plans: Vec<Vec<PlanEntry>>,
    /// Per-bucket cursors into the sorted plans during round assembly.
    plan_cursors: Vec<usize>,
    /// Per bucket, the staging track of each in-bucket rank, on drive
    /// [`stage_drive`] of the rank.
    stage: Vec<Vec<usize>>,
    /// The window's rounds: how many blocks each moves.
    stripes: Vec<usize>,
    /// Where every block of the window is read, round by round.
    from: Vec<(usize, usize)>,
    /// Where each is written, aligned with `from`.
    to: Vec<(usize, usize)>,
}

impl RoutingScratch {
    /// An empty scratch; capacity grows on first use and is then reused.
    pub fn new() -> Self {
        RoutingScratch::default()
    }
}

/// The drive bucket `bucket` of `nb` stages its block of in-bucket rank
/// `rank` on, with `d` drives: the bucket owns drives `bucket, bucket + nb,
/// …` below `d` — drive `bucket` alone when `nb = d` — and takes them
/// round-robin by rank.
fn stage_drive(bucket: usize, rank: usize, nb: usize, d: usize) -> usize {
    bucket + rank % (d - bucket).div_ceil(nb) * nb
}

/// Every scratch block's `(disk, track)`.
fn scratch_tracks(scratch: &ScratchState) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    scratch.refs.iter().flat_map(|per_disk| {
        per_disk
            .iter()
            .enumerate()
            .flat_map(|(disk, refs)| refs.iter().map(move |r| (disk, r.track)))
    })
}

/// Apply the plans' rounds in order. Per round the due entry of every
/// bucket is gathered in bucket order — exactly the serial probe order —
/// as one read stripe and one write stripe; rounds are gathered for as long
/// as the next one is sure to fit the lent buffers, and the window is then
/// moved in one call. Returns the number of non-empty rounds. Purely
/// mechanical: every decision was made in the plans, so the loop body is
/// identical for both routing steps.
fn move_rounds(
    disks: &mut DiskArray,
    plans: &[Vec<PlanEntry>],
    routing: &mut RoutingScratch,
    lent: &mut [Vec<u8>],
) -> EmResult<usize> {
    let total: usize = plans.iter().map(Vec::len).sum();
    debug_assert!(lent.len() >= plans.len().min(total), "a round must fit the lent buffers");
    routing.plan_cursors.clear();
    routing.plan_cursors.resize(plans.len(), 0);
    let mut moved = 0usize;
    let mut rounds = 0usize;
    let mut j = 0usize;
    while moved < total {
        routing.stripes.clear();
        routing.from.clear();
        routing.to.clear();
        // A round moves at most one block per bucket, and no more than
        // are left.
        while routing.from.len() + plans.len().min(total - moved) <= lent.len() && moved < total {
            let gathered = routing.from.len();
            for (bucket, plan) in plans.iter().enumerate() {
                let cur = routing.plan_cursors[bucket];
                if let Some(e) = plan.get(cur) {
                    if e.round == j {
                        routing.plan_cursors[bucket] = cur + 1;
                        routing.from.push(e.read);
                        routing.to.push(e.write);
                    }
                }
            }
            j += 1;
            if routing.from.len() > gathered {
                routing.stripes.push(routing.from.len() - gathered);
                moved += routing.from.len() - gathered;
            }
        }
        rounds += routing.stripes.len();
        disks.move_batch(&routing.stripes, &routing.from, &routing.to, lent)?;
    }
    Ok(rounds)
}

/// Run Algorithm 2, consuming the superstep's scratch state and returning
/// the [`GroupCounts`] that the next superstep's Fetching Phase will use,
/// their final region reserved in `alloc`.
///
/// `routing` carries the bookkeeping capacity across supersteps. `pool`
/// lends the `B`-byte buffers the blocks travel through: one window's
/// worth (at most 64; fewer when the superstep or a group's message budget
/// is smaller) is taken when the call starts and handed back when it ends.
/// Afterwards the pool therefore holds at most one window more than before,
/// however many blocks were moved, and a pool that already held a window
/// makes routing allocation-free per block. The simulators lend the pool
/// their message blocks are cut from, whose buffers are `B` bytes already.
///
/// `_compute` selects nothing: only `None` inhabits it. The parameter
/// remains because the benchmark's ladder passes `None` there (ROADMAP,
/// "For the next `[benchmark]` PR").
pub fn simulate_routing(
    disks: &mut DiskArray,
    alloc: &mut TrackAllocator,
    geom: &MsgGeometry,
    mut scratch: ScratchState,
    routing: &mut RoutingScratch,
    pool: &mut BufferPool,
    _compute: Option<&std::convert::Infallible>,
) -> EmResult<(GroupCounts, RoutingTrace)> {
    let d = geom.num_disks;
    let nb = geom.num_buckets;
    let balance_factor = scratch.balance_factor();
    let mut counts = GroupCounts::compute(geom, std::mem::take(&mut scratch.counts));
    let total = counts.total();
    let mut trace = RoutingTrace { balance_factor, blocks: total, ..Default::default() };
    if total == 0 {
        return Ok((counts, trace));
    }

    // Space for this superstep's blocks. The final region first, over the
    // scratch tracks — Step 1 reads every one of them before Step 2 writes
    // the region — at or above the lowest of them; then a staging track per
    // block on one of its bucket's drives, the lowest free ones, clear of
    // both.
    counts.base = alloc.reserve_region_over(counts.height, scratch_tracks(&scratch));
    let mut stage = std::mem::take(&mut routing.stage);
    stage.resize_with(nb, Vec::new);
    for (bucket, tracks) in stage.iter_mut().enumerate() {
        tracks.clear();
        tracks.extend(
            (0..counts.bucket_total(geom, bucket))
                .map(|rank| alloc.alloc_track(stage_drive(bucket, rank, nb, d))),
        );
    }

    // Borrow the window's buffers for both steps.
    let window = WINDOW_BLOCKS.min(geom.max_blocks_per_group).max(nb).min(total);
    let mut lent: Vec<Vec<u8>> = (0..window)
        .map(|_| {
            let mut buf = pool.take();
            buf.resize(geom.block_bytes, 0);
            buf
        })
        .collect();

    // ---- Step 1: gather bucket d onto its disks, rank-ordered. ----
    // Per-bucket closed-form plans: entry `c` of pile `(bucket, dd)` is
    // consumed at round `((dd − bucket) mod D) + c·D` (see the module
    // docs), reads its scratch track and writes the bucket's staging track
    // of its in-bucket rank. Rounds are unique within a bucket — distinct
    // piles occupy distinct residue classes mod D — so the per-bucket sort
    // fully determines the order.
    let mut plans = std::mem::take(&mut routing.plans);
    plans.resize_with(nb, Vec::new);
    for (bucket, plan) in plans.iter_mut().enumerate() {
        plan.clear();
        for (dd, refs) in scratch.refs[bucket].iter().enumerate() {
            let off = (dd + d - bucket % d) % d;
            for (c, r) in refs.iter().enumerate() {
                let rank = counts.prefix_in_bucket[r.group as usize] + r.gseq as usize;
                plan.push(PlanEntry {
                    round: off + c * d,
                    read: (dd, r.track),
                    write: (stage_drive(bucket, rank, nb, d), stage[bucket][rank]),
                });
            }
        }
        plan.sort_unstable_by_key(|e| e.round);
    }
    // Step 1 ends right after the round consuming the last block, having
    // probed every bucket once per round up to there.
    let j_last = plans.iter().filter_map(|p| p.last()).map(|e| e.round).max().unwrap_or(0);
    trace.step1_rounds = move_rounds(disks, &plans, routing, &mut lent)?;
    trace.idle_slots = (j_last + 1) * nb - total;

    // Scratch tracks outside the final region are free again.
    let region = counts.base..counts.base + counts.height;
    alloc.free_tracks(scratch_tracks(&scratch).filter(|(_, track)| !region.contains(track)));

    // ---- Step 2: rotate staged blocks into the final striped region. ----
    // The bucket's `j`-th staged block moves in round `j` from its staging
    // track to its final location.
    for (bucket, plan) in plans.iter_mut().enumerate() {
        plan.clear();
        plan.extend(stage[bucket].iter().enumerate().map(|(j, &track)| PlanEntry {
            round: j,
            read: (stage_drive(bucket, j, nb, d), track),
            write: counts.final_location(geom, bucket, j),
        }));
    }
    trace.step2_rounds = move_rounds(disks, &plans, routing, &mut lent)?;
    // Staging tracks are free again. Hand the plan and staging buffers
    // back for the next superstep, and the borrowed blocks to their pool.
    for (bucket, tracks) in stage.iter().enumerate() {
        for (rank, &track) in tracks.iter().enumerate() {
            alloc.free_track(stage_drive(bucket, rank, nb, d), track);
        }
    }
    routing.plans = plans;
    routing.stage = stage;
    pool.put_all(lent);

    Ok((counts, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::owned::{fetch_group, Owned};
    use crate::msg::{scatter_messages, OutMsg, Placement, RawBlock};
    use em_disk::DiskConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn setup(
        v: usize,
        k: usize,
        gamma: usize,
        d: usize,
        b: usize,
    ) -> (DiskArray, TrackAllocator, MsgGeometry) {
        let mut alloc = TrackAllocator::new(d);
        let geom = MsgGeometry::allocate(&mut alloc, v, k, gamma, d, b).unwrap();
        let disks = DiskArray::new_memory(DiskConfig::new(d, b).unwrap());
        (disks, alloc, geom)
    }

    /// End-to-end: scatter from several source groups, route, fetch every
    /// group, and verify the multiset of messages survives exactly.
    #[test]
    fn scatter_route_fetch_round_trip() {
        let (mut disks, mut alloc, geom) = setup(16, 2, 2000, 4, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(42);

        let mut sent: Vec<(u32, u32, u32, Vec<u8>)> = Vec::new();
        for src_group in 0..geom.num_groups {
            let mut msgs = Vec::new();
            for t in 0..20u32 {
                let src = (src_group * geom.k) as u32 + (t % geom.k as u32);
                let dst = ((src as usize * 7 + t as usize * 3) % geom.v) as u32;
                let payload = vec![(src_group * 16 + t as usize) as u8; (t as usize % 37) + 1];
                sent.push((dst, src, t, payload.clone()));
                msgs.push(OutMsg { dst, src, seq: t, payload });
            }
            scatter_messages(
                &mut disks,
                &mut alloc,
                &geom,
                &mut scratch,
                src_group,
                msgs,
                &mut rng,
                Placement::Random,
            )
            .unwrap();
        }

        let mut routing = RoutingScratch::new();
        let mut pool = BufferPool::new();
        let (counts, trace) =
            simulate_routing(&mut disks, &mut alloc, &geom, scratch, &mut routing, &mut pool, None)
                .unwrap();
        assert!(trace.blocks > 0);
        assert!(trace.step1_rounds >= trace.blocks.div_ceil(geom.num_disks));
        // One window was borrowed and handed back, however many blocks moved.
        assert!(trace.blocks > WINDOW_BLOCKS, "{} blocks", trace.blocks);
        assert_eq!(pool.len(), WINDOW_BLOCKS.min(geom.max_blocks_per_group));

        let mut got = fetch_every_group(&mut disks, &geom, &counts);
        sent.sort();
        got.sort();
        assert_eq!(sent, got);
    }

    /// Every group's messages, read back in group order; each one's `dst`
    /// must lie in the group it was read for.
    fn fetch_every_group(
        disks: &mut DiskArray,
        geom: &MsgGeometry,
        counts: &GroupCounts,
    ) -> Vec<Owned> {
        let mut got = Vec::new();
        for g in 0..geom.num_groups {
            for m in fetch_group(disks, geom, counts, g).unwrap() {
                assert_eq!(geom.group_of(m.0 as usize), g);
                got.push(m);
            }
        }
        got
    }

    /// Multiset preservation through the full message machinery, for
    /// arbitrary message sets, sizes and placements, on 64 seeded cases; a
    /// failing case prints the seed that reproduces it.
    #[test]
    fn scatter_route_fetch_preserves_messages() {
        struct Seed(u64);
        impl Drop for Seed {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("failing case: StdRng::seed_from_u64({:#x})", self.0);
                }
            }
        }
        for case in 0..64 {
            let seed = Seed(0x51A1 ^ case);
            let case = &mut StdRng::seed_from_u64(seed.0);
            // Up to 60 messages `(dst, src, payload)` of up to 80 bytes.
            let msgs: Vec<(u32, u32, Vec<u8>)> = (0..case.gen_range(0..60usize))
                .map(|_| {
                    let (dst, src) = (case.gen_range(0..16u32), case.gen_range(0..16u32));
                    let payload = (0..case.gen_range(0..80usize)).map(|_| case.next_u32() as u8);
                    (dst, src, payload.collect())
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(case.next_u64());
            let placement =
                if case.next_u32() & 1 == 1 { Placement::Random } else { Placement::RoundRobin };

            let (mut disks, mut alloc, geom) = setup(16, 2, 16 * 1024, 4, 64);
            let mut scratch = ScratchState::new(&geom);
            // Group messages by source group and assign per-source sequence
            // numbers the way the simulator does.
            let mut sent: Vec<Owned> = Vec::new();
            for src_group in 0..geom.num_groups {
                let mut out = Vec::new();
                let mut seq_per_src = std::collections::HashMap::new();
                for (dst, src, payload) in
                    msgs.iter().filter(|&&(_, s, _)| (s as usize) / geom.k == src_group)
                {
                    let seq = seq_per_src.entry(*src).or_insert(0u32);
                    out.push(OutMsg { dst: *dst, src: *src, seq: *seq, payload: payload.clone() });
                    sent.push((*dst, *src, *seq, payload.clone()));
                    *seq += 1;
                }
                scatter_messages(
                    &mut disks,
                    &mut alloc,
                    &geom,
                    &mut scratch,
                    src_group,
                    out,
                    &mut rng,
                    placement,
                )
                .unwrap();
            }

            let (counts, _) = simulate_routing(
                &mut disks,
                &mut alloc,
                &geom,
                scratch,
                &mut RoutingScratch::new(),
                &mut BufferPool::new(),
                None,
            )
            .unwrap();
            let mut got = fetch_every_group(&mut disks, &geom, &counts);
            sent.sort();
            got.sort();
            assert_eq!(got, sent);
        }
    }

    #[test]
    fn empty_superstep_routes_trivially() {
        let (mut disks, mut alloc, geom) = setup(8, 2, 100, 2, 64);
        let scratch = ScratchState::new(&geom);
        let (counts, trace) = simulate_routing(
            &mut disks,
            &mut alloc,
            &geom,
            scratch,
            &mut RoutingScratch::new(),
            &mut BufferPool::new(),
            None,
        )
        .unwrap();
        assert_eq!(counts.total(), 0);
        assert_eq!(trace.step1_rounds, 0);
        assert_eq!(disks.stats().parallel_ops, 0);
    }

    #[test]
    fn deterministic_placement_round_trip() {
        let (mut disks, mut alloc, geom) = setup(8, 2, 1000, 4, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(1);
        let msgs: Vec<OutMsg> = (0..20)
            .map(|i| OutMsg {
                dst: (i % 8) as u32,
                src: 0,
                seq: i as u32,
                payload: vec![i as u8; 25],
            })
            .collect();
        scatter_messages(
            &mut disks,
            &mut alloc,
            &geom,
            &mut scratch,
            0,
            msgs,
            &mut rng,
            Placement::RoundRobin,
        )
        .unwrap();
        let (counts, _) = simulate_routing(
            &mut disks,
            &mut alloc,
            &geom,
            scratch,
            &mut RoutingScratch::new(),
            &mut BufferPool::new(),
            None,
        )
        .unwrap();
        assert_eq!(fetch_every_group(&mut disks, &geom, &counts).len(), 20);
    }

    /// With fewer buckets than drives a bucket's staged blocks go over all
    /// of its drives: one group on four drives holds about a quarter of
    /// the superstep on each drive for scratch, staging and final region,
    /// where staging on the bucket's drive alone put every block there.
    #[test]
    fn one_bucket_stages_over_every_drive() {
        let (mut disks, mut alloc, geom) = setup(4, 4, 20_000, 4, 64);
        assert_eq!(geom.num_buckets, 1);
        let mut scratch = ScratchState::new(&geom);
        let msgs: Vec<OutMsg> = (0..200)
            .map(|i| OutMsg {
                dst: (i % 4) as u32,
                src: 0,
                seq: i as u32,
                payload: vec![i as u8; 30],
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        scatter_messages(
            &mut disks,
            &mut alloc,
            &geom,
            &mut scratch,
            0,
            msgs,
            &mut rng,
            Placement::RoundRobin,
        )
        .unwrap();
        let (counts, trace) = simulate_routing(
            &mut disks,
            &mut alloc,
            &geom,
            scratch,
            &mut RoutingScratch::new(),
            &mut BufferPool::new(),
            None,
        )
        .unwrap();
        let per_drive = trace.blocks.div_ceil(geom.num_disks);
        assert!(trace.blocks > 4 * geom.num_disks, "{} blocks", trace.blocks);
        for disk in 0..geom.num_disks {
            assert!(
                alloc.frontier(disk) <= 3 * per_drive + 1,
                "disk {disk}: {} tracks for {} blocks",
                alloc.frontier(disk),
                trace.blocks
            );
        }
        assert_eq!(fetch_group(&mut disks, &geom, &counts, 0).unwrap().len(), 200);
    }

    /// Routing must leave every group's final blocks in standard
    /// consecutive format (Definition 2) within the message area.
    #[test]
    fn final_layout_is_consecutive_per_bucket() {
        let (_, _, geom) = setup(16, 2, 500, 4, 64);
        let counts = GroupCounts::compute(&geom, vec![3, 2, 4, 1, 0, 5, 2, 3]);
        for bucket in 0..geom.num_buckets {
            let total = counts.bucket_total(&geom, bucket);
            let locs: Vec<(usize, usize)> =
                (0..total).map(|r| counts.final_location(&geom, bucket, r)).collect();
            em_disk::check_consecutive_format(&locs, geom.num_disks)
                .expect("bucket blocks must satisfy Definition 2");
        }
    }

    /// The final region lies over scratch tracks Step 1 consumed and over
    /// tracks free when routing began, never over a staging track or a
    /// track held before routing (the contexts, here a region reserved
    /// first): Step 2 overwrites nothing but blocks already moved. Each
    /// superstep sends the same messages, round-robin, and releases the
    /// region it fetched from before routing, as the simulators do; the
    /// frontier stays within `D` of the first superstep's.
    #[test]
    fn the_final_region_overlaps_only_consumed_scratch_tracks() {
        let (mut disks, mut alloc, geom) = setup(16, 2, 2000, 4, 64);
        let contexts = alloc.reserve_region(3);
        let (mut routing, mut pool) = (RoutingScratch::new(), BufferPool::new());
        let mut counts = GroupCounts::empty(geom.num_groups);
        let mut frontiers = Vec::new();
        for step in 0..8 {
            let mut scratch = ScratchState::new(&geom);
            for src_group in 0..geom.num_groups {
                let msgs: Vec<OutMsg> = (0..12u32)
                    .map(|t| OutMsg {
                        dst: ((src_group * 5 + t as usize * 3) % geom.v) as u32,
                        src: (src_group * geom.k) as u32,
                        seq: t,
                        payload: vec![t as u8; 60],
                    })
                    .collect();
                let mut rng = StdRng::seed_from_u64(step);
                scatter_messages(
                    &mut disks,
                    &mut alloc,
                    &geom,
                    &mut scratch,
                    src_group,
                    msgs,
                    &mut rng,
                    Placement::RoundRobin,
                )
                .unwrap();
            }
            let (fetched_base, fetched_tracks) = counts.region();
            alloc.release_region(fetched_base, fetched_tracks);
            let consumed: std::collections::HashSet<(usize, usize)> =
                scratch_tracks(&scratch).collect();
            let held_before: std::collections::HashSet<(usize, usize)> = (0..geom.num_disks)
                .flat_map(|disk| (0..alloc.frontier(disk)).map(move |t| (disk, t)))
                .filter(|&(disk, t)| alloc.holds(disk, t, 1) && !consumed.contains(&(disk, t)))
                .collect();
            let lowest = consumed.iter().map(|&(_, t)| t).min().unwrap();

            counts = simulate_routing(
                &mut disks,
                &mut alloc,
                &geom,
                scratch,
                &mut routing,
                &mut pool,
                None,
            )
            .unwrap()
            .0;
            let (base, height) = counts.region();
            assert!(
                height > 0 && base >= lowest,
                "step {step}: region at {base}, scratch {lowest}"
            );
            assert!(base >= contexts + 3, "step {step}: the region is over the contexts");
            let staged: std::collections::HashSet<(usize, usize)> = routing
                .stage
                .iter()
                .enumerate()
                .flat_map(|(b, tracks)| {
                    tracks.iter().enumerate().map(move |(rank, &t)| {
                        (stage_drive(b, rank, geom.num_buckets, geom.num_disks), t)
                    })
                })
                .collect();
            let mut over_scratch = 0;
            for disk in 0..geom.num_disks {
                for track in base..base + height {
                    assert!(
                        !staged.contains(&(disk, track)),
                        "step {step}: staging {disk}/{track}"
                    );
                    assert!(
                        !held_before.contains(&(disk, track)),
                        "step {step}: held {disk}/{track}"
                    );
                    over_scratch += consumed.contains(&(disk, track)) as usize;
                }
            }
            assert!(over_scratch > 0, "step {step}: the region missed the scratch band");
            let got = fetch_every_group(&mut disks, &geom, &counts);
            assert_eq!(got.len(), 12 * geom.num_groups, "step {step}");
            frontiers.push(alloc.max_frontier());
        }
        assert!(
            frontiers.iter().all(|&f| f <= frontiers[0] + geom.num_disks),
            "the frontier grew: {frontiers:?}"
        );
    }

    /// Bytes off a disk, mangled: 200 seeded cases each route one
    /// superstep, read one group's blocks back from their final locations
    /// and flip a bit of a block header, cut a block short, drop a block
    /// or repeat one before reassembling them. Each case returns
    /// [`crate::EmError::CorruptMessageStream`] or exactly the messages the
    /// group was sent, and none panics; a failing case prints its seed.
    ///
    /// One loss is out of the reassembler's sight: a dropped block that was
    /// its stream's only one takes the whole stream with it, and nothing in
    /// the remaining blocks says the stream existed. That case must return
    /// exactly the messages sent less the dropped stream's. (A payload bit
    /// is the message's own, so flips stay in the block headers; the
    /// checksummed drive layer below is what sees a payload change.)
    #[test]
    fn mangled_routed_blocks_reassemble_exactly_or_are_corrupt() {
        use crate::msg::fetch_batch_raw_blocks;
        use crate::msg::owned::reassemble;
        use crate::EmError;
        struct Seed(u64);
        impl Drop for Seed {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("failing case: StdRng::seed_from_u64({:#x})", self.0);
                }
            }
        }
        // Per mutation: cases refused as corrupt, and cases read back whole.
        let mut outcomes = [[0usize; 2]; 4];
        for case in 0..200 {
            let seed = Seed(0xB10C ^ case);
            let case = &mut StdRng::seed_from_u64(seed.0);
            let (mut disks, mut alloc, geom) = setup(16, 2, 4000, 4, 64);
            let mut scratch = ScratchState::new(&geom);
            let mut sent: Vec<Owned> = Vec::new();
            let mut rng = StdRng::seed_from_u64(case.next_u64());
            for src_group in 0..geom.num_groups {
                let msgs: Vec<OutMsg> = (1..case.gen_range(2..13u32))
                    .map(|seq| OutMsg {
                        dst: case.gen_range(0..16u32),
                        src: (src_group * geom.k) as u32 + seq % 2,
                        seq,
                        payload: (0..case.gen_range(0..90usize))
                            .map(|_| case.next_u32() as u8)
                            .collect(),
                    })
                    .collect();
                sent.extend(msgs.iter().map(|m| (m.dst, m.src, m.seq, m.payload.clone())));
                scatter_messages(
                    &mut disks,
                    &mut alloc,
                    &geom,
                    &mut scratch,
                    src_group,
                    msgs,
                    &mut rng,
                    Placement::Random,
                )
                .unwrap();
            }
            let (counts, _) = simulate_routing(
                &mut disks,
                &mut alloc,
                &geom,
                scratch,
                &mut RoutingScratch::new(),
                &mut BufferPool::new(),
                None,
            )
            .unwrap();
            // A group that was sent something.
            let group = geom.group_of(sent[case.gen_range(0..sent.len())].0 as usize);
            let pids = group * geom.k..(group + 1) * geom.k;
            let mut blocks =
                fetch_batch_raw_blocks(&mut disks, &geom, &counts, group, &mut BufferPool::new())
                    .unwrap();
            let mut want: Vec<Owned> =
                sent.iter().filter(|m| pids.contains(&(m.0 as usize))).cloned().collect();
            let at = case.gen_range(0..blocks.len());
            let kind = case.gen_range(0..4usize);
            match kind {
                0 => blocks[at].bytes[case.gen_range(0..20usize)] ^= 1 << case.gen_range(0..8u32),
                1 => blocks[at].bytes.truncate(case.gen_range(0..geom.block_bytes)),
                2 => {
                    let dropped = blocks.remove(at);
                    let stream = |b: &RawBlock| b.bytes[..8].to_vec();
                    if !blocks.iter().any(|b| stream(b) == stream(&dropped)) {
                        let lost = reassemble(&[dropped], pids.clone()).unwrap();
                        want.retain(|m| !lost.contains(m));
                    }
                }
                _ => {
                    let copy = blocks[at].clone();
                    blocks.insert(case.gen_range(0..=blocks.len()), copy);
                }
            }
            match reassemble(&blocks, pids) {
                Err(EmError::CorruptMessageStream { .. }) => outcomes[kind][0] += 1,
                Ok(mut got) => {
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "mutation {kind}");
                    outcomes[kind][1] += 1;
                }
                Err(other) => panic!("mutation {kind}: {other}"),
            }
        }
        // Every mutation was drawn, and a dropped or repeated block is
        // caught at least once.
        assert!(outcomes.iter().all(|o| o[0] + o[1] > 0), "{outcomes:?}");
        assert!(outcomes[2][0] > 0 && outcomes[3][0] > 0, "{outcomes:?}");
    }

    /// Scratch and staging tracks are recycled after routing, each
    /// superstep's final region is released before the next one's routing,
    /// as the simulators release it, and the borrowed buffers are handed
    /// back: repeated supersteps grow neither the disk nor the pool.
    #[test]
    fn scratch_space_is_reused_across_supersteps() {
        let (mut disks, mut alloc, geom) = setup(8, 2, 1000, 4, 64);
        let mut rng = StdRng::seed_from_u64(3);
        let mut frontier_after_first = 0;
        let mut routing = RoutingScratch::new();
        let mut pool = BufferPool::new();
        let mut pool_len = Vec::new();
        let mut counts = GroupCounts::empty(geom.num_groups);
        for round in 0..5 {
            let mut scratch = ScratchState::new(&geom);
            let msgs: Vec<OutMsg> = (0..16)
                .map(|i| OutMsg {
                    dst: (i % 8) as u32,
                    src: 0,
                    seq: i as u32,
                    payload: vec![0u8; 30],
                })
                .collect();
            scatter_messages(
                &mut disks,
                &mut alloc,
                &geom,
                &mut scratch,
                0,
                msgs,
                &mut rng,
                Placement::Random,
            )
            .unwrap();
            let (fetched_base, fetched_tracks) = counts.region();
            alloc.release_region(fetched_base, fetched_tracks);
            counts = simulate_routing(
                &mut disks,
                &mut alloc,
                &geom,
                scratch,
                &mut routing,
                &mut pool,
                None,
            )
            .unwrap()
            .0;
            // Between supersteps only the final region is held.
            let (base, tracks) = counts.region();
            for disk in 0..geom.num_disks {
                assert!(alloc.holds(disk, base, tracks));
                assert_eq!(alloc.held_tracks(disk), tracks, "round {round}, disk {disk}");
            }
            if round == 0 {
                frontier_after_first = alloc.max_frontier();
            }
            pool_len.push(pool.len());
        }
        assert!(pool_len[1] > 0 && pool_len[1] <= WINDOW_BLOCKS);
        assert_eq!(pool_len[4], pool_len[1], "the pool grew with supersteps: {pool_len:?}");
        // Frontier may wobble by a few tracks due to random placement, but
        // must not grow linearly with rounds.
        assert!(
            alloc.max_frontier() <= frontier_after_first + geom.num_disks * 4,
            "scratch area grew: {} -> {}",
            frontier_after_first,
            alloc.max_frontier()
        );
    }
}
