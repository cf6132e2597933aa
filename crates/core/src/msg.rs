//! Message storage: the Writing Phase (Algorithm 1, Step 1(d)) and the
//! Fetching Phase (Step 1(b)).
//!
//! ## On-disk format
//!
//! Messages generated by the virtual processors of one *source group* for
//! the virtual processors of one *destination group* are serialized into a
//! byte stream of envelopes
//!
//! ```text
//! dst_pid: u32 | src_pid: u32 | seq: u32 | len: u32 | payload[len]
//! ```
//!
//! and the stream is cut into blocks of `B - 20` payload bytes. Every
//! block carries a 20-byte header
//!
//! ```text
//! dst_group: u32 | src_group: u32 | stream_seq: u32 | gseq: u32 | len: u32
//! ```
//!
//! where `stream_seq` orders the blocks of one (source → destination)
//! stream for reassembly and `gseq` is the block's running index among
//! *all* blocks generated for `dst_group` this superstep — the paper's
//! "each block inherits the destination address from its original
//! message", refined so the reorganization step can give every block a
//! deterministic final slot without writing dummy blocks.
//!
//! ## In memory: the stream set
//!
//! Between the virtual processors and the disks a round's outgoing
//! messages are one [`StreamSet`]: per destination tag, the envelope byte
//! stream above, already in the bytes it will have on disk. The Computing
//! Phase *appends* — each message is written once, header and payload,
//! onto the stream of its destination's tag, in `(src, seq)` order because
//! that is the order the virtual processors run and send in — and the
//! Writing Phase *cuts*: [`StreamSet::cut`] copies each stream, tags
//! ascending, in spans of `B - 20` bytes behind block headers. Nothing is
//! sorted, indexed or allocated per message. What a set keeps between
//! rounds is bounded by the round it last cut, not by the largest it ever
//! saw (see [`StreamSet::cut`]).
//!
//! On the way back [`reassemble_blocks`] sorts the blocks' keys,
//! concatenates one stream at a time and hands each envelope it finds to a
//! visitor; the simulators' visitor (`compute::fill_inboxes`) decodes it
//! straight into its virtual processor's inbox. There is no intermediate
//! form in either direction. [`OutMsg`] — one owned payload per message —
//! is what [`scatter_messages`] takes at the crate's public edge, a thin
//! adapter onto the same set. The read side has no owned form:
//! [`fetch_batch_raw_blocks`] returns blocks, and a visitor of
//! [`reassemble_blocks`] is the only way to their messages.
//!
//! Everything [`reassemble_blocks`] reads came off a disk: a lost or
//! repeated block, a stream that stops inside an envelope and a message
//! for a virtual processor the blocks were not read for are each a typed
//! [`EmError::CorruptMessageStream`], never a mis-parse.
//!
//! ## Block buffers
//!
//! A block is a `B`-byte `Vec` from the simulating worker's block pool
//! from the moment it is cut or read to the moment it is stored or its
//! messages delivered: the cutter takes one per block, the store hands each
//! to the array as the track's bytes and puts it back, and the Fetching
//! Phase lends one per block it reads ([`fetch_batch_raw_blocks`] returns
//! the blocks in them) and puts them back once the round's inboxes are
//! filled. At `p ≥ 2` a block crosses workers twice a round — cut on one
//! and stored on another, read on one and delivered on another — and joins
//! the pool of whichever puts it back.
//!
//! ## Buckets and regions
//!
//! Destination groups are assigned contiguously to `min(D, groups)`
//! buckets; bucket `i` holds the blocks destined for consecutive groups —
//! the paper's "each bucket contains the blocks destined for `v/D`
//! consecutive virtual processors". Scratch blocks are scattered over the
//! disks with a fresh random permutation per write cycle (Step 1(d)), each
//! on the drive's lowest free track; [`crate::routing::simulate_routing`]
//! later moves them into the superstep's *final region*, bucket-major and
//! striped: the block of bucket `d` with in-bucket rank `r` lands on disk
//! `(d + r) mod D`, track `base + row_d + ⌊r/D⌋` — exactly the placement of
//! Algorithm 2, Step 2, with bucket `d`'s rows starting at `row_d`, the
//! strides of the buckets before it.
//!
//! The region is sized from the superstep's traffic, not from γ: routing
//! knows every group's block count when it starts, so each bucket's stride
//! is its own blocks over `D`, rounded up, and the region's height is their
//! sum — not `num_buckets` strides of the fullest bucket, which on `sort`'s
//! 13 groups over 4 buckets (split 4 / 4 / 4 / 1) would reserve a full
//! stride for the bucket of one group. [`GroupCounts::compute`] works out
//! the rows once. Routing reserves the region over the superstep's scratch
//! tracks (see [`crate::routing`], "Space"). Its `(base, height)` travel in
//! the [`GroupCounts`] the next superstep's Fetching Phase reads, and the
//! simulators release it once the blocks were fetched; a barrier
//! manifest carries them too, and resume recomputes the rows and refuses a
//! height that disagrees with the counts. [`MsgGeometry`] itself reserves
//! nothing: it is the superstep-independent shape (groups, buckets, block
//! payload and the γ bound each group's blocks are checked against).

use crate::context_store::BufferPool;
use crate::{EmError, EmResult};
use em_bsp::BspError;
use em_disk::{DiskArray, TrackAllocator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::ops::Range;

/// Bytes of the per-block header.
pub const BLOCK_HEADER_BYTES: usize = 20;
/// Bytes of the per-message envelope header.
pub const MSG_HEADER_BYTES: usize = 16;

/// How scratch blocks are assigned to disks during the Writing Phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// A fresh uniformly random permutation of the disks per write cycle —
    /// the paper's randomized scheme (Lemma 2 guarantees balance whp).
    Random,
    /// Deterministic rotation — the deterministic variant the paper notes
    /// is possible "for communication of predetermined size, such as
    /// occurs in a CGM".
    RoundRobin,
}

/// Shape of the message areas for one simulating processor: groups,
/// buckets and the per-group block bound. Where a superstep's blocks lie
/// is its [`GroupCounts`]' business.
#[derive(Debug, Clone)]
pub struct MsgGeometry {
    /// Virtual processors simulated by this processor.
    pub v: usize,
    /// Virtual processors per destination unit (group).
    pub k: usize,
    /// `v/k` rounded up.
    pub num_groups: usize,
    /// `min(D, num_groups)`.
    pub num_buckets: usize,
    /// Groups per bucket (`⌈num_groups/num_buckets⌉`).
    pub groups_per_bucket: usize,
    /// `D`.
    pub num_disks: usize,
    /// `B` in bytes.
    pub block_bytes: usize,
    /// Message payload bytes per block (`B - 20`).
    pub payload_cap: usize,
    /// Upper bound on blocks destined for one group per superstep.
    pub max_blocks_per_group: usize,
}

impl MsgGeometry {
    /// The geometry of Algorithm 1: one partially-filled block per source
    /// group. `alloc` is not touched — routing reserves each superstep's
    /// final region from its traffic — and stays in the signature for the
    /// callers that pass one.
    ///
    /// `gamma` is the per-virtual-processor communication bound γ in
    /// envelope bytes (payload + 16-byte header per message).
    pub fn allocate(
        _alloc: &mut TrackAllocator,
        v: usize,
        k: usize,
        gamma: usize,
        num_disks: usize,
        block_bytes: usize,
    ) -> EmResult<Self> {
        let num_groups = v.div_ceil(k).max(1);
        Self::new(v, k, gamma, num_disks, block_bytes, num_groups)
    }

    /// The geometry with an explicit bound on the number of
    /// partially-filled blocks a group can accumulate per superstep (the
    /// parallel simulator has one partial block per (producer-slot,
    /// owner) stream rather than one per source group).
    pub fn new(
        v: usize,
        k: usize,
        gamma: usize,
        num_disks: usize,
        block_bytes: usize,
        partial_slack: usize,
    ) -> EmResult<Self> {
        if block_bytes <= BLOCK_HEADER_BYTES {
            return Err(EmError::InvalidConfig(format!(
                "block size {block_bytes} cannot hold a {BLOCK_HEADER_BYTES}-byte header"
            )));
        }
        let payload_cap = block_bytes - BLOCK_HEADER_BYTES;
        let num_groups = v.div_ceil(k).max(1);
        let num_buckets = num_disks.min(num_groups);
        let groups_per_bucket = num_groups.div_ceil(num_buckets);
        // A group receives at most k·γ envelope bytes, plus the declared
        // number of partially-filled stream-tail blocks.
        let max_blocks_per_group = (k * gamma).div_ceil(payload_cap) + partial_slack;
        Ok(MsgGeometry {
            v,
            k,
            num_groups,
            num_buckets,
            groups_per_bucket,
            num_disks,
            block_bytes,
            payload_cap,
            max_blocks_per_group,
        })
    }

    /// Destination group of a virtual processor.
    #[inline]
    pub fn group_of(&self, pid: usize) -> usize {
        pid / self.k
    }

    /// Bucket of a destination group (contiguous assignment).
    #[inline]
    pub fn bucket_of(&self, group: usize) -> usize {
        group / self.groups_per_bucket
    }

    /// The groups of `bucket` (none for a trailing bucket past the last).
    fn groups_of(&self, bucket: usize) -> Range<usize> {
        let first = (bucket * self.groups_per_bucket).min(self.num_groups);
        first..((bucket + 1) * self.groups_per_bucket).min(self.num_groups)
    }
}

/// Per-group block counts of one superstep, with per-bucket prefix offsets
/// and the final region the blocks were routed into; everything the
/// Fetching Phase needs to locate a group's blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCounts {
    /// Blocks generated for each group.
    pub counts: Vec<usize>,
    /// In-bucket rank of each group's first block.
    pub prefix_in_bucket: Vec<usize>,
    /// Base track of the final region: `height` consecutive tracks on
    /// every drive.
    pub base: usize,
    /// Tracks per drive of the final region: the sum over buckets of each
    /// bucket's blocks over `D`, rounded up.
    pub height: usize,
    /// Per bucket, the region row its blocks start at: the strides of the
    /// buckets before it. Derived from `counts`; a manifest does not carry
    /// it.
    pub(crate) bucket_row: Vec<usize>,
}

// Checkpoint format 5, the region first: a barrier manifest keeps it at a
// fixed offset. The bucket rows are not stored; resume recomputes them from
// the counts and refuses a height that disagrees (`GroupCounts::resolve`).
impl em_serial::Serial for GroupCounts {
    fn encoded_len(&self) -> usize {
        self.base.encoded_len()
            + self.height.encoded_len()
            + self.counts.encoded_len()
            + self.prefix_in_bucket.encoded_len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.base.encode(buf);
        self.height.encode(buf);
        self.counts.encode(buf);
        self.prefix_in_bucket.encode(buf);
    }

    fn decode(r: &mut em_serial::Reader<'_>) -> Result<Self, em_serial::DecodeError> {
        Ok(GroupCounts {
            base: usize::decode(r)?,
            height: usize::decode(r)?,
            counts: Vec::decode(r)?,
            prefix_in_bucket: Vec::decode(r)?,
            bucket_row: Vec::new(),
        })
    }
}

impl GroupCounts {
    /// No messages at all (superstep 0), and no region.
    pub fn empty(num_groups: usize) -> Self {
        GroupCounts {
            counts: vec![0; num_groups],
            prefix_in_bucket: vec![0; num_groups],
            base: 0,
            height: 0,
            bucket_row: Vec::new(),
        }
    }

    /// Prefix offsets, each bucket's row in the region and the region's
    /// height from raw counts. The region is not reserved yet: `base` is 0
    /// until routing sets it.
    pub fn compute(geom: &MsgGeometry, counts: Vec<usize>) -> Self {
        debug_assert_eq!(counts.len(), geom.num_groups);
        let mut prefix_in_bucket = vec![0usize; counts.len()];
        let mut bucket_row = Vec::with_capacity(geom.num_buckets);
        let mut height = 0;
        for b in 0..geom.num_buckets {
            let mut acc = 0usize;
            for g in geom.groups_of(b) {
                prefix_in_bucket[g] = acc;
                acc += counts[g];
            }
            bucket_row.push(height);
            height += acc.div_ceil(geom.num_disks);
        }
        GroupCounts { counts, prefix_in_bucket, base: 0, height, bucket_row }
    }

    /// Counts as a barrier manifest carries them, checked against `geom`
    /// and given back whole: the prefixes and the region's height must be
    /// the ones the counts give, and the region keeps its base.
    pub(crate) fn resolve(&self, geom: &MsgGeometry) -> EmResult<Self> {
        let inconsistent = |what: &str| {
            Err(EmError::InvalidConfig(format!("checkpoint manifest is inconsistent: {what}")))
        };
        if self.counts.len() != geom.num_groups
            || self.prefix_in_bucket.len() != geom.num_groups
            || self.counts.iter().any(|&c| c > geom.max_blocks_per_group)
        {
            return inconsistent("group counts do not fit the group geometry");
        }
        let whole =
            GroupCounts { base: self.base, ..GroupCounts::compute(geom, self.counts.clone()) };
        if whole.height != self.height || whole.prefix_in_bucket != self.prefix_in_bucket {
            return inconsistent(
                "the final region's height or prefixes disagree with the group counts",
            );
        }
        Ok(whole)
    }

    /// The final region as `(base, tracks per drive)`.
    pub fn region(&self) -> (usize, usize) {
        (self.base, self.height)
    }

    /// Total blocks staged for `bucket`.
    pub fn bucket_total(&self, geom: &MsgGeometry, bucket: usize) -> usize {
        let groups = geom.groups_of(bucket);
        match groups.last() {
            Some(last) => self.prefix_in_bucket[last] + self.counts[last],
            None => 0,
        }
    }

    /// Total blocks across all groups.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Final location of the block with in-bucket rank `rank` of `bucket`:
    /// disk `(bucket + rank) mod D`, track `base + row_b + rank/D`, where
    /// `row_b` is the strides of the buckets before it.
    #[inline]
    pub fn final_location(&self, geom: &MsgGeometry, bucket: usize, rank: usize) -> (usize, usize) {
        (
            (bucket + rank) % geom.num_disks,
            self.base + self.bucket_row[bucket] + rank / geom.num_disks,
        )
    }

    /// Final `(disk, track)` of block `i` of `group`.
    pub fn locate(&self, geom: &MsgGeometry, group: usize, i: usize) -> (usize, usize) {
        debug_assert!(i < self.counts[group]);
        let bucket = geom.bucket_of(group);
        self.final_location(geom, bucket, self.prefix_in_bucket[group] + i)
    }
}

/// One scratch block reference recorded during the Writing Phase — the
/// in-memory content of the paper's per-disk bucket tables (standard
/// linked format), extended with the block's destination metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchRef {
    /// Track on the owning disk.
    pub track: usize,
    /// Destination group.
    pub group: u32,
    /// Running block index within the destination group.
    pub gseq: u32,
}

/// Scratch-area bookkeeping accumulated over one superstep's Writing
/// Phases (one per source group).
#[derive(Debug, PartialEq, Eq)]
pub struct ScratchState {
    /// `refs[bucket][disk]` → blocks of that bucket written to that disk.
    pub refs: Vec<Vec<Vec<ScratchRef>>>,
    /// Running per-group block counters (`gseq` source).
    pub counts: Vec<usize>,
    /// Write cycles performed (denominator for balance statistics).
    pub write_cycles: usize,
    rotation: usize,
}

impl ScratchState {
    /// Fresh state for one superstep.
    pub fn new(geom: &MsgGeometry) -> Self {
        ScratchState {
            refs: vec![vec![Vec::new(); geom.num_disks]; geom.num_buckets],
            counts: vec![0; geom.num_groups],
            write_cycles: 0,
            rotation: 0,
        }
    }

    /// Total scratch blocks recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Worst bucket-on-disk load relative to its even share `R/D` — the
    /// empirical `l` of Lemma 2.
    pub fn balance_factor(&self) -> f64 {
        let d = self.refs.first().map_or(1, Vec::len) as f64;
        let mut worst: f64 = 0.0;
        for per_disk in &self.refs {
            let r: usize = per_disk.iter().map(Vec::len).sum();
            if r == 0 {
                continue;
            }
            let share = r as f64 / d;
            for tracks in per_disk {
                worst = worst.max(tracks.len() as f64 / share);
            }
        }
        worst
    }
}

// ---------------------------------------------------------------------------
// The stream set: a round's outgoing messages, as the envelope streams they
// will be on disk.
// ---------------------------------------------------------------------------

/// A length or count that the on-disk format stores in 32 bits and this
/// input overflows.
fn unframeable(what: &str, n: usize) -> EmError {
    EmError::InvalidConfig(format!(
        "{what} of {n} does not fit its 32-bit field in the on-disk message format"
    ))
}

/// One round's outgoing messages: one envelope byte stream per
/// *destination tag* — a caller-chosen coarsening of the destination pid
/// (the simulators use its `k`-slice of the pid space, `dst / k`), so that
/// all messages whose blocks must reach the same simulating processor in
/// the same round share blocks.
///
/// A stream's envelopes lie in the order they were pushed. The reader
/// expects `(src, seq)` order within a stream, so that is the order to push
/// in: the Computing Phase runs a round's virtual processors in pid order
/// and each pushes in send order onto the worker's one set.
#[derive(Debug, Default)]
pub(crate) struct StreamSet {
    /// `streams[tag]`: the envelopes for `tag`, back to back.
    streams: Vec<Vec<u8>>,
    /// The tags whose stream owns a buffer, each once, in no order.
    tags: Vec<u32>,
}

impl StreamSet {
    /// Forget every message, keeping the streams' buffers.
    pub(crate) fn clear(&mut self) {
        for &tag in &self.tags {
            self.streams[tag as usize].clear();
        }
    }

    /// Bytes of buffer the set holds, in use or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.streams.iter().map(Vec::capacity).sum()
    }

    /// The stream of `tag`, entered in `tags` when it gets its buffer.
    #[inline]
    fn stream_mut(&mut self, tag: u32) -> &mut Vec<u8> {
        let at = tag as usize;
        if at >= self.streams.len() {
            self.streams.resize_with(at + 1, Vec::new);
        }
        let stream = &mut self.streams[at];
        if stream.capacity() == 0 {
            self.tags.push(tag);
        }
        stream
    }

    /// Append one envelope to the stream of `tag`: the header, then
    /// whatever `encode` appends as the payload, whose length is returned
    /// (and must fit the header's 32-bit field).
    #[inline]
    pub(crate) fn push_with(
        &mut self,
        tag: u32,
        (dst, src, seq): (u32, u32, u32),
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> EmResult<usize> {
        let stream = self.stream_mut(tag);
        let at = stream.len();
        // The length is not known before the payload is there.
        let mut header = [0u8; MSG_HEADER_BYTES];
        for (field, word) in header.chunks_exact_mut(4).zip([dst, src, seq]) {
            field.copy_from_slice(&word.to_le_bytes());
        }
        stream.extend_from_slice(&header);
        encode(stream);
        let payload_at = at + MSG_HEADER_BYTES;
        let len = stream.len().checked_sub(payload_at).expect("an encoder only appends");
        let field = u32::try_from(len).map_err(|_| unframeable("a payload length", len))?;
        stream[payload_at - 4..payload_at].copy_from_slice(&field.to_le_bytes());
        Ok(len)
    }

    /// Cut the set into stream blocks and empty it. `src_tag` identifies
    /// this producer uniquely within the superstep (e.g. the first pid of
    /// its `(processor, round)` slice), making `(src_tag, dst_tag,
    /// stream_seq)` a global reassembly key. Blocks are tagged `(dst_tag,
    /// src_tag, stream_seq, gseq=0, len)` and come out in `(dst_tag,
    /// stream_seq)` order — the order the Writing Phase draws targets and
    /// disks in, so every byte on every drive depends on it.
    ///
    /// The streams are already the bytes the blocks carry: each is copied,
    /// `B - 20` bytes at a time, behind a block header into a `B`-byte
    /// buffer drawn from `pool`. Nothing is allocated or freed per message.
    ///
    /// **What the set keeps** for the next round is bounded by this round,
    /// not by the largest round it ever saw: a stream keeps at most twice
    /// the bytes it just held, and a tag with no message this round keeps
    /// nothing. (A cyclic shift sends each round's whole budget to a
    /// different tag; per-tag high-water marks would add up to the tag
    /// count times the memory `M` the model grants.)
    pub(crate) fn cut(
        &mut self,
        block_bytes: usize,
        src_tag: u32,
        pool: &mut BufferPool,
    ) -> EmResult<Vec<RawBlock>> {
        let StreamSet { streams, tags } = self;
        let payload_cap = block_bytes - BLOCK_HEADER_BYTES;
        // What the format stores in 32 bits is checked here, once: the block
        // size bounds every block's length field, and the longest stream has
        // the most blocks.
        u32::try_from(block_bytes).map_err(|_| unframeable("a block size", block_bytes))?;
        let (mut blocks, mut most) = (0, 0);
        for &tag in tags.iter() {
            let in_stream = streams[tag as usize].len().div_ceil(payload_cap);
            blocks += in_stream;
            most = most.max(in_stream);
        }
        u32::try_from(most).map_err(|_| unframeable("a block count", most))?;

        let mut out = Vec::with_capacity(blocks);
        tags.sort_unstable();
        tags.retain(|&tag| {
            let stream = &mut streams[tag as usize];
            if stream.is_empty() {
                *stream = Vec::new();
                return false;
            }
            for (stream_seq, span) in stream.chunks(payload_cap).enumerate() {
                let mut bytes = pool.take();
                bytes.reserve_exact(block_bytes);
                // gseq is patched on arrival; the counts were checked above.
                for word in [tag, src_tag, stream_seq as u32, 0, span.len() as u32] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
                bytes.extend_from_slice(span);
                bytes.resize(block_bytes, 0);
                out.push(RawBlock { dst_tag: tag, bytes });
            }
            let held = stream.len();
            stream.clear();
            if stream.capacity() > 2 * held {
                stream.shrink_to(held);
            }
            true
        });
        Ok(out)
    }

    /// Edge adapter: push a caller-built message list, in the `(src, seq)`
    /// order the simulators push in (stably, so equal keys keep the
    /// caller's order).
    fn push_out_msgs(
        &mut self,
        mut msgs: Vec<OutMsg>,
        tag_of: impl Fn(u32) -> u32,
    ) -> EmResult<()> {
        msgs.sort_by_key(|m| (m.src, m.seq));
        for m in &msgs {
            self.push_with(tag_of(m.dst), (m.dst, m.src, m.seq), |stream| {
                stream.extend_from_slice(&m.payload)
            })?;
        }
        Ok(())
    }
}

/// A message queued for scattering: already-encoded payload plus routing
/// metadata. The simulators do not build these — their messages are written
/// straight onto a round's streams (see the module docs of `msg.rs`); this
/// is the shape [`scatter_messages`] accepts at the public edge.
#[derive(Debug, Clone)]
pub struct OutMsg {
    /// Destination virtual processor.
    pub dst: u32,
    /// Source virtual processor.
    pub src: u32,
    /// Per-source send order within the superstep (canonical-order key).
    pub seq: u32,
    /// Serialized message payload.
    pub payload: Vec<u8>,
}

/// Writing Phase for one source group (Algorithm 1, Step 1(d)): cut the
/// generated messages into blocks and write them to the disks in cycles of
/// `D`, assigning blocks to disks with a fresh random permutation per
/// cycle, maintaining the destination buckets in (the in-memory analogue
/// of) standard linked format.
///
/// This is the `p = 1` composition of the two halves Algorithm 3 runs on
/// different processors, entered from a message list instead of a round's
/// streams: cut one stream per destination group (`StreamSet::cut`, tagged
/// with `src_group`), then store the blocks in write cycles
/// (`store_received_blocks`). A destination outside the geometry is
/// [`BspError::InvalidDestination`].
#[allow(clippy::too_many_arguments)]
pub fn scatter_messages(
    disks: &mut DiskArray,
    alloc: &mut TrackAllocator,
    geom: &MsgGeometry,
    scratch: &mut ScratchState,
    src_group: usize,
    msgs: Vec<OutMsg>,
    rng: &mut StdRng,
    placement: Placement,
) -> EmResult<()> {
    if let Some(m) = msgs.iter().find(|m| geom.group_of(m.dst as usize) >= geom.num_groups) {
        return Err(BspError::InvalidDestination { dst: m.dst as usize, nprocs: geom.v }.into());
    }
    // A one-shot call has no next round to reuse buffers in: the pool
    // starts empty and is dropped, with the blocks it collected, on return.
    let mut pool = BufferPool::new();
    let mut set = StreamSet::default();
    set.push_out_msgs(msgs, |dst| geom.group_of(dst as usize) as u32)?;
    let blocks = set.cut(geom.block_bytes, src_group as u32, &mut pool)?;
    store_received_blocks(
        disks,
        alloc,
        geom,
        scratch,
        blocks,
        |tag| tag as usize,
        rng,
        placement,
        &mut pool,
    )
}

// ---------------------------------------------------------------------------
// Blocks: storing the stream blocks a set was cut into, reading them back
// and reassembling the streams.
//
// In Algorithm 3 the routing tag of a block is the destination's `k`-slice
// of the pid space (`batch · p + owner`), not a group: the intermediate
// processor that stored a block forwards it whole to whichever processor
// simulates its destinations in the current round, and that owner
// reassembles streams keyed by `(src_tag, dst_tag)`. Blocks are binned on
// the storing processor's disks by destination *batch* (the paper's v/pk
// batches), with the in-batch sequence number `gseq` assigned at arrival.
// At `p = 1` slice, batch and group coincide.
// ---------------------------------------------------------------------------

/// A raw message block in transit between real processors: the
/// destination tag (identifying the batch and owning processor) plus the
/// full block bytes (header with `gseq` still unassigned).
#[derive(Debug, Clone)]
pub struct RawBlock {
    /// Destination tag (`dst_batch · p + owner` in the parallel simulator).
    pub dst_tag: u32,
    /// Block bytes of length `B` (header + payload, zero padded).
    pub bytes: Vec<u8>,
}

/// Store stream blocks on the local disks (Algorithm 3, tail of Step 1(c);
/// Algorithm 1, Step 1(d)): write cycles of `D` blocks through a
/// permutation of the disks, binned by destination group, assigning each
/// block its in-group arrival index `gseq`. `tag_to_group` maps a block's
/// destination tag to its group (the geometry's unit — a batch of `k·p`
/// virtual processors in the parallel simulation).
///
/// The cycles are laid out one after the other — each drawing its
/// permutation and allocating its tracks in turn — and then written (and
/// counted: one parallel operation a cycle) as **one** batch of as many
/// stripes. A group whose blocks exceed what γ allows it fails the call
/// before anything is submitted. The blocks go down as the buffers they are, and
/// the buffers then go to `pool` — where [`StreamSet::cut`] and the next
/// fetch find them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn store_received_blocks(
    disks: &mut DiskArray,
    alloc: &mut TrackAllocator,
    geom: &MsgGeometry,
    scratch: &mut ScratchState,
    blocks: Vec<RawBlock>,
    tag_to_group: impl Fn(u32) -> usize,
    rng: &mut StdRng,
    placement: Placement,
    pool: &mut BufferPool,
) -> EmResult<()> {
    let d = geom.num_disks;
    let mut perm: Vec<usize> = (0..d).collect();
    let mut cycles: Vec<usize> = Vec::with_capacity(blocks.len().div_ceil(d));
    let mut writes: Vec<(usize, usize, Vec<u8>)> = Vec::with_capacity(blocks.len());
    let mut blocks = blocks.into_iter().peekable();
    while blocks.peek().is_some() {
        let cycle_len = blocks.len().min(d);
        match placement {
            Placement::Random => perm.shuffle(rng),
            Placement::RoundRobin => {
                for (idx, slot) in perm.iter_mut().enumerate() {
                    *slot = (idx + scratch.rotation) % d;
                }
                scratch.rotation = (scratch.rotation + cycle_len) % d;
            }
        }
        for (slot, mut raw) in blocks.by_ref().take(cycle_len).enumerate() {
            let group = tag_to_group(raw.dst_tag);
            let gseq = scratch.counts[group];
            if gseq + 1 > geom.max_blocks_per_group {
                return Err(EmError::GroupRegionOverflow {
                    group,
                    blocks: gseq + 1,
                    capacity: geom.max_blocks_per_group,
                });
            }
            scratch.counts[group] += 1;
            let disk = perm[slot];
            let track = alloc.alloc_track(disk);
            let bucket = geom.bucket_of(group);
            scratch.refs[bucket][disk].push(ScratchRef {
                track,
                group: group as u32,
                gseq: gseq as u32,
            });
            raw.bytes[12..16].copy_from_slice(&(gseq as u32).to_le_bytes());
            // Blocks cut by `StreamSet::cut` or read back from disk are
            // already exactly `B` bytes: the buffer is the track.
            writes.push((disk, track, raw.bytes));
        }
        cycles.push(cycle_len);
        scratch.write_cycles += 1;
    }
    let written = if cycles.is_empty() { Ok(()) } else { disks.write_batch(&cycles, &writes) };
    pool.put_all(writes.into_iter().map(|(_, _, bytes)| bytes));
    Ok(written?)
}

/// Fetching Phase, read side: read one group's raw blocks from their fixed
/// final locations — one batch of full `D`-way stripes — into `B`-byte
/// buffers lent from `pool`, and tag each block, in the buffer it landed
/// in, with its destination. The first failing track in request order
/// fails the call. In Algorithm 3 the caller forwards each block to the
/// processor simulating its destination, which gives the buffer to its own
/// block pool once the block's messages are delivered.
///
/// Routing put block `i` of the group at [`GroupCounts::locate`]`(batch,
/// i)` with `gseq == i` in its header, and no block it placed holds an
/// empty span. A track that reads back otherwise — the all-zero frame of a
/// lost or torn write, which the checksum layer passes as never written,
/// or a block of another index — is an [`EmError::CorruptMessageStream`]:
/// reassembly alone cannot see a stream whose only block is gone. (A stale
/// block of an earlier superstep at the same index passes.)
pub fn fetch_batch_raw_blocks(
    disks: &mut DiskArray,
    geom: &MsgGeometry,
    counts: &GroupCounts,
    batch: usize,
    pool: &mut BufferPool,
) -> EmResult<Vec<RawBlock>> {
    // Consecutive in-bucket ranks sit on consecutive drives, then on the
    // next track: every `D` of them are one stripe, and the group's whole
    // final region is one batch.
    let addrs: Vec<(usize, usize)> =
        (0..counts.counts[batch]).map(|i| counts.locate(geom, batch, i)).collect();
    let stripes: Vec<usize> = addrs.chunks(geom.num_disks).map(<[_]>::len).collect();
    let lent = addrs.iter().map(|_| pool.take()).collect();
    let blocks = disks.read_batch_into(&stripes, &addrs, lent)?;
    let misplaced = (blocks.iter().enumerate())
        .find(|&(i, bytes)| word(bytes, 12) as usize != i || word(bytes, 16) == 0);
    if let Some((_, bytes)) = misplaced {
        let (src_tag, dst_tag) = (word(bytes, 4), word(bytes, 0));
        pool.put_all(blocks);
        let what = "a final-region track does not hold the block routed there";
        return Err(EmError::CorruptMessageStream { src_tag, dst_tag, what });
    }
    Ok(blocks.into_iter().map(|bytes| RawBlock { dst_tag: word(&bytes, 0), bytes }).collect())
}

/// Little-endian `u32` at `bytes[at..at + 4]`.
#[inline]
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// One envelope of a reassembled stream, lent to [`reassemble_blocks`]'
/// visitor while the stream's bytes are in memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrived<'a> {
    /// Destination virtual processor — one of those the blocks were read for.
    pub dst: u32,
    /// Source virtual processor.
    pub src: u32,
    /// Per-source send order within the superstep (canonical-order key).
    pub seq: u32,
    /// Serialized message payload.
    pub payload: &'a [u8],
    /// `(src_tag, dst_tag)` of the stream it came in.
    stream: (u32, u32),
}

impl Arrived<'_> {
    /// The error of a visitor that finds this envelope's stream is not the
    /// one that was written.
    pub(crate) fn corrupt(&self, what: &'static str) -> EmError {
        EmError::CorruptMessageStream { src_tag: self.stream.0, dst_tag: self.stream.1, what }
    }
}

/// Reassemble the messages contained in a set of raw blocks (owner side of
/// the Fetching Phase) and hand each to `visit`: sort the blocks' *keys*
/// `(src_tag, dst_tag, stream_seq)`, then stream by stream concatenate the
/// payload once into `stream_buf` (working memory the caller keeps between
/// calls; what it held is lost) and walk the envelopes found there — each
/// stream's in the order they were written, `(src, seq)` order for the
/// simulators' own. No block is copied a second time and no message is
/// copied at all, unless the visitor does.
///
/// The blocks are bytes read off a disk (and, at `p ≥ 2`, passed on by
/// another processor), so nothing about them is trusted: a stream whose
/// `stream_seq` run is not `0, 1, 2, …` has lost or repeated a block, a
/// stream must end where an envelope ends, and every message must address
/// one of `dst_pids` — the virtual processors this set of blocks was read
/// for. Each failure is an [`EmError::CorruptMessageStream`]; the first
/// error, the reassembler's or the visitor's, ends the walk.
pub(crate) fn reassemble_blocks(
    blocks: &[RawBlock],
    dst_pids: Range<usize>,
    stream_buf: &mut Vec<u8>,
    mut visit: impl FnMut(Arrived<'_>) -> EmResult<()>,
) -> EmResult<()> {
    let mut keys: Vec<(u32, u32, u32, usize)> = Vec::with_capacity(blocks.len());
    for (i, raw) in blocks.iter().enumerate() {
        let b = &raw.bytes;
        if b.len() < BLOCK_HEADER_BYTES {
            let what = "a block is shorter than its header";
            return Err(EmError::CorruptMessageStream { src_tag: 0, dst_tag: raw.dst_tag, what });
        }
        let (dst_tag, src_tag) = (word(b, 0), word(b, 4));
        if word(b, 16) as usize > b.len() - BLOCK_HEADER_BYTES {
            let what = "a block's length field exceeds the block";
            return Err(EmError::CorruptMessageStream { src_tag, dst_tag, what });
        }
        keys.push((src_tag, dst_tag, word(b, 8), i));
    }
    keys.sort_unstable();

    let mut next = 0;
    while next < keys.len() {
        let (src_tag, dst_tag, ..) = keys[next];
        let corrupt = |what| EmError::CorruptMessageStream { src_tag, dst_tag, what };
        stream_buf.clear();
        let mut expected_seq = 0usize;
        while next < keys.len() && (keys[next].0, keys[next].1) == (src_tag, dst_tag) {
            let (.., stream_seq, i) = keys[next];
            if stream_seq as usize != expected_seq {
                return Err(corrupt("stream_seq is not 0, 1, 2, …: a block was lost or repeated"));
            }
            let b = &blocks[i].bytes;
            let len = word(b, 16) as usize;
            stream_buf.extend_from_slice(&b[BLOCK_HEADER_BYTES..BLOCK_HEADER_BYTES + len]);
            expected_seq += 1;
            next += 1;
        }
        let mut rest: &[u8] = stream_buf;
        while !rest.is_empty() {
            if rest.len() < MSG_HEADER_BYTES {
                return Err(corrupt("the stream ends inside an envelope header"));
            }
            let (header, after) = rest.split_at(MSG_HEADER_BYTES);
            let (dst, src, seq, len) =
                (word(header, 0), word(header, 4), word(header, 8), word(header, 12) as usize);
            if len > after.len() {
                return Err(corrupt("the stream ends inside a message payload"));
            }
            if !dst_pids.contains(&(dst as usize)) {
                return Err(corrupt("a message addresses a virtual processor it was not read for"));
            }
            let (payload, after) = after.split_at(len);
            visit(Arrived { dst, src, seq, payload, stream: (src_tag, dst_tag) })?;
            rest = after;
        }
    }
    Ok(())
}

/// Test helpers: messages read back and copied out, in reassembly order.
#[cfg(test)]
pub(crate) mod owned {
    use super::*;

    /// One message copied out of its stream: `(dst, src, seq, payload)`.
    pub(crate) type Owned = (u32, u32, u32, Vec<u8>);

    /// Every message `blocks` reassemble to for `dst_pids`.
    pub(crate) fn reassemble(blocks: &[RawBlock], dst_pids: Range<usize>) -> EmResult<Vec<Owned>> {
        let mut msgs = Vec::new();
        reassemble_blocks(blocks, dst_pids, &mut Vec::new(), |m| {
            msgs.push((m.dst, m.src, m.seq, m.payload.to_vec()));
            Ok(())
        })?;
        Ok(msgs)
    }

    /// Every message routed to `group`: its blocks read from their final
    /// locations into fresh buffers, then reassembled for its virtual
    /// processors.
    pub(crate) fn fetch_group(
        disks: &mut DiskArray,
        geom: &MsgGeometry,
        counts: &GroupCounts,
        group: usize,
    ) -> EmResult<Vec<Owned>> {
        let raw = fetch_batch_raw_blocks(disks, geom, counts, group, &mut BufferPool::new())?;
        reassemble(&raw, group * geom.k..(group + 1) * geom.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_disk::DiskConfig;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn geometry_basics() {
        let (_, _, geom) = setup(16, 2, 100, 4, 64);
        assert_eq!(geom.num_groups, 8);
        assert_eq!(geom.num_buckets, 4);
        assert_eq!(geom.groups_per_bucket, 2);
        assert_eq!(geom.payload_cap, 44);
        assert_eq!(geom.group_of(5), 2);
        assert_eq!(geom.bucket_of(5), 2);
    }

    #[test]
    fn final_locations_are_distinct_and_striped() {
        let (_, _, geom) = setup(16, 2, 100, 4, 64);
        let mut counts = GroupCounts::compute(&geom, vec![2, 3, 0, 1, 4, 6, 0, 2]);
        counts.base = 7;
        // Buckets hold 5, 1, 10 and 2 blocks: strides of 2, 1, 3 and 1
        // tracks, one after the other.
        assert_eq!(counts.bucket_row, [0, 2, 3, 6]);
        assert_eq!(counts.region(), (7, 7));
        let mut seen = std::collections::HashSet::new();
        for bucket in 0..geom.num_buckets {
            let end = counts.bucket_row.get(bucket + 1).copied().unwrap_or(counts.height);
            let rows = 7 + counts.bucket_row[bucket]..7 + end;
            for rank in 0..counts.bucket_total(&geom, bucket) {
                let (disk, track) = counts.final_location(&geom, bucket, rank);
                assert!(seen.insert((disk, track)), "collision at {bucket}/{rank}");
                assert!(disk < geom.num_disks && rows.contains(&track), "{bucket}/{rank}");
            }
        }
        // Consecutive ranks hit consecutive disks.
        let (d0, _) = counts.final_location(&geom, 2, 0);
        let (d1, _) = counts.final_location(&geom, 2, 1);
        assert_eq!((d0 + 1) % geom.num_disks, d1);
    }

    #[test]
    fn group_counts_prefix_and_totals() {
        let (_, _, geom) = setup(16, 2, 100, 4, 64);
        let counts = GroupCounts::compute(&geom, vec![2, 3, 0, 1, 4, 0, 0, 2]);
        // Bucket 0 holds groups 0,1: prefixes 0,2; total 5.
        assert_eq!(counts.prefix_in_bucket[0], 0);
        assert_eq!(counts.prefix_in_bucket[1], 2);
        assert_eq!(counts.bucket_total(&geom, 0), 5);
        // Bucket 2 holds groups 4,5: prefixes 0,4; total 4.
        assert_eq!(counts.prefix_in_bucket[4], 0);
        assert_eq!(counts.prefix_in_bucket[5], 4);
        assert_eq!(counts.bucket_total(&geom, 2), 4);
        assert_eq!(counts.total(), 12);
    }

    /// Scatter then hand-deliver via routing is exercised in routing.rs;
    /// here we verify scatter-side bookkeeping and write-cycle striping.
    #[test]
    fn scatter_writes_full_cycles_and_tracks_counts() {
        let (mut disks, mut alloc, geom) = setup(16, 2, 200, 4, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(7);
        // 6 messages from group 0's vprocs to various destinations.
        let msgs: Vec<OutMsg> = (0..6)
            .map(|i| OutMsg {
                dst: (i * 2) as u32 % 16,
                src: (i % 2) as u32,
                seq: i as u32,
                payload: vec![i as u8; 30],
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
        assert!(scratch.total() > 0);
        // Each write cycle moved at most D blocks in one op.
        assert_eq!(disks.stats().parallel_ops as usize, scratch.write_cycles);
        assert!(disks.stats().blocks_written as usize >= scratch.total());
    }

    #[test]
    fn scatter_rejects_group_overflow() {
        // Tiny γ so the budget is a single block per group.
        let (mut disks, mut alloc, geom) = setup(4, 4, 8, 2, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(7);
        let msgs: Vec<OutMsg> =
            (0..40).map(|i| OutMsg { dst: 0, src: 0, seq: i, payload: vec![0u8; 30] }).collect();
        let err = scatter_messages(
            &mut disks,
            &mut alloc,
            &geom,
            &mut scratch,
            0,
            msgs,
            &mut rng,
            Placement::Random,
        )
        .unwrap_err();
        assert!(matches!(err, EmError::GroupRegionOverflow { .. }));
    }

    #[test]
    fn round_robin_placement_is_perfectly_balanced() {
        let (mut disks, mut alloc, geom) = setup(8, 1, 4096, 4, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(7);
        let msgs: Vec<OutMsg> = (0..32)
            .map(|i| OutMsg { dst: i % 8, src: 0, seq: i, payload: vec![1u8; 40] })
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
        let s = disks.stats();
        let max = s.per_disk_writes.iter().max().unwrap();
        let min = s.per_disk_writes.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "round robin should be near-perfectly even: {:?}",
            s.per_disk_writes
        );
    }

    /// What this module did before messages travelled in spans — the
    /// per-message cutter and reassembler of commit `d80793a` and the
    /// cycle-at-a-time store of `871270c`, unchanged but for what they are
    /// called: the reference the stream set, the visitor and the batched
    /// store are held to, block for block and message for message.
    mod reference {
        use super::*;
        use em_disk::Block;

        pub fn build_stream_blocks(
            block_bytes: usize,
            mut msgs: Vec<OutMsg>,
            src_tag: u32,
            dst_tag_of: impl Fn(u32) -> u32,
        ) -> Vec<RawBlock> {
            let payload_cap = block_bytes - BLOCK_HEADER_BYTES;
            msgs.sort_by_key(|m| (dst_tag_of(m.dst), m.src, m.seq));
            let mut out = Vec::new();
            let mut i = 0;
            while i < msgs.len() {
                let dst_tag = dst_tag_of(msgs[i].dst);
                let mut stream: Vec<u8> = Vec::new();
                while i < msgs.len() && dst_tag_of(msgs[i].dst) == dst_tag {
                    let m = &msgs[i];
                    stream.extend_from_slice(&m.dst.to_le_bytes());
                    stream.extend_from_slice(&m.src.to_le_bytes());
                    stream.extend_from_slice(&m.seq.to_le_bytes());
                    stream.extend_from_slice(&(m.payload.len() as u32).to_le_bytes());
                    stream.extend_from_slice(&m.payload);
                    i += 1;
                }
                for (stream_seq, chunk) in stream.chunks(payload_cap).enumerate() {
                    let mut bytes = Vec::with_capacity(block_bytes);
                    bytes.extend_from_slice(&dst_tag.to_le_bytes());
                    bytes.extend_from_slice(&src_tag.to_le_bytes());
                    bytes.extend_from_slice(&(stream_seq as u32).to_le_bytes());
                    bytes.extend_from_slice(&0u32.to_le_bytes()); // gseq patched on arrival
                    bytes.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                    bytes.extend_from_slice(chunk);
                    bytes.resize(block_bytes, 0);
                    out.push(RawBlock { dst_tag, bytes });
                }
            }
            out
        }

        pub fn reassemble_blocks(blocks: Vec<RawBlock>) -> Vec<owned::Owned> {
            let mut chunks: Vec<(u32, u32, u32, Vec<u8>)> = Vec::with_capacity(blocks.len());
            for raw in blocks {
                let b = &raw.bytes;
                let word = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("header"));
                let (dst, src, stream_seq, len) = (word(0), word(4), word(8), word(16) as usize);
                assert!(BLOCK_HEADER_BYTES + len <= b.len(), "truncated stream block");
                chunks.push((
                    src,
                    dst,
                    stream_seq,
                    b[BLOCK_HEADER_BYTES..BLOCK_HEADER_BYTES + len].to_vec(),
                ));
            }
            chunks.sort_by_key(|&(src, dst, seq, _)| (src, dst, seq));

            let mut out = Vec::new();
            let mut i = 0;
            while i < chunks.len() {
                let (src, dst) = (chunks[i].0, chunks[i].1);
                let mut bytes = Vec::new();
                while i < chunks.len() && chunks[i].0 == src && chunks[i].1 == dst {
                    bytes.extend_from_slice(&chunks[i].3);
                    i += 1;
                }
                let mut pos = 0;
                while pos + MSG_HEADER_BYTES <= bytes.len() {
                    let word = |o: usize| {
                        u32::from_le_bytes(bytes[o..o + 4].try_into().expect("envelope"))
                    };
                    let (d, s, q, len) =
                        (word(pos), word(pos + 4), word(pos + 8), word(pos + 12) as usize);
                    pos += MSG_HEADER_BYTES;
                    assert!(pos + len <= bytes.len(), "truncated message envelope in stream");
                    out.push((d, s, q, bytes[pos..pos + len].to_vec()));
                    pos += len;
                }
            }
            out
        }

        /// One write stripe per write cycle.
        #[allow(clippy::too_many_arguments)]
        pub fn store_cycle_by_cycle(
            disks: &mut DiskArray,
            alloc: &mut TrackAllocator,
            geom: &MsgGeometry,
            scratch: &mut ScratchState,
            blocks: Vec<RawBlock>,
            tag_to_group: impl Fn(u32) -> usize,
            rng: &mut StdRng,
            placement: Placement,
        ) -> EmResult<()> {
            let d = geom.num_disks;
            let mut perm: Vec<usize> = (0..d).collect();
            let mut writes: Vec<(usize, usize, Block)> = Vec::with_capacity(d.min(blocks.len()));
            let mut blocks = blocks.into_iter().peekable();
            while blocks.peek().is_some() {
                let cycle_len = blocks.len().min(d);
                match placement {
                    Placement::Random => perm.shuffle(rng),
                    Placement::RoundRobin => {
                        for (idx, slot) in perm.iter_mut().enumerate() {
                            *slot = (idx + scratch.rotation) % d;
                        }
                        scratch.rotation = (scratch.rotation + cycle_len) % d;
                    }
                }
                for (slot, mut raw) in blocks.by_ref().take(cycle_len).enumerate() {
                    let group = tag_to_group(raw.dst_tag);
                    let gseq = scratch.counts[group];
                    assert!(gseq < geom.max_blocks_per_group, "group {group} overflows");
                    scratch.counts[group] += 1;
                    let disk = perm[slot];
                    let track = alloc.alloc_track(disk);
                    let bucket = geom.bucket_of(group);
                    scratch.refs[bucket][disk].push(ScratchRef {
                        track,
                        group: group as u32,
                        gseq: gseq as u32,
                    });
                    raw.bytes[12..16].copy_from_slice(&(gseq as u32).to_le_bytes());
                    writes.push((disk, track, Block::from_vec(raw.bytes)));
                }
                disks.write_stripe(&writes)?;
                writes.clear();
                scratch.write_cycles += 1;
            }
            Ok(())
        }
    }

    fn assert_same_blocks(what: &str, got: &[RawBlock], want: &[RawBlock]) {
        assert_eq!(got.len(), want.len(), "{what}: block count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!((g.dst_tag, &g.bytes), (w.dst_tag, &w.bytes), "{what}: block {i}");
        }
    }

    /// Cut `msgs` through the stream set and with the reference: the same
    /// blocks, byte for byte. Deliver the blocks in another order: the same
    /// messages as the reference reassembles, which are the ones sent.
    fn assert_matches_reference(
        what: &str,
        block_bytes: usize,
        k: u32,
        msgs: Vec<OutMsg>,
        set: &mut StreamSet,
        pool: &mut BufferPool,
    ) {
        let (src_tag, tag_of) = (7, |dst: u32| dst / k);
        let want = reference::build_stream_blocks(block_bytes, msgs.clone(), src_tag, tag_of);
        set.push_out_msgs(msgs.clone(), tag_of).unwrap();
        let got = set.cut(block_bytes, src_tag, pool).unwrap();
        assert_same_blocks(what, &got, &want);

        let mut arrived = got;
        arrived.reverse();
        let delivered = owned::reassemble(&arrived, 0..usize::MAX).unwrap();
        assert_eq!(delivered, reference::reassemble_blocks(want), "{what}: reassembly");
        let mut sent = msgs;
        sent.sort_by_key(|m| (tag_of(m.dst), m.src, m.seq));
        assert_eq!(delivered.len(), sent.len(), "{what}: message count");
        for ((dst, src, seq, payload), s) in delivered.iter().zip(&sent) {
            assert_eq!((*dst, *src, *seq, payload), (s.dst, s.src, s.seq, &s.payload));
        }
        // What was stored goes back to the pool the cutter draws from.
        pool.put_all(arrived.into_iter().map(|raw| raw.bytes));
    }

    /// `n` messages in `(src, seq)` order from sources `0..srcs`, seeded:
    /// destinations below `v`, payload lengths from `len`.
    fn seeded_msgs(
        seed: u64,
        n: usize,
        srcs: u32,
        v: u32,
        len: std::ops::RangeInclusive<usize>,
    ) -> Vec<OutMsg> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = vec![0u32; srcs as usize];
        let mut msgs: Vec<OutMsg> = (0..n)
            .map(|_| {
                let (src, dst) = (rng.gen_range(0..srcs), rng.gen_range(0..v));
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                let len = rng.gen_range(len.clone());
                let payload = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
                OutMsg { dst, src, seq, payload }
            })
            .collect();
        msgs.sort_by_key(|m| (m.src, m.seq));
        msgs
    }

    #[test]
    fn the_batch_cutter_and_reassembler_match_the_per_message_reference() {
        // One set and one pool across every case, as a run keeps them: each
        // round finds what the one before left behind.
        let (mut set, mut pool) = (StreamSet::default(), BufferPool::new());
        let mut check = |what: &str, b: usize, k: u32, msgs: Vec<OutMsg>| {
            assert_matches_reference(what, b, k, msgs, &mut set, &mut pool)
        };
        check("no messages", 64, 2, Vec::new());
        check("empty payloads", 64, 2, seeded_msgs(1, 200, 4, 16, 0..=0));
        check("empty and short payloads", 64, 2, seeded_msgs(2, 300, 4, 16, 0..=9));
        check("an empty round between two others", 64, 2, Vec::new());
        // B − 20 = 44 payload bytes per block: these span up to seven.
        check("payloads longer than a block", 64, 4, seeded_msgs(3, 40, 3, 16, 45..=300));
        // 16 + 20 bytes, then the next envelope's header lies across the
        // block boundary at 44.
        let split = (0..6).map(|seq| OutMsg { dst: 1, src: 0, seq, payload: vec![seq as u8; 20] });
        check("an envelope header split across blocks", 64, 2, split.collect());
        // A sparse, wide tag range: one message to each of 500 tags.
        let wide = (0..500u32).map(|i| OutMsg {
            dst: (i * 7919) % 100_000,
            src: i % 3,
            seq: i / 3,
            payload: vec![i as u8; (i % 5) as usize],
        });
        check("many tags with one message each", 64, 1, wide.collect());
        check("one tag with thousands", 256, 64, seeded_msgs(4, 5000, 8, 64, 0..=40));
        for seed in 10..20 {
            check("mixed", 128, 3, seeded_msgs(seed, 400, 6, 48, 0..=260));
        }
        // A caller's list in no particular order, through the adapter.
        let mut unordered = seeded_msgs(5, 300, 5, 32, 0..=70);
        unordered.reverse();
        let mut rng = StdRng::seed_from_u64(6);
        for i in (1..unordered.len()).rev() {
            unordered.swap(i, rng.gen_range(0..=i));
        }
        check("input not in (src, seq) order", 64, 2, unordered);
    }

    /// What a set keeps between rounds is bounded by the round it last cut.
    /// A cyclic shift — round `r` sends every virtual processor's whole
    /// budget to tag `r` — would otherwise leave one budget's worth of
    /// buffer behind on every tag.
    #[test]
    fn a_set_keeps_no_more_than_twice_the_round_it_last_cut() {
        const B: usize = 256;
        let (tags, per_round) = (24u32, 300u32);
        let (mut set, mut pool) = (StreamSet::default(), BufferPool::new());
        let mut kept = Vec::new();
        for round in 0..3 * tags {
            let tag = round % tags;
            for seq in 0..per_round {
                set.push_with(tag, (tag, round, seq), |s| s.extend_from_slice(&[7; 40])).unwrap();
            }
            let round_bytes = per_round as usize * (MSG_HEADER_BYTES + 40);
            let blocks = set.cut(B, round, &mut pool).unwrap();
            assert_eq!(blocks.len(), round_bytes.div_ceil(B - BLOCK_HEADER_BYTES));
            pool.put_all(blocks.into_iter().map(|raw| raw.bytes));
            assert!(
                set.capacity() <= 2 * round_bytes + B,
                "round {round}: {} bytes kept after cutting {round_bytes}",
                set.capacity()
            );
            kept.push(set.capacity());
        }
        assert!(
            kept.iter().all(|&bytes| bytes > 0),
            "the buffer just cut is kept for the next round"
        );

        // The same for one tag whose rounds shrink, and for a mix: 64 tags
        // of a large round, then eight of them in a small one.
        for tag in 0..64 {
            for seq in 0..100 {
                set.push_with(tag, (tag, 0, seq), |s| s.extend_from_slice(&[1; 100])).unwrap();
            }
        }
        set.cut(B, 0, &mut pool).unwrap();
        for tag in (0..64).step_by(8) {
            set.push_with(tag, (tag, 0, 0), |s| s.extend_from_slice(&[2; 10])).unwrap();
        }
        let small_round = 8 * (MSG_HEADER_BYTES + 10);
        assert_eq!(set.cut(B, 0, &mut pool).unwrap().len(), 8);
        assert!(
            set.capacity() <= 2 * small_round + 8 * B,
            "{} bytes kept after cutting {small_round}",
            set.capacity()
        );
        // An empty round keeps nothing at all.
        assert!(set.cut(B, 0, &mut pool).unwrap().is_empty());
        assert_eq!(set.capacity(), 0);
    }

    /// Everything a Writing Phase's storing half reads and writes, and
    /// the batch calls that reach its raw drives.
    struct Store {
        disks: DiskArray,
        alloc: TrackAllocator,
        geom: MsgGeometry,
        scratch: ScratchState,
        rng: StdRng,
        dir: std::path::PathBuf,
        calls: std::sync::Arc<std::sync::Mutex<(u64, u64, u64)>>,
    }

    impl Store {
        /// `D = 5` drives of 128-byte blocks: memory, or checksummed and
        /// retried files under `dir`.
        fn new(dir: std::path::PathBuf, on_files: bool) -> Store {
            let (v, k, d, b) = (48, 3, 5, 128);
            let mut cfg = DiskConfig::new(d, b).unwrap();
            let inner: Box<dyn em_disk::DiskBackend> = if on_files {
                cfg = cfg.with_checksums(true).with_retry(em_disk::RetryPolicy::default());
                let track_bytes = DiskArray::storage_block_bytes(&cfg);
                Box::new(em_disk::FileBackend::create(&dir, d, track_bytes).unwrap())
            } else {
                Box::new(em_disk::MemoryBackend::new(d))
            };
            let calls = std::sync::Arc::new(std::sync::Mutex::new((0, 0, 0)));
            let raw = crate::test_programs::BatchCounting { inner, calls: calls.clone() };
            let disks = DiskArray::with_backend(cfg, Box::new(raw));
            let mut alloc = TrackAllocator::new(d);
            let geom = MsgGeometry::allocate(&mut alloc, v, k, 1 << 16, d, b).unwrap();
            let scratch = ScratchState::new(&geom);
            let rng = StdRng::seed_from_u64(0xB47C);
            Store { disks, alloc, geom, scratch, rng, dir, calls }
        }

        /// Every file in `dir`, by name.
        fn files(&self) -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(&self.dir)
                .unwrap()
                .map(|entry| entry.unwrap())
                .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
                .collect();
            files.sort();
            files
        }
    }

    /// One write batch a round stores what one write stripe a cycle
    /// stored: the same drive bytes, counted the same, booked the same,
    /// with the same draws — on memory disks and on checksummed, retried
    /// drive files, for both placements.
    #[test]
    fn one_write_batch_a_round_stores_what_one_stripe_a_cycle_stored() {
        let base = std::env::temp_dir().join(format!("em-store-batch-{}", std::process::id()));
        for placement in [Placement::Random, Placement::RoundRobin] {
            for on_files in [false, true] {
                let what = format!("{placement:?}, files: {on_files}");
                let mut got = Store::new(base.join(format!("{placement:?}-batch")), on_files);
                let mut want = Store::new(base.join(format!("{placement:?}-cycles")), on_files);
                // A superstep's worth of rounds: none, fewer than `D`
                // blocks, exactly two cycles, many and ragged.
                let mut pool = BufferPool::new();
                let mut rounds_with_blocks = 0;
                for (round, n_msgs) in [0, 3, 60, 1, 400, 0, 37].into_iter().enumerate() {
                    let msgs = seeded_msgs(round as u64, n_msgs, 6, got.geom.v as u32, 0..=90);
                    let mut set = StreamSet::default();
                    set.push_out_msgs(msgs, |dst| dst / got.geom.k as u32).unwrap();
                    let blocks = set.cut(got.geom.block_bytes, round as u32, &mut pool).unwrap();
                    rounds_with_blocks += u64::from(!blocks.is_empty());
                    store_received_blocks(
                        &mut got.disks,
                        &mut got.alloc,
                        &got.geom,
                        &mut got.scratch,
                        blocks.clone(),
                        |tag| tag as usize,
                        &mut got.rng,
                        placement,
                        &mut pool,
                    )
                    .unwrap();
                    reference::store_cycle_by_cycle(
                        &mut want.disks,
                        &mut want.alloc,
                        &want.geom,
                        &mut want.scratch,
                        blocks,
                        |tag| tag as usize,
                        &mut want.rng,
                        placement,
                    )
                    .unwrap();
                }
                let writes = |store: &Store| store.calls.lock().unwrap().1;
                assert_eq!(writes(&got), rounds_with_blocks, "{what}: one write batch a round");
                assert_eq!(
                    writes(&want) as usize,
                    want.scratch.write_cycles,
                    "{what}: one a cycle"
                );
                assert_eq!(got.disks.stats(), want.disks.stats(), "{what}: IoStats");
                let cycles = want.scratch.write_cycles;
                assert!(cycles > 50, "{what}: {cycles} cycles");
                assert_eq!(got.disks.stats().parallel_ops as usize, cycles, "{what}");
                assert_eq!(got.scratch, want.scratch, "{what}: ScratchState");
                assert_eq!(got.alloc.export_state(), want.alloc.export_state(), "{what}: tracks");
                let next_draw = |store: &mut Store| store.rng.gen_range(0..u64::MAX);
                assert_eq!(
                    next_draw(&mut got),
                    next_draw(&mut want),
                    "{what}: the RNG's next draw"
                );
                for per_disk in &want.scratch.refs {
                    for (disk, refs) in per_disk.iter().enumerate() {
                        for r in refs {
                            assert_eq!(
                                got.disks.read_block(disk, r.track).unwrap().as_bytes(),
                                want.disks.read_block(disk, r.track).unwrap().as_bytes(),
                                "{what}: disk {disk}, track {}",
                                r.track
                            );
                        }
                    }
                }
                if on_files {
                    got.disks.sync().unwrap();
                    want.disks.sync().unwrap();
                    assert!(!got.files().is_empty(), "{what}: no drive files");
                    assert_eq!(got.files(), want.files(), "{what}: drive files");
                }
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// One stream of `n_blocks` full blocks, as the cutter makes it.
    fn one_stream(block_bytes: usize, n_blocks: usize) -> Vec<RawBlock> {
        let per_msg = block_bytes - BLOCK_HEADER_BYTES - MSG_HEADER_BYTES;
        let msgs = (0..n_blocks as u32).map(|seq| OutMsg {
            dst: 3,
            src: 5,
            seq,
            payload: vec![seq as u8; per_msg],
        });
        let blocks = reference::build_stream_blocks(block_bytes, msgs.collect(), 9, |_| 1);
        assert_eq!(blocks.len(), n_blocks);
        blocks
    }

    fn corruption(blocks: &[RawBlock]) -> &'static str {
        match owned::reassemble(blocks, 0..8) {
            Err(EmError::CorruptMessageStream { src_tag: 9, dst_tag: 1, what }) => what,
            other => panic!("expected a corrupt stream (9 → 1), got {other:?}"),
        }
    }

    #[test]
    fn a_lost_or_repeated_block_is_an_error() {
        let blocks = one_stream(64, 4);
        assert_eq!(owned::reassemble(&blocks, 0..8).unwrap().len(), 4);
        let mut lost = blocks.clone();
        lost.remove(1);
        assert!(corruption(&lost).contains("lost or repeated"));
        assert!(corruption(&blocks[1..]).contains("lost or repeated"), "the first block");
        let mut repeated = blocks.clone();
        repeated.push(blocks[2].clone());
        assert!(corruption(&repeated).contains("lost or repeated"));
    }

    #[test]
    fn a_stream_that_ends_inside_an_envelope_is_an_error() {
        // Shorten the last block's payload by 1..=15 bytes and by more:
        // what is left of the last envelope is a partial header, then a
        // header whose payload is cut short. Neither is dropped.
        let blocks = one_stream(64, 3);
        let full = 64 - BLOCK_HEADER_BYTES;
        for (cut, what) in [(1, "payload"), (full - 15, "header"), (full - 1, "header")] {
            let mut short = blocks.clone();
            short[2].bytes[16..20].copy_from_slice(&((full - cut) as u32).to_le_bytes());
            assert!(corruption(&short).contains(what), "cut {cut}: {}", corruption(&short));
        }
        let mut long = blocks.clone();
        long[0].bytes[16..20].copy_from_slice(&(full as u32 + 1).to_le_bytes());
        assert!(corruption(&long).contains("length field"));
        let mut stub = blocks;
        stub[1].bytes.truncate(BLOCK_HEADER_BYTES - 1);
        assert!(matches!(
            owned::reassemble(&stub, 0..8),
            Err(EmError::CorruptMessageStream { what: "a block is shorter than its header", .. })
        ));
    }

    #[test]
    fn a_message_for_a_stranger_is_an_error() {
        // dst = 3 is not among the virtual processors 4..8 were read for.
        let err = owned::reassemble(&one_stream(64, 1), 4..8);
        assert!(matches!(err, Err(EmError::CorruptMessageStream { src_tag: 9, dst_tag: 1, .. })));
    }

    /// The visitor's error ends the walk and is the call's error; what it
    /// was handed before is all it was handed.
    #[test]
    fn a_visitor_can_refuse_an_envelope() {
        let blocks = one_stream(64, 4);
        let mut seen = Vec::new();
        let err = reassemble_blocks(&blocks, 0..8, &mut Vec::new(), |m| {
            seen.push(m.seq);
            if m.seq == 2 {
                return Err(m.corrupt("refused"));
            }
            Ok(())
        });
        assert!(matches!(
            err,
            Err(EmError::CorruptMessageStream { src_tag: 9, dst_tag: 1, what: "refused" })
        ));
        assert_eq!(seen, [0, 1, 2]);
    }

    /// `scatter_messages`' callers choose `src` and `seq` freely — the
    /// benchmark's ladder numbers them its own way — so reading back
    /// expects no order among them: what comes back is reassembly order,
    /// stream by stream, each as it was written (by `(src, seq)`, stably).
    #[test]
    fn fetch_returns_reassembly_order_and_checks_no_message_order() {
        let (mut disks, mut alloc, geom) = setup(8, 2, 4000, 2, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(3);
        // Group 1 scatters before group 0, seqs run down, one key twice.
        let keys = [(5u32, 9u32), (5, 4), (4, 7), (5, 4), (4, 1)];
        for src_group in [1usize, 0] {
            let msgs = keys.iter().enumerate().map(|(i, &(src, seq))| OutMsg {
                dst: 2 + (i as u32 % 2),
                src: src + 10 * src_group as u32,
                seq,
                payload: vec![i as u8; 30],
            });
            scatter_messages(
                &mut disks,
                &mut alloc,
                &geom,
                &mut scratch,
                src_group,
                msgs.collect(),
                &mut rng,
                Placement::Random,
            )
            .unwrap();
        }
        let (counts, _) = crate::routing::simulate_routing(
            &mut disks,
            &mut alloc,
            &geom,
            scratch,
            &mut crate::routing::RoutingScratch::new(),
            &mut BufferPool::new(),
            None,
        )
        .unwrap();
        let got: Vec<(u32, u32, u8)> = owned::fetch_group(&mut disks, &geom, &counts, 1)
            .unwrap()
            .iter()
            .map(|(_, src, seq, payload)| (*src, *seq, payload[0]))
            .collect();
        // Source group 0's stream, then group 1's; within each, by (src,
        // seq), the twin keys in the caller's order.
        let one_group = [(4, 1, 4), (4, 7, 2), (5, 4, 1), (5, 4, 3), (5, 9, 0)];
        let want: Vec<(u32, u32, u8)> = [0, 10]
            .into_iter()
            .flat_map(|shift| one_group.map(|(src, seq, tag)| (src + shift, seq, tag)))
            .collect();
        assert_eq!(got, want);
    }

    /// Where the pooled buffers' bytes live, sorted; the pool keeps them.
    fn held(pool: &mut BufferPool) -> Vec<usize> {
        let bufs: Vec<Vec<u8>> = (0..pool.len()).map(|_| pool.take()).collect();
        let mut at: Vec<usize> = bufs.iter().map(|buf| buf.as_ptr() as usize).collect();
        pool.put_all(bufs);
        at.sort_unstable();
        at
    }

    /// A fetch reads a group's blocks into buffers lent from the pool it is
    /// given: a warm pool, holding buffers of other sizes, yields the same
    /// blocks as an empty one, and every buffer it lent comes back with
    /// them.
    #[test]
    fn a_fetch_into_a_warm_pool_reads_what_one_into_an_empty_pool_reads() {
        let (mut disks, mut alloc, geom) = setup(16, 2, 4000, 4, 64);
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(11);
        for src_group in 0..geom.num_groups {
            let msgs = seeded_msgs(src_group as u64, 30, 2, 16, 0..=90);
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
        let (counts, _) = crate::routing::simulate_routing(
            &mut disks,
            &mut alloc,
            &geom,
            scratch,
            &mut crate::routing::RoutingScratch::new(),
            &mut BufferPool::new(),
            None,
        )
        .unwrap();
        let mut pool = BufferPool::new();
        for group in 0..geom.num_groups {
            let fetch = |disks: &mut DiskArray, pool: &mut BufferPool| {
                fetch_batch_raw_blocks(disks, &geom, &counts, group, pool).unwrap()
            };
            let cold = fetch(&mut disks, &mut BufferPool::new());
            assert_eq!(cold.len(), counts.counts[group]);
            assert!(cold.len() > 1, "group {group}: {} blocks", cold.len());
            // Warm: more buffers than the fetch takes, some longer than a
            // block, each holding what a previous round left in it.
            while pool.len() < cold.len() + 3 {
                pool.put(vec![0xA5; [64, 200, 96][pool.len() % 3]]);
            }
            let before = (pool.len(), held(&mut pool));
            let warm = fetch(&mut disks, &mut pool);
            assert_same_blocks(&format!("group {group}"), &warm, &cold);
            assert_eq!(pool.len(), before.0 - cold.len(), "one buffer lent per block");
            pool.put_all(warm.into_iter().map(|raw| raw.bytes));
            assert_eq!((pool.len(), held(&mut pool)), before, "group {group}: every buffer back");
        }
    }

    #[test]
    fn scatter_rejects_a_destination_outside_the_geometry() {
        let (mut disks, mut alloc, geom) = setup(16, 2, 200, 4, 64);
        let msgs = vec![OutMsg { dst: u32::MAX, src: 0, seq: 0, payload: vec![1] }];
        let err = scatter_messages(
            &mut disks,
            &mut alloc,
            &geom,
            &mut ScratchState::new(&geom),
            0,
            msgs,
            &mut StdRng::seed_from_u64(7),
            Placement::Random,
        )
        .unwrap_err();
        assert!(matches!(err, EmError::Bsp(BspError::InvalidDestination { nprocs: 16, .. })));
    }
}
