//! Blocks land in lent buffers: a superstep's context sweeps and message
//! fetches allocate nothing per block they move, and the buffers they lend
//! do not pile up.
//!
//! One kernel with 64-block contexts that also sends messages — every
//! virtual processor stamps each block of its 16 KiB context and sends
//! four short messages a superstep — runs for `λ = 4` and for `4λ = 16`
//! supersteps on memory disks, on one processor and on two, under a
//! counting global allocator. Two things are held:
//!
//! * **Allocations per added superstep** stay under a quarter of
//!   [`CTX_BLOCKS`], the context blocks a superstep reads and writes: what
//!   is left is per round and per virtual processor (stripe lists, inboxes,
//!   outgoing messages), nothing per block.
//! * **Bytes live in the last superstep** (the least any virtual processor
//!   sees inside its final `superstep` call) are the same after 16
//!   supersteps as after 4, within [`KEPT_ALLOWANCE`]: the lent buffers went
//!   back to the pools they came from — at `p = 2` to whichever worker's
//!   pool a forwarded block ends in.
//!
//! At `ee53293`, where a context read allocated a zero-filled `B`-byte
//! buffer per block (then copied the blocks into a staging buffer), a
//! context write a `Block` per chunk, and every fetched message block was a
//! fresh buffer dropped after delivery, this kernel made 4 577 (`p = 1`)
//! and 4 682 (`p = 2`) allocations per added superstep — more than one per
//! context block moved — and held 1 464 bytes and 8–35 KiB (run to run)
//! more in superstep 16 than in superstep 4; here it makes 441 and 548, and
//! holds 1 464 bytes and 6.3 KiB more (three runs). The first assertion
//! fails there.
//!
//! Buffers a pool keeps in proportion to the input rather than to the
//! supersteps are alive in both runs and cancel in the second assertion;
//! `em-core`'s `par_sim::tests::worker_pools_hold_one_rounds_buffers`
//! bounds each pool's length directly.
//!
//! This file holds one test on purpose: the counters are process-wide.

use em_bsp::{BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmMachine, ParEmSimulator, SeqEmSimulator};
use em_serial::{DecodeError, Reader, Serial};
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, live_bytes};

/// The least [`live_bytes`] a virtual processor saw in its last superstep.
static LIVE_AT_END: AtomicU64 = AtomicU64::new(u64::MAX);

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const B: usize = 256;
const V: usize = 32;
/// Context bytes: with the 4-byte length prefix, 64 blocks exactly.
const CTX: usize = 64 * B - 4;
/// Context blocks a superstep reads and writes back.
const CTX_BLOCKS: u64 = (2 * V * 64) as u64;
/// Messages a virtual processor sends per superstep, and their bytes.
const MSGS: usize = 4;
const MSG: usize = 32;

/// A context that decodes without touching the heap, so what is counted is
/// the path and not the program's own state type.
struct Ctx([u8; CTX]);

impl Serial for Ctx {
    fn encoded_len(&self) -> usize {
        CTX
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.take_array().map(Ctx)
    }
}

/// A message of the same kind.
#[derive(Clone)]
struct Note([u8; MSG]);

impl Serial for Note {
    fn encoded_len(&self) -> usize {
        MSG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.take_array().map(Note)
    }
}

/// Every virtual processor folds what it receives into its context, stamps
/// the context's every block, sends [`MSGS`] notes to its successors, and
/// halts in superstep `rounds`.
struct Rewrite {
    rounds: usize,
}

impl BspProgram for Rewrite {
    type State = Ctx;
    type Msg = Note;

    fn superstep(&self, step: usize, mb: &mut Mailbox<Note>, state: &mut Ctx) -> Step {
        for e in mb.take_incoming() {
            state.0[0] = state.0[0].wrapping_mul(31).wrapping_add(e.msg.0[0] ^ e.src as u8);
        }
        if step == self.rounds {
            LIVE_AT_END.fetch_min(live_bytes(), Ordering::Relaxed);
            return Step::Halt;
        }
        for block in state.0.chunks_mut(B) {
            block[block.len() - 1] = block[block.len() - 1].wrapping_add(step as u8 + 1);
        }
        for i in 0..MSGS {
            mb.send((mb.pid() + i + 1) % mb.nprocs(), Note([state.0[0] ^ i as u8; MSG]));
        }
        Step::Continue
    }

    fn max_state_bytes(&self) -> usize {
        CTX // k = ⌊M / (4 + μ)⌋ = 4 virtual processors a round
    }

    fn max_comm_bytes(&self) -> usize {
        4 * MSGS * (MSG + 16)
    }
}

/// How many more bytes the long run may hold in its last superstep than
/// the short one: four blocks per virtual processor. At `p = 2` what a
/// worker cuts, stores, fetches and delivers in a round varies with where
/// the blocks went, so its block pool drifts, and the other worker's round
/// is in flight when a virtual processor takes its sample. Keeping the
/// buffers a superstep lent would add a megabyte of context blocks, or its
/// tens of fetched message blocks, per added superstep.
const KEPT_ALLOWANCE: u64 = (4 * V * B) as u64;

fn machine(p: usize) -> EmMachine {
    let router = BspStarParams { p, g: 1.0, b: B, l: 1.0 };
    EmMachine { p, m_bytes: 4 * (CTX + 4), d: 4, b_bytes: B, g_io: 1, router }
}

/// One whole run of `rounds` supersteps on `p` processors: its
/// allocations, and the bytes live in its last superstep beyond those live
/// before it started.
fn counted_run(p: usize, rounds: usize) -> (u64, u64) {
    let init: Vec<Ctx> = (0..V).map(|pid| Ctx([pid as u8; CTX])).collect();
    let prog = Rewrite { rounds };
    let live_before = live_bytes();
    LIVE_AT_END.store(u64::MAX, Ordering::Relaxed);
    let before = allocations();
    let (run, report) = if p == 1 {
        SeqEmSimulator::new(machine(1)).run(&prog, init).unwrap()
    } else {
        ParEmSimulator::new(machine(p)).run(&prog, init).unwrap()
    };
    let allocations = allocations() - before;
    assert_eq!(report.comm.total_msgs(), (rounds * V * MSGS) as u64);
    assert!(report.io.blocks_moved() > CTX_BLOCKS * rounds as u64);
    // Every superstep but the last stamped every block of every context.
    let stamps = (rounds * (rounds + 1) / 2) as u8;
    for (pid, state) in run.states.iter().enumerate() {
        assert_eq!(state.0[CTX - 1], (pid as u8).wrapping_add(stamps), "vp {pid}");
    }
    drop(run);
    (allocations, LIVE_AT_END.load(Ordering::Relaxed).saturating_sub(live_before))
}

#[test]
fn context_sweeps_and_message_fetches_allocate_nothing_per_block() {
    const LAMBDA: usize = 4;
    for p in [1, 2] {
        let (few, live_few) = counted_run(p, LAMBDA);
        let (many, live_many) = counted_run(p, 4 * LAMBDA);
        let per_superstep = many.saturating_sub(few) / (3 * LAMBDA) as u64;
        let kept = live_many.saturating_sub(live_few);
        println!(
            "p = {p}: {few} allocations in {LAMBDA} supersteps, {many} in {}: {per_superstep} per \
             added superstep, which reads and writes {CTX_BLOCKS} context blocks; {live_few} bytes \
             live in the last superstep of the short run, {live_many} of the long one",
            4 * LAMBDA
        );
        assert!(
            per_superstep < CTX_BLOCKS / 4,
            "p = {p}: {per_superstep} allocations per added superstep: something on the context \
             or message-fetch path allocates per block"
        );
        assert!(
            kept <= KEPT_ALLOWANCE,
            "p = {p}: {kept} more bytes live after {} supersteps than after {LAMBDA}: something \
             keeps the buffers it lent",
            4 * LAMBDA
        );
    }
}
