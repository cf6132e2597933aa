//! The message path allocates per block and per virtual processor, not per
//! message: from `Mailbox::send` to the block a message is bytes on its
//! destination's stream, and from the block to the next superstep's inbox
//! it is an envelope the reassembler lends to a visitor.
//!
//! One messaging kernel runs twice on memory disks with the same byte
//! volume per virtual processor — once as `n` messages, once as `16·n`
//! messages a sixteenth the size — under a counting global allocator. The
//! blocks written barely differ (sixteen times the 16-byte envelope
//! headers: 1.23× the envelope bytes), so neither may the allocation
//! count. With one heap `Vec` per message it grew with the message count:
//! at `d80793a` this kernel made 48 515 → 85 471 allocations (1.76×) on one
//! processor and 50 552 → 87 861 (1.74×) on two — 3.2 for every message
//! added. With one batch per virtual processor, appended to the worker's
//! and counting-sorted into blocks (`871270c`), it made 29 142 → 35 447 and
//! 31 393 → 38 172 (1.22×): 0.55 and 0.59 per added message. With one
//! stream per destination (`ee53293`) it made 10 760 → 12 507 (1.16×) and
//! 12 396 → 14 175 (1.14×), 0.15 per added message. Here, where context
//! and fetched message blocks land in pooled buffers instead of a fresh
//! allocation each, it makes 6 775 → 7 754 (1.14×) and 8 382 → 9 358
//! (1.12×), 0.08 per added message — the blocks' own growth (sixteen
//! header bytes are a fifteenth of a block) and the inboxes' (a `Vec` of
//! 64 messages doubles four times more often than one of 4). Both are
//! asserted, at bounds the two earlier paths break: the ratio, and the
//! allocations per added message.
//!
//! This file holds one test on purpose: the counter is process-wide.

use em_bsp::{BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmMachine, ParEmSimulator, SeqEmSimulator};
use em_serial::{DecodeError, Reader, Serial};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// `N` opaque bytes that decode without touching the heap, so what is
/// counted is the path and not the program's own message type.
#[derive(Clone)]
struct Chunk<const N: usize>([u8; N]);

impl<const N: usize> Serial for Chunk<N> {
    fn encoded_len(&self) -> usize {
        N
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.take_array().map(Chunk)
    }
}

/// Every virtual processor sends `VOLUME / N` chunks of `N` bytes per
/// superstep, spread over the others, and folds what it receives.
struct Volley<const N: usize>;

const VOLUME: usize = 4096;
const ROUNDS: usize = 6;

impl<const N: usize> BspProgram for Volley<N> {
    type State = u64;
    type Msg = Chunk<N>;

    fn superstep(&self, step: usize, mb: &mut Mailbox<Chunk<N>>, state: &mut u64) -> Step {
        for e in mb.take_incoming() {
            *state = state.wrapping_mul(31).wrapping_add(e.msg.0[0] as u64 + e.src as u64);
        }
        if step == ROUNDS {
            return Step::Halt;
        }
        for i in 0..VOLUME / N {
            mb.send((mb.pid() + i + 1) % mb.nprocs(), Chunk([(*state as u8) ^ i as u8; N]));
        }
        Step::Continue
    }

    fn max_state_bytes(&self) -> usize {
        252 // k = ⌊M / (4 + μ)⌋ = 4 virtual processors a round
    }

    fn max_comm_bytes(&self) -> usize {
        // Sixteen envelope bytes a message, with room for an uneven spread.
        4 * (VOLUME / N) * (N + 16)
    }
}

const V: usize = 32;

fn machine(p: usize) -> EmMachine {
    let router = BspStarParams { p, g: 1.0, b: 256, l: 1.0 };
    EmMachine { p, m_bytes: 1024, d: 4, b_bytes: 256, g_io: 1, router }
}

/// Allocations of one whole run of `Volley<N>` on `p` processors.
fn counted_run<const N: usize>(p: usize) -> u64 {
    let init: Vec<u64> = (0..V as u64).collect();
    let before = allocations();
    let (_, report) = if p == 1 {
        SeqEmSimulator::new(machine(1)).run(&Volley::<N>, init).unwrap()
    } else {
        ParEmSimulator::new(machine(p)).run(&Volley::<N>, init).unwrap()
    };
    let allocations = allocations() - before;
    assert_eq!(report.comm.total_msgs(), (ROUNDS * V * (VOLUME / N)) as u64);
    allocations
}

#[test]
fn sixteen_times_the_messages_is_not_sixteen_times_the_allocations() {
    for p in [1, 2] {
        let few = counted_run::<1024>(p); // 4 messages a vp a superstep
        let many = counted_run::<64>(p); // 64
        let growth = many as f64 / few as f64;
        let added_msgs = ROUNDS * V * (VOLUME / 64 - VOLUME / 1024);
        let per_added_msg = many.saturating_sub(few) as f64 / added_msgs as f64;
        println!(
            "p = {p}: {few} allocations with 4 KiB as 4 messages, {many} as 64: {growth:.2}×, \
             {per_added_msg:.2} per added message"
        );
        assert!(
            growth < 1.3 && per_added_msg < 0.3,
            "p = {p}: allocations grew {growth:.2}× ({few} → {many}, {per_added_msg:.2} per added \
             message) for the same bytes in 16× the messages: something on the message path \
             allocates per message, or per virtual processor and message"
        );
    }
}
