//! The Computation Phase (Step 1(c)): the per-virtual-processor kernel.
//!
//! The `k` virtual processors of a group run one after another on the
//! simulating thread, in pid order, through one kernel: decode the context,
//! deliver the canonically ordered inbox, run
//! [`em_bsp::BspProgram::superstep`], write the outgoing envelopes onto the
//! round's streams and re-encode the context. Parallelism is Algorithm 3's
//! `p` real processors, each running this loop on its own group.
//!
//! Every vp gets a pre-built [`VpWork`] (its context bytes and its inbox)
//! and fills a [`VpSlot`] (its re-encoded context and its tallies); its
//! messages go, in send order and with per-sender `seq` numbers assigned
//! vp-locally, onto the round's [`StreamSet`], so every stream's envelopes
//! are in `(src, seq)` order — the canonical inbox contract of the *next*
//! superstep. The first error in vp order is the round's error; a failed
//! superstep's outputs are discarded wholesale, so replaying it under
//! recovery needs no rewinding.

use crate::msg::{reassemble_blocks, RawBlock, StreamSet, MSG_HEADER_BYTES};
use crate::{EmError, EmResult};
use em_bsp::{BspError, BspProgram, Envelope, Mailbox, Step};
use em_serial::{from_bytes, to_bytes_into, Serial};
use std::ops::Range;

/// One virtual processor's share of a group's Computation Phase, prepared
/// by the Fetching Phase.
pub(crate) struct VpWork<M> {
    /// Global virtual-processor id.
    pub pid: usize,
    /// The fetched context region bytes (exactly the encoded state).
    pub ctx: Vec<u8>,
    /// The inbound messages, decoded, in the canonical `(src, seq)` order
    /// ([`fill_inboxes`] checks that they arrive in it).
    pub inbox: Vec<Envelope<M>>,
    /// `(src, seq)` of the inbox's last message: what the next must exceed.
    newest: Option<(u32, u32)>,
    /// Bytes received by this vp (for the h-relation tally).
    pub recv_bytes: u64,
    /// Messages received by this vp (for the h-relation tally).
    pub recv_msgs: u64,
}

impl<M> VpWork<M> {
    /// The share of virtual processor `pid`, nothing received yet.
    pub(crate) fn new(pid: usize, ctx: Vec<u8>) -> Self {
        VpWork { pid, ctx, inbox: Vec::new(), newest: None, recv_bytes: 0, recv_msgs: 0 }
    }
}

/// Fetching Phase, owner half: reassemble the blocks delivered for the
/// virtual processors `pids` — whose shares are `work`, in pid order — and
/// decode each message straight into the inbox it addresses.
///
/// The streams arrive `(src_tag, dst_tag)` ascending — source slices in pid
/// order — and each holds its envelopes in `(src, seq)` order, so every
/// inbox fills in the canonical order and nothing is sorted. That is a
/// property of what was *written*; what was read is checked: a message that
/// does not come after the one before it in its inbox is an
/// [`EmError::CorruptMessageStream`], like every other way the blocks can
/// fail to be the streams that were cut.
pub(crate) fn fill_inboxes<M: Serial>(
    blocks: &[RawBlock],
    pids: Range<usize>,
    stream_buf: &mut Vec<u8>,
    work: &mut [VpWork<M>],
) -> EmResult<()> {
    reassemble_blocks(blocks, pids.clone(), stream_buf, |m| {
        // The reassembler admits only messages for `pids`.
        let w = &mut work[m.dst as usize - pids.start];
        if w.newest.is_some_and(|newest| (m.src, m.seq) <= newest) {
            return Err(m.corrupt("a destination's messages are not in (src, seq) order"));
        }
        w.newest = Some((m.src, m.seq));
        w.recv_bytes += m.payload.len() as u64;
        w.recv_msgs += 1;
        w.inbox.push(Envelope { src: m.src as usize, msg: from_bytes(m.payload)? });
        Ok(())
    })
}

/// One virtual processor's results.
pub(crate) struct VpSlot {
    /// The re-encoded context (reuses the [`VpWork::ctx`] allocation).
    pub state_bytes: Vec<u8>,
    /// Messages sent by this vp.
    pub msgs_sent: u64,
    /// Payload bytes sent by this vp.
    pub bytes_sent: u64,
    /// Bytes received (copied through from [`VpWork`]).
    pub recv_bytes: u64,
    /// Messages received (copied through from [`VpWork`]).
    pub recv_msgs: u64,
    /// Local computation units reported by the program.
    pub work: u64,
    /// Whether the program returned [`Step::Continue`].
    pub continued: bool,
}

/// What every virtual processor of a superstep is simulated under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rules {
    /// The superstep's number.
    pub step: usize,
    /// `v` — whom a message may address.
    pub v: usize,
    /// Virtual processors per destination tag: a message for `dst` goes on
    /// the stream of tag `dst / k`.
    pub k: usize,
    /// γ — the envelope bytes one virtual processor may send.
    pub gamma: usize,
}

/// The per-vp kernel. The vp's
/// messages are written onto `out`, each once: header, then the payload
/// encoded in place.
fn run_one_vp<P: BspProgram>(
    prog: &P,
    rules: Rules,
    mut w: VpWork<P::Msg>,
    out: &mut StreamSet,
) -> EmResult<VpSlot> {
    let Rules { step, v, k, gamma } = rules;
    let mut state: P::State = from_bytes(&w.ctx)?;
    let mut mb = Mailbox::new(w.pid, v, w.inbox);
    let status = prog.superstep(step, &mut mb, &mut state);
    let (outgoing, msgs_sent, bytes_sent, work) = mb.into_outgoing();

    let mut envelope_bytes = 0u64;
    for (seq, (dst, msg)) in outgoing.into_iter().enumerate() {
        if dst >= v {
            return Err(EmError::Bsp(BspError::InvalidDestination { dst, nprocs: v }));
        }
        let key = (dst as u32, w.pid as u32, seq as u32);
        let len = out.push_with((dst / k) as u32, key, |stream| msg.encode(stream))?;
        envelope_bytes += (MSG_HEADER_BYTES + len) as u64;
    }
    if envelope_bytes > gamma as u64 {
        return Err(EmError::CommBudgetExceeded {
            pid: w.pid,
            sent: envelope_bytes,
            budget: gamma,
        });
    }
    // Recycle the fetched context buffer for the updated state.
    to_bytes_into(&state, &mut w.ctx);
    Ok(VpSlot {
        state_bytes: w.ctx,
        msgs_sent,
        bytes_sent,
        recv_bytes: w.recv_bytes,
        recv_msgs: w.recv_msgs,
        work,
        continued: status == Step::Continue,
    })
}

/// Run every [`VpWork`] item through the kernel, in vp order, returning
/// one result per item and leaving the round's messages — and nothing else:
/// what `out` held is discarded first — in `out`. When any result is an
/// error, what `out` holds is part of a round and good for nothing.
pub(crate) fn run_group_vps<P: BspProgram>(
    prog: &P,
    rules: Rules,
    work: Vec<VpWork<P::Msg>>,
    out: &mut StreamSet,
) -> Vec<EmResult<VpSlot>> {
    out.clear();
    work.into_iter().map(|w| run_one_vp(prog, rules, w, out)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context_store::BufferPool;
    use em_serial::to_bytes;

    struct Echo;
    impl BspProgram for Echo {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, _step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
            for e in mb.take_incoming() {
                *state = state.wrapping_add(e.msg);
            }
            // One to the neighbour, a burst across every tag.
            mb.send((mb.pid() + 1) % mb.nprocs(), *state);
            for dst in 0..mb.nprocs() {
                mb.send(dst, *state ^ dst as u64);
            }
            Step::Halt
        }
        fn max_state_bytes(&self) -> usize {
            8
        }
        fn max_comm_bytes(&self) -> usize {
            24 * 8
        }
    }

    const V: usize = 7;
    const RULES: Rules = Rules { step: 0, v: V, k: 2, gamma: 24 * 8 };

    fn work_items(n: usize) -> Vec<VpWork<u64>> {
        (0..n)
            .map(|pid| {
                let mut w = VpWork::new(pid, to_bytes(&(pid as u64 * 10)));
                w.inbox = vec![Envelope { src: 0, msg: 7u64 }, Envelope { src: 1, msg: 5u64 }];
                (w.recv_bytes, w.recv_msgs) = (16, 2);
                w
            })
            .collect()
    }

    /// The blocks `out` cuts into, as `(dst_tag, bytes)`.
    fn cut(out: &mut StreamSet) -> Vec<(u32, Vec<u8>)> {
        let blocks = out.cut(64, 0, &mut BufferPool::new()).unwrap();
        blocks.into_iter().map(|raw| (raw.dst_tag, raw.bytes)).collect()
    }

    /// Sends like [`Echo`], except that virtual processor 3 then addresses
    /// nobody (`over_budget` unset) or sends past γ (set).
    struct Bad {
        over_budget: bool,
    }
    impl BspProgram for Bad {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
            Echo.superstep(step, mb, state);
            if mb.pid() >= 3 {
                match self.over_budget {
                    true => (0..20).for_each(|_| mb.send(0, 1)),
                    false => mb.send(usize::MAX, 0),
                }
            }
            Step::Halt
        }
        fn max_state_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn first_vp_order_error_surfaces() {
        for over_budget in [false, true] {
            let mut out = StreamSet::default();
            let bad = Bad { over_budget };
            let results = run_group_vps(&bad, RULES, work_items(V), &mut out);
            // Every vp from 3 on fails; vp 3's is the round's error.
            let first = results.into_iter().find_map(|r| r.err()).expect("error expected");
            match first {
                EmError::Bsp(BspError::InvalidDestination { dst: usize::MAX, nprocs: V }) => {
                    assert!(!over_budget)
                }
                EmError::CommBudgetExceeded { pid: 3, budget, .. } => {
                    assert!(over_budget && budget == RULES.gamma)
                }
                other => panic!("{other}"),
            }
            // The failed round's messages — vps 0..3's whole, the others' in
            // part — are still in the set. The next round through it starts
            // from nothing.
            let (mut fresh, prog) = (StreamSet::default(), Echo);
            run_group_vps(&prog, RULES, work_items(V), &mut out);
            run_group_vps(&prog, RULES, work_items(V), &mut fresh);
            assert_eq!(cut(&mut out), cut(&mut fresh), "over γ: {over_budget}");
        }
    }

    /// What [`fill_inboxes`] delivers from `blocks` to virtual processors
    /// `2..4`: per vp `(src, msg)` in inbox order, and the tallies.
    type Inboxes = Vec<(Vec<(usize, u64)>, u64, u64)>;
    fn inboxes(blocks: &[RawBlock]) -> EmResult<Inboxes> {
        let mut work: Vec<VpWork<u64>> = (2..4).map(|pid| VpWork::new(pid, Vec::new())).collect();
        fill_inboxes(blocks, 2..4, &mut Vec::new(), &mut work)?;
        Ok(work
            .into_iter()
            .map(|w| {
                let inbox = w.inbox.into_iter().map(|e| (e.src, e.msg)).collect();
                (inbox, w.recv_bytes, w.recv_msgs)
            })
            .collect())
    }

    /// The blocks of one stream `src_tag → 1` carrying `(dst, src, seq)`
    /// messages whose payload is `100·src + seq`.
    fn stream(src_tag: u32, msgs: &[(u32, u32, u32)]) -> Vec<RawBlock> {
        let mut set = StreamSet::default();
        for &(dst, src, seq) in msgs {
            let msg = u64::from(100 * src + seq);
            set.push_with(1, (dst, src, seq), |stream| msg.encode(stream)).unwrap();
        }
        set.cut(64, src_tag, &mut BufferPool::new()).unwrap()
    }

    #[test]
    fn inboxes_fill_in_canonical_order_without_a_sort() {
        // Two source slices; the later one's blocks arrive first.
        let mut blocks = stream(4, &[(2, 4, 0), (3, 4, 1), (2, 4, 2), (2, 5, 0)]);
        blocks.extend(stream(0, &[(3, 0, 0), (2, 1, 0), (2, 1, 1), (3, 1, 2)]));
        let got = inboxes(&blocks).unwrap();
        let to_2 = vec![(1, 100), (1, 101), (4, 400), (4, 402), (5, 500)];
        let to_3 = vec![(0, 0), (1, 102), (4, 401)];
        assert_eq!(got, [(to_2, 40, 5), (to_3, 24, 3)]);
        assert_eq!(inboxes(&[]).unwrap(), [(vec![], 0, 0), (vec![], 0, 0)]);
    }

    /// What is read back is not trusted to be what was written: messages
    /// of one destination that do not ascend in `(src, seq)` are a typed
    /// error — not a mis-ordered inbox, not a panic.
    #[test]
    fn messages_out_of_canonical_order_are_a_corrupt_stream() {
        let out_of_order = |blocks: &[RawBlock], src_tag: u32| match inboxes(blocks) {
            Err(EmError::CorruptMessageStream { src_tag: s, dst_tag: 1, what }) => {
                assert_eq!(s, src_tag);
                assert!(what.contains("(src, seq) order"), "{what}");
            }
            other => panic!("expected a corrupt stream, got {other:?}"),
        };
        // Within one stream: seq runs backwards, src runs backwards, and
        // one message twice.
        out_of_order(&stream(0, &[(2, 0, 1), (2, 0, 0)]), 0);
        out_of_order(&stream(0, &[(2, 1, 0), (3, 0, 0), (2, 0, 5)]), 0);
        out_of_order(&stream(0, &[(3, 1, 4), (3, 1, 4)]), 0);
        // Across streams: a later source slice repeats an earlier sender.
        let mut blocks = stream(0, &[(2, 1, 0), (2, 1, 1)]);
        blocks.extend(stream(4, &[(2, 4, 0), (2, 1, 1)]));
        out_of_order(&blocks, 4);
        // Other destinations' messages in between do not matter.
        inboxes(&stream(0, &[(2, 0, 5), (3, 0, 0), (2, 0, 6), (3, 0, 1)])).unwrap();
        // A payload that is not a message of the program's type.
        let mut set = StreamSet::default();
        set.push_with(1, (2, 0, 0), |stream| stream.extend_from_slice(&[1, 2, 3])).unwrap();
        let blocks = set.cut(64, 0, &mut BufferPool::new()).unwrap();
        assert!(matches!(inboxes(&blocks), Err(EmError::Decode(_))));
    }
}
