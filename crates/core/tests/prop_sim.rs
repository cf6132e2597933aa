//! Properties of the simulation: (1) scatter → route → fetch preserves
//! arbitrary message multisets exactly; (2) the EM simulators are
//! observationally equivalent to the in-memory reference on randomly
//! generated message-passing programs. Each runs on 64 seeded cases.

use em_bsp::{run_sequential, BspProgram, BspStarParams, Mailbox, Step};
use em_core::{
    fetch_group_messages, scatter_messages, simulate_routing, BufferPool, EmMachine, MsgGeometry,
    OutMsg, ParEmSimulator, Placement, RoutingScratch, ScratchState, SeqEmSimulator,
};
use em_disk::{DiskArray, DiskConfig, TrackAllocator};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Runs `property` on 64 cases, each on its own seeded generator; a
/// failing case prints the seed that reproduces it.
fn cases(property: impl Fn(&mut StdRng)) {
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
        property(&mut StdRng::seed_from_u64(seed.0));
    }
}

/// Multiset preservation through the full message machinery, for
/// arbitrary message sets, sizes and placements.
#[test]
fn scatter_route_fetch_preserves_messages() {
    cases(|case| {
        // Up to 60 messages `(dst, src, payload)` of up to 80 bytes.
        let msgs: Vec<(u32, u32, Vec<u8>)> = (0..case.gen_range(0..60usize))
            .map(|_| {
                let (dst, src) = (case.gen_range(0..16u32), case.gen_range(0..16u32));
                let payload = (0..case.gen_range(0..80usize)).map(|_| case.next_u32() as u8);
                (dst, src, payload.collect())
            })
            .collect();
        let seed = case.next_u64();
        let random_placement = case.next_u32() & 1 == 1;

        let d = 4;
        let b = 64;
        let v = 16;
        let k = 2;
        let mut alloc = TrackAllocator::new(d);
        let geom = MsgGeometry::allocate(&mut alloc, v, k, 16 * 1024, d, b).unwrap();
        let mut disks = DiskArray::new_memory(DiskConfig::new(d, b).unwrap());
        let mut scratch = ScratchState::new(&geom);
        let mut rng = StdRng::seed_from_u64(seed);
        let placement = if random_placement { Placement::Random } else { Placement::RoundRobin };

        // Group messages by source group and assign per-source sequence
        // numbers the way the simulator does.
        let mut sent: Vec<(u32, u32, u32, Vec<u8>)> = Vec::new();
        for src_group in 0..v / k {
            let mut out = Vec::new();
            let mut seq_per_src = std::collections::HashMap::new();
            for (dst, src, payload) in
                msgs.iter().filter(|&&(_, s, _)| (s as usize) / k == src_group)
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
        let mut got: Vec<(u32, u32, u32, Vec<u8>)> = Vec::new();
        for g in 0..geom.num_groups {
            for m in fetch_group_messages(&mut disks, &geom, &counts, g).unwrap() {
                assert_eq!(geom.group_of(m.dst as usize), g);
                got.push((m.dst, m.src, m.seq, m.payload));
            }
        }
        sent.sort();
        got.sort();
        assert_eq!(got, sent);
    });
}

/// Every vproc sends `fan` messages per round to pseudo-random
/// destinations derived from (pid, round, mul); state accumulates a
/// rolling hash of everything received.
struct Random {
    rounds: usize,
    fan: usize,
    mul: u64,
}

impl BspProgram for Random {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        for e in mb.take_incoming() {
            *state = state.wrapping_mul(31).wrapping_add(e.msg).wrapping_add(e.src as u64);
        }
        if step < self.rounds {
            let v = mb.nprocs();
            for f in 0..self.fan {
                let dst = (mb.pid() * 7 + step * 13 + f * 3 + self.mul as usize) % v;
                mb.send(dst, (mb.pid() as u64) << 16 | (step as u64) << 8 | f as u64);
            }
            Step::Continue
        } else {
            Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        8
    }
    fn max_comm_bytes(&self) -> usize {
        // fan sends, up to v*fan receipts of 24 envelope bytes.
        24 * self.fan * 12 + 64
    }
}

/// Differential test: a randomized message-passing program produces
/// identical states on the reference runner, the uniprocessor EM
/// simulator, and the 2-processor EM simulator.
#[test]
fn em_simulators_match_reference_on_random_programs() {
    cases(|case| {
        let v = case.gen_range(2..10usize);
        let prog = Random {
            rounds: case.gen_range(1..5usize),
            fan: case.gen_range(1..4usize),
            mul: case.gen_range(1..1000u64),
        };
        let seed = case.next_u64();
        let init: Vec<u64> = (0..v as u64).collect();
        let reference = run_sequential(&prog, init.clone()).unwrap();

        let m1 = EmMachine::uniprocessor(512, 2, 64, 1);
        let (res1, _) = SeqEmSimulator::new(m1).with_seed(seed).run(&prog, init.clone()).unwrap();
        assert_eq!(&res1.states, &reference.states, "uniprocessor EM");

        let m2 = EmMachine {
            p: 2,
            m_bytes: 512,
            d: 2,
            b_bytes: 64,
            g_io: 1,
            router: BspStarParams { p: 2, g: 1.0, b: 64, l: 1.0 },
        };
        let (res2, _) = ParEmSimulator::new(m2).with_seed(seed).run(&prog, init).unwrap();
        assert_eq!(&res2.states, &reference.states, "2-processor EM");
    });
}
