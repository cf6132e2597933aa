//! Property of the simulation: the EM simulators are observationally
//! equivalent to the in-memory reference on randomly generated
//! message-passing programs, on 64 seeded cases. (Scatter → route → fetch
//! preserving arbitrary message multisets is `routing`'s unit test
//! `scatter_route_fetch_preserves_messages`: it reads back through the
//! crate's own block reader.)

use em_bsp::{run_sequential, BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmMachine, ParEmSimulator, SeqEmSimulator};
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
