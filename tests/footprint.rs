//! Disk footprint from traffic: what a run's drives hold, term by term.
//!
//! A superstep's message blocks take three kinds of space: the scratch
//! tracks the Writing Phase scattered them to (about `R/D` a drive for `R`
//! blocks), the staging tracks of Algorithm 2's Step 1 (bucket `b`'s blocks
//! on drive `b`, or spread over drives `b, b + num_buckets, …` when there
//! are fewer buckets than drives) and the final region of Step 2 (one
//! stride per bucket, its blocks over `D`). They lie in two bands, not
//! three: routing lays the final region over the scratch tracks, which
//! Step 1 reads before Step 2 writes the region, and staging takes the
//! lowest free tracks beside them. The contexts hold their fixed region
//! throughout. Each band is at most about the fullest bucket's blocks —
//! `⌈P/D⌉` for `P = D ·` (fullest bucket) — so a run's `tracks_per_disk`
//! stays within
//!
//! ```text
//! context tracks + 2·⌈P/D⌉ + D
//! ```
//!
//! for `P` the peak over supersteps of what was sent, not a bound declared
//! up front (γ for every group at once). `P` rather than the superstep's
//! `R` blocks because groups split unevenly over buckets: the `sort`
//! shape's 13 groups go 4 / 4 / 4 / 1 to its four buckets, so the fullest
//! bucket holds about 4/13 of `R` where an even split would hold 1/4, and
//! the staging band follows the fullest bucket.
//!
//! The test taps every message the programs send and cuts the traffic into
//! blocks the way the Writing Phase does — one stream per pair of
//! `k`-slices of the pid space, `B − 20` payload bytes a block — then
//! prints the terms and holds the bound, for a sort at the `sort-mem`
//! shape (`p = 1`) and for a messaging kernel on two processors. On two
//! processors each block is stored by a random one, so the whole
//! superstep's blocks bound either worker's. The kernel also shows that the
//! footprint does not grow with the run: sixteen supersteps take the
//! tracks four do on one processor, and sixty-four take the tracks sixteen
//! do on two (188 tracks a drive after sixteen and after sixty-four), each
//! within `D`.

use em_bsp::{BspProgram, BspStarParams, ExecError, Executor, Mailbox, RunResult, Step};
use em_core::{
    ContextStore, CostReport, EmMachine, ParEmSimulator, SeqEmSimulator, BLOCK_HEADER_BYTES,
    MSG_HEADER_BYTES,
};
use em_disk::TrackAllocator;
use em_serial::Serial;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per superstep, the envelope bytes each pid sent to each pid.
type Traffic = Vec<BTreeMap<(usize, usize), usize>>;

/// A program whose every message is also booked in `sent`.
struct Tapped<'a, P> {
    prog: &'a P,
    sent: &'a Mutex<Traffic>,
}

impl<P: BspProgram> BspProgram for Tapped<'_, P> {
    type State = P::State;
    type Msg = P::Msg;

    fn superstep(&self, step: usize, mb: &mut Mailbox<P::Msg>, state: &mut P::State) -> Step {
        let mut inner = Mailbox::new(mb.pid(), mb.nprocs(), mb.take_incoming());
        let next = self.prog.superstep(step, &mut inner, state);
        let (out, _, _, work) = inner.into_outgoing();
        {
            let mut sent = self.sent.lock().unwrap();
            if sent.len() <= step {
                sent.resize_with(step + 1, BTreeMap::new);
            }
            for (dst, msg) in &out {
                *sent[step].entry((mb.pid(), *dst)).or_default() +=
                    MSG_HEADER_BYTES + msg.encoded_len();
            }
        }
        for (dst, msg) in out {
            mb.send(dst, msg);
        }
        mb.charge(work);
        next
    }

    fn max_state_bytes(&self) -> usize {
        self.prog.max_state_bytes()
    }

    fn max_comm_bytes(&self) -> usize {
        self.prog.max_comm_bytes()
    }
}

/// One simulated program: what it sent, its report and its μ.
struct Stage {
    sent: Traffic,
    report: CostReport,
    mu: usize,
}

/// An executor that runs each program tapped on a simulator and keeps its
/// [`Stage`].
struct Tap {
    machine: EmMachine,
    stages: Mutex<Vec<Stage>>,
}

impl Tap {
    fn new(machine: EmMachine) -> Self {
        Tap { machine, stages: Mutex::new(Vec::new()) }
    }
}

impl Executor for Tap {
    fn execute<P: BspProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunResult<P::State>, ExecError> {
        let sent = Mutex::new(Traffic::new());
        let tapped = Tapped { prog, sent: &sent };
        let (res, report) = if self.machine.p == 1 {
            SeqEmSimulator::new(self.machine).run(&tapped, states)?
        } else {
            ParEmSimulator::new(self.machine).run(&tapped, states)?
        };
        let stage = Stage { sent: sent.into_inner().unwrap(), report, mu: prog.max_state_bytes() };
        self.stages.lock().unwrap().push(stage);
        Ok(res)
    }
}

/// The footprint terms of one stage, in tracks per drive, at the superstep
/// whose fullest bucket was fullest.
#[derive(Debug)]
struct Terms {
    context: usize,
    /// `⌈R/D⌉`: the scratch tracks of an even scatter.
    scratch: usize,
    /// The fullest bucket's blocks: what its drive stages when every bucket
    /// has one drive (fewer buckets spread theirs over several, so less).
    stage: usize,
    /// The final region: each bucket's blocks over `D`, summed.
    last: usize,
}

impl Stage {
    /// Cut the traffic into blocks as the simulators' Writing Phase does,
    /// per worker-owned context region and geometry of `report`'s run.
    fn terms(&self, machine: &EmMachine) -> Terms {
        let (d, b, p) = (machine.d, machine.b_bytes, machine.p);
        let (v, k) = (self.report.v, self.report.k);
        // A group is a batch of k·p pids; its blocks fill one bucket.
        // Worker 0 simulates the first k of every batch, the most contexts.
        let groups = v.div_ceil(k * p);
        let owned: usize = (0..groups).map(|g| (g * k * p + k).min(v) - g * k * p).sum();
        let context = ContextStore::allocate(&mut TrackAllocator::new(d), d, b, owned, self.mu)
            .unwrap()
            .tracks_per_disk();
        let buckets = d.min(groups);
        let per_bucket = groups.div_ceil(buckets);
        let (mut worst, mut worst_total, mut worst_last) = (0, 0, 0);
        for step in &self.sent {
            let mut streams: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for (&(src, dst), &bytes) in step {
                *streams.entry((src / k, dst / k)).or_default() += bytes;
            }
            let mut fill = vec![0; buckets];
            for (&(_, dst_slice), &bytes) in &streams {
                fill[dst_slice / p / per_bucket] += bytes.div_ceil(b - BLOCK_HEADER_BYTES);
            }
            let fullest = fill.iter().copied().max().unwrap_or(0);
            if fullest > worst {
                let last = fill.iter().map(|blocks| blocks.div_ceil(d)).sum();
                (worst, worst_total, worst_last) = (fullest, fill.iter().sum(), last);
            }
        }
        Terms { context, scratch: worst_total.div_ceil(d), stage: worst, last: worst_last }
    }
}

/// Print one stage's terms next to its measured footprint and hold the
/// bound.
fn check(what: &str, machine: &EmMachine, stage: &Stage) -> usize {
    let t = stage.terms(machine);
    let tracks = stage.report.tracks_per_disk;
    // ⌈P/D⌉ for P = D · (fullest bucket) is the fullest bucket itself.
    let bound = t.context + 2 * t.stage + machine.d;
    println!(
        "{what}: {tracks} tracks a drive = context {} + messages {} \
         (at the peak superstep: scratch ≈ {}, stage {}, final {}); bound {bound}",
        t.context,
        tracks - t.context,
        t.scratch,
        t.stage,
        t.last,
    );
    assert!(tracks <= bound, "{what}: {tracks} tracks a drive, past {bound}: {t:?}");
    tracks
}

#[test]
fn sort_at_the_sort_mem_shape_holds_what_it_sends() {
    let machine = EmMachine {
        p: 1,
        m_bytes: 256 << 10,
        d: 4,
        b_bytes: 2048,
        g_io: 1,
        router: BspStarParams { p: 1, g: 1.0, b: 2048, l: 1.0 },
    };
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let items: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    let mut want = items.clone();
    want.sort_unstable();
    let tap = Tap::new(machine);
    assert_eq!(em_algos::sort::cgm_sort(&tap, 64, items).unwrap(), want);
    let stages = tap.stages.into_inner().unwrap();
    assert_eq!(stages.len(), 1);
    check("sort, n = 200 000, v = 64, p = 1", &machine, &stages[0]);
}

/// Every virtual processor sends [`VOLUME`] bytes a superstep in 256-byte
/// chunks, spread over the others, and halts in superstep `rounds`.
struct Volley {
    rounds: usize,
}

const VOLUME: usize = 4096;
const CHUNK: usize = 256;

impl BspProgram for Volley {
    type State = u64;
    type Msg = Vec<u8>;

    fn superstep(&self, step: usize, mb: &mut Mailbox<Vec<u8>>, state: &mut u64) -> Step {
        for e in mb.take_incoming() {
            *state = state.wrapping_mul(31).wrapping_add(e.msg[0] as u64 + e.src as u64);
        }
        if step == self.rounds {
            return Step::Halt;
        }
        for i in 0..VOLUME / CHUNK {
            let fill = (*state as u8) ^ i as u8;
            mb.send((mb.pid() + i + 1) % mb.nprocs(), vec![fill; CHUNK - 8]);
        }
        Step::Continue
    }

    fn max_state_bytes(&self) -> usize {
        252
    }

    fn max_comm_bytes(&self) -> usize {
        4 * (VOLUME / CHUNK) * (CHUNK + MSG_HEADER_BYTES)
    }
}

#[test]
fn messaging_kernel_footprint_is_bounded_and_does_not_grow() {
    for (p, short, long) in [(1, 4, 16), (2, 16, 64)] {
        let machine = EmMachine {
            p,
            m_bytes: 1024,
            d: 4,
            b_bytes: 256,
            g_io: 1,
            router: BspStarParams { p, g: 1.0, b: 256, l: 1.0 },
        };
        let mut tracks = Vec::new();
        for rounds in [short, long] {
            let tap = Tap::new(machine);
            tap.execute(&Volley { rounds }, (0..32).collect()).unwrap();
            let stage = tap.stages.into_inner().unwrap().pop().unwrap();
            assert_eq!(stage.report.lambda, rounds + 1);
            tracks.push(check(&format!("kernel, {rounds} supersteps, p = {p}"), &machine, &stage));
        }
        assert!(
            tracks[1] <= tracks[0] + machine.d,
            "p = {p}: {long} supersteps take {} tracks a drive, {short} take {}",
            tracks[1],
            tracks[0]
        );
    }
}
