//! The compound-superstep engine: Algorithm 3 — `ParCompoundSuperstep` —
//! of which Algorithm 1 (`SeqCompoundSuperstep`) is the `p = 1` case.
//!
//! Real processor `i` owns a private [`DiskArray`] of `D` disks. The `v`
//! virtual processors are processed in `⌈v/(k·p)⌉` *batches* of `k·p`; in
//! round `j`, processor `i` simulates virtual processors
//! `j·k·p + i·k … j·k·p + (i+1)·k − 1` — the assignment that matches the
//! paper's batch definition (see DESIGN.md on the paper's internally
//! inconsistent indexing). At `p = 1` a batch is a *group* of `k`.
//!
//! Per round:
//!
//! 1. **Fetching Phase** (Step 1(a)): each processor reads the message
//!    blocks of the current batch from its local disks (fully blocked,
//!    `D`-way parallel) and forwards each block to the processor
//!    simulating its destination virtual processor, which reassembles the
//!    `(src, dst)` streams. Contexts are read from the owner's local
//!    disks.
//! 2. **Computing Phase** (Step 1(b)): the owner runs the superstep for
//!    its `k` virtual processors.
//! 3. **Writing Phase** (Step 1(c)): changed contexts are written back,
//!    generated messages are cut into blocks and every block is sent to a
//!    *uniformly random* processor, which stores it on its local disks in
//!    write cycles of `D` with a random disk permutation, binned by
//!    destination batch.
//!
//! After the last round, each processor reorganizes its received blocks
//! with Algorithm 2 ([`crate::routing::simulate_routing`]) — Step 2 —
//! entirely locally. The run terminates exactly when the in-memory
//! reference executor would: every virtual processor halted and no message
//! is in flight.
//!
//! The worker body ([`Worker`]) is one function per phase and is
//! parameterised only by its [`Transport`]. For `p ≥ 2` each worker is an
//! OS thread and the transport is channels plus a barrier: exchanges are
//! lock-stepped (every processor sends exactly one bundle to every other
//! processor per exchange, empty if it has nothing), so the protocol needs
//! no barriers inside a round. A failing processor turns into a "zombie" that keeps the protocol alive
//! with empty bundles until the superstep ends, then every thread observes
//! the failure and exits. A processor that leaves tells its peers it is
//! gone, on the channels and at the barrier, so none waits for it: one
//! that leaves early — by a panic, or by an error no peer shares, such as
//! a failed initial load — makes them unwind too, and once every thread
//! has exited the program's panic, or that error, reaches the caller. For `p = 1` the worker runs on the
//! calling thread, the exchange is the identity and the barrier a no-op.
//!
//! Two facts of the model at `p = 1`, both observed from the machine's
//! `p` and nothing else: a block's "uniformly random processor" is the
//! only processor, and a draw over one outcome consumes no randomness; and
//! a batch has one owner stream per producer slot, so its partial-block
//! slack is one block per source group (Algorithm 1's bound).

use crate::checkpoint::{superstep_seed, Manifest};
use crate::compute::{fill_inboxes, run_group_vps, Rules, VpWork};
use crate::context_store::{BufferPool, ContextStore};
use crate::msg::{
    fetch_batch_raw_blocks, store_received_blocks, GroupCounts, MsgGeometry, RawBlock,
    ScratchState, StreamSet, MSG_HEADER_BYTES,
};
use crate::report::{PhaseIo, PhaseWall};
use crate::routing::{simulate_routing, RoutingScratch};
use crate::sim_config::{facade_scope::*, sim_facade, SimConfig};
use crate::EmError;
use em_bsp::{BspError, CommLedger, SuperstepComm};
use em_disk::{CheckpointStore, FaultStats, IoStats, TrackAllocator};
use em_serial::{from_bytes, to_bytes, to_bytes_into};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Instant;

/// The `p`-processor EM-BSP\* simulator (Algorithm 3): `p` OS threads,
/// each with a private disk array, exchanging blocks over channels. On a
/// `p = 1` machine it runs exactly what [`crate::SeqEmSimulator`] runs,
/// with its files under `dir/proc-0/`.
#[derive(Debug, Clone)]
pub struct ParEmSimulator {
    cfg: SimConfig,
}

impl ParEmSimulator {
    /// Simulator for the given machine (which carries `p`) with defaults:
    /// seeded RNG, random placement, in-memory disks.
    pub fn new(machine: EmMachine) -> Self {
        ParEmSimulator { cfg: SimConfig::new(machine, 0x9A7_5EED, true) }
    }

    /// Build the `p` private disk arrays [`Self::run`] would construct
    /// internally (file-backed arrays land in `dir/proc-<i>`). Pair with
    /// [`Self::run_on`] to reuse arrays across runs or substitute
    /// caller-provided storage.
    pub fn build_disks(&self) -> EmResult<Vec<DiskArray>> {
        self.cfg.build_disks()
    }

    /// [`Self::run`] on caller-provided disk arrays, one per processor.
    ///
    /// `disks` must hold exactly `p` arrays matching this simulator's
    /// [`Self::disk_config`] in drive count and block size (typed
    /// [`EmError::InvalidConfig`] otherwise). Each run addresses tracks
    /// from 0 upward and rewrites every region it allocates, so repeated
    /// runs on the same arrays are independent.
    pub fn run_on<P: BspProgram>(
        &self,
        mut disks: Vec<DiskArray>,
        prog: &P,
        states: Vec<P::State>,
    ) -> EmResult<(RunResult<P::State>, CostReport)> {
        run_engine(&self.cfg, &mut disks, prog, Start::Fresh(states))
    }
}

sim_facade!(ParEmSimulator);

/// How a run starts: fresh initial states, or a continuation from the
/// processors' committed checkpoint manifests.
pub(crate) enum Start<S> {
    Fresh(Vec<S>),
    Resume(Box<ResumeState>),
}

/// What [`resume_engine`] restores from the manifests.
pub(crate) struct ResumeState {
    v: usize,
    start_step: usize,
    finished: bool,
    workers: Vec<WorkerBook>,
    globals: RunGlobals,
}

/// Run-global bookkeeping. Carried by processor 0's manifest only; the
/// other processors store empty placeholders.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RunGlobals {
    pub ledger: CommLedger,
    pub real_comm: u64,
    pub recovered: u64,
    pub replays: u64,
}

// Field order is checkpoint format 5 (`checkpoint::Manifest`).
em_serial::impl_serial_struct!(RunGlobals { ledger, real_comm, recovered, replays });

/// One processor's committed bookkeeping, as its manifest carries it.
struct WorkerBook {
    counts: GroupCounts,
    alloc: TrackAllocator,
    phases: PhaseIo,
    committed_io: IoStats,
    balances: Vec<f64>,
}

impl WorkerBook {
    /// The manifest → bookkeeping half of the conversion
    /// ([`Worker::manifest`] is the other), for worker `i` of `shape`. The
    /// bookkeeping must describe what a barrier leaves on that worker's
    /// drives (see [`restore_committed_layout`]); a manifest that does not
    /// is [`EmError::InvalidConfig`] before any worker starts.
    fn from_manifest(
        m: Manifest,
        shape: &Shape,
        i: usize,
        cfg: &DiskConfig,
    ) -> EmResult<(Self, RunGlobals)> {
        // Only a checkpointed run resumes, and it keeps two generations.
        let (mut alloc, ctx, geom) = shape.layout(i, cfg, 2)?;
        let ctx_tracks = ctx.iter().map(ContextStore::tracks_per_disk).sum();
        let counts = restore_committed_layout(&mut alloc, ctx_tracks, &geom, &m.counts, m.alloc)?;
        let book = WorkerBook {
            counts,
            alloc,
            phases: m.phases,
            committed_io: m.io,
            balances: m.balances,
        };
        Ok((book, m.globals))
    }
}

/// Restore a worker's allocator from a manifest's `(frontier, free)`
/// state, checked against what a barrier leaves on the worker's drives:
/// group counts that fit the geometry and give the recorded region
/// height ([`GroupCounts::resolve`], whose counts this returns), and an
/// allocator that holds the contexts (`ctx` tracks from track 0, both
/// generations) and that final region — all of both and nothing else, so
/// every other track below a drive's frontier is on its free list. The
/// frontier is checked against the free list's length before anything is
/// sized by it.
fn restore_committed_layout(
    alloc: &mut TrackAllocator,
    ctx: usize,
    geom: &MsgGeometry,
    counts: &GroupCounts,
    (frontier, free): (Vec<usize>, Vec<Vec<usize>>),
) -> EmResult<GroupCounts> {
    let counts = counts.resolve(geom)?;
    let bad = || {
        Err(EmError::InvalidConfig(
            "checkpoint manifest is inconsistent: the allocator does not hold exactly the \
             contexts and the final region"
                .into(),
        ))
    };
    let (base, tracks) = counts.region();
    let held = ctx + tracks;
    let sizes_agree = frontier.len() == geom.num_disks
        && free.len() == geom.num_disks
        && frontier.iter().zip(&free).all(|(&top, free)| top == held + free.len());
    if base.checked_add(tracks).is_none() || (tracks > 0 && base < ctx) || !sizes_agree {
        return bad();
    }
    alloc.restore_state(frontier, free)?;
    if !(0..geom.num_disks).all(|d| alloc.holds(d, 0, ctx) && alloc.holds(d, base, tracks)) {
        return bad();
    }
    Ok(counts)
}

/// The geometry of one run, fixed before any worker starts.
#[derive(Debug, Clone, Copy)]
struct Shape {
    v: usize,
    k: usize,
    p: usize,
    num_batches: usize,
    mu: usize,
    gamma: usize,
}

impl Shape {
    fn new(machine: &EmMachine, v: usize, mu: usize, gamma: usize) -> EmResult<Self> {
        let (k, p) = (machine.group_size(4 + mu, v)?, machine.p);
        Ok(Shape { v, k, p, num_batches: v.div_ceil(k * p), mu, gamma })
    }

    /// Virtual processors per batch.
    fn batch_unit(&self) -> usize {
        self.k * self.p
    }

    /// The virtual processors worker `i` simulates in round `batch` —
    /// short or empty on the ragged tail.
    fn pids(&self, i: usize, batch: usize) -> Range<usize> {
        let first = (batch * self.batch_unit() + i * self.k).min(self.v);
        first..(first + self.k).min(self.v)
    }

    /// The worker that simulates `pid`.
    fn owner(&self, pid: usize) -> usize {
        (pid % self.batch_unit()) / self.k
    }

    /// Virtual processors worker `i` owns — the context regions it needs:
    /// `k` in every full batch, and its share of the ragged tail.
    fn owned(&self, i: usize) -> usize {
        let unit = self.batch_unit();
        self.v / unit * self.k + (self.v % unit).saturating_sub(i * self.k).min(self.k)
    }

    /// Tracks per drive worker `i`'s contexts occupy from track 0, as
    /// [`ContextStore::allocate`] lays them out; `None` past `usize`.
    fn context_tracks(&self, i: usize, cfg: &DiskConfig) -> Option<usize> {
        let blocks = (4 + self.mu).div_ceil(cfg.block_bytes).checked_mul(self.owned(i))?;
        Some(blocks.div_ceil(cfg.num_disks))
    }

    /// Worker `i`'s context region for the first vp of round `batch`; the
    /// round's regions are consecutive from there.
    fn region(&self, batch: usize) -> usize {
        batch * self.k
    }

    /// Worker `i`'s disk layout before its first superstep: an allocator
    /// holding the context regions, one context store per generation
    /// (`generations` of them, back to back from track 0) and the message
    /// geometry.
    fn layout(
        &self,
        i: usize,
        cfg: &DiskConfig,
        generations: usize,
    ) -> EmResult<(TrackAllocator, Vec<ContextStore>, MsgGeometry)> {
        let mut alloc = TrackAllocator::new(cfg.num_disks);
        // Context stores: one region per virtual processor this worker
        // actually owns (all `v` of them at p = 1).
        let ctx = (0..generations)
            .map(|_| {
                let (d, b) = (cfg.num_disks, cfg.block_bytes);
                ContextStore::allocate(&mut alloc, d, b, self.owned(i), self.mu)
            })
            .collect::<EmResult<_>>()?;
        // Message geometry: groups are batches of k·p pids. Partial-block
        // slack: each of the p·num_batches producer slots can leave one
        // partial block per owner stream of a batch (p streams). At p = 1
        // that is one per source group — Algorithm 1's bound.
        let slack = if self.p == 1 {
            self.num_batches
        } else {
            self.p * self.p * self.num_batches + self.num_batches
        };
        let geom = MsgGeometry::new(
            self.v.max(self.batch_unit()),
            self.batch_unit(),
            self.gamma,
            cfg.num_disks,
            cfg.block_bytes,
            slack,
        )?;
        Ok((alloc, ctx, geom))
    }

    /// Deal the initial states out to their owners, each in the order it
    /// will load them (round-major).
    fn partition<S>(&self, states: Vec<S>) -> Vec<Vec<S>> {
        let mut per: Vec<Vec<S>> = (0..self.p).map(|i| Vec::with_capacity(self.owned(i))).collect();
        for (pid, s) in states.into_iter().enumerate() {
            per[self.owner(pid)].push(s);
        }
        per
    }
}

/// One inter-processor bundle: sender id, exchange phase, raw blocks.
///
/// The `phase` is a per-thread monotone exchange counter. Every thread
/// executes the identical sequence of exchanges, but a fast thread can
/// finish one exchange and send its next-phase bundles before a slow
/// thread has drained the current phase — so receivers must match on the
/// phase and stash early arrivals, or bundles from adjacent exchanges
/// would be mixed.
struct Bundle {
    from: usize,
    phase: u64,
    blocks: Vec<RawBlock>,
}

/// How a worker reaches the other `p − 1` — the only thing the worker
/// body is parameterised by.
trait Transport {
    /// One lock-step exchange: hand `out[j]` to worker `j`; returns what
    /// every worker handed to this one, in sender order.
    fn exchange(&mut self, out: Vec<Vec<RawBlock>>) -> Vec<RawBlock>;
    /// Wait until every worker has arrived.
    fn barrier(&self);
}

/// `p = 1`: the worker is alone on the calling thread.
struct Inline;

impl Transport for Inline {
    fn exchange(&mut self, mut out: Vec<Vec<RawBlock>>) -> Vec<RawBlock> {
        out.pop().unwrap_or_default()
    }
    fn barrier(&self) {}
}

/// `p ≥ 2`: one channel per processor and a shared barrier.
struct Channels<'a> {
    me: usize,
    senders: Vec<crossbeam_channel::Sender<Bundle>>,
    rx: crossbeam_channel::Receiver<Bundle>,
    /// Early arrivals from later phases.
    pending: Vec<Bundle>,
    phase: u64,
    barrier: &'a Gate,
    real_comm: &'a AtomicU64,
    block_bytes: usize,
}

/// The phase of the bundle a worker that leaves sends every peer: it is
/// gone, and no exchange will hear from it again.
const GONE: u64 = u64::MAX;

/// `std::sync::Barrier` that a worker which leaves opens for good: every
/// later wait unwinds, instead of waiting for a thread that is gone.
struct Gate {
    p: usize,
    /// Arrivals at the current barrier, barriers passed, and whether a
    /// worker is gone.
    state: std::sync::Mutex<(usize, u64, bool)>,
    passed: Condvar,
}

impl Gate {
    fn new(p: usize) -> Self {
        Gate { p, state: std::sync::Mutex::new((0, 0, false)), passed: Condvar::new() }
    }

    fn wait(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (arrived, generation, _) = &mut *state;
        *arrived += 1;
        if *arrived == self.p {
            *arrived = 0;
            *generation += 1;
            self.passed.notify_all();
            return;
        }
        let mine = *generation;
        while state.1 == mine && !state.2 {
            state = self.passed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.1 == mine {
            drop(state);
            peer_gone();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).2 = true;
        self.passed.notify_all();
    }
}

/// The panic payload of a worker that left the run because a peer did.
struct PeerGone;

/// Unwind this worker's thread because a peer is gone, without running
/// the panic hook: the peer's own panic has been reported, or its error
/// recorded.
fn peer_gone() -> ! {
    std::panic::resume_unwind(Box::new(PeerGone))
}

impl Drop for Channels<'_> {
    /// A worker that ran the whole protocol leaves nobody waiting: its
    /// peers have passed the last barrier and received its last bundles,
    /// which come before this one.
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Bundle { from: self.me, phase: GONE, blocks: Vec::new() });
        }
        self.barrier.open();
    }
}

impl Transport for Channels<'_> {
    fn exchange(&mut self, out: Vec<Vec<RawBlock>>) -> Vec<RawBlock> {
        let p = self.senders.len();
        for (dst, blocks) in out.into_iter().enumerate() {
            if dst != self.me {
                self.real_comm
                    .fetch_add((blocks.len() * self.block_bytes) as u64, Ordering::Relaxed);
            }
            let bundle = Bundle { from: self.me, phase: self.phase, blocks };
            if self.senders[dst].send(bundle).is_err() {
                peer_gone();
            }
        }
        // Receive exactly `p` bundles of this phase, buffering any early
        // arrivals from later phases.
        let mut got: Vec<Bundle> = Vec::with_capacity(p);
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].phase == self.phase {
                got.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        while got.len() < p {
            let b = self.rx.recv().expect("sender alive");
            if b.phase == GONE {
                peer_gone();
            }
            debug_assert!(b.phase >= self.phase, "stale bundle from phase {}", b.phase);
            if b.phase == self.phase {
                got.push(b);
            } else {
                self.pending.push(b);
            }
        }
        got.sort_by_key(|b| b.from);
        self.phase += 1;
        got.into_iter().flat_map(|b| b.blocks).collect()
    }

    fn barrier(&self) {
        self.barrier.wait();
    }
}

/// State every worker of a run can see. At `p = 1` the atomics are
/// uncontended plain cells; nothing here blocks.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    /// Set only by worker 0's termination decision — never by failures —
    /// so a manifest's `finished` flag cannot be corrupted by an error
    /// racing in from another worker's commit.
    terminated: AtomicBool,
    failed: Mutex<Option<EmError>>,
    any_continue: AtomicBool,
    any_msgs: AtomicBool,
    agg_msgs: AtomicU64,
    agg_bytes: AtomicU64,
    agg_h: AtomicU64,
    agg_h_msgs: AtomicU64,
    agg_w: AtomicU64,
    real_comm: AtomicU64,
    ledger: Mutex<CommLedger>,
    // Recovery coordination. Each worker that fails an attempt registers
    // `(error, retried_blocks, recovery_ops)` here *before* the superstep
    // barrier; worker 0 decides replay-vs-fail for everyone between the
    // two barriers. `replay_token` signals a replay by carrying the
    // (lockstep) decision number it applies to, so no reset-race is
    // possible.
    attempt_errors: Mutex<Vec<(EmError, u64, u64)>>,
    replay_token: AtomicU64,
    replays_total: AtomicU64,
    recovered_total: AtomicU64,
}

impl Shared {
    fn new(globals: RunGlobals) -> Self {
        Shared {
            real_comm: AtomicU64::new(globals.real_comm),
            ledger: Mutex::new(globals.ledger),
            replay_token: AtomicU64::new(u64::MAX),
            replays_total: AtomicU64::new(globals.replays),
            recovered_total: AtomicU64::new(globals.recovered),
            ..Shared::default()
        }
    }

    /// Fold one worker's round into the superstep's tallies.
    fn add_comm(&self, round: &SuperstepComm, continued: bool) {
        if continued {
            self.any_continue.store(true, Ordering::Relaxed);
        }
        self.agg_msgs.fetch_add(round.msgs, Ordering::Relaxed);
        self.agg_bytes.fetch_add(round.bytes, Ordering::Relaxed);
        self.agg_h.fetch_max(round.h_bytes, Ordering::Relaxed);
        self.agg_h_msgs.fetch_max(round.h_msgs, Ordering::Relaxed);
        self.agg_w.fetch_max(round.w_comp, Ordering::Relaxed);
    }

    /// Take (and reset) the superstep's aggregated communication tallies.
    fn take_comm(&self) -> SuperstepComm {
        SuperstepComm {
            msgs: self.agg_msgs.swap(0, Ordering::Relaxed),
            bytes: self.agg_bytes.swap(0, Ordering::Relaxed),
            h_bytes: self.agg_h.swap(0, Ordering::Relaxed),
            h_msgs: self.agg_h_msgs.swap(0, Ordering::Relaxed),
            h_packets: 0,
            w_comp: self.agg_w.swap(0, Ordering::Relaxed),
        }
    }

    fn recovery_tallies(&self) -> (u64, u64) {
        (self.recovered_total.load(Ordering::SeqCst), self.replays_total.load(Ordering::SeqCst))
    }

    /// File a worker's failure and stop the run. First error wins, except
    /// a disk-rooted error (raw or already wrapped in
    /// [`EmError::FaultUnrecoverable`]) replaces a co-failing thread's
    /// derived logic error: when a drive dies mid-exchange, the *other*
    /// processors reassemble the faulty processor's partial bundles and fail
    /// with [`EmError::CorruptMessageStream`], whose root cause is the fault
    /// — the typed error must surface regardless of which thread registers
    /// first.
    fn fail(&self, e: EmError) {
        let disk_rooted =
            |e: &EmError| matches!(e, EmError::Disk(_) | EmError::FaultUnrecoverable { .. });
        let mut f = self.failed.lock();
        if f.is_none() || (disk_rooted(&e) && !f.as_ref().is_some_and(disk_rooted)) {
            *f = Some(e);
        }
        drop(f);
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Everything about a run the workers only read.
struct RunEnv<'a, P> {
    prog: &'a P,
    cfg: &'a SimConfig,
    shape: Shape,
    fault_stats: Option<Arc<FaultStats>>,
    start_step: usize,
    /// A resumed finished run has nothing left to replay; it skips
    /// straight to the final read-back.
    step_limit: usize,
    shared: Shared,
}

/// How one worker starts.
enum WorkerStart<S> {
    /// The initial states of the virtual processors it owns, in load order.
    Fresh(Vec<S>),
    Resume(Box<WorkerBook>),
}

/// What one worker hands back: its final states in load order, counted
/// I/O, per-phase split (ops and wall), the allocator's track frontier and
/// per-superstep balance factors.
struct WorkerOutput<S> {
    states: Vec<S>,
    io: IoStats,
    phases: PhaseIo,
    walls: PhaseWall,
    tracks: usize,
    balances: Vec<f64>,
}

/// The engine behind `run`, `run_on` and `resume` of both simulator types.
pub(crate) fn run_engine<P: BspProgram>(
    cfg: &SimConfig,
    disks: &mut [DiskArray],
    prog: &P,
    start: Start<P::State>,
) -> EmResult<(RunResult<P::State>, CostReport)> {
    let start_time = Instant::now();
    cfg.validate_run(disks)?;
    let v = match &start {
        Start::Fresh(states) => states.len(),
        Start::Resume(r) => r.v,
    };
    if v == 0 {
        return Err(EmError::Bsp(BspError::NoProcessors));
    }
    let mu = prog.max_state_bytes();
    let gamma = prog.max_comm_bytes().max(MSG_HEADER_BYTES);
    let shape = Shape::new(&cfg.machine, v, mu, gamma)?;
    let p = shape.p;

    let (start_step, finished, globals, mut starts): (_, _, _, Vec<WorkerStart<P::State>>) =
        match start {
            Start::Fresh(states) => (
                0,
                false,
                RunGlobals::default(),
                shape.partition(states).into_iter().map(WorkerStart::Fresh).collect(),
            ),
            Start::Resume(r) => (
                r.start_step,
                r.finished,
                r.globals,
                r.workers.into_iter().map(|book| WorkerStart::Resume(Box::new(book))).collect(),
            ),
        };
    let env = RunEnv {
        prog,
        cfg,
        shape,
        fault_stats: cfg.fault_plan.as_ref().map(|plan| plan.stats()),
        start_step,
        step_limit: if finished { start_step } else { cfg.max_supersteps },
        shared: Shared::new(globals),
    };

    let outputs: Vec<Option<WorkerOutput<P::State>>> = if p == 1 {
        // Algorithm 1: the one processor is the calling thread.
        vec![env.run_worker(0, &mut disks[0], starts.pop().expect("one start per worker"), Inline)]
    } else {
        let barrier = Gate::new(p);
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..p).map(|_| crossbeam_channel::unbounded::<Bundle>()).unzip();
        let joined = std::thread::scope(|scope| {
            let handles: Vec<_> = disks
                .iter_mut()
                .zip(starts)
                .zip(receivers)
                .enumerate()
                .map(|(i, ((disks, start), rx))| {
                    let net = Channels {
                        me: i,
                        senders: senders.clone(),
                        rx,
                        pending: Vec::new(),
                        phase: 0,
                        barrier: &barrier,
                        real_comm: &env.shared.real_comm,
                        block_bytes: disks.config().block_bytes,
                    };
                    let env = &env;
                    std::thread::Builder::new()
                        .name(format!("em-par-p{i}"))
                        .spawn_scoped(scope, move || env.run_worker(i, disks, start, net))
                        .expect("spawn em-par processor thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        // Every processor thread has exited. A panic reaches the caller as
        // it does at `p = 1`: the first thread's own, not a peer's leaving.
        // Threads that left after a peer's error end the run with that error.
        let (outputs, panics): (Vec<_>, Vec<_>) = joined.into_iter().partition(Result::is_ok);
        if let Some(payload) =
            panics.into_iter().filter_map(Result::err).min_by_key(|e| e.is::<PeerGone>())
        {
            if !payload.is::<PeerGone>() || env.shared.failed.lock().is_none() {
                std::panic::resume_unwind(payload);
            }
        }
        outputs.into_iter().flatten().collect()
    };

    let RunEnv { shared, fault_stats, .. } = env;
    let tallies = shared.recovery_tallies();
    let ledger = shared.ledger.into_inner();
    if let Some(err) = shared.failed.into_inner() {
        // In-loop failures are already wrapped; this catches raw disk
        // errors from the initial load (ledger still empty: step 0) or the
        // final read-back (step λ) of a fault run — already-wrapped and
        // non-disk errors pass through.
        let absorbed = disks
            .iter()
            .map(DiskArray::stats)
            .fold((0, 0), |(r, o), s| (r + s.retried_blocks, o + s.recovery_ops));
        return Err(cfg.wrap_fault(ledger.lambda(), err, &fault_stats, absorbed, tallies));
    }

    // One `CostReport` from the workers' outputs.
    let mut io = IoStats::new(cfg.machine.d);
    let mut phases = PhaseIo::default();
    let mut phase_wall = PhaseWall::default();
    let mut tracks_per_disk = 0usize;
    let mut balance_factors: Vec<f64> = Vec::new();
    let mut max_ops = 0u64;
    let mut per_worker_states = Vec::with_capacity(p);
    for out in outputs {
        let out = out.ok_or_else(|| EmError::InvalidConfig("worker lost its states".into()))?;
        max_ops = max_ops.max(out.io.parallel_ops);
        io.merge(&out.io)?;
        phases.fetch_ctx += out.phases.fetch_ctx;
        phases.fetch_msg += out.phases.fetch_msg;
        phases.scatter += out.phases.scatter;
        phases.write_ctx += out.phases.write_ctx;
        phases.routing += out.phases.routing;
        // Workers run concurrently: the slowest worker bounds the wall.
        phase_wall.merge_max(&out.walls);
        tracks_per_disk = tracks_per_disk.max(out.tracks);
        for (idx, bf) in out.balances.into_iter().enumerate() {
            if balance_factors.len() <= idx {
                balance_factors.push(bf);
            } else {
                balance_factors[idx] = balance_factors[idx].max(bf);
            }
        }
        per_worker_states.push(out.states.into_iter());
    }
    let states = (0..v)
        .map(|pid| per_worker_states[shape.owner(pid)].next())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| EmError::InvalidConfig("worker lost a state".into()))?;

    let report = CostReport {
        v,
        k: shape.k,
        num_groups: shape.num_batches,
        p,
        lambda: ledger.lambda(),
        io_time: max_ops * cfg.machine.g_io,
        phases,
        phase_wall,
        comm: ledger.clone(),
        real_comm_bytes: shared.real_comm.into_inner(),
        wall: start_time.elapsed(),
        tracks_per_disk,
        balance_factors,
        checks: cfg.machine.check_theorem_conditions(v, shape.k, 4 + mu),
        faults: cfg.fault_run().then(|| {
            cfg.fault_report(&fault_stats, (io.retried_blocks, io.recovery_ops), tallies, None)
        }),
        io,
    };
    Ok((RunResult { states, ledger }, report))
}

/// `resume()` of both simulator types: read every processor's manifests,
/// reattach the drive files and re-enter [`run_engine`] at the minimum
/// committed barrier. Nothing is undone: a superstep writes only tracks
/// its barrier left free, so that barrier's bytes are still on the drives.
pub(crate) fn resume_engine<P: BspProgram>(
    cfg: &SimConfig,
    prog: &P,
) -> EmResult<(RunResult<P::State>, CostReport)> {
    cfg.machine.validate()?;
    if !cfg.checkpoint {
        return Err(EmError::InvalidConfig(
            "resume requires checkpointing (with_checkpointing)".into(),
        ));
    }
    if cfg.file_dir.is_none() {
        return Err(EmError::InvalidConfig(
            "resume requires the file backend (with_file_backend)".into(),
        ));
    }
    let p = cfg.machine.p;
    let disk_cfg = cfg.disk_config()?;
    let mu = prog.max_state_bytes();
    let gamma = prog.max_comm_bytes().max(MSG_HEADER_BYTES);
    let decode = |i: usize, payload: &[u8]| -> EmResult<Manifest> {
        let m = Manifest::decode(payload)?;
        m.check_shape(
            mu,
            gamma,
            cfg.seed,
            disk_cfg.num_disks as u32,
            disk_cfg.block_bytes,
            p as u32,
            i as u32,
        )?;
        Ok(m)
    };

    // Pass 1: every processor's latest committed manifest. The commit
    // protocol bounds the skew between processors to one superstep, so the
    // minimum committed barrier is the global resume point and the
    // keep-two manifest retention guarantees every processor still holds a
    // manifest *at* that barrier.
    let mut stores = Vec::with_capacity(p);
    let mut latest = Vec::with_capacity(p);
    for i in 0..p {
        let dir = cfg.worker_dir(i).expect("file backend checked above");
        let store = CheckpointStore::attach(&dir)?;
        let (step, payload) = store.latest_manifest()?.ok_or_else(|| {
            EmError::InvalidConfig(format!(
                "no committed checkpoint manifest for processor {i} to resume from"
            ))
        })?;
        let m = decode(i, &payload)?;
        if m.next_step as u64 != step {
            return Err(EmError::InvalidConfig(
                "checkpoint manifest step disagrees with its payload".into(),
            ));
        }
        stores.push((dir, store));
        latest.push(m);
    }
    let resume_step = latest.iter().map(|m| m.next_step).min().expect("p >= 1 workers");
    let v = latest[0].v;
    let shape = Shape::new(&cfg.machine, v, mu, gamma)?;

    // Pass 2: load each processor's manifest at the resume barrier, check
    // it against the processor's layout and reattach its array.
    let mut workers = Vec::with_capacity(p);
    let mut disks = Vec::with_capacity(p);
    let mut run_wide = None;
    for (i, m_latest) in latest.into_iter().enumerate() {
        let (dir, store) = &stores[i];
        let m = if m_latest.next_step == resume_step {
            m_latest
        } else {
            let payload = store.load_manifest(resume_step as u64)?.ok_or_else(|| {
                EmError::InvalidConfig(format!(
                    "processor {i} committed past barrier {resume_step} but no longer holds \
                     that barrier's manifest"
                ))
            })?;
            decode(i, &payload)?
        };
        if m.v != v || m.k != shape.k || m.num_groups != shape.num_batches {
            return Err(EmError::InvalidConfig(
                "checkpoint resume shape mismatch: group geometry differs from the checkpointed \
                 run"
                .into(),
            ));
        }
        // Every context was written at load, so the drive files hold the
        // tracks `v` implies: a `v` they do not hold is refused before
        // anything is sized by it.
        let mut arr = DiskArray::open_file_with_faults(disk_cfg, dir, cfg.fault_plan.clone())?;
        let held = (0..disk_cfg.num_disks).map(|d| arr.tracks_used(d)).max().unwrap_or(0);
        if shape.context_tracks(i, &disk_cfg).is_none_or(|ctx| ctx > held) {
            return Err(EmError::InvalidConfig(format!(
                "checkpoint manifest is inconsistent: processor {i}'s drive files hold {held} \
                 tracks, fewer than its contexts need"
            )));
        }
        let (finished, fault_ops) = (m.finished, m.fault_ops.clone());
        let (book, globals) = WorkerBook::from_manifest(m, &shape, i, &disk_cfg)?;
        if let Some(ops) = &fault_ops {
            arr.restore_fault_op_counts(ops)?;
        }
        disks.push(arr);
        workers.push(book);
        if i == 0 {
            run_wide = Some((finished, globals));
        }
    }
    let (finished, globals) = run_wide.expect("p >= 1 workers");
    let resume = ResumeState { v, start_step: resume_step, finished, workers, globals };
    run_engine(cfg, &mut disks, prog, Start::Resume(Box::new(resume)))
}

impl<P: BspProgram> RunEnv<'_, P> {
    /// One worker's whole life; a failure is filed in the shared slot.
    fn run_worker<T: Transport>(
        &self,
        i: usize,
        disks: &mut DiskArray,
        start: WorkerStart<P::State>,
        net: T,
    ) -> Option<WorkerOutput<P::State>> {
        let work = Worker::new(self, i, disks, net).and_then(|mut w| {
            w.load(start)?;
            w.supersteps()?;
            w.finish()
        });
        work.map_err(|e| self.shared.fail(e)).ok()
    }
}

/// One real processor: its private array, its allocations on it, and the
/// bookkeeping it commits at each barrier.
struct Worker<'a, P, T> {
    env: &'a RunEnv<'a, P>,
    i: usize,
    net: T,
    disks: &'a mut DiskArray,
    /// Durable checkpointing: this worker's manifests live next to its
    /// drive files.
    store: Option<CheckpointStore>,
    alloc: TrackAllocator,
    /// The context generations: one, or two when the run keeps its
    /// barriers intact ([`SimConfig::keeps_barrier`]). Superstep `s` reads
    /// generation `s mod n` and writes the next one.
    ctx: Vec<ContextStore>,
    geom: MsgGeometry,
    /// The barrier this worker last passed: the superstep it runs next,
    /// whose generation holds the current contexts.
    next_step: usize,
    // Committed bookkeeping: empty on a fresh run, or restored from this
    // worker's barrier manifest. `committed_io` carries the I/O counted
    // before the barrier the run resumed from; the live array counts only
    // what this process adds, and the two merge additively at every
    // barrier and in the final report, so a resumed run's counters are
    // bit-identical to an uninterrupted one's.
    counts: GroupCounts,
    phases: PhaseIo,
    committed_io: IoStats,
    balances: Vec<f64>,
    /// Wall-clock split; unlike `phases` it is *not* rewound on replay —
    /// the time genuinely elapsed even when the attempt rolled back.
    walls: PhaseWall,
    /// Context buffers recycle here across rounds and supersteps; the pool
    /// caches only capacity, so replay needs no snapshot of it.
    ctx_pool: BufferPool,
    /// Same deal for the routing merge pass's bookkeeping.
    routing_scratch: RoutingScratch,
    /// Where the Fetching Phase concatenates one delivered stream at a time.
    stream_buf: Vec<u8>,
    /// The messages a round generates, as the streams the Writing Phase
    /// cuts; refilled every round, so it stops allocating while the rounds
    /// stay the size they were.
    outbox: StreamSet,
    /// `B`-byte buffers for the blocks the Writing Phase cuts; every block
    /// stored on the local disks hands its buffer back, and Algorithm 2
    /// borrows a window of them to move blocks through. Kept apart from
    /// `ctx_pool`, which the context path sizes to a whole context.
    block_pool: BufferPool,
    /// This attempt's failure. A zombie keeps the lockstep protocol alive
    /// with empty bundles and touches its disks no more.
    zombie: Option<EmError>,
    /// Lockstep counter of barrier decisions; pairs with
    /// `Shared::replay_token` to signal replays race-free.
    decision_no: u64,
}

/// What one attempt at a compound superstep accumulates and a rollback
/// discards.
struct Attempt {
    /// Determinism across crash/resume: the placement stream is a pure
    /// function of (seed, worker, superstep), re-derived at every attempt
    /// — never of run history — so a replay, in-process after a rollback
    /// or across a process crash, reproduces the exact stream with nothing
    /// to snapshot or persist beyond the base seed.
    rng: StdRng,
    scratch: ScratchState,
}

impl<'a, P: BspProgram, T: Transport> Worker<'a, P, T> {
    fn new(env: &'a RunEnv<'a, P>, i: usize, disks: &'a mut DiskArray, net: T) -> EmResult<Self> {
        let cfg = disks.config();
        let shape = env.shape;
        let store = if env.cfg.checkpoint {
            let dir = env.cfg.worker_dir(i).expect("checkpointing validated to have a file dir");
            Some(CheckpointStore::attach(&dir)?)
        } else {
            None
        };
        let generations = if env.cfg.keeps_barrier() { 2 } else { 1 };
        let (alloc, ctx, geom) = shape.layout(i, &cfg, generations)?;
        Ok(Worker {
            env,
            i,
            net,
            disks,
            store,
            alloc,
            ctx,
            counts: GroupCounts::empty(geom.num_groups),
            geom,
            next_step: env.start_step,
            phases: PhaseIo::default(),
            committed_io: IoStats::new(cfg.num_disks),
            balances: Vec::new(),
            walls: PhaseWall::default(),
            ctx_pool: BufferPool::new(),
            routing_scratch: RoutingScratch::new(),
            stream_buf: Vec::new(),
            outbox: StreamSet::default(),
            block_pool: BufferPool::new(),
            zombie: None,
            decision_no: 0,
        })
    }

    /// Distribute the input (a fresh run) or adopt the committed
    /// bookkeeping (a resumed one). Either way the array's counters start
    /// the simulation proper at zero: the initial load is input
    /// distribution, not simulation cost. The retries the load needed did
    /// happen, so a fresh run's committed base starts with them.
    fn load(&mut self, start: WorkerStart<P::State>) -> EmResult<()> {
        let shape = self.env.shape;
        match start {
            WorkerStart::Fresh(states) => {
                // A borrowed array still holds its previous run's counts.
                self.disks.reset_stats();
                let mut next = 0;
                for batch in 0..shape.num_batches {
                    let n = shape.pids(self.i, batch).len();
                    if n > 0 {
                        // Encoded into pooled buffers, which go back for
                        // the next group: the pool ends load about one
                        // group long, not holding the whole input.
                        let bufs: Vec<Vec<u8>> = (states[next..next + n].iter())
                            .map(|state| {
                                let mut buf = self.ctx_pool.take();
                                to_bytes_into(state, &mut buf);
                                buf
                            })
                            .collect();
                        self.ctx[0].write_group_into(
                            self.disks,
                            shape.region(batch),
                            &bufs,
                            &mut self.ctx_pool,
                        )?;
                        self.ctx_pool.put_all(bufs);
                        next += n;
                    }
                }
                drop(states);
                // The barrier-0 manifest commits over the distributed
                // input, which must be durable first. A run that commits
                // no manifest never fsyncs: its drives are scratch.
                if self.store.is_some() {
                    self.disks.sync()?;
                }
                self.committed_io.retried_blocks = self.disks.take_stats().retried_blocks;
                if let Some(store) = &self.store {
                    // A reused directory may hold a previous run's
                    // manifests; a fresh run must commit its barrier-0
                    // manifest over a clean slate, or a later resume could
                    // replay the wrong run's tail.
                    store.clear()?;
                    let manifest = self.manifest(0, false, RunGlobals::default())?;
                    store.commit_manifest(0, &to_bytes(&manifest))?;
                }
            }
            WorkerStart::Resume(book) => {
                self.disks.reset_stats();
                self.alloc = book.alloc;
                self.counts = book.counts;
                self.phases = book.phases;
                self.committed_io = book.committed_io;
                self.balances = book.balances;
            }
        }
        Ok(())
    }

    /// This worker's barrier manifest: the committed bookkeeping its
    /// resumed process needs, plus a shape guard against resuming with a
    /// different configuration (the bookkeeping → manifest half of the
    /// conversion; [`WorkerBook::from_manifest`] is the other).
    fn manifest(
        &self,
        next_step: usize,
        finished: bool,
        globals: RunGlobals,
    ) -> EmResult<Manifest> {
        let shape = self.env.shape;
        let cfg = self.disks.config();
        let mut io = self.committed_io.clone();
        io.merge(self.disks.stats())?;
        Ok(Manifest {
            v: shape.v,
            k: shape.k,
            num_groups: shape.num_batches,
            mu: shape.mu,
            gamma: shape.gamma,
            seed: self.env.cfg.seed,
            num_disks: cfg.num_disks as u32,
            block_bytes: cfg.block_bytes,
            p: shape.p as u32,
            worker: self.i as u32,
            next_step,
            finished,
            counts: self.counts.clone(),
            alloc: self.alloc.export_state(),
            fault_ops: self.disks.fault_op_counts(),
            phases: self.phases.clone(),
            io,
            balances: self.balances.clone(),
            globals,
        })
    }

    /// The superstep loop. Each attempt runs the whole compound superstep
    /// (Steps 1 + 2); committed bookkeeping and counted stats are
    /// snapshotted so a rolled-back attempt leaves no trace.
    fn supersteps(&mut self) -> EmResult<()> {
        for step in self.env.start_step..self.env.step_limit {
            let mut attempt = 0usize;
            loop {
                let mut att = self.begin_attempt(step);
                let snap = (
                    self.alloc.clone(),
                    self.counts.clone(),
                    self.phases.clone(),
                    self.balances.len(),
                    self.disks.stats().clone(),
                );
                for batch in 0..self.env.shape.num_batches {
                    let my_blocks = self.fetch_and_forward(batch);
                    let to_store = match self.simulate_round(&mut att, step, batch, my_blocks) {
                        Ok(bundles) => bundles,
                        Err(e) => {
                            self.zombie = Some(e);
                            self.no_bundles()
                        }
                    };
                    self.exchange_and_store(&mut att, to_store);
                }
                self.reorganize(att);
                if self.barrier_decides_replay(step, attempt) {
                    // Every worker — failed or not — rewinds its
                    // bookkeeping and counted stats to the last committed
                    // superstep; the next attempt re-runs the exchanges in
                    // lockstep. The drives need no undoing: the attempt
                    // wrote only tracks that barrier left free.
                    self.disks.rewind_stats(&snap.4);
                    (self.alloc, self.counts, self.phases) = (snap.0, snap.1, snap.2);
                    self.balances.truncate(snap.3);
                    attempt += 1;
                    continue;
                }
                self.commit(step, snap.1.region())?;
                break;
            }
            if self.env.shared.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        Ok(())
    }

    fn begin_attempt(&self, step: usize) -> Attempt {
        Attempt {
            rng: StdRng::seed_from_u64(superstep_seed(
                self.env.cfg.seed,
                self.i as u64,
                step as u64,
            )),
            scratch: ScratchState::new(&self.geom),
        }
    }

    /// `p` empty bundles — what a zombie sends.
    fn no_bundles(&self) -> Vec<Vec<RawBlock>> {
        (0..self.env.shape.p).map(|_| Vec::new()).collect()
    }

    /// Fetching Phase, disk and network half: read this round's message
    /// blocks from the local disks and forward each to the worker
    /// simulating its destination. Returns the blocks this worker must
    /// deliver.
    fn fetch_and_forward(&mut self, batch: usize) -> Vec<RawBlock> {
        let t0 = Instant::now();
        let p = self.env.shape.p;
        let mut fwd = self.no_bundles();
        if self.zombie.is_none() {
            let ops0 = self.disks.stats().parallel_ops;
            let blocks = fetch_batch_raw_blocks(
                self.disks,
                &self.geom,
                &self.counts,
                batch,
                &mut self.block_pool,
            );
            self.phases.fetch_msg += self.disks.stats().parallel_ops - ops0;
            match blocks {
                // dst_tag = batch·p + owner.
                Ok(blocks) => blocks.into_iter().for_each(|b| fwd[b.dst_tag as usize % p].push(b)),
                Err(e) => self.zombie = Some(e),
            }
        }
        let mine = self.net.exchange(fwd);
        self.walls.fetch += t0.elapsed();
        mine
    }

    /// Everything a round does between its two exchanges: deliver, compute,
    /// write back, cut. Returns the per-target-worker bundles of scatter
    /// blocks (empty ones from a zombie).
    fn simulate_round(
        &mut self,
        att: &mut Attempt,
        step: usize,
        batch: usize,
        my_blocks: Vec<RawBlock>,
    ) -> EmResult<Vec<Vec<RawBlock>>> {
        if self.zombie.is_some() {
            return Ok(self.no_bundles());
        }
        let pids = self.env.shape.pids(self.i, batch);
        let work = self.deliver(step, batch, &pids, my_blocks)?;
        let new_states = self.compute(step, work)?;
        self.write_back(att, step, batch, &pids, new_states)
    }

    /// Fetching Phase, owner half: reassemble the delivered `(src, dst)`
    /// streams, decoding each message into its virtual processor's inbox,
    /// and read the round's contexts from superstep `step`'s generation —
    /// in one fully-striped batch (the `k` regions of a round are
    /// consecutive on this worker). The delivered blocks' buffers — read
    /// on this worker or forwarded to it — join this worker's block pool.
    /// Returns the round's virtual processors, ready to run, in pid order.
    fn deliver(
        &mut self,
        step: usize,
        batch: usize,
        pids: &Range<usize>,
        my_blocks: Vec<RawBlock>,
    ) -> EmResult<Vec<VpWork<P::Msg>>> {
        let t0 = Instant::now();
        let mut work: Vec<VpWork<P::Msg>> =
            pids.clone().map(|pid| VpWork::new(pid, Vec::new())).collect();
        fill_inboxes(&my_blocks, pids.clone(), &mut self.stream_buf, &mut work)?;
        self.block_pool.put_all(my_blocks.into_iter().map(|block| block.bytes));
        let ctx_bufs = if pids.is_empty() {
            Vec::new()
        } else {
            let ops0 = self.disks.stats().parallel_ops;
            let region = self.env.shape.region(batch);
            let read = self.ctx[step % self.ctx.len()].read_group_into(
                self.disks,
                region,
                pids.len(),
                &mut self.ctx_pool,
                &mut self.block_pool,
            );
            self.phases.fetch_ctx += self.disks.stats().parallel_ops - ops0;
            read?
        };
        for (w, ctx) in work.iter_mut().zip(ctx_bufs) {
            w.ctx = ctx;
        }
        self.walls.fetch += t0.elapsed();
        Ok(work)
    }

    /// Computing Phase: run the superstep for every virtual processor of
    /// the round through the per-vp kernel, in vp order.
    /// Returns the serialized contexts in vp order and leaves the generated
    /// messages in `self.outbox`, every stream in `(src, seq)` order. Pure
    /// with respect to the disks.
    fn compute(&mut self, step: usize, work: Vec<VpWork<P::Msg>>) -> EmResult<Vec<Vec<u8>>> {
        let t0 = Instant::now();
        let env = self.env;
        let (shape, shared) = (env.shape, &env.shared);
        let rules = Rules { step, v: shape.v, k: shape.k, gamma: shape.gamma };
        let mut new_states: Vec<Vec<u8>> = Vec::with_capacity(work.len());
        let (mut round, mut continued) = (SuperstepComm::default(), false);
        for slot in run_group_vps(env.prog, rules, work, &mut self.outbox) {
            let slot = slot?; // the first error in vp order is the round's
            continued |= slot.continued;
            round.msgs += slot.msgs_sent;
            round.bytes += slot.bytes_sent;
            round.h_bytes = round.h_bytes.max(slot.bytes_sent).max(slot.recv_bytes);
            round.h_msgs = round.h_msgs.max(slot.msgs_sent).max(slot.recv_msgs);
            round.w_comp = round.w_comp.max(slot.work);
            new_states.push(slot.state_bytes);
        }
        shared.add_comm(&round, continued);
        self.walls.compute += t0.elapsed();
        Ok(new_states)
    }

    /// Writing Phase, producer half: write the changed contexts to the
    /// next generation in one fully-striped batch, then cut the round's
    /// outbox into blocks and pick each block's target worker.
    fn write_back(
        &mut self,
        att: &mut Attempt,
        step: usize,
        batch: usize,
        pids: &Range<usize>,
        new_states: Vec<Vec<u8>>,
    ) -> EmResult<Vec<Vec<RawBlock>>> {
        let t0 = Instant::now();
        let shape = self.env.shape;
        if !pids.is_empty() {
            let ops0 = self.disks.stats().parallel_ops;
            let written = self.ctx[(step + 1) % self.ctx.len()].write_group_into(
                self.disks,
                shape.region(batch),
                &new_states,
                &mut self.ctx_pool,
            );
            self.phases.write_ctx += self.disks.stats().parallel_ops - ops0;
            written?;
        }
        // The array copied or wrote the bytes at submission.
        self.ctx_pool.put_all(new_states);

        // One stream per (this producer, destination batch·owner), so
        // blocks are shared by all messages that the same worker will
        // simulate in the same round: the tag `batch·p + owner` is the
        // destination's `k`-slice of the pid space, `dst / k` — the stream
        // the Computing Phase wrote each message onto. The first pid of
        // this (worker, round) slice is unique across all (worker, round)
        // pairs of the superstep — a collision-free source tag.
        let p = shape.p;
        let blocks =
            self.outbox.cut(self.geom.block_bytes, pids.start as u32, &mut self.block_pool)?;
        if !blocks.is_empty() {
            self.env.shared.any_msgs.store(true, Ordering::Relaxed);
        }
        // Scatter each block to a uniformly random worker. With one
        // worker there is one outcome, and a draw over one outcome
        // consumes no randomness.
        let mut bundles = self.no_bundles();
        for b in blocks {
            let target = if p == 1 { 0 } else { att.rng.gen_range(0..p) };
            bundles[target].push(b);
        }
        self.walls.write += t0.elapsed();
        Ok(bundles)
    }

    /// Writing Phase, storing half: exchange the scatter bundles and store
    /// what arrived on the local disks in write cycles of `D`, binned by
    /// destination batch.
    fn exchange_and_store(&mut self, att: &mut Attempt, to_store: Vec<Vec<RawBlock>>) {
        let received = self.net.exchange(to_store);
        let t0 = Instant::now();
        if self.zombie.is_none() {
            let p = self.env.shape.p;
            let ops0 = self.disks.stats().parallel_ops;
            let stored = store_received_blocks(
                self.disks,
                &mut self.alloc,
                &self.geom,
                &mut att.scratch,
                received,
                |tag| tag as usize / p,
                &mut att.rng,
                self.env.cfg.placement,
                &mut self.block_pool,
            );
            self.phases.scatter += self.disks.stats().parallel_ops - ops0;
            if let Err(e) = stored {
                self.zombie = Some(e);
            }
        }
        self.walls.write += t0.elapsed();
    }

    /// Step 2 — reorganize the superstep's scattered blocks locally with
    /// Algorithm 2 — then, when checkpointing, the superstep boundary's
    /// `sync()`.
    fn reorganize(&mut self, att: Attempt) {
        if self.zombie.is_none() {
            self.balances.push(att.scratch.balance_factor());
            let t0 = Instant::now();
            let ops0 = self.disks.stats().parallel_ops;
            // Every block of the fetched final region was read: staging and
            // the new region may reuse its tracks, unless the barrier must
            // stay intact, which releases it at the commit.
            if !self.env.cfg.keeps_barrier() {
                let (base, tracks) = self.counts.region();
                self.alloc.release_region(base, tracks);
            }
            match simulate_routing(
                self.disks,
                &mut self.alloc,
                &self.geom,
                att.scratch,
                &mut self.routing_scratch,
                &mut self.block_pool,
                None,
            ) {
                Ok((counts, _trace)) => self.counts = counts,
                Err(e) => self.zombie = Some(e),
            }
            self.phases.routing += self.disks.stats().parallel_ops - ops0;
            self.walls.reorganize += t0.elapsed();
        }

        // Superstep boundary of a checkpointed run: this worker's writes
        // are durable before the barrier ends the superstep and its
        // manifest commits over them. A run that commits no manifest
        // skips it — nothing would ever read its drives back after a
        // crash. No-op on the memory backend; generates no counted I/O
        // operations.
        if self.zombie.is_none() && self.store.is_some() {
            let t0 = Instant::now();
            if let Err(e) = self.disks.sync() {
                self.zombie = Some(e.into());
            }
            self.walls.sync += t0.elapsed();
        }
    }

    /// The superstep barrier: every worker registers its attempt's
    /// failure, worker 0 decides for everyone between two barrier waits —
    /// advance (ledger entry, termination check), replay, or fail — and
    /// every worker reads the decision. Returns whether to replay.
    fn barrier_decides_replay(&mut self, step: usize, attempt: usize) -> bool {
        let env = self.env;
        let (cfg, shared) = (env.cfg, &env.shared);
        let absorbed = (self.disks.stats().retried_blocks, self.disks.stats().recovery_ops);
        if let Some(e) = self.zombie.take() {
            if cfg.recovery.is_some() {
                shared.attempt_errors.lock().push((e, absorbed.0, absorbed.1));
            } else {
                shared.fail(cfg.wrap_fault(step, e, &env.fault_stats, absorbed, (0, 0)));
            }
        }

        self.net.barrier();
        if self.i == 0 {
            let mut regs = std::mem::take(&mut *shared.attempt_errors.lock());
            if regs.is_empty() {
                shared.ledger.lock().push(shared.take_comm());
                if attempt > 0 {
                    shared.recovered_total.fetch_add(1, Ordering::Relaxed);
                }
                let had_continue = shared.any_continue.swap(false, Ordering::Relaxed);
                let had_msgs = shared.any_msgs.swap(false, Ordering::Relaxed);
                if !had_continue && !had_msgs {
                    shared.terminated.store(true, Ordering::SeqCst);
                    shared.stop.store(true, Ordering::SeqCst);
                }
                if step + 1 == cfg.max_supersteps && !shared.stop.load(Ordering::SeqCst) {
                    shared
                        .fail(EmError::Bsp(BspError::SuperstepLimit { limit: cfg.max_supersteps }));
                }
            } else {
                let budget = cfg.recovery.map_or(0, |r| r.max_replays_per_superstep);
                let all_transient =
                    regs.iter().all(|(e, _, _)| matches!(e, EmError::Disk(d) if d.is_transient()));
                if all_transient && attempt < budget {
                    // Replay: every worker rolls back and re-runs this
                    // superstep. The failed attempt's aggregates are
                    // discarded and re-accumulated by the replay.
                    shared.replays_total.fetch_add(1, Ordering::Relaxed);
                    shared.take_comm();
                    shared.any_continue.swap(false, Ordering::Relaxed);
                    shared.any_msgs.swap(false, Ordering::Relaxed);
                    shared.replay_token.store(self.decision_no, Ordering::SeqCst);
                } else {
                    let retried: u64 = regs.iter().map(|r| r.1).sum();
                    let rec_ops: u64 = regs.iter().map(|r| r.2).sum();
                    // Registration order races across threads; surface
                    // the disk error as the root cause — co-failing
                    // threads derive logic errors from the faulty thread's
                    // partial exchange bundles.
                    let root = regs
                        .iter()
                        .position(|(e, _, _)| matches!(e, EmError::Disk(_)))
                        .unwrap_or(0);
                    let (first, _, _) = regs.swap_remove(root);
                    shared.fail(cfg.wrap_fault(
                        step,
                        first,
                        &env.fault_stats,
                        (retried, rec_ops),
                        shared.recovery_tallies(),
                    ));
                }
            }
        }
        self.net.barrier();
        let replay = shared.replay_token.load(Ordering::SeqCst) == self.decision_no;
        self.decision_no += 1;
        replay
    }

    /// Commit the superstep that survived the barrier: release the final
    /// region its messages were `fetched` from when the run keeps its
    /// barriers intact, and commit the manifest when checkpointing.
    /// Returns [`EmError::Killed`] at a kill point.
    fn commit(&mut self, step: usize, fetched: (usize, usize)) -> EmResult<()> {
        let env = self.env;
        let (cfg, shared) = (env.cfg, &env.shared);
        self.next_step = step + 1;
        if cfg.keeps_barrier() {
            self.alloc.release_region(fetched.0, fetched.1);
        }
        let Some(store) = &self.store else {
            return Ok(());
        };
        // Barrier commit protocol. Every worker's superstep data is
        // already durable (the pre-barrier sync); now each worker commits
        // its manifest, and a barrier proves *all* manifests durable before
        // anyone writes over barrier `step`'s context generation or final
        // region — so a crash at any instant leaves the workers' committed
        // barriers skewed by at most one superstep, and the older one's
        // bytes still on the drives.
        let killed_at = |kp: fn(usize) -> KillPoint| cfg.kill == Some(kp(step));
        // A mid-superstep crash: the superstep's writes are synced, but no
        // new manifest commits — resume replays this superstep.
        if shared.failed.lock().is_none() && !killed_at(KillPoint::MidSuperstep) {
            let globals = if self.i == 0 {
                let (recovered, replays) = shared.recovery_tallies();
                RunGlobals {
                    ledger: shared.ledger.lock().clone(),
                    real_comm: shared.real_comm.load(Ordering::SeqCst),
                    recovered,
                    replays,
                }
            } else {
                RunGlobals::default()
            };
            let finished = shared.terminated.load(Ordering::SeqCst);
            let payload = to_bytes(&self.manifest(step + 1, finished, globals)?);
            let committed = if self.i == 0 && killed_at(KillPoint::MidManifest) {
                // The crash tears worker 0's manifest mid-write — a frame
                // the CRC check must reject, so resume falls back to the
                // previous committed manifest — while the other workers
                // committed theirs in full: the worst-case commit skew the
                // resume protocol exists to reconcile.
                store.write_torn_manifest(step as u64 + 1, &payload, payload.len() / 2 + 8)
            } else {
                store.commit_manifest(step as u64 + 1, &payload)
            };
            if let Err(e) = committed {
                shared.fail(e.into());
            }
        }
        self.net.barrier();
        if matches!(cfg.kill, Some(kp) if kp.step() == step) {
            // The simulated whole-process crash: every worker dies here,
            // skipping the final read-back exactly as a real crash would.
            return Err(EmError::Killed { step });
        }
        Ok(())
    }

    /// Read the final contexts back (batched per round) and hand over this
    /// worker's meters.
    fn finish(mut self) -> EmResult<WorkerOutput<P::State>> {
        let shape = self.env.shape;
        let mut states = Vec::with_capacity(shape.owned(self.i));
        for batch in 0..shape.num_batches {
            let n = shape.pids(self.i, batch).len();
            if n > 0 {
                let region = shape.region(batch);
                let read = self.ctx[self.next_step % self.ctx.len()].read_group_into(
                    self.disks,
                    region,
                    n,
                    &mut self.ctx_pool,
                    &mut self.block_pool,
                )?;
                for buf in read {
                    states.push(from_bytes::<P::State>(&buf)?);
                    self.ctx_pool.put(buf);
                }
            }
        }
        // The reported I/O is the committed base (zero on a fresh run)
        // plus everything this process did — bit-identical to an
        // uninterrupted run's count. The array keeps its counters: a
        // borrowed array is its caller's per-run meter.
        let mut io = self.committed_io;
        io.merge(self.disks.stats())?;
        Ok(WorkerOutput {
            states,
            io,
            phases: self.phases,
            walls: self.walls,
            tracks: self.alloc.max_frontier(),
            balances: self.balances,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_programs::{AllToAll, Chatty, Diffuse};
    use crate::SeqEmSimulator;
    use em_bsp::{run_sequential, BspStarParams};
    use std::path::Path;

    /// The diffusion workload of the crash tests.
    const DIFFUSE: Diffuse = Diffuse { rounds: 4 };

    fn machine(p: usize, m: usize, d: usize, b: usize) -> EmMachine {
        EmMachine {
            p,
            m_bytes: m,
            d,
            b_bytes: b,
            g_io: 1,
            router: BspStarParams { p, g: 1.0, b, l: 1.0 },
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let v = 32;
        let prog = AllToAll { mu: 124 };
        let reference = run_sequential(&prog, vec![0u64; v]).unwrap();
        // p=4, M=256 -> k=2, batches of 8.
        let sim = ParEmSimulator::new(machine(4, 256, 2, 64)).with_seed(5);
        let (res, report) = sim.run(&prog, vec![0u64; v]).unwrap();
        assert_eq!(res.states, reference.states);
        assert_eq!(report.p, 4);
        assert_eq!(report.k, 2);
        assert_eq!(report.num_groups, 4); // 32 / (2*4)
        assert!(report.io.parallel_ops > 0);
        assert!(report.real_comm_bytes > 0);
    }

    /// A worker owns, in closed form, what its batches hand it one by one.
    #[test]
    fn owned_counts_every_batch_share() {
        for (v, k, p) in [(1, 1, 1), (16, 2, 1), (17, 2, 1), (13, 3, 2), (2, 1, 4), (31, 4, 3)] {
            let shape = Shape { v, k, p, num_batches: v.div_ceil(k * p), mu: 8, gamma: 8 };
            let per_batch = |i| (0..shape.num_batches).map(|b| shape.pids(i, b).len()).sum();
            assert!((0..p).all(|i| shape.owned(i) == per_batch(i)), "v {v}, k {k}, p {p}");
            assert_eq!((0..p).map(|i| shape.owned(i)).sum::<usize>(), v);
        }
    }

    /// Every regular file directly inside `dir`, by name.
    fn dir_bytes(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.is_file())
            .map(|path| {
                (
                    path.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect()
    }

    /// Algorithm 3 at `p = 1` *is* Algorithm 1: the two entry points run
    /// one engine, so at one seed every counted quantity — and every byte
    /// on the drives — agrees. Multi-group, multi-superstep, ragged `v`
    /// (`k = 2 ∤ v = 13`: seven groups, the last of one).
    #[test]
    fn single_processor_is_algorithm_1() {
        type Run = (RunResult<u64>, CostReport);
        fn assert_same(what: &str, (a, ra): &Run, (b, rb): &Run) {
            assert_eq!(a.states, b.states, "{what}: final states");
            assert_eq!(a.ledger, b.ledger, "{what}: CommLedger");
            assert_eq!(ra.io, rb.io, "{what}: IoStats");
            assert_eq!(ra.phases, rb.phases, "{what}: PhaseIo");
            assert_eq!(ra.balance_factors, rb.balance_factors, "{what}: balance factors");
            assert_eq!(ra.tracks_per_disk, rb.tracks_per_disk, "{what}: tracks_per_disk");
            assert_eq!(
                (ra.k, ra.num_groups, ra.lambda),
                (rb.k, rb.num_groups, rb.lambda),
                "{what}"
            );
        }
        let init: Vec<u64> = (0..13u64).map(|x| x * 11 + 3).collect();
        let reference = run_sequential(&DIFFUSE, init.clone()).unwrap();
        let base = std::env::temp_dir().join(format!("em-p1-alg1-{}", std::process::id()));
        let seq = SeqEmSimulator::new(machine(1, 256, 2, 64)).with_seed(0xE1);
        let par = ParEmSimulator::new(machine(1, 256, 2, 64)).with_seed(0xE1);

        let a = seq.run(&DIFFUSE, init.clone()).unwrap();
        let b = par.run(&DIFFUSE, init.clone()).unwrap();
        assert_eq!(a.0.states, reference.states);
        assert_eq!((a.1.k, a.1.num_groups, a.1.lambda), (2, 7, 5));
        assert_same("memory", &a, &b);

        let (seq_dir, par_dir) = (base.join("seq"), base.join("par"));
        let fa = seq.clone().with_file_backend(&seq_dir).run(&DIFFUSE, init.clone()).unwrap();
        let fb = par.clone().with_file_backend(&par_dir).run(&DIFFUSE, init.clone()).unwrap();
        assert_same("file", &fa, &fb);
        assert_same("file vs memory", &a, &fa);
        let drives = dir_bytes(&seq_dir);
        assert!(!drives.is_empty(), "the run left no drive files");
        assert_eq!(drives, dir_bytes(&par_dir.join("proc-0")), "drive-file bytes");

        // One crash lane: both die mid-superstep 2 and resume to the
        // uninterrupted result, drive files and manifests byte for byte.
        let (seq_dir, par_dir) = (base.join("seq-kill"), base.join("par-kill"));
        let seq = seq.with_file_backend(&seq_dir).with_checkpointing(true);
        let par = par.with_file_backend(&par_dir).with_checkpointing(true);
        let kill = KillPoint::MidSuperstep(2);
        for err in [
            seq.clone().with_kill_point(kill).run(&DIFFUSE, init.clone()).unwrap_err(),
            par.clone().with_kill_point(kill).run(&DIFFUSE, init.clone()).unwrap_err(),
        ] {
            assert!(matches!(err, EmError::Killed { step: 2 }), "{err}");
        }
        assert_eq!(dir_bytes(&seq_dir), dir_bytes(&par_dir.join("proc-0")), "crashed state");
        let (a, b) = (seq.resume(&DIFFUSE).unwrap(), par.resume(&DIFFUSE).unwrap());
        assert_eq!(a.0.states, reference.states);
        assert_same("resumed", &a, &b);
        assert_eq!(dir_bytes(&seq_dir), dir_bytes(&par_dir.join("proc-0")), "resumed state");
        let uninterrupted = SeqEmSimulator::new(machine(1, 256, 2, 64))
            .with_seed(0xE1)
            .run(&DIFFUSE, init)
            .unwrap();
        assert_eq!(a.1.io.parallel_ops, uninterrupted.1.io.parallel_ops);
        assert_eq!(a.1.phases, uninterrupted.1.phases);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Batching moves wall clock only: what a run leaves behind and what it
    /// is charged are what stripe-at-a-time submission left and charged.
    /// The constants were recorded by running this same body at the commit
    /// before batches existed (PR 13, `9c0bd1a`), so they are that commit's
    /// behaviour, not this one's. A `sort-file`-shaped run — checksummed,
    /// retried drive files, checkpointed — is killed mid-superstep and
    /// resumed; `D = 5` against four blocks per group puts group starts
    /// on every drive, where the write cut (every `D` blocks from the
    /// group's first: 35 ops) and the read cut (at drive `D − 1`: 55 ops)
    /// differ.
    #[test]
    fn batched_sweeps_leave_what_the_parent_commit_left() {
        use em_disk::RetryPolicy;
        // Recorded at `9c0bd1a`, except the two media CRCs and `TRACKS`.
        // Checkpoint format 2 dropped two always-zero `u64`s from the
        // manifest, so the CRCs were re-recorded then — every drive and
        // journal file was still `9c0bd1a`'s. Format 3 sizes each
        // superstep's message regions from its traffic: the same blocks
        // land on the same drives at lower tracks, and the manifest
        // records the final region, so both CRCs and the footprint (53
        // tracks before) were re-recorded again. Format 4 keeps each
        // barrier intact instead of journaling it: contexts alternate
        // between two generations and the fetched final region stays held
        // until the barrier commits, so the same blocks land on other
        // tracks, no journal is left, and both CRCs and the footprint (31
        // tracks before) were re-recorded a third time. Format 5 lays each
        // final region over the scratch tracks Step 1 has read, one stride
        // per bucket, and the manifest records the region's height: the
        // same blocks land on the same drives at lower tracks, so both CRCs
        // and the footprint (47 tracks before) were re-recorded a fourth
        // time. Every count stands.
        const KILLED: u32 = 0x8EA9_43C2;
        const RESUMED: u32 = 0xE909_E315;
        const IO: (u64, u64, u64) = (315, 468, 442);
        const PER_DISK: (&[u64], &[u64]) = (&[99, 103, 111, 83, 72], &[93, 98, 106, 78, 67]);
        const PHASES: [u64; 5] = [55, 28, 28, 35, 158];
        const TRACKS: usize = 34;
        // CRC-32 over every file a run left — drive files and manifests
        // — by name, length and bytes.
        fn media(dir: &Path) -> u32 {
            let mut all = Vec::new();
            for (name, bytes) in dir_bytes(dir) {
                all.extend_from_slice(name.as_bytes());
                all.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                all.extend_from_slice(&bytes);
            }
            em_disk::crc32(&all)
        }
        let init: Vec<u64> = (0..13u64).map(|x| x * 11 + 3).collect();
        let dir = std::env::temp_dir().join(format!("em-batch-parent-{}", std::process::id()));
        let sim = SeqEmSimulator::new(machine(1, 320, 5, 64))
            .with_seed(0xD3D97)
            .with_file_backend(&dir)
            .with_checksums(true)
            .with_retry(RetryPolicy::default())
            .with_checkpointing(true);
        let killed = sim.clone().with_kill_point(KillPoint::MidSuperstep(2));
        let err = killed.run(&DIFFUSE, init.clone()).unwrap_err();
        assert!(matches!(err, EmError::Killed { step: 2 }), "{err}");
        let names: Vec<String> = dir_bytes(&dir).into_keys().collect();
        assert!(names.iter().any(|name| name.starts_with("disk-")), "{names:?}");
        assert!(!names.iter().any(|name| name == "journal.bin"), "{names:?}");
        assert_eq!(media(&dir), KILLED, "killed mid-superstep: {names:?}");
        let (res, report) = sim.resume(&DIFFUSE).unwrap();
        assert_eq!(res.states, run_sequential(&DIFFUSE, init).unwrap().states);
        assert_eq!(media(&dir), RESUMED, "resumed to the end");
        let io = &report.io;
        assert_eq!((io.parallel_ops, io.blocks_read, io.blocks_written), IO, "IoStats");
        assert_eq!((&io.per_disk_reads[..], &io.per_disk_writes[..]), PER_DISK, "IoStats");
        let ph = &report.phases;
        assert_eq!(
            [ph.fetch_ctx, ph.fetch_msg, ph.scatter, ph.write_ctx, ph.routing],
            PHASES,
            "PhaseIo"
        );
        assert_eq!(report.tracks_per_disk, TRACKS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ragged_tail_batch() {
        // v not divisible by k*p: last batch is partial.
        let prog = AllToAll { mu: 124 };
        let v = 13;
        let reference = run_sequential(&prog, vec![0u64; v]).unwrap();
        let sim = ParEmSimulator::new(machine(4, 256, 2, 64)).with_seed(11);
        let (res, _) = sim.run(&prog, vec![0u64; v]).unwrap();
        assert_eq!(res.states, reference.states);
    }

    #[test]
    fn multi_superstep_program_parallel() {
        let v = 24;
        let init: Vec<u64> = (0..v as u64).collect();
        let reference = run_sequential(&Diffuse { rounds: 5 }, init.clone()).unwrap();
        let sim = ParEmSimulator::new(machine(3, 256, 2, 64)).with_seed(2);
        let (res, report) = sim.run(&Diffuse { rounds: 5 }, init).unwrap();
        assert_eq!(res.states, reference.states);
        assert_eq!(report.lambda, reference.supersteps());
    }

    #[test]
    fn error_in_one_thread_propagates() {
        let sim = ParEmSimulator::new(machine(2, 256, 2, 64));
        let err = sim.run(&Chatty, vec![0u64; 8]).unwrap_err();
        assert!(matches!(err, EmError::CommBudgetExceeded { pid: 3, .. }));
    }

    #[test]
    fn parallel_file_backend() {
        let dir = std::env::temp_dir().join(format!("em-par-sim-{}", std::process::id()));
        let prog = AllToAll { mu: 124 };
        let reference = run_sequential(&prog, vec![0u64; 16]).unwrap();
        let sim = ParEmSimulator::new(machine(2, 256, 2, 64)).with_file_backend(&dir);
        let (res, _) = sim.run(&prog, vec![0u64; 16]).unwrap();
        assert_eq!(res.states, reference.states);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointing_requires_file_backend() {
        let sim = ParEmSimulator::new(machine(2, 256, 2, 64)).with_checkpointing(true);
        let err = sim.run(&AllToAll { mu: 124 }, vec![0u64; 8]).unwrap_err();
        assert!(matches!(err, EmError::InvalidConfig(_)));
    }

    #[test]
    fn checkpointed_parallel_run_is_bit_identical_to_unchecked() {
        let base_dir =
            std::env::temp_dir().join(format!("em-par-ckpt-plain-{}", std::process::id()));
        let v = 24;
        let init: Vec<u64> = (0..v as u64).map(|x| x * 7 + 1).collect();
        let plain = ParEmSimulator::new(machine(3, 256, 2, 64))
            .with_seed(9)
            .with_file_backend(base_dir.join("plain"));
        let (a, ra) = plain.run(&DIFFUSE, init.clone()).unwrap();
        let ckpt = ParEmSimulator::new(machine(3, 256, 2, 64))
            .with_seed(9)
            .with_file_backend(base_dir.join("ckpt"))
            .with_checkpointing(true);
        let (b, rb) = ckpt.run(&DIFFUSE, init).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops);
        assert_eq!(ra.phases, rb.phases);
        std::fs::remove_dir_all(&base_dir).ok();
    }

    #[test]
    fn parallel_kill_and_resume_matches_uninterrupted_run() {
        let base_dir = std::env::temp_dir().join(format!("em-par-ckpt-{}", std::process::id()));
        let v = 24;
        let init: Vec<u64> = (0..v as u64).map(|x| x * 11 + 3).collect();
        // Uninterrupted checkpointed run — the reference.
        let sim_a = ParEmSimulator::new(machine(3, 256, 2, 64))
            .with_seed(7)
            .with_file_backend(base_dir.join("uninterrupted"))
            .with_checkpointing(true);
        let (a, ra) = sim_a.run(&DIFFUSE, init.clone()).unwrap();
        for kill in [KillPoint::AtBarrier(0), KillPoint::MidSuperstep(2), KillPoint::MidManifest(1)]
        {
            let sim_b = ParEmSimulator::new(machine(3, 256, 2, 64))
                .with_seed(7)
                .with_file_backend(base_dir.join(format!("{kill:?}")))
                .with_checkpointing(true);
            let err = sim_b.clone().with_kill_point(kill).run(&DIFFUSE, init.clone()).unwrap_err();
            assert!(matches!(err, EmError::Killed { .. }), "{kill:?}: {err}");
            let (b, rb) = sim_b.resume(&DIFFUSE).unwrap();
            assert_eq!(a.states, b.states, "{kill:?}");
            assert_eq!(a.ledger, b.ledger, "{kill:?}");
            assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops, "{kill:?}");
            assert_eq!(ra.io.per_disk_reads, rb.io.per_disk_reads, "{kill:?}");
            assert_eq!(ra.io.per_disk_writes, rb.io.per_disk_writes, "{kill:?}");
            assert_eq!(ra.phases, rb.phases, "{kill:?}");
            assert_eq!(ra.real_comm_bytes, rb.real_comm_bytes, "{kill:?}");
        }
        std::fs::remove_dir_all(&base_dir).ok();
    }

    #[test]
    fn resume_of_finished_parallel_run_rebuilds_result() {
        let base_dir = std::env::temp_dir().join(format!("em-par-ckpt-fin-{}", std::process::id()));
        let v = 24;
        let init: Vec<u64> = (0..v as u64).collect();
        let sim = ParEmSimulator::new(machine(3, 256, 2, 64))
            .with_seed(3)
            .with_file_backend(&base_dir)
            .with_checkpointing(true);
        let (a, ra) = sim.run(&DIFFUSE, init).unwrap();
        let (b, rb) = sim.resume(&DIFFUSE).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops);
        std::fs::remove_dir_all(&base_dir).ok();
    }

    /// A fresh run of [`DIFFUSE`] over `v` virtual processors, for driving
    /// one worker phase by phase.
    fn diffuse_env(cfg: &SimConfig, v: usize) -> RunEnv<'_, Diffuse> {
        let gamma = DIFFUSE.max_comm_bytes().max(MSG_HEADER_BYTES);
        RunEnv {
            prog: &DIFFUSE,
            cfg,
            shape: Shape::new(&cfg.machine, v, DIFFUSE.max_state_bytes(), gamma).unwrap(),
            fault_stats: None,
            start_step: 0,
            step_limit: cfg.max_supersteps,
            shared: Shared::new(RunGlobals::default()),
        }
    }

    /// The invariant that replaces pre-images: with recovery on, a
    /// superstep writes no track its starting barrier needs — a track the
    /// allocator holds there, other than the context generation the
    /// superstep writes — so a rollback or a resume finds the barrier's
    /// bytes where it left them. One `p = 1` worker is driven phase by
    /// phase over a backend that records every write: superstep 0 fetches
    /// no messages, superstep 4 routes none, and superstep 2's first
    /// attempt is rolled back and run again.
    #[test]
    fn a_superstep_writes_only_tracks_its_barrier_left_free() {
        use crate::test_programs::WriteRecording;
        use crate::RecoveryPolicy;
        let sim = ParEmSimulator::new(machine(1, 256, 2, 64))
            .with_seed(5)
            .with_recovery(RecoveryPolicy::new(4));
        let cfg = &sim.cfg;
        let env = diffuse_env(cfg, 16);
        let shape = env.shape;
        let written: Arc<std::sync::Mutex<Vec<(usize, usize)>>> = Arc::default();
        let inner = Box::new(em_disk::MemoryBackend::new(2));
        let backend = WriteRecording { inner, written: written.clone() };
        let mut disks = DiskArray::with_backend(cfg.disk_config().unwrap(), Box::new(backend));
        let mut w = Worker::new(&env, 0, &mut disks, Inline).unwrap();
        w.load(WorkerStart::Fresh((0..16).collect())).unwrap();
        written.lock().unwrap().clear();
        let t = w.ctx[0].tracks_per_disk();
        for step in 0..=DIFFUSE.rounds {
            let (frontier, free) = w.alloc.export_state();
            let next_generation = (step + 1) % 2 * t..((step + 1) % 2 + 1) * t;
            let live = |&(disk, track): &(usize, usize)| {
                track < frontier[disk]
                    && !free[disk].contains(&track)
                    && !next_generation.contains(&track)
            };
            let fetched = w.counts.region();
            for attempt in 0..if step == 2 { 2 } else { 1 } {
                let snap = (w.alloc.clone(), w.counts.clone(), w.disks.stats().clone());
                let mut att = w.begin_attempt(step);
                for batch in 0..shape.num_batches {
                    let my_blocks = w.fetch_and_forward(batch);
                    let bundles = w.simulate_round(&mut att, step, batch, my_blocks).unwrap();
                    w.exchange_and_store(&mut att, bundles);
                }
                w.reorganize(att);
                assert!(w.zombie.is_none(), "step {step}: {:?}", w.zombie);
                let writes = std::mem::take(&mut *written.lock().unwrap());
                assert!(!writes.is_empty(), "step {step}: the contexts were written");
                let clobbered: Vec<_> = writes.iter().filter(|at| live(at)).collect();
                assert!(clobbered.is_empty(), "step {step}, attempt {attempt}: {clobbered:?}");
                if step == 2 && attempt == 0 {
                    w.disks.rewind_stats(&snap.2);
                    (w.alloc, w.counts) = (snap.0, snap.1);
                }
            }
            w.commit(step, fetched).unwrap();
        }
    }

    /// Resume reads only what the committed manifest's allocator holds.
    /// Every free track of a run killed mid-superstep — where a power loss
    /// could have lost or torn the superstep's unsynced writes — is
    /// overwritten with seeded bytes, from track 0 to the end of each
    /// drive file, and the resumed run still matches the uninterrupted one.
    #[test]
    fn resume_reads_nothing_from_free_tracks() {
        use rand::RngCore;
        let init: Vec<u64> = (0..24u64).map(|x| x * 5 + 2).collect();
        let base = std::env::temp_dir().join(format!("em-free-tracks-{}", std::process::id()));
        for p in [1, 2] {
            let sim = |dir: &Path| {
                ParEmSimulator::new(machine(p, 256, 2, 64))
                    .with_seed(0xF7EE)
                    .with_checksums(true)
                    .with_file_backend(dir)
                    .with_checkpointing(true)
            };
            let (a, ra) =
                sim(&base.join(format!("p{p}-whole"))).run(&DIFFUSE, init.clone()).unwrap();
            let dir = base.join(format!("p{p}-killed"));
            let killed = sim(&dir).with_kill_point(KillPoint::MidSuperstep(2));
            let err = killed.run(&DIFFUSE, init.clone()).unwrap_err();
            assert!(matches!(err, EmError::Killed { step: 2 }), "{err}");
            let track_bytes = DiskArray::storage_block_bytes(&sim(&dir).cfg.disk_config().unwrap());
            let mut rng = StdRng::seed_from_u64(0x70_4E + p as u64);
            let mut garbled = 0;
            for i in 0..p {
                let proc = dir.join(format!("proc-{i}"));
                let store = CheckpointStore::attach(&proc).unwrap();
                let (_, payload) = store.latest_manifest().unwrap().unwrap();
                let (frontier, free) = Manifest::decode(&payload).unwrap().alloc;
                for (disk, (top, free)) in frontier.iter().zip(&free).enumerate() {
                    let path = proc.join(format!("disk-{disk}.bin"));
                    let mut bytes = std::fs::read(&path).unwrap();
                    for (track, chunk) in bytes.chunks_mut(track_bytes).enumerate() {
                        if track >= *top || free.contains(&track) {
                            for word in chunk.chunks_mut(8) {
                                word.copy_from_slice(&rng.next_u64().to_le_bytes()[..word.len()]);
                            }
                            garbled += 1;
                        }
                    }
                    std::fs::write(&path, bytes).unwrap();
                }
            }
            assert!(garbled > 0, "p = {p}: the killed run left no free track");
            let (b, rb) = sim(&dir).resume(&DIFFUSE).unwrap();
            assert_eq!(a.states, b.states, "p = {p}: states");
            assert_eq!(a.ledger, b.ledger, "p = {p}: ledger");
            assert_eq!(ra.io, rb.io, "p = {p}: IoStats");
            assert_eq!(ra.phases, rb.phases, "p = {p}: PhaseIo");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// Drive one worker of a `p = 1` run phase by phase over `v` virtual
    /// processors for three supersteps, checking each round's `deliver`
    /// against its block pool; returns both pools' lengths after load and
    /// after every superstep.
    fn pool_lengths(v: usize) -> Vec<(usize, usize)> {
        let sim = ParEmSimulator::new(machine(1, 256, 2, 64)).with_seed(5);
        let cfg = &sim.cfg;
        let env = diffuse_env(cfg, v);
        let shape = env.shape;
        let mut disks = cfg.build_disks().unwrap();
        let mut w = Worker::new(&env, 0, &mut disks[0], Inline).unwrap();
        w.load(WorkerStart::Fresh((0..v as u64).collect())).unwrap();
        let mut lengths = vec![(w.ctx_pool.len(), w.block_pool.len())];
        for step in 0..3 {
            let mut att = w.begin_attempt(step);
            for batch in 0..shape.num_batches {
                let pids = shape.pids(0, batch);
                let my_blocks = w.fetch_and_forward(batch);
                assert_eq!(my_blocks.is_empty(), step == 0, "step {step}: messages to deliver");
                // `deliver` pools the message blocks, then borrows the
                // context read's blocks from the pool and returns them.
                let ctx_blocks = pids.len() * w.ctx[0].blocks_per_context();
                let after = (w.block_pool.len() + my_blocks.len()).max(ctx_blocks);
                let work = w.deliver(step, batch, &pids, my_blocks).unwrap();
                assert_eq!(w.block_pool.len(), after, "step {step}, round {batch}: block lost");
                let states = w.compute(step, work).unwrap();
                let bundles = w.write_back(&mut att, step, batch, &pids, states).unwrap();
                w.exchange_and_store(&mut att, bundles);
            }
            w.reorganize(att);
            assert!(w.zombie.is_none(), "step {step}: {:?}", w.zombie);
            lengths.push((w.ctx_pool.len(), w.block_pool.len()));
        }
        lengths
    }

    /// Each of a worker's pools holds about one round's buffers — however
    /// many virtual processors it owns, however many supersteps it runs
    /// (DESIGN §3.2.5): load encodes the input into the context pool's
    /// buffers and gives them back group by group, and every block a round
    /// delivers returns to the block pool. The block pool's largest lend is
    /// Algorithm 2's window, which these runs fill (at `v = 16` a
    /// superstep moves fewer blocks than a window, so it holds fewer).
    #[test]
    fn worker_pools_hold_one_rounds_buffers() {
        let (small, large) = (pool_lengths(128), pool_lengths(512));
        let k = 2;
        assert_eq!(small[0], (k + 1, 0), "load: one group's contexts and the staging buffer");
        assert_eq!(small, large, "the pools grew with the input");
        let window = crate::routing::WINDOW_BLOCKS;
        assert_eq!(small[1..], [(k + 1, window); 3], "the pools grew with the supersteps");
        assert!(pool_lengths(16).iter().all(|&(c, b)| c == k + 1 && b < window));
    }
}
