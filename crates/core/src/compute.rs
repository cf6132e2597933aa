//! In-group compute parallelism for the Computation Phase (Step 1(c)).
//!
//! Both simulators run the `k` virtual processors of a group through the
//! same per-vp kernel: decode the context, deliver the canonically ordered
//! inbox, run [`em_bsp::BspProgram::superstep`], write the outgoing
//! envelopes onto the round's streams and re-encode the context. The
//! [`ComputeMode`] knob chooses *who* runs that kernel:
//!
//! * [`ComputeMode::Serial`] — the simulating thread, one vp at a time
//!   (the paper's model; the default).
//! * [`ComputeMode::Threaded`] — a persistent [`ComputePool`] of at most
//!   `n` workers, each taking one contiguous chunk of the group.
//!
//! **Determinism is by construction, not by synchronization.** Every vp
//! gets a pre-built [`VpWork`] slot (its context bytes and its inbox) and
//! fills a dedicated [`VpSlot`] result (its re-encoded context and its
//! tallies); its messages go, in send order and with per-sender `seq`
//! numbers assigned vp-locally, onto a [`StreamSet`] — the simulating
//! thread's own when it runs the kernel itself, one per chunk when workers
//! do, which the parent appends to its own in chunk order afterwards.
//! Workers never share mutable state, and either way every stream's
//! envelopes end up in `(src, seq)` order. The bytes written to disk, the
//! canonical `(src, per-sender send order)` inbox contract of the *next*
//! superstep, the communication ledger and every counted I/O operation are
//! therefore bit-identical across modes — the knob only changes which OS
//! thread executes the kernel. Errors are deterministic too: the parent surfaces
//! the first error in vp order, exactly the one the serial loop would
//! have stopped at (running later vps first is unobservable, since a
//! failed superstep's outputs are discarded wholesale).
//!
//! The *dispatch* is scoped to one group even though the workers are not:
//! the [`ComputePool`] threads (`em-compute-w{idx}`) live for the lifetime
//! of the simulator that owns them and are reused across groups,
//! supersteps, `run_on()`/`resume()` calls and service jobs — but every
//! dispatch blocks until all of its chunk jobs have completed, so workers
//! borrow the program and the slot array only while the parent waits.
//! Replaying a superstep under recovery therefore needs no extra
//! rewinding — no *group* state outlives the dispatch, only the idle
//! threads do.

use crate::msg::{reassemble_blocks, RawBlock, StreamSet, MSG_HEADER_BYTES};
use crate::{EmError, EmResult};
use em_bsp::{BspError, BspProgram, Envelope, Mailbox, Step};
use em_serial::{from_bytes, to_bytes_into, Serial};
use std::any::Any;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

/// How the Computation Phase runs the virtual processors of a group.
///
/// Mirrors the [`em_disk::IoMode`] / [`em_disk::Pipeline`] knobs: final
/// states, message ledger, counted I/O and seeded traces are identical in
/// every mode (asserted by `tests/compute_modes.rs` and the cross-executor
/// matrix); only wall-clock time may differ.
///
/// ```
/// use em_core::{ComputeMode, EmMachine, SeqEmSimulator};
/// use em_disk::Pipeline;
///
/// // Fan each group's virtual processors over up to 4 scoped workers;
/// // the knob composes freely with the pipeline (and cache) knobs.
/// let machine = EmMachine::uniprocessor(1 << 16, 4, 256, 1);
/// let _sim = SeqEmSimulator::new(machine)
///     .with_compute_mode(ComputeMode::Threaded(4))
///     .with_pipeline(Pipeline::Stream(2));
/// assert_eq!(ComputeMode::default(), ComputeMode::Serial);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComputeMode {
    /// Run the group's virtual processors on the simulating thread, in pid
    /// order (the default).
    #[default]
    Serial,
    /// Run the group's virtual processors on a persistent worker pool of
    /// at most this many threads (clamped to at least 1 and at most the
    /// group size). `Threaded(1)` exercises the pool machinery but is
    /// effectively serial.
    Threaded(usize),
    /// Ask the runtime to choose: the simulators' `AutoTuner` resolves
    /// this into [`ComputeMode::Serial`] or a concrete
    /// [`ComputeMode::Threaded`] width *before* any group runs, and the
    /// resolution is recorded in `CostReport::resolved_config`. An
    /// unresolved `Auto` that reaches the kernel dispatcher behaves like
    /// `Serial` — the conservative choice — so the knob can never change
    /// results on its own.
    Auto,
}

impl ComputeMode {
    /// Whether this is the unresolved [`ComputeMode::Auto`] request.
    #[inline]
    pub fn is_auto(&self) -> bool {
        matches!(self, ComputeMode::Auto)
    }
}

/// A completion gate for one pool dispatch: counts outstanding jobs and
/// keeps the first panic so the dispatcher can re-raise it after *all*
/// jobs of the batch have finished (never mid-batch — that would leave a
/// worker writing into a slot array the parent has already dropped).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Latch { remaining: Mutex::new(jobs), done: Condvar::new(), panic: Mutex::new(None) }
    }

    /// Worker side: record an optional panic payload and count down.
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic.lock().expect("latch panic slot");
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        let mut remaining = self.remaining.lock().expect("latch count");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Dispatcher side: block until every job of the batch completed.
    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch count");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("latch count");
        }
    }
}

/// One queued pool job: the erased closure plus the dispatch latch it
/// reports to.
struct PoolJob {
    run: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

struct PoolInner {
    /// Job queue sender; taken (dropped) on shutdown so workers see the
    /// disconnect and exit their loops.
    tx: Mutex<Option<crossbeam_channel::Sender<PoolJob>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
    pinned: bool,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        // Disconnect the queue, then join every named worker: dropping the
        // last pool handle must leave no `em-compute-w*` thread behind.
        self.tx.get_mut().expect("pool sender").take();
        for h in self.handles.get_mut().expect("pool handles").drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent compute worker pool shared by the Computation Phase and
/// the reorganization phase.
///
/// Workers are OS threads named `em-compute-w{idx}`, spawned **once** when
/// the pool is built and reused for every subsequent dispatch — across
/// groups, supersteps, `run_on()`/`resume()` calls and `em-service` jobs —
/// so the hot path never pays thread-spawn latency. Cloning the handle is
/// cheap (the clones share the workers); the threads exit and are joined
/// when the last handle drops.
///
/// Determinism is unaffected by the pool by construction: a dispatch
/// hands each worker a disjoint, pre-sized slot range, blocks until the
/// whole batch has completed, and reads the slots back in vp order —
/// exactly the discipline of the scoped pool it replaces. A panicking job
/// finishes its batch first and is then re-raised on the dispatching
/// thread.
#[derive(Clone)]
pub struct ComputePool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("workers", &self.inner.workers)
            .field("pinned", &self.inner.pinned)
            .finish()
    }
}

impl ComputePool {
    /// Spawn a pool of `workers` threads (at least 1), unpinned.
    pub fn new(workers: usize) -> Self {
        Self::with_pinning(workers, false)
    }

    /// Spawn a pool of `workers` threads (at least 1). With `pinned`,
    /// worker `i` is best-effort pinned to core `i mod ncpus` (a no-op on
    /// platforms without thread affinity).
    pub fn with_pinning(workers: usize, pinned: bool) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = crossbeam_channel::unbounded::<PoolJob>();
        let ncpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let handles = (0..workers)
            .map(|idx| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("em-compute-w{idx}"))
                    .spawn(move || {
                        if pinned {
                            em_disk::pin_thread_to_core(idx % ncpus);
                        }
                        while let Ok(job) = rx.recv() {
                            let panic =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.run))
                                    .err();
                            job.latch.complete(panic);
                        }
                    })
                    .expect("spawn em-compute worker")
            })
            .collect();
        ComputePool {
            inner: Arc::new(PoolInner {
                tx: Mutex::new(Some(tx)),
                handles: Mutex::new(handles),
                workers,
                pinned,
            }),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Whether the workers were affinity-pinned at spawn.
    pub fn pinned(&self) -> bool {
        self.inner.pinned
    }

    /// Run a batch of jobs on the pool and block until every one has
    /// completed; the first panicking job's payload is re-raised here
    /// afterwards.
    ///
    /// The jobs may borrow from the caller's stack frame (`'env`): the
    /// blocking wait is what makes that sound, exactly as with
    /// [`std::thread::scope`].
    pub(crate) fn scope_run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len()));
        {
            let tx = self.inner.tx.lock().expect("pool sender");
            let tx = tx.as_ref().expect("pool queue alive while a handle exists");
            for job in jobs {
                // SAFETY: `scope_run` does not return until the latch has
                // counted every job (including panicked ones) as complete,
                // so no borrow inside `job` is used after it expires. The
                // transmute only erases the `'env` lifetime; the trait
                // object layout is unchanged.
                let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
                tx.send(PoolJob { run: job, latch: latch.clone() })
                    .expect("pool workers alive while a handle exists");
            }
        }
        latch.wait();
        let panic = latch.panic.lock().expect("latch panic slot").take();
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    }

    /// Map `items` through `f` on the pool, returning results **in item
    /// order**: each of up to `workers` jobs owns one contiguous chunk of
    /// the items and fills the matching chunk of pre-sized slots. With one
    /// effective worker (or one item) the map runs inline on the caller.
    pub(crate) fn map_ordered<T, R, F>(
        pool: Option<&ComputePool>,
        workers: usize,
        items: Vec<T>,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let count = items.len();
        let workers = workers.clamp(1, count.max(1));
        let pool = match pool {
            Some(p) if workers > 1 && count > 1 => p,
            _ => return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect(),
        };
        let chunk = count.div_ceil(workers);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
        slots.resize_with(count, || None);
        let f = &f;
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
        let mut rest: &mut [Option<R>] = &mut slots;
        let mut items = items.into_iter();
        let mut offset = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let batch: Vec<T> = items.by_ref().take(take).collect();
            let base = offset;
            offset += take;
            jobs.push(Box::new(move || {
                for (i, (slot, t)) in head.iter_mut().zip(batch).enumerate() {
                    *slot = Some(f(base + i, t));
                }
            }));
        }
        pool.scope_run(jobs);
        slots.into_iter().map(|s| s.expect("every slot was assigned to a worker")).collect()
    }
}

/// One virtual processor's share of a group's Computation Phase, prepared
/// by the simulating thread before any worker runs.
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

/// One virtual processor's results, filled by exactly one worker.
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

/// The per-vp kernel shared by every mode and both simulators. The vp's
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

/// Run every [`VpWork`] item through the kernel under `mode`, returning
/// one result per item **in vp order** regardless of which thread ran it,
/// and leaving the round's messages — and nothing else: what `out` held is
/// discarded first — in `out`. When any result is an error, what `out`
/// holds is part of a round and good for nothing.
///
/// With a [`ComputePool`] the chunk jobs run on its persistent workers;
/// without one (direct unit-test calls) a scoped pool is spun up for the
/// call. Chunking, slot layout and join order are identical either way.
pub(crate) fn run_group_vps<P: BspProgram>(
    prog: &P,
    mode: ComputeMode,
    rules: Rules,
    work: Vec<VpWork<P::Msg>>,
    pool: Option<&ComputePool>,
    out: &mut StreamSet,
) -> Vec<EmResult<VpSlot>> {
    out.clear();
    let count = work.len();
    let workers = match mode {
        // An unresolved `Auto` is serial: resolution happens upstream in
        // the simulators, never here.
        ComputeMode::Serial | ComputeMode::Auto => 1,
        ComputeMode::Threaded(n) => n.clamp(1, count.max(1)),
    };
    if workers <= 1 || count <= 1 {
        return work.into_iter().map(|w| run_one_vp(prog, rules, w, out)).collect();
    }

    // Each worker owns one contiguous chunk of the work items, fills the
    // matching chunk of pre-sized result slots and writes that chunk's
    // messages onto a stream set of its own; no two workers touch the same
    // slot or set, and the parent reads both back in vp order.
    type Chunk<'s, M> = (&'s mut [Option<EmResult<VpSlot>>], Vec<VpWork<M>>, &'s mut StreamSet);
    fn run_chunk<P: BspProgram>(prog: &P, rules: Rules, (slots, work, out): Chunk<'_, P::Msg>) {
        for (slot, w) in slots.iter_mut().zip(work) {
            *slot = Some(run_one_vp(prog, rules, w, out));
        }
    }
    let chunk = count.div_ceil(workers);
    let mut slots: Vec<Option<EmResult<VpSlot>>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let mut sets: Vec<StreamSet> = Vec::new();
    sets.resize_with(count.div_ceil(chunk), StreamSet::default);
    let mut items = work.into_iter();
    let chunks: Vec<Chunk<'_, P::Msg>> = slots
        .chunks_mut(chunk)
        .zip(&mut sets)
        .map(|(head, set)| {
            let batch = items.by_ref().take(head.len()).collect();
            (head, batch, set)
        })
        .collect();
    match pool {
        Some(pool) => {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .into_iter()
                .map(|c| {
                    Box::new(move || run_chunk(prog, rules, c)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_run(jobs);
        }
        None => {
            std::thread::scope(|scope| {
                for c in chunks {
                    scope.spawn(move || run_chunk(prog, rules, c));
                }
            });
        }
    }
    for set in &sets {
        out.append(set);
    }
    slots.into_iter().map(|s| s.expect("every slot was assigned to a worker")).collect()
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

    fn tallies(s: &VpSlot) -> (u64, u64, u64, u64, u64, bool) {
        (s.msgs_sent, s.bytes_sent, s.recv_bytes, s.recv_msgs, s.work, s.continued)
    }

    /// The blocks `out` cuts into, as `(dst_tag, bytes)`.
    fn cut(out: &mut StreamSet) -> Vec<(u32, Vec<u8>)> {
        let blocks = out.cut(64, 0, &mut BufferPool::new()).unwrap();
        blocks.into_iter().map(|raw| (raw.dst_tag, raw.bytes)).collect()
    }

    #[test]
    fn threaded_slots_match_serial_bytes() {
        let mut out = StreamSet::default();
        let serial =
            run_group_vps(&Echo, ComputeMode::Serial, RULES, work_items(V), None, &mut out);
        let serial_blocks = cut(&mut out);
        // Seven vps send eight messages of 24 envelope bytes each, over the
        // four tags of `k = 2`: streams that straddle 44-byte blocks.
        assert_eq!(serial_blocks.len(), 4 * 8, "{serial_blocks:?}");
        let pool = ComputePool::new(3);
        for n in [1usize, 2, 3, 16] {
            for pool in [None, Some(&pool)] {
                // One set across every width, as a run keeps it.
                let mode = ComputeMode::Threaded(n);
                let threaded = run_group_vps(&Echo, mode, RULES, work_items(V), pool, &mut out);
                assert_eq!(serial.len(), threaded.len());
                for (a, b) in serial.iter().zip(&threaded) {
                    let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                    assert_eq!(a.state_bytes, b.state_bytes);
                    assert_eq!(tallies(a), tallies(b));
                }
                assert_eq!(cut(&mut out), serial_blocks, "Threaded({n}): the round's blocks");
            }
        }
    }

    #[test]
    fn pool_map_ordered_matches_inline_and_reuses_workers() {
        let pool = ComputePool::new(2);
        for n in [0usize, 1, 2, 7, 64] {
            let items: Vec<u64> = (0..n as u64).collect();
            let inline = ComputePool::map_ordered(None, 4, items.clone(), |i, x| x * 3 + i as u64);
            let pooled = ComputePool::map_ordered(Some(&pool), 4, items, |i, x| x * 3 + i as u64);
            assert_eq!(inline, pooled);
        }
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn pool_panic_is_reraised_after_the_batch_completes() {
        let pool = ComputePool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ComputePool::map_ordered(Some(&pool), 4, vec![0usize, 1, 2, 3], |_, x| {
                if x == 1 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(caught.is_err(), "worker panic must surface on the dispatcher");
        // The pool survives a panicked batch and keeps serving dispatches.
        let ok = ComputePool::map_ordered(Some(&pool), 4, vec![5usize, 6], |_, x| x + 1);
        assert_eq!(ok, vec![6, 7]);
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
    fn first_vp_order_error_surfaces_in_every_mode() {
        let pool = ComputePool::new(4);
        for over_budget in [false, true] {
            for mode in [ComputeMode::Serial, ComputeMode::Threaded(4)] {
                for pool in [None, Some(&pool)] {
                    let mut out = StreamSet::default();
                    let bad = Bad { over_budget };
                    let results = run_group_vps(&bad, mode, RULES, work_items(V), pool, &mut out);
                    // Every vp from 3 on fails; vp 3's is the round's error.
                    let first = results.into_iter().find_map(|r| r.err()).expect("error expected");
                    match first {
                        EmError::Bsp(BspError::InvalidDestination {
                            dst: usize::MAX,
                            nprocs: V,
                        }) => {
                            assert!(!over_budget)
                        }
                        EmError::CommBudgetExceeded { pid: 3, budget, .. } => {
                            assert!(over_budget && budget == RULES.gamma)
                        }
                        other => panic!("{other}"),
                    }
                    // The failed round's messages — vps 0..3's whole, the
                    // others' in part — are still in the set. The next round
                    // through it starts from nothing.
                    let (mut fresh, prog) = (StreamSet::default(), Echo);
                    run_group_vps(&prog, mode, RULES, work_items(V), pool, &mut out);
                    run_group_vps(&prog, mode, RULES, work_items(V), pool, &mut fresh);
                    assert_eq!(cut(&mut out), cut(&mut fresh), "{mode:?}, over γ: {over_budget}");
                }
            }
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
