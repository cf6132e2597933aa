//! In-group compute parallelism for the Computation Phase (Step 1(c)).
//!
//! Both simulators run the `k` virtual processors of a group through the
//! same per-vp kernel: decode the context, deliver the canonically ordered
//! inbox, run [`em_bsp::BspProgram::superstep`], encode the outgoing
//! envelopes and re-encode the context. The [`ComputeMode`] knob chooses
//! *who* runs that kernel:
//!
//! * [`ComputeMode::Serial`] — the simulating thread, one vp at a time
//!   (the paper's model; the default).
//! * [`ComputeMode::Threaded`] — a persistent [`ComputePool`] of at most
//!   `n` workers, each taking one contiguous chunk of the group.
//!
//! **Determinism is by construction, not by synchronization.** Every vp
//! gets a pre-built [`VpWork`] slot (its context bytes and its inbox) and
//! fills a dedicated [`VpSlot`] result (its re-encoded context and its
//! outbox — a [`MsgBatch`] of its own, in send order, with per-sender
//! `seq` numbers assigned vp-locally). Workers never share mutable state;
//! the parent concatenates the slots in vp order afterwards, which is why
//! a round's batch is born in `(src, seq)` order. The bytes written to
//! disk, the canonical
//! `(src, per-sender send order)` inbox contract of the *next* superstep,
//! the communication ledger and every counted I/O operation are therefore
//! bit-identical across modes — the knob only changes which OS thread
//! executes the kernel. Errors are deterministic too: the parent surfaces
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

use crate::msg::{MsgBatch, MSG_HEADER_BYTES};
use crate::{EmError, EmResult};
use em_bsp::{BspError, BspProgram, Envelope, Mailbox, Step};
use em_serial::{from_bytes, to_bytes_into, Serial};
use std::any::Any;
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
    /// Decoded inbound messages as `(src, seq, msg)`; sorted into the
    /// canonical `(src, seq)` order by the kernel.
    pub inbox: Vec<(u32, u32, M)>,
    /// Bytes received by this vp (for the h-relation tally).
    pub recv_bytes: u64,
    /// Messages received by this vp (for the h-relation tally).
    pub recv_msgs: u64,
}

/// One virtual processor's results, filled by exactly one worker.
pub(crate) struct VpSlot {
    /// The re-encoded context (reuses the [`VpWork::ctx`] allocation).
    pub state_bytes: Vec<u8>,
    /// Outgoing messages in send order, with vp-local `seq` numbers, each
    /// encoded once, into this batch's arena.
    pub outbox: MsgBatch,
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

/// The per-vp kernel shared by every mode and both simulators.
fn run_one_vp<P: BspProgram>(
    prog: &P,
    step: usize,
    v: usize,
    gamma: usize,
    mut w: VpWork<P::Msg>,
) -> EmResult<VpSlot> {
    let mut state: P::State = from_bytes(&w.ctx)?;
    w.inbox.sort_by_key(|&(src, seq, _)| (src, seq));
    let incoming: Vec<Envelope<P::Msg>> = std::mem::take(&mut w.inbox)
        .into_iter()
        .map(|(src, _, msg)| Envelope { src: src as usize, msg })
        .collect();
    let mut mb = Mailbox::new(w.pid, v, incoming);
    let status = prog.superstep(step, &mut mb, &mut state);
    let (out, msgs_sent, bytes_sent, work) = mb.into_outgoing();

    // A program's own byte count sizes the arena; one over γ fails below.
    let mut outbox = MsgBatch::with_capacity(
        out.len(),
        usize::try_from(bytes_sent).map_or(gamma, |bytes| bytes.min(gamma)),
    );
    let mut envelope_bytes = 0u64;
    for (seq, (dst, msg)) in out.into_iter().enumerate() {
        if dst >= v {
            return Err(EmError::Bsp(BspError::InvalidDestination { dst, nprocs: v }));
        }
        let len = outbox.push_with(dst as u32, w.pid as u32, seq as u32, |arena| msg.encode(arena));
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
        outbox,
        msgs_sent,
        bytes_sent,
        recv_bytes: w.recv_bytes,
        recv_msgs: w.recv_msgs,
        work,
        continued: status == Step::Continue,
    })
}

/// Run every [`VpWork`] item through the kernel under `mode`, returning
/// one result per item **in vp order** regardless of which thread ran it.
///
/// With a [`ComputePool`] the chunk jobs run on its persistent workers;
/// without one (direct unit-test calls) a scoped pool is spun up for the
/// call. Chunking, slot layout and join order are identical either way.
pub(crate) fn run_group_vps<P: BspProgram>(
    prog: &P,
    mode: ComputeMode,
    step: usize,
    v: usize,
    gamma: usize,
    work: Vec<VpWork<P::Msg>>,
    pool: Option<&ComputePool>,
) -> Vec<EmResult<VpSlot>> {
    let count = work.len();
    let workers = match mode {
        // An unresolved `Auto` is serial: resolution happens upstream in
        // the simulators, never here.
        ComputeMode::Serial | ComputeMode::Auto => 1,
        ComputeMode::Threaded(n) => n.clamp(1, count.max(1)),
    };
    if workers <= 1 || count <= 1 {
        return work.into_iter().map(|w| run_one_vp(prog, step, v, gamma, w)).collect();
    }

    // Each worker owns one contiguous chunk of the work items and fills
    // the matching chunk of pre-sized result slots; no two workers touch
    // the same slot, and the parent reads the slots back in vp order.
    type Chunk<'s, M> = (&'s mut [Option<EmResult<VpSlot>>], Vec<VpWork<M>>);
    let chunk = count.div_ceil(workers);
    let mut slots: Vec<Option<EmResult<VpSlot>>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let mut chunks: Vec<Chunk<'_, P::Msg>> = Vec::with_capacity(workers);
    {
        let mut rest: &mut [Option<EmResult<VpSlot>>] = &mut slots;
        let mut items = work.into_iter();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let batch: Vec<VpWork<P::Msg>> = items.by_ref().take(take).collect();
            chunks.push((head, batch));
        }
    }
    match pool {
        Some(pool) => {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .into_iter()
                .map(|(head, batch)| {
                    Box::new(move || {
                        for (slot, w) in head.iter_mut().zip(batch) {
                            *slot = Some(run_one_vp(prog, step, v, gamma, w));
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_run(jobs);
        }
        None => {
            std::thread::scope(|scope| {
                for (head, batch) in chunks {
                    scope.spawn(move || {
                        for (slot, w) in head.iter_mut().zip(batch) {
                            *slot = Some(run_one_vp(prog, step, v, gamma, w));
                        }
                    });
                }
            });
        }
    }
    slots.into_iter().map(|s| s.expect("every slot was assigned to a worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_serial::to_bytes;

    struct Echo;
    impl BspProgram for Echo {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, _step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
            for e in mb.take_incoming() {
                *state = state.wrapping_add(e.msg);
            }
            mb.send((mb.pid() + 1) % mb.nprocs(), *state);
            Step::Halt
        }
        fn max_state_bytes(&self) -> usize {
            8
        }
        fn max_comm_bytes(&self) -> usize {
            24
        }
    }

    fn work_items(n: usize) -> Vec<VpWork<u64>> {
        (0..n)
            .map(|pid| VpWork {
                pid,
                ctx: to_bytes(&(pid as u64 * 10)),
                inbox: vec![(1, 0, 5u64), (0, 0, 7u64)],
                recv_bytes: 16,
                recv_msgs: 2,
            })
            .collect()
    }

    #[test]
    fn threaded_slots_match_serial_bytes() {
        let v = 7;
        let serial = run_group_vps(&Echo, ComputeMode::Serial, 0, v, 64, work_items(v), None);
        let pool = ComputePool::new(3);
        for n in [1usize, 2, 3, 16] {
            for pool in [None, Some(&pool)] {
                let threaded =
                    run_group_vps(&Echo, ComputeMode::Threaded(n), 0, v, 64, work_items(v), pool);
                assert_eq!(serial.len(), threaded.len());
                for (a, b) in serial.iter().zip(&threaded) {
                    let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                    assert_eq!(a.state_bytes, b.state_bytes);
                    assert_eq!(a.outbox.iter().count(), 1, "Echo sends one message per vp");
                    assert!(a.outbox.iter().eq(b.outbox.iter()), "outbox batches differ");
                    assert_eq!(
                        (a.msgs_sent, a.bytes_sent, a.recv_bytes, a.recv_msgs, a.work, a.continued),
                        (b.msgs_sent, b.bytes_sent, b.recv_bytes, b.recv_msgs, b.work, b.continued)
                    );
                }
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

    #[test]
    fn first_vp_order_error_surfaces_in_every_mode() {
        struct Bad;
        impl BspProgram for Bad {
            type State = u64;
            type Msg = u64;
            fn superstep(&self, _: usize, mb: &mut Mailbox<u64>, _: &mut u64) -> Step {
                mb.take_incoming();
                mb.send(usize::MAX, 0); // invalid destination for every vp
                Step::Halt
            }
            fn max_state_bytes(&self) -> usize {
                8
            }
        }
        let pool = ComputePool::new(4);
        for mode in [ComputeMode::Serial, ComputeMode::Threaded(4)] {
            for pool in [None, Some(&pool)] {
                let items: Vec<VpWork<u64>> = (0..6)
                    .map(|pid| VpWork {
                        pid,
                        ctx: to_bytes(&0u64),
                        inbox: Vec::new(),
                        recv_bytes: 0,
                        recv_msgs: 0,
                    })
                    .collect();
                let out = run_group_vps(&Bad, mode, 0, 6, 64, items, pool);
                let first = out.into_iter().find_map(|r| r.err()).expect("error expected");
                assert!(matches!(first, EmError::Bsp(BspError::InvalidDestination { .. })));
            }
        }
    }
}
