//! Kernel-side `io_uring` engine behind the file backend (Linux only,
//! opt-in via the `io-uring` cargo feature).
//!
//! The threaded [`IoEngine`](crate::engine) realizes the model's `D`-way
//! parallel I/O operation with one worker thread per drive. This module
//! maps the *same* submit/join ticket contract onto kernel submission
//! queues instead: a stripe becomes `≤ D` SQEs pushed in one batch (one
//! `io_uring_enter` syscall instead of `D` channel hand-offs and thread
//! wake-ups), and a single reaper thread completes CQEs into the very
//! reply channels the tickets already join on. Everything above the
//! backend — counted [`crate::IoStats`], the decorator stack, recovery —
//! is untouched by construction; the engine choice is wall-clock only.
//!
//! Contract parity with the threaded engine (asserted by the shared
//! fingerprint tests):
//!
//! * **Per-drive FIFO** — `io_uring` itself does not order independent
//!   SQEs, so the engine keeps a software queue per drive and has at most
//!   one operation in flight per drive at a time; queued operations are
//!   released in submission order as completions arrive. Cross-drive
//!   overlap (the `D`-way parallelism that the model counts) is preserved;
//!   intra-drive serialization matches the one-worker-per-drive engine
//!   exactly.
//! * **Deterministic errors** — a failed transfer surfaces as
//!   [`DiskError::WorkerIo`] tagged with the drive; joins report the
//!   lowest-indexed failing drive, and deferred errors are sticky across
//!   `sync_all`, because the tickets are literally the same type completed
//!   through the same channels.
//! * **Short transfers** — reads and writes are resubmitted for the
//!   remainder (the kernel may return short on either), and reads past EOF
//!   zero-fill, matching `read_full_track`.
//!
//! No external crate is involved: the three `io_uring` syscalls and the
//! ring mmaps are called directly through the C library `std` already
//! links. [`EngineKind::Uring`](crate::EngineKind) is a *preference* — if
//! ring setup fails at runtime (old kernel, `io_uring_disabled` sysctl,
//! seccomp), [`FileBackend`](crate::FileBackend) silently falls back to
//! the threaded engine, so requesting it is always safe.

#[cfg(all(target_os = "linux", feature = "io-uring"))]
mod imp {
    use crate::engine::{
        copy_joined, first_failure, join_slots, track_offset, PendingSlots, ReadTicket, WriteTicket,
    };
    use crate::{DiskError, DiskResult, TrackOutcomes};
    use crossbeam_channel::{bounded, Sender};
    use std::collections::{HashMap, VecDeque};
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_long, c_uint, c_void};
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::thread::JoinHandle;

    const SYS_IO_URING_SETUP: c_long = 425;
    const SYS_IO_URING_ENTER: c_long = 426;

    const IORING_OP_NOP: u8 = 0;
    const IORING_OP_FSYNC: u8 = 3;
    const IORING_OP_READ: u8 = 22;
    const IORING_OP_WRITE: u8 = 23;
    const IORING_FSYNC_DATASYNC: u32 = 1;
    const IORING_ENTER_GETEVENTS: c_uint = 1;
    const IORING_FEAT_SINGLE_MMAP: u32 = 1;
    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_CQ_RING: i64 = 0x0800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;
    const EINTR: c_int = 4;

    /// `user_data` of the wake-up NOP the destructor submits; never in the
    /// in-flight table.
    const WAKE_ID: u64 = u64::MAX;

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn __errno_location() -> *mut c_int;
    }

    fn errno() -> c_int {
        // SAFETY: glibc and musl both expose the thread-local errno cell.
        unsafe { *__errno_location() }
    }

    /// `struct io_sqring_offsets` (kernel ABI, 40 bytes).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct SqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    /// `struct io_cqring_offsets` (kernel ABI, 40 bytes).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct CqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    /// `struct io_uring_params` (kernel ABI, 120 bytes).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct UringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqOffsets,
        cq_off: CqOffsets,
    }

    /// `struct io_uring_sqe` (kernel ABI, 64 bytes).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        op_flags: u32,
        user_data: u64,
        buf_index: u16,
        personality: u16,
        splice_fd_in: i32,
        addr3: u64,
        resv: u64,
    }

    impl Sqe {
        fn zeroed() -> Self {
            // SAFETY: all-zero bytes are a valid (NOP) SQE.
            unsafe { std::mem::zeroed() }
        }
    }

    /// `struct io_uring_cqe` (kernel ABI, 16 bytes).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Cqe {
        user_data: u64,
        res: i32,
        flags: u32,
    }

    /// The mmapped ring: raw pointers into the three kernel-shared
    /// regions, plus the constants read once at setup.
    struct Ring {
        fd: c_int,
        sq_ptr: *mut u8,
        sq_len: usize,
        cq_ptr: *mut u8,
        cq_len: usize,
        sqes: *mut Sqe,
        sqes_len: usize,
        single_mmap: bool,
        sq_khead: *const AtomicU32,
        sq_ktail: *const AtomicU32,
        sq_mask: u32,
        sq_entries: u32,
        sq_array: *mut u32,
        cq_khead: *const AtomicU32,
        cq_ktail: *const AtomicU32,
        cq_mask: u32,
        cqes: *const Cqe,
    }

    // SAFETY: the raw pointers address kernel-shared mmaps that live as
    // long as the Ring; all mutation of SQ state happens under the
    // engine's mutex, the CQ head is advanced only by the reaper thread,
    // and the head/tail words are accessed through atomics.
    unsafe impl Send for Ring {}
    unsafe impl Sync for Ring {}

    impl Drop for Ring {
        fn drop(&mut self) {
            // SAFETY: the pointers came from successful mmaps of these
            // exact lengths; the fd is the setup fd, closed last.
            unsafe {
                munmap(self.sqes.cast(), self.sqes_len);
                munmap(self.sq_ptr.cast(), self.sq_len);
                if !self.single_mmap {
                    munmap(self.cq_ptr.cast(), self.cq_len);
                }
                close(self.fd);
            }
        }
    }

    impl Ring {
        /// `io_uring_setup` + the two/three mmaps. Returns `None` on any
        /// failure (the caller falls back to the threaded engine).
        fn new(entries: u32) -> Option<Ring> {
            let mut p = UringParams::default();
            // SAFETY: p is a live, correctly-sized io_uring_params.
            let fd = unsafe {
                syscall(SYS_IO_URING_SETUP, entries as c_uint, &mut p as *mut UringParams)
            };
            if fd < 0 {
                return None;
            }
            let fd = fd as c_int;
            let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
            let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * 16;
            let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;
            let map = |len: usize, off: i64| -> Option<*mut u8> {
                // SAFETY: mapping the ring fd at a kernel-defined offset.
                let ptr = unsafe {
                    mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, off)
                };
                (ptr as isize != -1).then_some(ptr.cast())
            };
            let sq_map_len = if single { sq_len.max(cq_len) } else { sq_len };
            let Some(sq_ptr) = map(sq_map_len, IORING_OFF_SQ_RING) else {
                // SAFETY: fd is the ring fd we just created.
                unsafe { close(fd) };
                return None;
            };
            let cq_ptr = if single {
                sq_ptr
            } else {
                match map(cq_len, IORING_OFF_CQ_RING) {
                    Some(ptr) => ptr,
                    None => {
                        // SAFETY: undoing the successful sq mmap + setup.
                        unsafe {
                            munmap(sq_ptr.cast(), sq_map_len);
                            close(fd);
                        }
                        return None;
                    }
                }
            };
            let sqes_len = p.sq_entries as usize * std::mem::size_of::<Sqe>();
            let Some(sqes) = map(sqes_len, IORING_OFF_SQES) else {
                // SAFETY: undoing the successful mmaps + setup.
                unsafe {
                    munmap(sq_ptr.cast(), sq_map_len);
                    if !single {
                        munmap(cq_ptr.cast(), cq_len);
                    }
                    close(fd);
                }
                return None;
            };
            // SAFETY: every offset below is inside the freshly mapped
            // regions, as defined by the kernel's io_uring_params.
            unsafe {
                Some(Ring {
                    fd,
                    sq_ptr,
                    sq_len: sq_map_len,
                    cq_ptr,
                    cq_len,
                    sqes: sqes.cast(),
                    sqes_len,
                    single_mmap: single,
                    sq_khead: sq_ptr.add(p.sq_off.head as usize).cast(),
                    sq_ktail: sq_ptr.add(p.sq_off.tail as usize).cast(),
                    sq_mask: *sq_ptr.add(p.sq_off.ring_mask as usize).cast::<u32>(),
                    sq_entries: p.sq_entries,
                    sq_array: sq_ptr.add(p.sq_off.array as usize).cast(),
                    cq_khead: cq_ptr.add(p.cq_off.head as usize).cast(),
                    cq_ktail: cq_ptr.add(p.cq_off.tail as usize).cast(),
                    cq_mask: *cq_ptr.add(p.cq_off.ring_mask as usize).cast::<u32>(),
                    cqes: cq_ptr.add(p.cq_off.cqes as usize).cast(),
                })
            }
        }

        /// `io_uring_enter`. Returns the syscall result (≥ 0 = SQEs
        /// consumed) or `-errno`.
        fn enter(&self, to_submit: u32, min_complete: u32, flags: c_uint) -> c_long {
            // SAFETY: plain syscall on the ring fd; no pointers passed.
            let ret = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.fd,
                    to_submit as c_uint,
                    min_complete as c_uint,
                    flags,
                    std::ptr::null::<c_void>(),
                    0usize,
                )
            };
            if ret < 0 {
                -(errno() as c_long)
            } else {
                ret
            }
        }
    }

    /// One queued-or-in-flight operation. Buffers are owned here so their
    /// heap storage stays stable while the kernel reads/writes it — the
    /// entry may move between the per-drive queue and the in-flight table,
    /// but `Vec`'s allocation does not move with it.
    enum Op {
        /// Read `buf.len()` bytes at `offset`; `filled` tracks short-read
        /// resubmission progress.
        Read { offset: u64, filled: usize, buf: Vec<u8>, reply: Sender<DiskResult<Vec<u8>>> },
        /// Write `data` at `offset`; `written` tracks short-write
        /// resubmission progress.
        Write { offset: u64, written: usize, data: Vec<u8>, reply: Sender<DiskResult<()>> },
        /// `fdatasync` the drive's file.
        Sync { reply: Sender<DiskResult<()>> },
    }

    /// Per-drive FIFO: at most one operation in flight per drive, the rest
    /// wait here in submission order.
    struct DriveQueue {
        busy: bool,
        queue: VecDeque<Op>,
    }

    /// Everything mutated under the one engine mutex: local SQ tail, the
    /// id → operation table, and the per-drive FIFOs.
    struct State {
        sq_tail: u32,
        next_id: u64,
        in_flight: HashMap<u64, (usize, Op)>,
        drives: Vec<DriveQueue>,
        shutdown: bool,
    }

    /// The parts shared between the engine handle and the reaper thread.
    struct Shared {
        ring: Ring,
        fds: Vec<c_int>,
        state: Mutex<State>,
    }

    impl Shared {
        /// Queue `op` on `disk`, writing an SQE immediately when the drive
        /// is idle. Returns the number of SQEs written (0 or 1); the
        /// caller batches one `enter` per stripe.
        fn submit_op(&self, st: &mut State, disk: usize, op: Op) -> u32 {
            if st.drives[disk].busy {
                st.drives[disk].queue.push_back(op);
                0
            } else {
                st.drives[disk].busy = true;
                self.write_sqe(st, disk, op);
                1
            }
        }

        /// Materialize `op` as an SQE (fresh `user_data`, pointers into
        /// the op's owned buffer) and push it onto the SQ.
        fn write_sqe(&self, st: &mut State, disk: usize, op: Op) {
            let id = st.next_id;
            st.next_id += 1;
            let mut sqe = Sqe::zeroed();
            sqe.fd = self.fds[disk];
            sqe.user_data = id;
            match &op {
                Op::Read { offset, filled, buf, .. } => {
                    sqe.opcode = IORING_OP_READ;
                    sqe.off = offset + *filled as u64;
                    sqe.addr = buf.as_ptr() as u64 + *filled as u64;
                    sqe.len = (buf.len() - filled) as u32;
                }
                Op::Write { offset, written, data, .. } => {
                    sqe.opcode = IORING_OP_WRITE;
                    sqe.off = offset + *written as u64;
                    sqe.addr = data.as_ptr() as u64 + *written as u64;
                    sqe.len = (data.len() - written) as u32;
                }
                Op::Sync { .. } => {
                    sqe.opcode = IORING_OP_FSYNC;
                    sqe.op_flags = IORING_FSYNC_DATASYNC;
                }
            }
            st.in_flight.insert(id, (disk, op));
            self.push_sqe(st, sqe);
        }

        /// Copy one SQE into the next SQ slot and publish the new tail.
        /// The ring is sized so in-flight ≤ drives + 1 < entries; the
        /// assert documents the invariant rather than handling overflow.
        fn push_sqe(&self, st: &mut State, sqe: Sqe) {
            let r = &self.ring;
            // SAFETY: khead points at the kernel-shared head word.
            let head = unsafe { (*r.sq_khead).load(Ordering::Acquire) };
            assert!(
                st.sq_tail.wrapping_sub(head) < r.sq_entries,
                "io_uring SQ overflow: ring sized below in-flight bound"
            );
            let idx = (st.sq_tail & r.sq_mask) as usize;
            // SAFETY: idx < sq_entries; the slot is free because the
            // kernel consumed it (head has passed it) or it was never
            // used, and only the mutex holder writes SQ slots.
            unsafe {
                *r.sqes.add(idx) = sqe;
                *r.sq_array.add(idx) = idx as u32;
            }
            st.sq_tail = st.sq_tail.wrapping_add(1);
            // SAFETY: ktail points at the kernel-shared tail word; the
            // Release pairs with the kernel's acquire of the SQE writes.
            unsafe { (*r.sq_ktail).store(st.sq_tail, Ordering::Release) };
        }

        /// Tell the kernel about `n` freshly pushed SQEs. Called with the
        /// state lock held so submission counts can't interleave.
        fn enter_submit(&self, mut n: u32) {
            while n > 0 {
                let ret = self.ring.enter(n, 0, 0);
                if ret >= 0 {
                    n -= ret as u32;
                } else if ret == -(EINTR as c_long) {
                    continue;
                } else {
                    // Post-setup submission cannot fail in practice
                    // (no SQPOLL, ring sized above the in-flight bound);
                    // treat it like the threaded engine treats a failed
                    // thread spawn.
                    panic!(
                        "io_uring_enter(submit) failed: {}",
                        io::Error::from_raw_os_error(-ret as i32)
                    );
                }
            }
        }

        /// Handle one completion: reply, resubmit a short transfer, or
        /// release the drive's next queued op. Returns SQEs written.
        fn complete(&self, st: &mut State, user_data: u64, res: i32) -> u32 {
            let Some((disk, op)) = st.in_flight.remove(&user_data) else {
                return 0; // wake-up NOP or an abandoned sentinel
            };
            let worker_io =
                |res: i32| DiskError::WorkerIo { disk, source: io::Error::from_raw_os_error(-res) };
            match op {
                Op::Read { offset, mut filled, mut buf, reply } => {
                    if res < 0 {
                        let _ = reply.send(Err(worker_io(res)));
                    } else if res == 0 {
                        // EOF: the rest of the track was never written.
                        buf[filled..].fill(0);
                        let _ = reply.send(Ok(buf));
                    } else {
                        filled += res as usize;
                        if filled < buf.len() {
                            st.drives[disk].busy = true;
                            self.write_sqe(st, disk, Op::Read { offset, filled, buf, reply });
                            return 1;
                        }
                        let _ = reply.send(Ok(buf));
                    }
                }
                Op::Write { offset, mut written, data, reply } => {
                    if res < 0 {
                        let _ = reply.send(Err(worker_io(res)));
                    } else {
                        written += res as usize;
                        if written < data.len() {
                            st.drives[disk].busy = true;
                            self.write_sqe(st, disk, Op::Write { offset, written, data, reply });
                            return 1;
                        }
                        let _ = reply.send(Ok(()));
                    }
                }
                Op::Sync { reply } => {
                    let _ = reply.send(if res < 0 { Err(worker_io(res)) } else { Ok(()) });
                }
            }
            // The drive finished an op: release the next queued one.
            if let Some(next) = st.drives[disk].queue.pop_front() {
                self.write_sqe(st, disk, next);
                1
            } else {
                st.drives[disk].busy = false;
                0
            }
        }

        /// The reaper loop: drain available CQEs, complete them, then
        /// block in `io_uring_enter(GETEVENTS)` for more.
        fn reap_loop(&self) {
            loop {
                let batch = self.drain_cqes();
                if batch.is_empty() {
                    {
                        let st = self.state.lock().unwrap();
                        if st.shutdown && st.in_flight.is_empty() {
                            return;
                        }
                    }
                    let ret = self.ring.enter(0, 1, IORING_ENTER_GETEVENTS);
                    if ret < 0 && ret != -(EINTR as c_long) {
                        // Cannot wait on the ring any more: avoid a busy
                        // spin; completions (if any) drain next iteration.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                } else {
                    let mut st = self.state.lock().unwrap();
                    let mut fresh = 0;
                    for (user_data, res) in batch {
                        fresh += self.complete(&mut st, user_data, res);
                    }
                    if fresh > 0 {
                        self.enter_submit(fresh);
                    }
                    if st.shutdown && st.in_flight.is_empty() {
                        return;
                    }
                }
            }
        }

        /// Pop every available CQE (only the reaper advances the head).
        fn drain_cqes(&self) -> Vec<(u64, i32)> {
            let r = &self.ring;
            // SAFETY: kernel-shared CQ words; Acquire on the tail pairs
            // with the kernel's release of the CQE contents.
            let tail = unsafe { (*r.cq_ktail).load(Ordering::Acquire) };
            let mut head = unsafe { (*r.cq_khead).load(Ordering::Relaxed) };
            let mut out = Vec::new();
            while head != tail {
                // SAFETY: (head & mask) < cq_entries and the CQE is
                // published (head precedes the acquired tail).
                let cqe = unsafe { *r.cqes.add((head & r.cq_mask) as usize) };
                out.push((cqe.user_data, cqe.res));
                head = head.wrapping_add(1);
            }
            if !out.is_empty() {
                // SAFETY: Release hands the consumed slots back.
                unsafe { (*r.cq_khead).store(head, Ordering::Release) };
            }
            out
        }
    }

    /// Kernel-ring analogue of the threaded `IoEngine`; same submit/join
    /// ticket contract (see the module docs for the parity argument).
    pub(crate) struct UringEngine {
        shared: Arc<Shared>,
        reaper: Option<JoinHandle<()>>,
        /// Keeps the drive fds open for the engine's lifetime.
        _files: Vec<File>,
        block_bytes: usize,
    }

    impl UringEngine {
        /// Set up a ring over `files` and start the reaper thread. On any
        /// setup failure the files are handed back so the caller can fall
        /// back to the threaded engine.
        pub(crate) fn spawn(
            files: Vec<File>,
            block_bytes: usize,
            pin: bool,
        ) -> Result<Self, Vec<File>> {
            if !uring_available() {
                return Err(files);
            }
            // Per-drive FIFO bounds in-flight ops to one per drive, plus
            // the shutdown NOP; round up generously.
            let entries = (files.len() as u32 + 2).next_power_of_two().max(8);
            let Some(ring) = Ring::new(entries) else {
                return Err(files);
            };
            let fds = files.iter().map(|f| f.as_raw_fd()).collect();
            let drives =
                files.iter().map(|_| DriveQueue { busy: false, queue: VecDeque::new() }).collect();
            let shared = Arc::new(Shared {
                ring,
                fds,
                state: Mutex::new(State {
                    sq_tail: 0,
                    next_id: 0,
                    in_flight: HashMap::new(),
                    drives,
                    shutdown: false,
                }),
            });
            let reaper_shared = Arc::clone(&shared);
            let reaper = std::thread::Builder::new()
                .name("em-disk-uring".into())
                .spawn(move || {
                    if pin {
                        crate::pin_thread_to_core(0);
                    }
                    reaper_shared.reap_loop();
                })
                .expect("spawn io_uring reaper thread");
            Ok(UringEngine { shared, reaper: Some(reaper), _files: files, block_bytes })
        }

        /// Dispatch one read per listed drive as a batch of SQEs (same
        /// lost-drive and deferred-error contract as the threaded engine).
        fn dispatch_reads(
            &self,
            addrs: &[(usize, usize)],
            block_bytes: usize,
        ) -> PendingSlots<Vec<u8>> {
            let mut slots: PendingSlots<Vec<u8>> = Vec::with_capacity(addrs.len());
            let mut st = self.shared.state.lock().unwrap();
            let mut fresh = 0;
            for &(disk, track) in addrs {
                if disk >= self.shared.fds.len() {
                    slots.push((disk, None)); // joins as WorkerLost
                    continue;
                }
                let (tx, rx) = bounded(1);
                match track_offset(disk, track, self.block_bytes) {
                    Ok(offset) => {
                        let buf = vec![0u8; block_bytes];
                        let op = Op::Read { offset, filled: 0, buf, reply: tx };
                        fresh += self.shared.submit_op(&mut st, disk, op);
                    }
                    // Never reaches the ring: the typed error waits in the
                    // reply channel like any deferred failure.
                    Err(e) => {
                        let _ = tx.send(Err(e));
                    }
                }
                slots.push((disk, Some(rx)));
            }
            if fresh > 0 {
                self.shared.enter_submit(fresh);
            }
            drop(st);
            slots
        }

        /// Dispatch one write per listed drive as a batch of SQEs.
        fn dispatch_writes(&self, writes: &[(usize, usize, &[u8])]) -> PendingSlots<()> {
            let mut slots: PendingSlots<()> = Vec::with_capacity(writes.len());
            let mut st = self.shared.state.lock().unwrap();
            let mut fresh = 0;
            for &(disk, track, data) in writes {
                if disk >= self.shared.fds.len() {
                    slots.push((disk, None));
                    continue;
                }
                let (tx, rx) = bounded(1);
                match track_offset(disk, track, self.block_bytes) {
                    Ok(offset) => {
                        let op = Op::Write { offset, written: 0, data: data.to_vec(), reply: tx };
                        fresh += self.shared.submit_op(&mut st, disk, op);
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                    }
                }
                slots.push((disk, Some(rx)));
            }
            if fresh > 0 {
                self.shared.enter_submit(fresh);
            }
            drop(st);
            slots
        }

        /// [`UringEngine::dispatch_reads`] wrapped in a joinable ticket.
        pub(crate) fn submit_read_stripe(
            &self,
            addrs: &[(usize, usize)],
            block_bytes: usize,
        ) -> ReadTicket {
            ReadTicket::pending(self.dispatch_reads(addrs, block_bytes))
        }

        /// [`UringEngine::dispatch_writes`] wrapped in a joinable ticket.
        pub(crate) fn submit_write_stripe(&self, writes: &[(usize, usize, &[u8])]) -> WriteTicket {
            WriteTicket::pending(self.dispatch_writes(writes))
        }

        /// Dispatch + join: one outcome per track, request order.
        pub(crate) fn read_stripe_each(
            &self,
            addrs: &[(usize, usize)],
            bufs: &mut [&mut [u8]],
        ) -> TrackOutcomes {
            debug_assert_eq!(addrs.len(), bufs.len());
            let block_bytes = bufs.first().map_or(0, |b| b.len());
            copy_joined(join_slots(self.dispatch_reads(addrs, block_bytes)), bufs)
        }

        /// Dispatch + join: one outcome per track, request order.
        pub(crate) fn write_stripe_each(&self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
            join_slots(self.dispatch_writes(writes))
        }

        /// `fdatasync` every drive; the per-drive FIFO guarantees each
        /// sync lands after that drive's earlier queued writes, exactly
        /// like the threaded engine's queued `Sync` command.
        pub(crate) fn sync_all(&self) -> DiskResult<()> {
            let mut slots: PendingSlots<()> = Vec::with_capacity(self.shared.fds.len());
            {
                let mut st = self.shared.state.lock().unwrap();
                let mut fresh = 0;
                for disk in 0..self.shared.fds.len() {
                    let (tx, rx) = bounded(1);
                    fresh += self.shared.submit_op(&mut st, disk, Op::Sync { reply: tx });
                    slots.push((disk, Some(rx)));
                }
                if fresh > 0 {
                    self.shared.enter_submit(fresh);
                }
            }
            first_failure(join_slots(slots)).map(drop)
        }
    }

    impl Drop for UringEngine {
        fn drop(&mut self) {
            {
                let mut st = self.shared.state.lock().unwrap();
                st.shutdown = true;
                // Wake the reaper (it may be blocked in GETEVENTS) with a
                // NOP; it drains any remaining completions and exits.
                let mut sqe = Sqe::zeroed();
                sqe.opcode = IORING_OP_NOP;
                sqe.user_data = WAKE_ID;
                self.shared.push_sqe(&mut st, sqe);
                self.shared.enter_submit(1);
            }
            if let Some(handle) = self.reaper.take() {
                let _ = handle.join();
            }
        }
    }

    /// One cached probe: can this process set up an `io_uring` at all?
    pub fn uring_available() -> bool {
        static PROBE: OnceLock<bool> = OnceLock::new();
        *PROBE.get_or_init(|| {
            let mut p = UringParams::default();
            // SAFETY: p is a live, correctly-sized io_uring_params.
            let fd =
                unsafe { syscall(SYS_IO_URING_SETUP, 4 as c_uint, &mut p as *mut UringParams) };
            if fd < 0 {
                return false;
            }
            // SAFETY: fd is the probe ring we just created.
            unsafe { close(fd as c_int) };
            true
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::fs::OpenOptions;

        /// The merged synchronous forms, as [`crate::DiskBackend`] derives
        /// them.
        impl UringEngine {
            fn read_stripe(
                &self,
                addrs: &[(usize, usize)],
                bufs: &mut [&mut [u8]],
            ) -> DiskResult<()> {
                first_failure(self.read_stripe_each(addrs, bufs)).map(drop)
            }

            fn write_stripe(&self, writes: &[(usize, usize, &[u8])]) -> DiskResult<()> {
                first_failure(self.write_stripe_each(writes)).map(drop)
            }
        }

        fn tmp_files(name: &str, n: usize) -> (std::path::PathBuf, Vec<File>) {
            let dir = std::env::temp_dir().join(format!("em-uring-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let files = (0..n)
                .map(|i| {
                    OpenOptions::new()
                        .read(true)
                        .write(true)
                        .create(true)
                        .truncate(true)
                        .open(dir.join(format!("disk-{i}.bin")))
                        .unwrap()
                })
                .collect();
            (dir, files)
        }

        #[test]
        fn abi_struct_sizes_match_the_kernel() {
            assert_eq!(std::mem::size_of::<UringParams>(), 120);
            assert_eq!(std::mem::size_of::<Sqe>(), 64);
            assert_eq!(std::mem::size_of::<Cqe>(), 16);
        }

        #[test]
        fn stripe_round_trip_through_the_ring() {
            let (dir, files) = tmp_files("rt", 3);
            let Ok(engine) = UringEngine::spawn(files, 16, false) else {
                eprintln!("io_uring unavailable; skipping");
                return;
            };
            engine
                .write_stripe(&[(0, 0, &[1u8; 16]), (1, 2, &[2u8; 16]), (2, 1, &[3u8; 16])])
                .unwrap();
            let mut a = [0u8; 16];
            let mut b = [0u8; 16];
            let mut c = [0u8; 16];
            {
                let mut bufs: Vec<&mut [u8]> = vec![&mut a[..], &mut b[..], &mut c[..]];
                engine.read_stripe(&[(0, 0), (1, 2), (2, 1)], &mut bufs).unwrap();
            }
            assert_eq!(a, [1u8; 16]);
            assert_eq!(b, [2u8; 16]);
            assert_eq!(c, [3u8; 16]);
            engine.sync_all().unwrap();
            drop(engine); // joins the reaper
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn unwritten_tracks_read_zero_through_the_ring() {
            let (dir, files) = tmp_files("zero", 2);
            let Ok(engine) = UringEngine::spawn(files, 8, false) else {
                eprintln!("io_uring unavailable; skipping");
                return;
            };
            engine.write_stripe(&[(0, 3, &[9u8; 8])]).unwrap();
            let mut hole = [0xAAu8; 8];
            let mut never = [0xBBu8; 8];
            {
                let mut bufs: Vec<&mut [u8]> = vec![&mut hole[..], &mut never[..]];
                engine.read_stripe(&[(0, 1), (1, 7)], &mut bufs).unwrap();
            }
            assert_eq!(hole, [0u8; 8]);
            assert_eq!(never, [0u8; 8]);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn per_drive_fifo_applies_same_track_writes_in_submission_order() {
            let (dir, files) = tmp_files("fifo", 2);
            let Ok(engine) = UringEngine::spawn(files, 16, false) else {
                eprintln!("io_uring unavailable; skipping");
                return;
            };
            for round in 0..50u8 {
                let old = [round; 16];
                let new = [round.wrapping_add(1); 16];
                let w_old: Vec<(usize, usize, &[u8])> = vec![(0, 0, &old), (1, 0, &old)];
                let w_new: Vec<(usize, usize, &[u8])> = vec![(0, 0, &new), (1, 0, &new)];
                let t1 = engine.submit_write_stripe(&w_old);
                let t2 = engine.submit_write_stripe(&w_new);
                let t3 = engine.submit_read_stripe(&[(0, 0), (1, 0)], 16);
                t1.join().unwrap();
                t2.join().unwrap();
                let data = t3.join().unwrap();
                assert_eq!(data, vec![new.to_vec(); 2], "later submission must win");
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn out_of_range_drive_joins_as_worker_lost() {
            let (dir, files) = tmp_files("lost", 1);
            let Ok(engine) = UringEngine::spawn(files, 8, false) else {
                eprintln!("io_uring unavailable; skipping");
                return;
            };
            let t = engine.submit_read_stripe(&[(0, 0), (5, 0)], 8);
            assert!(matches!(t.join(), Err(DiskError::WorkerLost { disk: 5 })));
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn deferred_error_is_sticky_across_sync_all() {
            let dir = std::env::temp_dir().join(format!("em-uring-ro-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let files: Vec<File> = (0..2)
                .map(|i| {
                    let path = dir.join(format!("disk-{i}.bin"));
                    std::fs::write(&path, []).unwrap();
                    OpenOptions::new().read(true).open(path).unwrap()
                })
                .collect();
            let Ok(engine) = UringEngine::spawn(files, 8, false) else {
                eprintln!("io_uring unavailable; skipping");
                return;
            };
            let ticket = engine.submit_write_stripe(&[(1, 0, &[7u8; 8])]);
            engine.sync_all().unwrap();
            match ticket.join() {
                Err(DiskError::WorkerIo { disk: 1, .. }) => {}
                other => panic!("expected WorkerIo on drive 1 after sync, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[cfg(all(target_os = "linux", feature = "io-uring"))]
pub use imp::uring_available;
#[cfg(all(target_os = "linux", feature = "io-uring"))]
pub(crate) use imp::UringEngine;

/// Whether an `io_uring` can be set up by this process. Always `false`
/// when the `io-uring` cargo feature is disabled or off Linux; with the
/// feature on, a cached one-time probe asks the kernel. When this is
/// `false`, [`EngineKind::Uring`](crate::EngineKind) silently falls back
/// to the threaded engine.
#[cfg(not(all(target_os = "linux", feature = "io-uring")))]
pub fn uring_available() -> bool {
    false
}
