//! The `D`-way parallel I/O engine behind the file backend.
//!
//! The EM-BSP cost model's central object is the *parallel I/O operation*:
//! one operation moves up to `D` blocks — at most one per drive —
//! simultaneously, at cost `G`. The [`IoEngine`] makes the file backend
//! honour that "simultaneously": each simulated drive gets a dedicated
//! worker thread that owns the drive's `File` exclusively, and a stripe is
//! executed by handing every `(track, buffer)` pair to its drive's worker
//! at once, then joining all replies before the operation returns.
//!
//! Design points (see DESIGN.md §3.2 for the full contract):
//!
//! * **Ownership** — a drive's `File` lives on its worker thread; the
//!   engine only holds the command channel. No file handle is ever shared,
//!   so per-drive positional I/O needs no locking.
//! * **Submission and join are separable** — `submit_read_stripe` /
//!   `submit_write_stripe` dispatch one command per listed drive and
//!   return a [`ReadTicket`] / [`WriteTicket`] immediately; `join` on the
//!   ticket blocks until every listed drive has replied. The synchronous
//!   `read_stripe`/`write_stripe` are submit-then-join, so at the
//!   [`DiskArray`](crate::DiskArray) level the one-op-per-stripe cost
//!   accounting and the deterministic, seed-stable I/O traces are
//!   identical whether or not a caller overlaps tickets with other work.
//!   Per-drive command channels are FIFO: two submissions touching the
//!   same drive execute in submission order even when their joins overlap.
//! * **Error propagation** — each command carries a reply channel. A
//!   failed transfer comes back as [`DiskError::WorkerIo`] tagged with the
//!   drive index; a worker whose thread has died (panic, channel torn
//!   down) surfaces as [`DiskError::WorkerLost`]. On a multi-drive stripe
//!   all replies are joined first ([`join_slots`]: one outcome per track,
//!   request order — the form the decorator stack consumes); a ticket's
//!   `join` then reports the first failing track's error, so error
//!   selection is deterministic. A deferred error is *sticky*: it stays
//!   queued in the ticket's reply channel until the ticket is joined, even
//!   across an intervening `sync_all`.
//! * **Shutdown** — dropping the engine closes every command channel;
//!   workers drain and exit, and the engine joins them. A worker that
//!   errored stays alive and keeps serving subsequent commands (the drive
//!   is poisoned only for the failed track, not for the array).

use crate::{DiskError, DiskResult, TrackOutcomes};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use std::fs::File;
use std::io;
use std::thread::JoinHandle;

/// One command to a drive worker. Buffers are owned so commands can cross
/// the thread boundary without borrowing from the caller; the engine pays
/// one `B`-byte copy per block, which is noise next to the file I/O the
/// workers overlap.
enum Cmd {
    /// Read the full track at `track` into `buf` and send it back.
    Read { track: usize, buf: Vec<u8>, reply: Sender<DiskResult<Vec<u8>>> },
    /// Write `data` as the full track at `track`.
    Write { track: usize, data: Vec<u8>, reply: Sender<DiskResult<()>> },
    /// Flush the drive's file to stable storage.
    Sync { reply: Sender<DiskResult<()>> },
}

/// Worker-thread-per-disk I/O engine. See the module docs for the
/// ownership, join and shutdown contract.
pub(crate) struct IoEngine {
    /// Command channel of worker `d` (same index as the drive).
    txs: Vec<Sender<Cmd>>,
    /// Join handles, drained on drop.
    handles: Vec<JoinHandle<()>>,
}

/// Read a full track (`buf.len()` bytes) at `offset`, zero-filling any
/// part past EOF — never-written tracks read back as zeros, matching the
/// memory backend and the model's "formatted" disks.
pub(crate) fn read_full_track(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_at(file, &mut buf[filled..], offset + filled as u64) {
            Ok(0) => break, // EOF: the rest of the track was never written
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    buf[filled..].fill(0);
    Ok(())
}

/// Byte offset of `track` in a drive file of `block_bytes`-byte tracks,
/// computed in 64 bits. A track whose last byte would lie past the largest
/// file offset the OS can express (`i64::MAX`) is a typed error instead of
/// a wrapped multiplication.
pub(crate) fn track_offset(disk: usize, track: usize, block_bytes: usize) -> DiskResult<u64> {
    let (track, block_bytes) = (track as u64, block_bytes as u64);
    track
        .checked_mul(block_bytes)
        .filter(|offset| offset.checked_add(block_bytes).is_some_and(|end| end <= i64::MAX as u64))
        .ok_or(DiskError::OffsetOverflow { disk, track })
}

#[cfg(unix)]
pub(crate) fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::os::unix::fs::FileExt;
    file.read_at(buf, offset)
}

#[cfg(unix)]
pub(crate) fn write_at(file: &File, data: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(data, offset)
}

#[cfg(not(unix))]
pub(crate) fn read_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<usize> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "FileBackend requires a unix platform"))
}

#[cfg(not(unix))]
pub(crate) fn write_at(_file: &File, _data: &[u8], _offset: u64) -> io::Result<()> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "FileBackend requires a unix platform"))
}

/// The worker loop: serve commands until the engine drops the channel.
fn drive_worker(disk: usize, file: File, block_bytes: usize, rx: Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Read { track, mut buf, reply } => {
                let res = track_offset(disk, track, block_bytes).and_then(|offset| {
                    read_full_track(&file, &mut buf, offset)
                        .map_err(|source| DiskError::WorkerIo { disk, source })
                });
                // A dropped reply receiver means the engine gave up on the
                // stripe (it is being torn down); nothing left to do.
                let _ = reply.send(res.map(|()| buf));
            }
            Cmd::Write { track, data, reply } => {
                let res = track_offset(disk, track, block_bytes).and_then(|offset| {
                    write_at(&file, &data, offset)
                        .map_err(|source| DiskError::WorkerIo { disk, source })
                });
                let _ = reply.send(res);
            }
            Cmd::Sync { reply } => {
                let res = file.sync_data().map_err(|source| DiskError::WorkerIo { disk, source });
                let _ = reply.send(res);
            }
        }
    }
}

impl IoEngine {
    /// Spawn one worker per file; worker `d` takes exclusive ownership of
    /// `files[d]`. The workers live for the engine's lifetime — one
    /// `build_disks()` spawns them once and every subsequent
    /// `run_on()`/`resume()` on that array reuses them. With `pin`, drive
    /// worker `d` is best-effort pinned to core `d mod ncpus`.
    pub(crate) fn spawn(files: Vec<File>, block_bytes: usize, pin: bool) -> Self {
        let mut txs = Vec::with_capacity(files.len());
        let mut handles = Vec::with_capacity(files.len());
        let ncpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        for (disk, file) in files.into_iter().enumerate() {
            let (tx, rx) = unbounded::<Cmd>();
            let handle = std::thread::Builder::new()
                .name(format!("em-disk-d{disk}"))
                .spawn(move || {
                    if pin {
                        crate::pin_thread_to_core(disk % ncpus);
                    }
                    drive_worker(disk, file, block_bytes, rx)
                })
                .expect("spawn disk worker thread");
            txs.push(tx);
            handles.push(handle);
        }
        IoEngine { txs, handles }
    }

    /// Dispatch one read per listed drive without waiting for any transfer
    /// to complete. A drive whose worker is already gone is recorded as a
    /// poisoned slot; the [`DiskError::WorkerLost`] surfaces at join,
    /// keeping submission non-blocking and infallible.
    fn dispatch_reads(
        &self,
        addrs: &[(usize, usize)],
        block_bytes: usize,
    ) -> PendingSlots<Vec<u8>> {
        let mut slots = Vec::with_capacity(addrs.len());
        for &(disk, track) in addrs {
            let (reply_tx, reply_rx) = bounded::<DiskResult<Vec<u8>>>(1);
            let buf = vec![0u8; block_bytes];
            let sent = self
                .txs
                .get(disk)
                .is_some_and(|tx| tx.send(Cmd::Read { track, buf, reply: reply_tx }).is_ok());
            slots.push((disk, sent.then_some(reply_rx)));
        }
        slots
    }

    /// Dispatch one write per listed drive without waiting (same
    /// lost-worker contract as [`IoEngine::dispatch_reads`]).
    fn dispatch_writes(&self, writes: &[(usize, usize, &[u8])]) -> PendingSlots<()> {
        let mut slots = Vec::with_capacity(writes.len());
        for &(disk, track, data) in writes {
            let (reply_tx, reply_rx) = bounded::<DiskResult<()>>(1);
            let sent = self.txs.get(disk).is_some_and(|tx| {
                tx.send(Cmd::Write { track, data: data.to_vec(), reply: reply_tx }).is_ok()
            });
            slots.push((disk, sent.then_some(reply_rx)));
        }
        slots
    }

    /// [`IoEngine::dispatch_reads`] wrapped in a joinable ticket.
    pub(crate) fn submit_read_stripe(
        &self,
        addrs: &[(usize, usize)],
        block_bytes: usize,
    ) -> ReadTicket {
        ReadTicket::pending(self.dispatch_reads(addrs, block_bytes))
    }

    /// [`IoEngine::dispatch_writes`] wrapped in a joinable ticket.
    pub(crate) fn submit_write_stripe(&self, writes: &[(usize, usize, &[u8])]) -> WriteTicket {
        WriteTicket::pending(self.dispatch_writes(writes))
    }

    /// Dispatch one read per listed drive, join all replies, and copy each
    /// track that arrived into the caller's buffer. One outcome per track,
    /// request order.
    pub(crate) fn read_stripe_each(
        &self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        debug_assert_eq!(addrs.len(), bufs.len());
        let block_bytes = bufs.first().map_or(0, |b| b.len());
        copy_joined(join_slots(self.dispatch_reads(addrs, block_bytes)), bufs)
    }

    /// Dispatch one write per listed drive and join all replies. One
    /// outcome per track, request order.
    pub(crate) fn write_stripe_each(&self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        join_slots(self.dispatch_writes(writes))
    }

    /// Flush every drive to stable storage (joined like a stripe).
    pub(crate) fn sync_all(&self) -> DiskResult<()> {
        let slots = (self.txs.iter().enumerate())
            .map(|(disk, tx)| {
                let (reply_tx, reply_rx) = bounded::<DiskResult<()>>(1);
                (disk, tx.send(Cmd::Sync { reply: reply_tx }).is_ok().then_some(reply_rx))
            })
            .collect();
        first_failure(join_slots(slots)).map(drop)
    }
}

/// Reply slots of an in-flight engine stripe: `(disk, receiver)`, where a
/// `None` receiver marks a drive whose worker was already gone at
/// submission (joined as [`DiskError::WorkerLost`]).
pub(crate) type PendingSlots<T> = Vec<(usize, Option<Receiver<DiskResult<T>>>)>;

/// Wait for every reply of an in-flight stripe: one outcome per dispatched
/// track, in request order. Shared by every engine and every join path, so
/// "all replies are joined before anything is reported" holds by
/// construction.
pub(crate) fn join_slots<T>(slots: PendingSlots<T>) -> Vec<DiskResult<T>> {
    slots
        .into_iter()
        .map(|(disk, rx)| match rx.map(|rx| rx.recv()) {
            Some(Ok(outcome)) => outcome,
            Some(Err(_)) | None => Err(DiskError::WorkerLost { disk }),
        })
        .collect()
}

/// The merged view of a joined stripe: every value, or the error of the
/// first failing track in request order — deterministic, because the
/// outcomes were all collected before this looks at any of them.
pub(crate) fn first_failure<T>(outcomes: Vec<DiskResult<T>>) -> DiskResult<Vec<T>> {
    outcomes.into_iter().collect()
}

/// Copy each successfully read track into the caller's matching buffer,
/// keeping the per-track outcomes.
pub(crate) fn copy_joined(
    outcomes: Vec<DiskResult<Vec<u8>>>,
    bufs: &mut [&mut [u8]],
) -> TrackOutcomes {
    (outcomes.into_iter().zip(bufs.iter_mut()))
        .map(|(outcome, buf)| outcome.map(|track| buf.copy_from_slice(&track)))
        .collect()
}

enum ReadInner {
    /// The transfers already happened (synchronous backend): the blocks,
    /// or the error they died with.
    Ready(DiskResult<Vec<Vec<u8>>>),
    /// One reply channel per dispatched drive, in request order.
    Pending(PendingSlots<Vec<u8>>),
}

/// A joinable handle for one submitted stripe read.
///
/// Produced by [`crate::DiskBackend::submit_read_stripe`]; the backend may
/// have executed the transfers synchronously (the default, and the memory
/// backend) or have them in flight on per-drive worker threads (the file
/// backend in [`crate::IoMode::Parallel`]). Either way [`ReadTicket::join`]
/// returns the blocks in request order, or the deferred error of the
/// lowest-indexed failing drive — deterministically, exactly as the
/// synchronous path would have reported it. Dropping a ticket without
/// joining abandons the results but never blocks or panics.
pub struct ReadTicket {
    inner: ReadInner,
}

impl ReadTicket {
    /// Wrap an already-completed stripe read (synchronous backends).
    pub fn ready(result: DiskResult<Vec<Vec<u8>>>) -> Self {
        ReadTicket { inner: ReadInner::Ready(result) }
    }

    /// Wrap in-flight reply slots (engine backends). Any engine — worker
    /// threads or a kernel ring — shares this join path, so the
    /// lowest-drive-wins error selection and sticky deferred errors are
    /// identical across engines by construction.
    pub(crate) fn pending(slots: PendingSlots<Vec<u8>>) -> Self {
        ReadTicket { inner: ReadInner::Pending(slots) }
    }

    /// Wait for every dispatched transfer and return the track bytes in
    /// request order. All replies are joined before any error is
    /// reported, and the first (lowest-indexed) failure wins.
    pub fn join(self) -> DiskResult<Vec<Vec<u8>>> {
        match self.inner {
            ReadInner::Ready(result) => result,
            ReadInner::Pending(slots) => first_failure(join_slots(slots)),
        }
    }
}

enum WriteInner {
    /// The transfers already happened (synchronous backend).
    Ready(DiskResult<()>),
    /// One reply channel per dispatched drive, in request order.
    Pending(PendingSlots<()>),
}

/// A joinable handle for one submitted stripe write (see [`ReadTicket`]
/// for the completion and error contract).
pub struct WriteTicket {
    inner: WriteInner,
}

impl WriteTicket {
    /// Wrap an already-completed stripe write (synchronous backends).
    pub fn ready(result: DiskResult<()>) -> Self {
        WriteTicket { inner: WriteInner::Ready(result) }
    }

    /// Wrap in-flight reply slots (engine backends; see
    /// [`ReadTicket::pending`]).
    pub(crate) fn pending(slots: PendingSlots<()>) -> Self {
        WriteTicket { inner: WriteInner::Pending(slots) }
    }

    /// Wait for every dispatched transfer; the first (lowest-indexed)
    /// failure wins, deterministically.
    pub fn join(self) -> DiskResult<()> {
        match self.inner {
            WriteInner::Ready(result) => result,
            WriteInner::Pending(slots) => first_failure(join_slots(slots)).map(drop),
        }
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        // Closing the command channels lets each worker drain and exit.
        self.txs.clear();
        for handle in self.handles.drain(..) {
            // A panicked worker already surfaced as WorkerLost on its last
            // command; don't double-panic during drop.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    /// The merged synchronous forms, as [`crate::DiskBackend`] derives them.
    impl IoEngine {
        fn read_stripe(&self, addrs: &[(usize, usize)], bufs: &mut [&mut [u8]]) -> DiskResult<()> {
            first_failure(self.read_stripe_each(addrs, bufs)).map(drop)
        }

        fn write_stripe(&self, writes: &[(usize, usize, &[u8])]) -> DiskResult<()> {
            first_failure(self.write_stripe_each(writes)).map(drop)
        }
    }

    fn tmp_files(name: &str, n: usize) -> (std::path::PathBuf, Vec<File>) {
        let dir = std::env::temp_dir().join(format!("em-engine-{}-{name}", std::process::id()));
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
    fn stripe_round_trip_through_workers() {
        let (dir, files) = tmp_files("rt", 3);
        let engine = IoEngine::spawn(files, 16, false);
        engine.write_stripe(&[(0, 0, &[1u8; 16]), (1, 2, &[2u8; 16]), (2, 1, &[3u8; 16])]).unwrap();
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
        drop(engine); // joins workers
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritten_tracks_read_zero_through_workers() {
        let (dir, files) = tmp_files("zero", 2);
        let engine = IoEngine::spawn(files, 8, false);
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
    fn tickets_overlap_and_drain_in_submission_order() {
        let (dir, files) = tmp_files("overlap", 4);
        let engine = IoEngine::spawn(files, 16, false);
        // Several writes in flight at once, including two generations on
        // the same (disk, track) — per-drive FIFO must apply them in
        // submission order.
        let old: Vec<(usize, usize, &[u8])> = vec![(0, 0, &[1u8; 16]), (1, 0, &[1u8; 16])];
        let new: Vec<(usize, usize, &[u8])> = vec![(0, 0, &[2u8; 16]), (1, 0, &[2u8; 16])];
        let t1 = engine.submit_write_stripe(&old);
        let t2 = engine.submit_write_stripe(&new);
        let t3 = engine.submit_read_stripe(&[(0, 0), (1, 0)], 16);
        t1.join().unwrap();
        t2.join().unwrap();
        let data = t3.join().unwrap();
        assert_eq!(data, vec![vec![2u8; 16]; 2], "later submission must win on the same track");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Forces real worker-side write failures by handing the engine
    /// read-only file handles.
    fn read_only_engine(name: &str, n: usize) -> (std::path::PathBuf, IoEngine) {
        let dir = std::env::temp_dir().join(format!("em-engine-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files: Vec<File> = (0..n)
            .map(|i| {
                let path = dir.join(format!("disk-{i}.bin"));
                std::fs::write(&path, []).unwrap();
                OpenOptions::new().read(true).open(path).unwrap()
            })
            .collect();
        (dir, IoEngine::spawn(files, 8, false))
    }

    #[test]
    fn poisoned_ticket_survives_sync_and_reports_at_join() {
        let (dir, engine) = read_only_engine("poison", 2);
        let ticket = engine.submit_write_stripe(&[(1, 0, &[7u8; 8])]);
        // The error is already waiting in the reply channel, but the drive
        // keeps serving: sync_all succeeds (sync_data on a read-only handle
        // is fine), and the poisoned ticket still reports afterwards.
        engine.sync_all().unwrap();
        match ticket.join() {
            Err(DiskError::WorkerIo { disk: 1, .. }) => {}
            other => panic!("expected WorkerIo on drive 1 after sync, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_drive_failure_reports_lowest_drive_deterministically() {
        for _ in 0..20 {
            let (dir, engine) = read_only_engine("lowest", 4);
            let writes: Vec<(usize, usize, &[u8])> =
                (1..4).map(|d| (d, 0, &[0u8; 8][..])).collect();
            let ticket = engine.submit_write_stripe(&writes);
            match ticket.join() {
                Err(DiskError::WorkerIo { disk: 1, .. }) => {}
                other => panic!("expected the lowest failing drive (1), got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lost_worker_mid_pipeline_surfaces_at_join() {
        let (dir, files) = tmp_files("lost", 2);
        let mut engine = IoEngine::spawn(files, 8, false);
        // A ticket submitted while the engine was healthy...
        let alive = engine.submit_write_stripe(&[(0, 0, &[3u8; 8])]);
        // ...then the workers are torn down mid-pipeline (they drain their
        // queues before exiting, so `alive` still completes).
        engine.txs.clear();
        for handle in engine.handles.drain(..) {
            handle.join().unwrap();
        }
        alive.join().unwrap();
        // Anything submitted afterwards is poisoned per-drive and reports
        // the lowest lost drive at join, like any other stripe failure.
        let dead_write = engine.submit_write_stripe(&[(1, 0, &[4u8; 8])]);
        assert!(matches!(dead_write.join(), Err(DiskError::WorkerLost { disk: 1 })));
        let dead_read = engine.submit_read_stripe(&[(0, 0), (1, 0)], 8);
        assert!(matches!(dead_read.join(), Err(DiskError::WorkerLost { disk: 0 })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
