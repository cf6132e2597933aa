//! The `D`-way parallel I/O engine behind the file backend.
//!
//! The EM-BSP cost model's central object is the *parallel I/O operation*:
//! one operation moves up to `D` blocks — at most one per drive —
//! simultaneously, at cost `G`. The [`IoEngine`] makes the file backend
//! honour that "simultaneously": each simulated drive gets a dedicated
//! worker thread that owns the drive's `File` exclusively, and a transfer
//! is executed by handing every drive its share at once, then joining all
//! replies before the operation returns.
//!
//! The engine's unit of transfer is a **batch** of tracks — in practice
//! the tracks of one or more stripes; a single stripe is the batch with one
//! track per drive. Whatever its size, a batch costs **one command and one
//! reply per drive**, and a worker moves every run of its tracks that are
//! adjacent on the drive (`t, t + 1, …` — what standard consecutive format
//! gives a group's contexts and routed messages) with one positional
//! syscall over one contiguous buffer.
//!
//! Design points (see DESIGN.md §3.2 for the full contract):
//!
//! * **Ownership** — a drive's `File` lives on its worker thread; the
//!   engine only holds the command channel. No file handle is ever shared,
//!   so per-drive positional I/O needs no locking.
//! * **Blocking** — `read_each` / `write_each` dispatch one command per
//!   listed drive, then join every reply before they return, so a caller
//!   never observes a transfer in flight. Per-drive command channels are
//!   FIFO, and a command's tracks move in request order.
//! * **Error propagation** — each batch has one reply channel, and a
//!   command's reply names the tracks of the command that failed, each
//!   with its own error. A failed transfer comes back as
//!   [`DiskError::WorkerIo`] tagged with the drive index (a failed
//!   multi-track run is redone track by track, so only the tracks that
//!   really fail report an error); a worker whose thread has died (panic,
//!   channel torn down) never replies, which surfaces as
//!   [`DiskError::WorkerLost`] on every track it was sent. All replies are
//!   joined first ([`PendingBatch::join`]: one outcome per track, request
//!   order — the form the decorator stack consumes), so error selection by
//!   the first failing track is deterministic whatever order the drives
//!   finished in.
//! * **Shutdown** — dropping the engine closes every command channel;
//!   workers drain and exit, and the engine joins them. A worker that
//!   errored stays alive and keeps serving subsequent commands (the drive
//!   is poisoned only for the failed track, not for the array).

use crate::{DiskError, DiskResult, TrackOutcomes};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::thread::JoinHandle;

/// One command to a drive worker: the drive's whole share of a batch.
/// Buffers are owned so commands can cross the thread boundary without
/// borrowing from the caller; the engine pays one copy per block, which is
/// noise next to the file I/O the workers overlap.
enum Cmd {
    /// Read the listed tracks, in this order, into `buf`, track after track.
    Read { tracks: Vec<usize>, buf: Vec<u8>, reply: ReplyTo },
    /// Write `data` — the listed tracks' bytes, in this order.
    Write { tracks: Vec<usize>, data: Vec<u8>, reply: ReplyTo },
    /// Flush the drive's file to stable storage.
    Sync { reply: ReplyTo },
}

/// Where a command's reply goes: the batch's one reply channel, tagged with
/// the command's number in the batch.
struct ReplyTo {
    replies: Sender<(usize, DriveReply)>,
    command: usize,
}

/// What a worker sends back for one command: the tracks that failed — by
/// position in the command, each with its own error; empty when the whole
/// command went through, the case that must stay cheap — and the command's
/// own buffers (for a read, `bytes` now holds the tracks read, track after
/// track). The buffers travel back so that the thread that allocated them
/// frees them, which keeps the allocator on its per-thread fast path.
struct DriveReply {
    failed: Vec<(usize, DiskError)>,
    tracks: Vec<usize>,
    bytes: Vec<u8>,
}

/// Worker-thread-per-disk I/O engine. See the module docs for the
/// ownership, join and shutdown contract.
pub(crate) struct IoEngine {
    /// Command channel of worker `d` (same index as the drive).
    txs: Vec<Sender<Cmd>>,
    /// Join handles, drained on drop.
    handles: Vec<JoinHandle<()>>,
    /// Bytes per track of the drive files.
    block_bytes: usize,
}

/// Read `buf.len()` bytes — one track, or a run of adjacent ones — at
/// `offset`, zero-filling any part past EOF: never-written tracks read
/// back as zeros, matching the memory backend and the model's "formatted"
/// disks.
pub(crate) fn read_full_track(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_at(file, &mut buf[filled..], offset + filled as u64) {
            Ok(0) => break, // EOF: the rest was never written
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

/// Move one drive's share of a batch: `tracks` in request order, their
/// bytes laid track after track in one buffer. Every maximal run of tracks
/// that are adjacent on the drive is one call of `io(bytes, offset)` — the
/// run's byte range in that buffer and its offset in the drive file. A run
/// whose call fails is redone track by track, so a sound track never
/// inherits a neighbour's error. Returns the tracks that failed, by
/// position in `tracks`, each with its own error.
pub(crate) fn transfer_runs(
    disk: usize,
    tracks: &[usize],
    block_bytes: usize,
    mut io: impl FnMut(Range<usize>, u64) -> io::Result<()>,
) -> Vec<(usize, DiskError)> {
    let mut attempt = |first: usize, len: usize| -> DiskResult<()> {
        let offset = track_offset(disk, tracks[first], block_bytes)?;
        track_offset(disk, tracks[first + len - 1], block_bytes)?;
        io(first * block_bytes..(first + len) * block_bytes, offset)
            .map_err(|source| DiskError::WorkerIo { disk, source })
    };
    let mut failed = Vec::new();
    let mut first = 0;
    while first < tracks.len() {
        let mut len = 1;
        while first + len < tracks.len()
            && tracks[first + len - 1].checked_add(1) == Some(tracks[first + len])
        {
            len += 1;
        }
        match attempt(first, len) {
            Ok(()) => {}
            Err(error) if len == 1 => failed.push((first, error)),
            Err(_) => failed.extend(
                (first..first + len).filter_map(|i| attempt(i, 1).err().map(|error| (i, error))),
            ),
        }
        first += len;
    }
    failed
}

/// The worker loop: serve commands until the engine drops the channel.
fn drive_worker(disk: usize, file: File, block_bytes: usize, rx: Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv() {
        let (reply, failed, tracks, bytes) = match cmd {
            Cmd::Read { tracks, mut buf, reply } => {
                let failed = transfer_runs(disk, &tracks, block_bytes, |run, offset| {
                    read_full_track(&file, &mut buf[run], offset)
                });
                (reply, failed, tracks, buf)
            }
            Cmd::Write { tracks, data, reply } => {
                let failed = transfer_runs(disk, &tracks, block_bytes, |run, offset| {
                    write_at(&file, &data[run], offset)
                });
                (reply, failed, tracks, data)
            }
            Cmd::Sync { reply } => {
                let failed = match file.sync_data() {
                    Ok(()) => Vec::new(),
                    Err(source) => vec![(0, DiskError::WorkerIo { disk, source })],
                };
                (reply, failed, Vec::new(), Vec::new())
            }
        };
        // A dropped reply receiver means the engine gave up on the batch
        // (it is being torn down); nothing left to do.
        let _ = reply.replies.send((reply.command, DriveReply { failed, tracks, bytes }));
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
                        crate::affinity::pin_thread_to_core(disk % ncpus);
                    }
                    drive_worker(disk, file, block_bytes, rx)
                })
                .expect("spawn disk worker thread");
            txs.push(tx);
            handles.push(handle);
        }
        IoEngine { txs, handles, block_bytes }
    }

    /// Send each drive its share of an `n`-track batch — one command per
    /// drive that `disk_of(request index)` names, built by
    /// `command(request indices, where to reply)` — without waiting for any
    /// transfer to complete. A drive whose worker is already gone takes no
    /// command and will never reply; the [`DiskError::WorkerLost`] surfaces
    /// at join, keeping submission non-blocking and infallible.
    fn dispatch(
        &self,
        n: usize,
        disk_of: impl Fn(usize) -> usize,
        mut command: impl FnMut(&[usize], ReplyTo) -> Cmd,
    ) -> PendingBatch {
        // Request indices grouped by drive; the sort is stable, so each
        // drive keeps its tracks in request order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| disk_of(i));
        let (replies_tx, replies) = bounded(self.txs.len());
        let mut commands = Vec::with_capacity(self.txs.len());
        let mut sent = 0;
        let mut at = 0;
        while at < n {
            let disk = disk_of(order[at]);
            let len = order[at..].iter().take_while(|&&i| disk_of(i) == disk).count();
            let reply = ReplyTo { replies: replies_tx.clone(), command: commands.len() };
            let cmd = command(&order[at..at + len], reply);
            sent += usize::from(self.txs.get(disk).is_some_and(|tx| tx.send(cmd).is_ok()));
            commands.push((disk, at..at + len, false));
            at += len;
        }
        PendingBatch { replies, sent, commands, order }
    }

    /// Dispatch the reads of a batch (see [`IoEngine::dispatch`]).
    fn dispatch_reads(&self, addrs: &[(usize, usize)]) -> PendingBatch {
        self.dispatch(
            addrs.len(),
            |i| addrs[i].0,
            |members, reply| Cmd::Read {
                tracks: members.iter().map(|&i| addrs[i].1).collect(),
                buf: vec![0u8; members.len() * self.block_bytes],
                reply,
            },
        )
    }

    /// Dispatch the writes of a batch (see [`IoEngine::dispatch`]).
    fn dispatch_writes(&self, writes: &[(usize, usize, &[u8])]) -> PendingBatch {
        self.dispatch(
            writes.len(),
            |i| writes[i].0,
            |members, reply| {
                let mut data = Vec::with_capacity(members.len() * self.block_bytes);
                for &i in members {
                    debug_assert_eq!(writes[i].2.len(), self.block_bytes);
                    data.extend_from_slice(writes[i].2);
                }
                Cmd::Write { tracks: members.iter().map(|&i| writes[i].1).collect(), data, reply }
            },
        )
    }

    /// Dispatch the reads of a batch, join all replies, and copy each
    /// track that arrived into the caller's buffer. One outcome per track,
    /// request order.
    pub(crate) fn read_each(
        &self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        debug_assert_eq!(addrs.len(), bufs.len());
        self.dispatch_reads(addrs).join(self.block_bytes, |i, track| bufs[i].copy_from_slice(track))
    }

    /// Dispatch the writes of a batch and join all replies. One outcome
    /// per track, request order.
    pub(crate) fn write_each(&self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        self.dispatch_writes(writes).join(0, |_, _| {})
    }

    /// Flush every drive to stable storage (joined like a batch with one
    /// track per drive).
    pub(crate) fn sync_all(&self) -> DiskResult<()> {
        let pending = self.dispatch(self.txs.len(), |disk| disk, |_, reply| Cmd::Sync { reply });
        first_failure(pending.join(0, |_, _| {})).map(drop)
    }
}

/// A dispatched batch of the threaded engine.
struct PendingBatch {
    /// The batch's reply channel. Every command that was handed to a worker
    /// holds a sender; a worker that dies drops its own.
    replies: Receiver<(usize, DriveReply)>,
    /// How many commands a worker accepted.
    sent: usize,
    /// Per command: the drive, which part of `order` it carries, and
    /// whether its reply has come.
    commands: Vec<(usize, Range<usize>, bool)>,
    /// The batch's request indices, command after command, each command's
    /// in the order it carries them.
    order: Vec<usize>,
}

impl PendingBatch {
    /// Wait for every command's reply — all are joined before anything is
    /// reported — and return one outcome per track, in request order. A
    /// read's `track_bytes`-byte tracks that arrived are handed to
    /// `deliver(request index, bytes)`; a write or a sync passes 0 and is
    /// handed nothing. A command that gets no reply — its worker was gone
    /// at submission, or died holding it — reports
    /// [`DiskError::WorkerLost`] on every track it carries.
    fn join(mut self, track_bytes: usize, mut deliver: impl FnMut(usize, &[u8])) -> TrackOutcomes {
        let mut outcomes: TrackOutcomes = self.order.iter().map(|_| Ok(())).collect();
        for _ in 0..self.sent {
            // Every sender gone with replies outstanding: a worker died.
            let Ok((command, reply)) = self.replies.recv() else { break };
            let (_, members, replied) = &mut self.commands[command];
            *replied = true;
            let members = &self.order[members.clone()];
            for (at, error) in reply.failed {
                outcomes[members[at]] = Err(error);
            }
            if track_bytes > 0 {
                for (&i, track) in members.iter().zip(reply.bytes.chunks_exact(track_bytes)) {
                    if outcomes[i].is_ok() {
                        deliver(i, track);
                    }
                }
            }
            // The command's buffers end here, on the thread that made them.
            drop((reply.tracks, reply.bytes));
        }
        for (disk, members, _) in self.commands.iter().filter(|(_, _, replied)| !replied) {
            for &i in &self.order[members.clone()] {
                outcomes[i] = Err(DiskError::WorkerLost { disk: *disk });
            }
        }
        outcomes
    }
}

/// The merged view of a joined transfer: every value, or the error of the
/// first failing track in request order — deterministic, because the
/// outcomes were all collected before this looks at any of them.
pub(crate) fn first_failure<T>(outcomes: Vec<DiskResult<T>>) -> DiskResult<Vec<T>> {
    outcomes.into_iter().collect()
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
            first_failure(self.read_each(addrs, bufs)).map(drop)
        }

        fn write_stripe(&self, writes: &[(usize, usize, &[u8])]) -> DiskResult<()> {
            first_failure(self.write_each(writes)).map(drop)
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
    fn adjacent_tracks_of_a_drive_are_one_transfer() {
        // (byte range in the command's buffer, file offset) of every call,
        // and the positions that failed.
        let shape = |tracks: &[usize], fail: &[u64]| {
            let mut calls = Vec::new();
            let failed = transfer_runs(3, tracks, 10, |bytes, offset| {
                calls.push((bytes, offset));
                if fail.contains(&offset) {
                    Err(io::Error::other("injected"))
                } else {
                    Ok(())
                }
            });
            (calls, failed)
        };
        // A consecutive-format share: one call, however many tracks.
        let (calls, failed) = shape(&[5, 6, 7, 8], &[]);
        assert_eq!(calls, [(0..40, 50)]);
        assert!(failed.is_empty());
        // Runs break where adjacency does — a gap, a step back, a repeat.
        let (calls, _) = shape(&[5, 6, 9, 10, 3, 3], &[]);
        assert_eq!(calls, [(0..20, 50), (20..40, 90), (40..50, 30), (50..60, 30)]);
        // A failed run is redone track by track: the sound tracks land and
        // the failing one keeps its own error.
        let (calls, failed) = shape(&[1, 2, 3], &[10]);
        assert_eq!(calls, [(0..30, 10), (0..10, 10), (10..20, 20), (20..30, 30)]);
        assert!(matches!(failed[..], [(0, DiskError::WorkerIo { disk: 3, .. })]));
        // An unaddressable track is its own typed error, not its run's.
        let (calls, failed) = shape(&[7, usize::MAX - 1, usize::MAX], &[]);
        assert_eq!(calls, [(0..10, 70)]);
        assert!(matches!(
            failed[..],
            [(1, DiskError::OffsetOverflow { .. }), (2, DiskError::OffsetOverflow { .. })]
        ));
    }

    #[test]
    fn a_batch_is_one_command_per_drive_and_reads_back_what_stripes_wrote() {
        const D: usize = 3;
        let (dir, files) = tmp_files("batch", D);
        let engine = IoEngine::spawn(files, 8, false);
        // Global blocks 2..16 of a round-robin layout: ragged first and
        // last stripes, five tracks on drive 2 and four on the others.
        let addrs: Vec<(usize, usize)> = (2..16).map(|g| (g % D, 4 + g / D)).collect();
        let payloads: Vec<[u8; 8]> = (2..16).map(|g| [g as u8; 8]).collect();
        let writes: Vec<(usize, usize, &[u8])> =
            addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, &p[..])).collect();
        let pending = engine.dispatch_writes(&writes);
        assert_eq!(pending.commands.len(), D, "one command per drive, however many stripes");
        assert!(pending.join(0, |_, _| {}).iter().all(Result::is_ok));

        // The same tracks stripe by stripe, then one batch that also
        // crosses never-written tracks before and past the end of file.
        for (addr, payload) in addrs.iter().zip(&payloads) {
            let mut buf = [0u8; 8];
            engine.read_stripe(&[*addr], &mut [&mut buf[..]]).unwrap();
            assert_eq!(&buf, payload);
        }
        let wide: Vec<(usize, usize)> = (0..30).map(|g| (g % D, 4 + g / D)).collect();
        let pending = engine.dispatch_reads(&wide);
        assert_eq!(pending.commands.len(), D);
        let mut tracks = vec![[0xEEu8; 8]; wide.len()];
        let outcomes = pending.join(8, |i, track| tracks[i].copy_from_slice(track));
        assert!(outcomes.iter().all(Result::is_ok));
        for (g, track) in tracks.iter().enumerate() {
            let want = if (2..16).contains(&g) { g as u8 } else { 0 };
            assert_eq!(track, &[want; 8], "global block {g}");
        }
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
    fn a_failed_write_leaves_the_drive_serving() {
        let (dir, files) = tmp_files("serving", 2);
        let engine = IoEngine::spawn(files, 8, false);
        // Drive 1's worker fails the write of a track no file offset can
        // reach, and keeps serving: the sync and the next write go through.
        match engine.write_stripe(&[(0, 0, &[6u8; 8]), (1, usize::MAX, &[7u8; 8])]) {
            Err(DiskError::OffsetOverflow { disk: 1, .. }) => {}
            other => panic!("expected drive 1's OffsetOverflow, got {other:?}"),
        }
        engine.sync_all().unwrap();
        engine.write_stripe(&[(1, 0, &[7u8; 8])]).unwrap();
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        engine.read_stripe(&[(0, 0), (1, 0)], &mut [&mut a[..], &mut b[..]]).unwrap();
        assert_eq!((a, b), ([6u8; 8], [7u8; 8]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_drive_failure_reports_lowest_drive_deterministically() {
        for _ in 0..20 {
            let (dir, engine) = read_only_engine("lowest", 4);
            let writes: Vec<(usize, usize, &[u8])> =
                (1..4).map(|d| (d, 0, &[0u8; 8][..])).collect();
            match engine.write_stripe(&writes) {
                Err(DiskError::WorkerIo { disk: 1, .. }) => {}
                other => panic!("expected the lowest failing drive (1), got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_track_of_a_failed_batch_reports_its_own_drive() {
        let (dir, engine) = read_only_engine("batch-fail", 2);
        // Two adjacent tracks per drive: the merged write fails, each track
        // is retried alone and fails under its own drive's name.
        let writes: Vec<(usize, usize, &[u8])> =
            [(1, 0), (0, 0), (1, 1), (0, 1)].iter().map(|&(d, t)| (d, t, &[0u8; 8][..])).collect();
        let outcomes = engine.write_each(&writes);
        for (outcome, &(disk, _, _)) in outcomes.iter().zip(&writes) {
            assert!(matches!(outcome, Err(DiskError::WorkerIo { disk: d, .. }) if *d == disk));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lost_worker_is_typed_on_every_track_it_was_sent() {
        let (dir, files) = tmp_files("lost", 2);
        let mut engine = IoEngine::spawn(files, 8, false);
        engine.write_stripe(&[(0, 0, &[3u8; 8])]).unwrap();
        // The workers are torn down (they drain their queues and exit).
        engine.txs.clear();
        for handle in engine.handles.drain(..) {
            handle.join().unwrap();
        }
        // Every later transfer fails per drive, and the merged form reports
        // the lowest lost drive, like any other stripe failure.
        let outcomes = engine.write_each(&[(1, 0, &[4u8; 8])]);
        assert!(matches!(outcomes[..], [Err(DiskError::WorkerLost { disk: 1 })]));
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        let read = engine.read_stripe(&[(0, 0), (1, 0)], &mut [&mut a[..], &mut b[..]]);
        assert!(matches!(read, Err(DiskError::WorkerLost { disk: 0 })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
