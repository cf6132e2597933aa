//! The BSP programs the simulator unit tests share, and two backends that
//! watch what reaches them: one counts the batches, one records the
//! tracks written.

use em_bsp::{BspProgram, Mailbox, Step};
use em_disk::{DiskBackend, TrackOutcomes};
use std::sync::{Arc, Mutex};

/// All-to-all exchange and sum — the standard differential check.
/// Declares μ = `mu` (over-declaration is allowed and lets tests force
/// small group sizes while honouring the model's M ≥ D·B requirement).
pub(crate) struct AllToAll {
    pub mu: usize,
}

impl BspProgram for AllToAll {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        match step {
            0 => {
                for dst in 0..mb.nprocs() {
                    mb.send(dst, (mb.pid() as u64 + 1) * 1000 + dst as u64);
                }
                Step::Continue
            }
            _ => {
                *state = mb.take_incoming().iter().map(|e| e.msg).sum();
                Step::Halt
            }
        }
    }
    fn max_state_bytes(&self) -> usize {
        self.mu.max(8)
    }
    fn max_comm_bytes(&self) -> usize {
        // up to 32 vprocs * (16 header + 8 payload)
        32 * 24
    }
}

/// Nearest-neighbour diffusion for `rounds` supersteps: a state-dependent
/// multi-superstep workload. Every superstep folds the incoming messages
/// into the state, so a stale or misaligned context read (e.g. batch b
/// handed the contexts of batch b-1), or resuming from the wrong
/// barrier, changes the final states — which the symmetric all-to-all
/// workload cannot detect because it never reads its prior state.
pub(crate) struct Diffuse {
    pub rounds: usize,
}

impl BspProgram for Diffuse {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        let v = mb.nprocs();
        for e in mb.take_incoming() {
            *state = state.wrapping_add(e.msg);
        }
        if step < self.rounds {
            mb.send((mb.pid() + 1) % v, *state + step as u64);
            mb.send((mb.pid() + v - 1) % v, state.wrapping_mul(3));
            Step::Continue
        } else {
            Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        124
    }
    fn max_comm_bytes(&self) -> usize {
        2 * 24
    }
}

/// Virtual processor 3 sends far more than the declared γ.
pub(crate) struct Chatty;

impl BspProgram for Chatty {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, _: &mut u64) -> Step {
        if step == 0 && mb.pid() == 3 {
            for _ in 0..100 {
                mb.send(0, 1);
            }
        }
        if step == 0 {
            Step::Continue
        } else {
            mb.take_incoming();
            Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        124
    }
    fn max_comm_bytes(&self) -> usize {
        48 // two messages' worth; pid 3 exceeds it
    }
}

/// A backend that counts the batch calls reaching it and how many stripes
/// they carried.
pub(crate) struct BatchCounting {
    pub inner: Box<dyn DiskBackend>,
    /// `(read batches, write batches, stripes in them)`.
    pub calls: Arc<Mutex<(u64, u64, u64)>>,
}

impl DiskBackend for BatchCounting {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let mut calls = self.calls.lock().unwrap();
        (calls.0, calls.2) = (calls.0 + 1, calls.2 + stripes.len() as u64);
        self.inner.read_batch_each(stripes, addrs, bufs)
    }
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let mut calls = self.calls.lock().unwrap();
        (calls.1, calls.2) = (calls.1 + 1, calls.2 + stripes.len() as u64);
        self.inner.write_batch_each(stripes, writes)
    }
    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }
}

/// A backend that records every track written through it, in order.
pub(crate) struct WriteRecording {
    pub inner: Box<dyn DiskBackend>,
    /// `(disk, track)` of every write, successful or not.
    pub written: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl DiskBackend for WriteRecording {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.inner.read_batch_each(stripes, addrs, bufs)
    }
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        self.written.lock().unwrap().extend(writes.iter().map(|&(disk, track, _)| (disk, track)));
        self.inner.write_batch_each(stripes, writes)
    }
    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }
}
