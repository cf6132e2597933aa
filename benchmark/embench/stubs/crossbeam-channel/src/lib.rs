//! Offline stand-in for `crossbeam-channel` 0.5: a multi-producer,
//! multi-consumer FIFO over a `Mutex<VecDeque>` and a `Condvar`, with the
//! calls the layer crates make and the published crate's waiting
//! discipline: a receiver that finds the queue empty spins, then yields,
//! through two rounds of its `Backoff` before it parks, and a sender wakes
//! nobody unless a receiver is parked. So a hand-off to a thread that is
//! running costs no futex call on either side, as with the real crate.
//! `bounded(cap)` does not block senders: its only callers create one-shot
//! reply channels that never hold more than `cap` messages.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// `crossbeam_utils::Backoff`: steps 0..=6 spin `1 << step` times, steps
/// 7..=10 yield the thread, after that the waiter should park. `recv` goes
/// through it twice (once polling the queue, once in `Context::wait_until`).
const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;
const BACKOFF_ROUNDS: u32 = 2;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `ready`.
    parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Something for a receiver to act on — a message, or the last sender
    /// gone — so a spinning receiver polls without taking the lock. Only a
    /// hint: it is written under `state`'s lock (Release) and a reader that
    /// sees it set (Acquire) takes the lock before touching the queue.
    news: AtomicBool,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half; clone it for more producers.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clone it for more consumers.
pub struct Receiver<T>(Arc<Shared<T>>);

/// The message could not be sent because every receiver is gone.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

/// The channel is empty and every sender is gone.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}
impl std::error::Error for RecvError {}

/// A channel of unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1, parked: 0 }),
        ready: Condvar::new(),
        news: AtomicBool::new(false),
    });
    (Sender(shared.clone()), Receiver(shared))
}

/// A channel for at most `cap` messages in flight (see the module note).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = unbounded();
    tx.0.lock().queue.reserve(cap);
    (tx, rx)
}

impl<T> Sender<T> {
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        self.0.news.store(true, Ordering::Release);
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.0.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        for _ in 0..BACKOFF_ROUNDS {
            for step in 0..=YIELD_LIMIT {
                if self.0.news.load(Ordering::Acquire) {
                    if let Some(outcome) = self.take(&mut self.0.lock()) {
                        return outcome;
                    }
                }
                if step <= SPIN_LIMIT {
                    (0..1u32 << step).for_each(|_| std::hint::spin_loop());
                } else {
                    std::thread::yield_now();
                }
            }
        }
        let mut st = self.0.lock();
        loop {
            if let Some(outcome) = self.take(&mut st) {
                return outcome;
            }
            st.parked += 1;
            st = self.0.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked -= 1;
        }
    }

    /// The next message, or the disconnect; `None` while there is neither.
    fn take(&self, st: &mut State<T>) -> Option<Result<T, RecvError>> {
        if let Some(msg) = st.queue.pop_front() {
            // Disconnect stays news for as long as the channel lives.
            self.0.news.store(!st.queue.is_empty() || st.senders == 0, Ordering::Release);
            return Some(Ok(msg));
        }
        (st.senders == 0).then_some(Err(RecvError))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            self.0.news.store(true, Ordering::Release);
            drop(st);
            self.0.ready.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Like the real crate, drop undelivered messages with the last receiver.
            let stale = std::mem::take(&mut st.queue);
            drop(st);
            drop(stale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn a_parked_receiver_is_woken_by_a_send_and_by_the_last_sender_leaving() {
        let (tx, rx) = unbounded::<u32>();
        let shared = tx.0.clone();
        let wait_until_parked = || {
            while shared.lock().parked == 0 {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let receiver = s.spawn(|| (rx.recv(), rx.recv()));
            wait_until_parked();
            tx.send(7).unwrap();
            // The second `recv` may still be spinning when the sender goes; either way it ends.
            drop(tx);
            assert_eq!(receiver.join().unwrap(), (Ok(7), Err(RecvError)));
        });
        assert_eq!(shared.lock().parked, 0);
    }

    #[test]
    fn many_consumers_drain_once() {
        let (tx, rx) = unbounded::<u32>();
        let total: u32 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut sum = 0;
                        while let Ok(x) = rx.recv() {
                            sum += x;
                        }
                        sum
                    })
                })
                .collect();
            for x in 1..=100 {
                tx.send(x).unwrap();
            }
            drop(tx);
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(total, 5050);
    }
}
