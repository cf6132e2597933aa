//! Offline stand-in for `parking_lot`: the `Mutex` calls the layer crates
//! make, over `std::sync::Mutex`. Like the real crate it does not poison —
//! a panic while the lock is held leaves the data reachable.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}
