//! A recording wrapper that accumulates the per-stage [`CostReport`]s of a
//! CGM algorithm pipeline for the benchmark harness. Both simulator types,
//! bare or wrapped, are [`em_bsp::Executor`]s (the impls come with the
//! rest of their shared surface from `sim_facade!`), so such pipelines run
//! unchanged on them.

use crate::CostReport;
use parking_lot::Mutex;

/// Wraps a simulator and keeps every stage's [`CostReport`] so a pipeline
/// of BSP programs (e.g. sort → sweep → gather) can be costed end to end.
pub struct Recording<S> {
    /// The wrapped simulator.
    pub sim: S,
    /// One report per executed program, in execution order.
    pub reports: Mutex<Vec<CostReport>>,
}

impl<S> Recording<S> {
    /// Wrap a simulator.
    pub fn new(sim: S) -> Self {
        Recording { sim, reports: Mutex::new(Vec::new()) }
    }

    /// Total parallel I/O operations across all recorded stages.
    pub fn total_io_ops(&self) -> u64 {
        self.reports.lock().iter().map(|r| r.io.parallel_ops).sum()
    }

    /// Total charged I/O time across all recorded stages.
    pub fn total_io_time(&self) -> u64 {
        self.reports.lock().iter().map(|r| r.io_time).sum()
    }

    /// Total λ across all recorded stages.
    pub fn total_lambda(&self) -> usize {
        self.reports.lock().iter().map(|r| r.lambda).sum()
    }

    /// Drain the recorded reports.
    pub fn take_reports(&self) -> Vec<CostReport> {
        std::mem::take(&mut *self.reports.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmMachine, SeqEmSimulator};
    use em_bsp::{BspProgram, Executor, Mailbox, SeqExecutor, Step};

    struct Double;
    impl BspProgram for Double {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, _: usize, _: &mut Mailbox<u64>, state: &mut u64) -> Step {
            *state *= 2;
            Step::Halt
        }
        fn max_state_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn em_executor_agrees_with_reference_and_records() {
        let init: Vec<u64> = (0..8).collect();
        let reference = SeqExecutor.execute(&Double, init.clone()).unwrap();
        let rec = Recording::new(SeqEmSimulator::new(EmMachine::uniprocessor(1 << 16, 2, 64, 1)));
        let a = rec.execute(&Double, init).unwrap();
        let b = rec.execute(&Double, a.states.clone()).unwrap();
        assert_eq!(a.states, reference.states);
        assert_eq!(b.states[7], 28);
        assert_eq!(rec.reports.lock().len(), 2);
        assert!(rec.total_io_ops() > 0);
        assert_eq!(rec.total_lambda(), 2);
    }
}
