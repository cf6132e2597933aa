//! Communication ledgers: exact counted traffic per superstep, priced under
//! any of the three models after the fact.

use crate::{BspParams, BspStarParams};

/// Traffic counted during one communication superstep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuperstepComm {
    /// Messages routed.
    pub msgs: u64,
    /// Total bytes routed.
    pub bytes: u64,
    /// `h` — the busiest virtual processor's `max(sent, received)` bytes
    /// (the h-relation size of the superstep in bytes).
    pub h_bytes: u64,
    /// The busiest virtual processor's message count (each message costs
    /// at least one BSP\* packet).
    pub h_msgs: u64,
    /// The busiest virtual processor's packet count when the router's
    /// packet granularity is known at run time (0 = derive from bytes and
    /// message count at pricing time).
    pub h_packets: u64,
    /// The busiest virtual processor's charged computation operations
    /// (`max t_j` of the BSP computation-cost definition).
    pub w_comp: u64,
}

// Field order is checkpoint format 5: em-core's barrier manifest.
em_serial::impl_serial_struct!(SuperstepComm { msgs, bytes, h_bytes, h_msgs, h_packets, w_comp });

/// Ledger of a whole run: one [`SuperstepComm`] per superstep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommLedger {
    /// Per-superstep traffic, in execution order.
    pub steps: Vec<SuperstepComm>,
}

// Field order is checkpoint format 5: em-core's barrier manifest.
em_serial::impl_serial_struct!(CommLedger { steps });

impl CommLedger {
    /// λ — number of supersteps executed.
    pub fn lambda(&self) -> usize {
        self.steps.len()
    }

    /// Record one superstep.
    pub fn push(&mut self, step: SuperstepComm) {
        self.steps.push(step);
    }

    /// Total messages routed.
    pub fn total_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs).sum()
    }

    /// Total bytes routed (`α` in Theorem 1, summed over supersteps).
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.bytes).sum()
    }

    /// Largest h-relation (bytes) over all supersteps.
    pub fn max_h_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.h_bytes).max().unwrap_or(0)
    }

    /// `T_comm` under plain BSP: `Σ max(L, ĝ·h_i)`.
    pub fn bsp_comm_time(&self, params: &BspParams) -> f64 {
        self.steps.iter().map(|s| params.comm_cost(s.h_bytes)).sum()
    }

    /// `T_comm` under BSP\*: `Σ max(L, g·packets_i)`. When the runner
    /// recorded exact packet counts they are used; otherwise packets are
    /// estimated as `max(h_msgs, ⌈h_bytes/b⌉)` — exact when every message
    /// is either at most one packet (small-message regime) or much larger
    /// than `b` (bulk regime), a lower bound in between.
    pub fn bsp_star_comm_time(&self, params: &BspStarParams) -> f64 {
        self.steps
            .iter()
            .map(|s| {
                let packets = if s.h_packets > 0 {
                    s.h_packets
                } else {
                    s.h_msgs.max(s.h_bytes.div_ceil(params.b as u64))
                };
                params.comm_cost(packets)
            })
            .sum()
    }

    /// `T_comp` under BSP: `Σ max(L, w_comp_i)` — meaningful when the
    /// program charges its work via [`crate::Mailbox::charge`].
    pub fn bsp_comp_time(&self, l: f64) -> f64 {
        self.steps.iter().map(|s| (s.w_comp as f64).max(l)).sum()
    }

    /// Total charged computation across supersteps (the `β` of Theorem 1,
    /// per busiest processor).
    pub fn total_comp(&self) -> u64 {
        self.steps.iter().map(|s| s.w_comp).sum()
    }

    /// Merge another ledger's supersteps after this one's.
    pub fn extend(&mut self, other: CommLedger) {
        self.steps.extend(other.steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> CommLedger {
        CommLedger {
            steps: vec![
                SuperstepComm {
                    msgs: 4,
                    bytes: 400,
                    h_bytes: 200,
                    h_msgs: 2,
                    h_packets: 4,
                    w_comp: 50,
                },
                SuperstepComm {
                    msgs: 2,
                    bytes: 100,
                    h_bytes: 100,
                    h_msgs: 1,
                    h_packets: 2,
                    w_comp: 10,
                },
            ],
        }
    }

    #[test]
    fn totals() {
        let l = ledger();
        assert_eq!(l.lambda(), 2);
        assert_eq!(l.total_msgs(), 6);
        assert_eq!(l.total_bytes(), 500);
        assert_eq!(l.max_h_bytes(), 200);
    }

    #[test]
    fn bsp_pricing() {
        let l = ledger();
        let p = BspParams { p: 4, g_hat: 1.0, l: 150.0 };
        // step 1: max(150, 200) = 200; step 2: max(150, 100) = 150.
        assert_eq!(l.bsp_comm_time(&p), 350.0);
    }

    #[test]
    fn bsp_star_pricing_uses_packets() {
        let l = ledger();
        let p = BspStarParams { p: 4, g: 10.0, b: 64, l: 0.0 };
        // 4 packets + 2 packets at g=10.
        assert_eq!(l.bsp_star_comm_time(&p), 60.0);
    }

    #[test]
    fn bsp_star_estimates_packets_from_msgs_when_unrecorded() {
        // 10 tiny messages of 8 bytes on a 64-byte packet router: bytes/b
        // would say 2 packets, message count says 10.
        let l = CommLedger {
            steps: vec![SuperstepComm {
                msgs: 10,
                bytes: 80,
                h_bytes: 80,
                h_msgs: 10,
                h_packets: 0,
                w_comp: 0,
            }],
        };
        let p = BspStarParams { p: 2, g: 1.0, b: 64, l: 0.0 };
        assert_eq!(l.bsp_star_comm_time(&p), 10.0);
    }

    #[test]
    fn comp_pricing_applies_latency_floor() {
        let l = ledger();
        // max(30, 50) + max(30, 10) = 80.
        assert_eq!(l.bsp_comp_time(30.0), 80.0);
        assert_eq!(l.total_comp(), 60);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = ledger();
        a.extend(ledger());
        assert_eq!(a.lambda(), 4);
    }
}
