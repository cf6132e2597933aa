//! Facade crate re-exporting the em-sim workspace.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use em_algos as algos;
pub use em_baselines as baselines;
pub use em_bsp as bsp;
pub use em_core as core;
pub use em_disk as disk;
pub use em_serial as serial;
pub use em_service as service;
