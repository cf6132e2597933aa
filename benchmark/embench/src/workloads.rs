//! The four workloads: what each builds in set-up, how one job runs, and
//! the closed loop that times jobs.

use crate::gen::{sub_seed, Job};
use crate::trace::{Traced, Tracer};
use em_bsp::{BspStarParams, Executor};
use em_core::{CostReport, EmMachine, ParEmSimulator, Recording, SeqEmSimulator};
use em_disk::{EngineKind, IoMode, Pipeline, RetryPolicy};
use em_service::{JobSpec, ServiceConfig, SimService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub const NAMES: [&str; 4] = ["sort-mem", "sort-file", "listrank-par", "service-mix"];

/// Why each workload is in the set; printed with results and in BENCHMARK.json.
pub fn why(name: &str) -> &'static str {
    match name {
        "sort-mem" => "bulk O(1)-round sort on memory disks: core CPU, serial and algos do the work, the disk path does none",
        "sort-file" => "the same sort on checksummed, retried file disks behind the threaded engine, fsync per superstep: the disk path's cost",
        "listrank-par" => "many small supersteps on two real processors: per-superstep fixed costs dominate, only Algorithm 3 coverage",
        "service-mix" => "two closed-loop clients push tiny mixed jobs through one service: admission, arbiter and ledger dominate",
        _ => "",
    }
}

// The `T1-A-sort` / `T1-C-lr` machine shape.
const SORT_N: usize = 200_000;
const LISTRANK_N: usize = 30_000;
const V: usize = 64;
const M_BYTES: usize = 256 << 10;
const D: usize = 4;
const B: usize = 2048;

// The `traffic` full-size service shape.
const SVC_M: usize = 128 << 10;
const SVC_D: usize = 2;
const SVC_B: usize = 1024;
const SVC_MU: usize = 64 << 10;
const SVC_GAMMA: usize = 64 << 10;
const SVC_TRACKS: usize = 2048;
const SVC_SLOTS: usize = 2;
const SVC_CLIENTS: usize = 2;

/// How `sort-file` drives its drive files: every counted op is handed to one
/// worker thread per drive and joined, the path the engine and barrier work
/// of the ROADMAP changes.
pub const FILE_IO_MODE: IoMode = IoMode::Parallel;
pub const FILE_ENGINE: EngineKind = EngineKind::Threaded;
/// Drive worker `d` stays on core `d mod nproc`. Waking a thread on the other
/// vCPU costs this guest several times a wake-up on the caller's own, and left
/// to itself the kernel puts the four workers now beside the caller (a job
/// takes 0.3 s), now across from it (0.95 s). Pinned, every op wakes half of
/// them on each side wherever the caller runs, so the job has one cost.
pub const FILE_PIN_WORKERS: bool = true;

fn machine(p: usize, m_bytes: usize, d: usize, b_bytes: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes,
        d,
        b_bytes,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: b_bytes, l: 1.0 },
    }
}

/// Which stream of the master seed seeds the simulator's random placement.
const SIM_STREAM: u64 = 1;

pub enum Engine {
    Seq(Recording<SeqEmSimulator>),
    Par(Recording<ParEmSimulator>),
    Service(SimService),
}

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub machine: EmMachine,
    /// Closed-loop clients; each sends its next job when the last returned.
    pub clients: usize,
    /// The job pool, taken round-robin; one whole pass is the unit of work.
    pub jobs: Vec<Job>,
    pub refs: Vec<Vec<u64>>,
    pub engine: Engine,
    /// Where file-backed disks live (`sort-file` only).
    pub file_dir: Option<PathBuf>,
}

impl Workload {
    /// Generate inputs and reference outputs and construct the simulator or
    /// service. `smoke` shrinks every input about tenfold.
    pub fn build(name: &str, seed: u64, smoke: bool, dir: &Path) -> Result<Workload, String> {
        let shrink = if smoke { 10 } else { 1 };
        let sim_seed = sub_seed(seed, SIM_STREAM);
        let (name, machine, clients, jobs, engine, file_dir) = match name {
            "sort-mem" | "sort-file" => {
                let mach = machine(1, M_BYTES, D, B);
                // Same input and simulator seed on both, so they differ in the disk path only.
                let jobs = vec![Job::sort(SORT_N / shrink, V, sub_seed(seed, 0))];
                let sim = SeqEmSimulator::new(mach).with_seed(sim_seed);
                if name == "sort-mem" {
                    ("sort-mem", mach, 1, jobs, Engine::Seq(Recording::new(sim)), None)
                } else {
                    let file_dir = dir.join("sort-file");
                    let sim = sim
                        .with_file_backend(&file_dir)
                        .with_io_mode(FILE_IO_MODE)
                        .with_engine(FILE_ENGINE)
                        .with_pinned_workers(FILE_PIN_WORKERS)
                        .with_pipeline(Pipeline::Off)
                        .with_checksums(true)
                        .with_retry(RetryPolicy::default());
                    ("sort-file", mach, 1, jobs, Engine::Seq(Recording::new(sim)), Some(file_dir))
                }
            }
            "listrank-par" => {
                let mach = machine(2, M_BYTES, D, B);
                let jobs = vec![Job::list_rank(LISTRANK_N / shrink, V, sub_seed(seed, 2))];
                let sim = ParEmSimulator::new(mach).with_seed(sim_seed);
                ("listrank-par", mach, 1, jobs, Engine::Par(Recording::new(sim)), None)
            }
            "service-mix" => {
                let mach = EmMachine::uniprocessor(SVC_M, SVC_D, SVC_B, 1);
                let base = if smoke { 64 } else { 512 };
                let makers = [Job::sort, Job::permute, Job::prefix, Job::transpose];
                let mut jobs = Vec::with_capacity(56);
                for v in [8, 16] {
                    for size in 0..7 {
                        for make in makers {
                            let n = base + size * base / 2;
                            jobs.push(make(n, v, sub_seed(seed, 100 + jobs.len() as u64)));
                        }
                    }
                }
                let service = SimService::new(
                    ServiceConfig::new(
                        SVC_D,
                        SVC_B,
                        SVC_CLIENTS * SVC_TRACKS + 64,
                        SVC_CLIENTS * (SVC_MU * 64 + SVC_GAMMA),
                    )
                    .with_compute_slots(SVC_SLOTS),
                );
                ("service-mix", mach, SVC_CLIENTS, jobs, Engine::Service(service), None)
            }
            other => return Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
        };
        let refs = jobs.iter().map(Job::reference).collect();
        Ok(Workload { name, seed, machine, clients, jobs, refs, engine, file_dir })
    }

    /// The simulator seed of the single-job workloads.
    pub fn sim_seed(&self) -> u64 {
        sub_seed(self.seed, SIM_STREAM)
    }

    /// The simulator seed of pool job `idx` (the service gives each tenant its own).
    pub fn job_seed(&self, idx: usize) -> u64 {
        sub_seed(self.seed, 1000 + idx as u64)
    }

    pub fn pool_input_bytes(&self) -> u64 {
        self.jobs.iter().map(Job::input_bytes).sum()
    }

    fn service_spec(&self, idx: usize) -> JobSpec {
        let job = &self.jobs[idx];
        JobSpec::new(
            format!("job-{idx:02}-{}", job.kind()),
            self.job_seed(idx),
            self.machine,
            job.v(),
        )
        .with_budgets(SVC_MU, SVC_GAMMA)
        .with_tracks(SVC_TRACKS)
    }

    /// Run pool job `idx` once and check its output against the reference.
    /// The check and the cost summary happen after the job's span has ended.
    pub fn run_job(&self, idx: usize, job_id: u64, tracer: Option<&Tracer>) -> JobSample {
        let job = &self.jobs[idx];
        let mut sample = JobSample { idx, ..JobSample::default() };
        // The tenant's spec is the client's work, not the service's: made before the clock starts.
        let spec = matches!(self.engine, Engine::Service(_)).then(|| self.service_spec(idx));
        let started = Instant::now();
        let (out, stages) = match &self.engine {
            Engine::Seq(rec) => {
                let out = run_pipeline(rec, job, job_id, tracer, "job", None);
                sample.wall_ms = ms_since(started);
                (out, rec.take_reports())
            }
            Engine::Par(rec) => {
                let out = run_pipeline(rec, job, job_id, tracer, "job", None);
                sample.wall_ms = ms_since(started);
                (out, rec.take_reports())
            }
            Engine::Service(service) => {
                let root = tracer.map(|t| t.open("job", "service", None, Some(job_id)));
                let admit = tracer.map(|t| t.open("admit", "service", root, Some(job_id)));
                let lease = service.admit(spec.expect("made above for the service"));
                close(tracer, admit);
                sample.admit_us = ms_since(started) * 1e3;
                let lease = match lease {
                    Ok(lease) => lease,
                    Err(e) => {
                        close(tracer, root);
                        sample.wall_ms = ms_since(started);
                        sample.refused = true;
                        sample.failure = Some(format!("refused admission: {e}"));
                        return sample;
                    }
                };
                if tracer.is_some() {
                    sample.tenants_seen = service.active_tenants();
                }
                let t_exec = Instant::now();
                let out = run_pipeline(&lease, job, job_id, tracer, "pipeline", root);
                sample.exec_ms = ms_since(t_exec);
                let t_complete = Instant::now();
                let done = tracer.map(|t| t.open("complete", "service", root, Some(job_id)));
                let record = lease.complete();
                close(tracer, done);
                close(tracer, root);
                sample.wall_ms = ms_since(started);
                sample.complete_us = ms_since(t_complete) * 1e3;
                (out, record.stages)
            }
        };
        match out {
            Ok((out, traced_stages)) => {
                if let (Some(t), Some(ids)) = (tracer, traced_stages) {
                    crate::trace::attach_reports(t, &ids, &stages);
                }
                if out != self.refs[idx] {
                    sample.failure =
                        Some(format!("output of pool job {idx} differs from the reference"));
                }
            }
            Err(e) => sample.failure = Some(format!("pool job {idx} returned an error: {e}")),
        }
        sample.cost = JobCost::from_stages(&stages);
        sample
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn close(tracer: Option<&Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer, id) {
        t.close(id);
    }
}

type PipelineOut = Result<(Vec<u64>, Option<Vec<usize>>), em_algos::AlgoError>;

/// The job's CGM pipeline on `exec`; with a tracer, inside a span named
/// `span` with one child span per stage.
fn run_pipeline<E: Executor>(
    exec: &E,
    job: &Job,
    job_id: u64,
    tracer: Option<&Tracer>,
    span: &'static str,
    parent: Option<usize>,
) -> PipelineOut {
    match tracer {
        None => job.run(exec).map(|out| (out, None)),
        Some(t) => {
            let id = t.open(span, "algos", parent, Some(job_id));
            let traced = Traced::new(exec, t, id, job_id);
            let out = job.run(&traced);
            t.close(id);
            out.map(|out| (out, Some(traced.into_stage_ids())))
        }
    }
}

/// Counts of one job, summed over its stages. They must repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub stages: u64,
    pub lambda: u64,
    pub io_ops: u64,
    pub fetch_ctx: u64,
    pub fetch_msg: u64,
    pub scatter: u64,
    pub write_ctx: u64,
    pub routing: u64,
    /// Ops of reading the final contexts back, which the program counts in
    /// `parallel_ops` but files under no `PhaseIo` phase: one more context
    /// sweep per stage, so `fetch_ctx / lambda` of that stage.
    pub final_read: u64,
    /// Stages whose `parallel_ops` is not its five phases plus that one sweep.
    pub split_breaks: u64,
    pub blocks_moved: u64,
    pub bytes_moved: u64,
    /// Blocks read and written per drive, merged over processors.
    pub per_disk: Vec<u64>,
    pub retried_blocks: u64,
    pub msgs: u64,
    pub msg_bytes: u64,
    pub real_comm_bytes: u64,
    pub p: u64,
    /// Largest of any stage.
    pub k: u64,
    pub num_groups: u64,
    pub tracks_per_disk: u64,
    /// Bits of the worst Lemma 2 balance factor, so the struct stays `Eq`.
    pub worst_balance_bits: u64,
}

impl Counts {
    /// Nothing counted yet; the balance factor of no traffic is 1.
    pub fn zero() -> Counts {
        Counts { worst_balance_bits: 1f64.to_bits(), ..Counts::default() }
    }

    fn of_stage(r: &CostReport) -> Counts {
        let ph = &r.phases;
        let filed = ph.fetch_ctx + ph.fetch_msg + ph.scatter + ph.write_ctx + ph.routing;
        let lambda = (r.lambda as u64).max(1);
        let final_read = ph.fetch_ctx / lambda;
        let adds_up =
            ph.fetch_ctx.is_multiple_of(lambda) && filed + final_read == r.io.parallel_ops;
        Counts {
            final_read,
            split_breaks: u64::from(!adds_up),
            stages: 1,
            lambda: r.lambda as u64,
            io_ops: r.io.parallel_ops,
            fetch_ctx: r.phases.fetch_ctx,
            fetch_msg: r.phases.fetch_msg,
            scatter: r.phases.scatter,
            write_ctx: r.phases.write_ctx,
            routing: r.phases.routing,
            blocks_moved: r.io.blocks_moved(),
            bytes_moved: r.io.bytes_read + r.io.bytes_written,
            per_disk: r
                .io
                .per_disk_reads
                .iter()
                .zip(&r.io.per_disk_writes)
                .map(|(rd, wr)| rd + wr)
                .collect(),
            retried_blocks: r.io.retried_blocks,
            msgs: r.comm.total_msgs(),
            msg_bytes: r.comm.total_bytes(),
            real_comm_bytes: r.real_comm_bytes,
            p: r.p as u64,
            k: r.k as u64,
            num_groups: r.num_groups as u64,
            tracks_per_disk: r.tracks_per_disk as u64,
            worst_balance_bits: r.worst_balance().to_bits(),
        }
    }

    /// Add another stage's or job's counts: sums of the traffic, maxima of the shape.
    pub fn absorb(&mut self, other: &Counts) {
        self.stages += other.stages;
        self.lambda += other.lambda;
        self.io_ops += other.io_ops;
        self.fetch_ctx += other.fetch_ctx;
        self.fetch_msg += other.fetch_msg;
        self.scatter += other.scatter;
        self.write_ctx += other.write_ctx;
        self.routing += other.routing;
        self.final_read += other.final_read;
        self.split_breaks += other.split_breaks;
        self.blocks_moved += other.blocks_moved;
        self.bytes_moved += other.bytes_moved;
        if self.per_disk.len() < other.per_disk.len() {
            self.per_disk.resize(other.per_disk.len(), 0);
        }
        for (slot, x) in self.per_disk.iter_mut().zip(&other.per_disk) {
            *slot += x;
        }
        self.retried_blocks += other.retried_blocks;
        self.msgs += other.msgs;
        self.msg_bytes += other.msg_bytes;
        self.real_comm_bytes += other.real_comm_bytes;
        self.p = self.p.max(other.p);
        self.k = self.k.max(other.k);
        self.num_groups = self.num_groups.max(other.num_groups);
        self.tracks_per_disk = self.tracks_per_disk.max(other.tracks_per_disk);
        self.worst_balance_bits = self.worst_balance().max(other.worst_balance()).to_bits();
    }

    pub fn worst_balance(&self) -> f64 {
        f64::from_bits(self.worst_balance_bits)
    }

    /// Blocks moved per drive-slot offered.
    pub fn utilization(&self) -> f64 {
        let slots = self.io_ops * self.per_disk.len() as u64;
        if slots == 0 {
            0.0
        } else {
            self.blocks_moved as f64 / slots as f64
        }
    }

    /// Busiest drive over the mean drive.
    pub fn imbalance(&self) -> f64 {
        let sum: u64 = self.per_disk.iter().sum();
        let max = self.per_disk.iter().copied().max().unwrap_or(0);
        if sum == 0 {
            1.0
        } else {
            max as f64 * self.per_disk.len() as f64 / sum as f64
        }
    }
}

/// Wall-clock split of one job, summed over its stages, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Walls {
    pub fetch: f64,
    pub compute: f64,
    pub write: f64,
    pub reorganize: f64,
    pub sync: f64,
    /// Σ `CostReport::wall`.
    pub stages: f64,
}

#[derive(Debug, Clone, Default)]
pub struct JobCost {
    pub counts: Counts,
    pub walls: Walls,
}

impl JobCost {
    fn from_stages(stages: &[CostReport]) -> JobCost {
        let mut cost = JobCost { counts: Counts::zero(), walls: Walls::default() };
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        for r in stages {
            cost.counts.absorb(&Counts::of_stage(r));
            let w = &mut cost.walls;
            w.fetch += ms(r.phase_wall.fetch);
            w.compute += ms(r.phase_wall.compute);
            w.write += ms(r.phase_wall.write);
            w.reorganize += ms(r.phase_wall.reorganize);
            w.sync += ms(r.phase_wall.sync);
            w.stages += ms(r.wall);
        }
        cost
    }
}

/// What one attempted job left behind.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    pub idx: usize,
    /// Call to returned output; on the service, before `admit` to after `complete`.
    pub wall_ms: f64,
    pub admit_us: f64,
    pub exec_ms: f64,
    pub complete_us: f64,
    pub cost: JobCost,
    pub refused: bool,
    /// Tenants admitted at once, read right after admission (traced runs only).
    pub tenants_seen: usize,
    /// Set when the job erred, was refused or answered wrongly.
    pub failure: Option<String>,
}

pub struct LoopResult {
    pub samples: Vec<JobSample>,
    pub wall_s: f64,
}

/// Closed loop: each client takes the next pool job when its last one has
/// returned. Jobs are handed out for at least `seconds`, then to the end of
/// the pool pass under way, so every pool job is attempted equally often.
pub fn run_loop(w: &Workload, seconds: f64, tracer: Option<&Tracer>) -> LoopResult {
    let pool = w.jobs.len();
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(usize::MAX);
    let started = Instant::now();
    let client = || {
        let mut samples = Vec::new();
        loop {
            let ticket = next.fetch_add(1, Ordering::SeqCst);
            if ticket >= limit.load(Ordering::SeqCst) {
                break;
            }
            samples.push(w.run_job(ticket % pool, ticket as u64, tracer));
            if started.elapsed().as_secs_f64() >= seconds {
                // First client past the deadline fixes where hand-out stops.
                let handed = next.load(Ordering::SeqCst);
                let _ = limit.compare_exchange(
                    usize::MAX,
                    handed.div_ceil(pool) * pool,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
        }
        samples
    };
    let samples = if w.clients == 1 {
        client()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..w.clients).map(|_| s.spawn(client)).collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let wall_s = started.elapsed().as_secs_f64();
    LoopResult { samples, wall_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};

    /// Counted ops of one job on the sequential simulator, machine shape as above.
    fn seq_ops(sim_seed: u64, job: impl FnOnce(&Recording<SeqEmSimulator>)) -> u64 {
        let rec =
            Recording::new(SeqEmSimulator::new(machine(1, M_BYTES, D, B)).with_seed(sim_seed));
        job(&rec);
        rec.take_reports().iter().map(|r| r.io.parallel_ops).sum()
    }

    fn std_u64s(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// The `rand` stand-in must give the published crate's stream, or every
    /// count that depends on random placement would differ from a build
    /// against the real crate. The rows below were committed under `results/`
    /// from builds against the real crate, on this machine shape, with inputs
    /// drawn from `StdRng` too (`gen::<u64>()`; `shuffle` for the chain). The
    /// sort counts move with the simulator seed and the list-ranking count
    /// with the chain, so they hold only if seeding, the word buffer,
    /// `gen_range` and `shuffle` are all the published ones.
    #[test]
    fn published_stream_reproduces_committed_counts() {
        // results/table1.txt, T1-A-sort, sim EM-CGM p=1: seed 0xE1.
        let items = std_u64s(200_000, 0xE1);
        let ops = seq_ops(0xE1, |rec| drop(em_algos::sort::cgm_sort(rec, V, items).unwrap()));
        assert_eq!(ops, 5530);
        // results/BENCH_figures.json, F-engine, file sort p=1: seed 0xF16.
        let items = std_u64s(60_000, 0xF16 + 13);
        let ops = seq_ops(0xF16, |rec| drop(em_algos::sort::cgm_sort(rec, V, items).unwrap()));
        assert_eq!(ops, 1743);
        // results/BENCH_table1.json, T1-C-lr, sim EM-CGM p=1: one shuffled chain.
        let n = 3_000;
        let mut order: Vec<u64> = (0..n as u64).collect();
        order.shuffle(&mut StdRng::seed_from_u64(0xE1 + 11));
        let mut succ = vec![u64::MAX; n];
        for w in order.windows(2) {
            succ[w[0] as usize] = w[1];
        }
        let ops = seq_ops(0xE1, |rec| {
            drop(em_algos::graph::list_ranking::cgm_list_rank(rec, V, &succ, &vec![1; n]).unwrap())
        });
        assert_eq!(ops, 6552);
    }
}
