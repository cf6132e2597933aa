//! Per-layer measurements made by calling each layer's public functions
//! directly, at the workload's own sizes. Each one is a span under the
//! traced run's `ladder` root.

use crate::gen::Job;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Counts, Engine, Workload, FILE_ENGINE, FILE_IO_MODE, FILE_PIN_WORKERS};
use em_bsp::{BspProgram, ExecError, Executor, RunResult, SeqExecutor};
use em_core::{
    simulate_routing, BufferPool, ContextStore, MsgGeometry, OutMsg, Placement, Recording,
    RoutingScratch, ScratchState, SeqEmSimulator,
};
use em_disk::{
    Block, BlockCacheBackend, ChecksumBackend, DiskArray, DiskBackend, DiskConfig, FileBackend,
    MemoryBackend, RetryPolicy, RetryingBackend, TrackAllocator, CRC_BYTES,
};
use em_service::SoloRunner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Passes per timed measurement; the median is reported.
const PASSES: usize = 3;
/// Stripes per pass: the job's own count, held to a range a pass finishes quickly in.
const STRIPES: std::ops::RangeInclusive<u64> = 64..=1024;

type Metrics = Vec<(&'static str, f64)>;

pub struct Ladder<'a> {
    pub tracer: &'a Tracer,
    pub root: SpanId,
    pub w: &'a Workload,
    /// Counts of the pool's first job.
    pub counts: &'a Counts,
    /// Mean counted ops of a pool job.
    pub ops_per_job: u64,
    /// Scratch directory for the file-backed rungs.
    pub dir: &'a Path,
}

impl Ladder<'_> {
    /// Median ms of `PASSES` runs of `f`, each under its own span.
    fn timed<E: std::fmt::Display>(
        &self,
        name: &'static str,
        layer: &'static str,
        mut f: impl FnMut() -> Result<(), E>,
    ) -> Result<f64, String> {
        let mut ms = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let (out, took) = self.tracer.span(name, layer, Some(self.root), &mut f);
            out.map_err(|e| format!("{name}: {e}"))?;
            ms.push(took);
        }
        Ok(median(&ms))
    }

    pub fn measure(&self) -> Result<Metrics, String> {
        let mut out = Metrics::new();
        let ctx_bytes = self.serial(&mut out)?;
        self.disk(&mut out)?;
        self.core_direct(&mut out, ctx_bytes)?;
        self.reference_runs(&mut out)?;
        Ok(out)
    }

    fn job0(&self) -> &Job {
        &self.w.jobs[0]
    }

    // ---- serial -------------------------------------------------------

    /// Codec speed on the first real context the workload hands an executor.
    fn serial(&self, out: &mut Metrics) -> Result<usize, String> {
        let probe = CtxProbe(Mutex::new(None));
        let (res, _) =
            self.tracer.span("ctx_codec", "serial", Some(self.root), || self.job0().run(&probe));
        res.map_err(|e| format!("ctx_codec: {e}"))?;
        let (enc, dec, bytes) =
            probe.0.into_inner().ok().flatten().ok_or("ctx_codec: the job executed no stage")?;
        out.push(("serial.encode_mib_s", enc));
        out.push(("serial.decode_mib_s", dec));
        out.push(("serial.ctx_bytes", bytes as f64));
        Ok(bytes)
    }

    // ---- disk ---------------------------------------------------------

    /// The workload's raw storage: memory, or drive files under the scratch
    /// directory driven the way the workload drives them.
    fn raw_backend(&self, tag: &str, track_bytes: usize) -> Result<Box<dyn DiskBackend>, String> {
        let d = self.w.machine.d;
        Ok(match &self.w.file_dir {
            None => Box::new(MemoryBackend::new(d)),
            Some(_) => Box::new(
                FileBackend::create_with_opts(
                    self.dir.join(format!("ladder-{tag}")),
                    d,
                    track_bytes,
                    FILE_IO_MODE,
                    FILE_ENGINE,
                    FILE_PIN_WORKERS,
                )
                .map_err(|e| format!("ladder-{tag}: {e}"))?,
            ),
        })
    }

    fn disk(&self, out: &mut Metrics) -> Result<(), String> {
        let (d, b) = (self.w.machine.d, self.w.machine.b_bytes);
        let stripes = self.ops_per_job.clamp(*STRIPES.start(), *STRIPES.end()) as usize & !1;
        let tracks = stripes / 2;
        let per_stripe_us = |ms: f64| ms * 1e3 / stripes as f64;
        let framed = b + CRC_BYTES;
        let retry = RetryPolicy::default();

        let mut raw = self.raw_backend("raw", b)?;
        let ms = self.timed("raw_stripes", "disk", || stripe_pass(&mut raw, d, b, tracks))?;
        out.push(("disk.raw_stripe_us", per_stripe_us(ms)));
        drop(raw);

        let mut sum = ChecksumBackend::new(self.raw_backend("checksum", framed)?, b);
        let ms = self.timed("checksum_stripes", "disk", || stripe_pass(&mut sum, d, b, tracks))?;
        out.push(("disk.checksum_stripe_us", per_stripe_us(ms)));
        drop(sum);

        let stack = |tag: &str| -> Result<_, String> {
            Ok(RetryingBackend::new(ChecksumBackend::new(self.raw_backend(tag, framed)?, b), retry))
        };
        let mut retrying = stack("retry")?;
        let ms =
            self.timed("retry_stripes", "disk", || stripe_pass(&mut retrying, d, b, tracks))?;
        out.push(("disk.retry_stripe_us", per_stripe_us(ms)));
        drop(retrying);

        // Working set = tracks·D blocks: one cache holds all of it, one a quarter.
        for (tag, capacity, us_name, rate_name) in [
            ("cache-fit", tracks * d, "disk.cache_fit_stripe_us", "disk.cache_fit_hit_rate"),
            (
                "cache-spill",
                tracks * d / 4,
                "disk.cache_spill_stripe_us",
                "disk.cache_spill_hit_rate",
            ),
        ] {
            let mut cached = BlockCacheBackend::new(stack(tag)?, capacity);
            let mut hits = 0;
            let ms = self.timed("cache_stripes", "disk", || {
                stripe_pass(&mut cached, d, b, tracks)
                    .map(|()| hits = cached.take_cache_hit_blocks())
            })?;
            out.push((us_name, per_stripe_us(ms)));
            out.push((rate_name, hits as f64 / (tracks * d) as f64));
        }

        // The array front-end over the workload's own decorator stack.
        let cfg = self.disk_config()?;
        let track_bytes = DiskArray::storage_block_bytes(&cfg);
        let mut array = DiskArray::with_backend(cfg, self.raw_backend("array", track_bytes)?);
        let payload = vec![0xA5u8; b];
        let stripe = |track: usize| -> Vec<(usize, usize, Block)> {
            (0..d).map(|disk| (disk, track, Block::from_vec(payload.clone()))).collect()
        };
        let addrs =
            |track: usize| -> Vec<(usize, usize)> { (0..d).map(|disk| (disk, track)).collect() };
        let ms = self.timed("array_stripes", "disk", || {
            for track in 0..tracks {
                array.write_stripe(&stripe(track))?;
            }
            for track in 0..tracks {
                black_box(array.read_stripe(&addrs(track))?);
            }
            Ok::<(), em_disk::DiskError>(())
        })?;
        out.push(("disk.array_stripe_us", per_stripe_us(ms)));

        // Submission path: eight stripes in flight before the first join.
        let all_tracks: Vec<usize> = (0..tracks).collect();
        let ms = self.timed("submit_join", "disk", || {
            for batch in all_tracks.chunks(8) {
                let tickets: Vec<_> = batch
                    .iter()
                    .map(|&t| array.submit_write_stripe(&stripe(t)))
                    .collect::<Result<_, _>>()?;
                tickets.into_iter().try_for_each(|t| t.join())?;
            }
            for batch in all_tracks.chunks(8) {
                let tickets: Vec<_> = batch
                    .iter()
                    .map(|&t| array.submit_read_stripe(&addrs(t)))
                    .collect::<Result<_, _>>()?;
                for ticket in tickets {
                    black_box(ticket.join()?);
                }
            }
            Ok::<(), em_disk::DiskError>(())
        })?;
        out.push(("disk.submit_join_us", per_stripe_us(ms)));

        // The barrier after a superstep's worth of writes.
        let mut syncs = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            for track in 0..tracks {
                array.write_stripe(&stripe(track)).map_err(|e| format!("sync: {e}"))?;
            }
            let (res, ms) = self.tracer.span("sync", "disk", Some(self.root), || array.sync());
            res.map_err(|e| format!("sync: {e}"))?;
            syncs.push(ms);
        }
        out.push(("disk.sync_ms", median(&syncs)));
        drop(array);

        let ms = self.timed("build_disks", "disk", || match &self.w.engine {
            Engine::Seq(rec) => rec.sim.build_disks().map(drop),
            Engine::Par(rec) => rec.sim.build_disks().map(drop),
            Engine::Service(_) => SeqEmSimulator::new(self.w.machine).build_disks().map(drop),
        })?;
        out.push(("disk.build_ms", ms));
        Ok(())
    }

    fn disk_config(&self) -> Result<DiskConfig, String> {
        match &self.w.engine {
            Engine::Seq(rec) => rec.sim.disk_config(),
            Engine::Par(rec) => rec.sim.disk_config(),
            Engine::Service(_) => self.w.machine.disk_config(),
        }
        .map_err(|e| format!("disk_config: {e}"))
    }

    // ---- core, called directly ----------------------------------------

    fn core_direct(&self, out: &mut Metrics, ctx_bytes: usize) -> Result<(), String> {
        let (d, b) = (self.w.machine.d, self.w.machine.b_bytes);
        let v = self.job0().v();
        let k = (self.counts.k as usize).clamp(1, v);
        let cfg = self.w.machine.disk_config().map_err(|e| e.to_string())?;

        // One group's contexts out and back in.
        let mut alloc = TrackAllocator::new(d);
        let store =
            ContextStore::allocate(&mut alloc, d, b, v, ctx_bytes).map_err(|e| e.to_string())?;
        let mut disks = DiskArray::new_memory(cfg);
        let group: Vec<Vec<u8>> = (0..k).map(|_| vec![0x5A; ctx_bytes]).collect();
        let ms = self.timed("ctx_group_rw", "core", || {
            store.write_group(&mut disks, 0, &group)?;
            store.read_group(&mut disks, 0, k).map(|bufs| drop(black_box(bufs)))
        })?;
        out.push(("core.ctx_group_rw_us", ms * 1e3));

        // One superstep's message traffic: the job's bytes and message count
        // per superstep, spread evenly over destinations.
        let lambda = self.counts.lambda.max(1);
        let msgs_per_vp = (self.counts.msgs / lambda).div_ceil(v as u64).max(1) as usize;
        let payload = (self.counts.msg_bytes / lambda / (msgs_per_vp * v) as u64).max(8) as usize;
        let gamma = 2 * msgs_per_vp * (payload + em_core::MSG_HEADER_BYTES);
        let (mut scatter_ms, mut routing_ms) = (Vec::new(), Vec::new());
        let mut last_trace = None;
        for _ in 0..PASSES {
            let mut alloc = TrackAllocator::new(d);
            let geom =
                MsgGeometry::allocate(&mut alloc, v, k, gamma, d, b).map_err(|e| e.to_string())?;
            let mut disks = DiskArray::new_memory(cfg);
            let mut scratch = ScratchState::new(&geom);
            let mut rng = StdRng::seed_from_u64(self.w.seed);
            let batches: Vec<Vec<OutMsg>> = (0..geom.num_groups)
                .map(|g| {
                    (g * k..((g + 1) * k).min(v))
                        .flat_map(|src| {
                            (0..msgs_per_vp).map(move |seq| OutMsg {
                                dst: ((src + seq + 1) % v) as u32,
                                src: src as u32,
                                seq: seq as u32,
                                payload: vec![seq as u8; payload],
                            })
                        })
                        .collect()
                })
                .collect();
            let (res, ms) = self.tracer.span("scatter", "core", Some(self.root), || {
                batches.into_iter().enumerate().try_for_each(|(g, msgs)| {
                    em_core::scatter_messages(
                        &mut disks,
                        &mut alloc,
                        &geom,
                        &mut scratch,
                        g,
                        msgs,
                        &mut rng,
                        Placement::Random,
                    )
                })
            });
            res.map_err(|e| format!("scatter: {e}"))?;
            scatter_ms.push(ms);
            let (res, ms) = self.tracer.span("routing", "core", Some(self.root), || {
                simulate_routing(
                    &mut disks,
                    &mut alloc,
                    &geom,
                    scratch,
                    &mut RoutingScratch::new(),
                    &mut BufferPool::new(),
                    None,
                )
            });
            let (_, trace) = res.map_err(|e| format!("routing: {e}"))?;
            routing_ms.push(ms);
            last_trace = Some(trace);
        }
        let trace = last_trace.expect("PASSES >= 1");
        out.push(("core.scatter_ms", median(&scatter_ms)));
        out.push(("core.routing_ms", median(&routing_ms)));
        out.push(("core.routing_rounds", (trace.step1_rounds + trace.step2_rounds) as f64));
        let slots = trace.blocks + trace.idle_slots;
        out.push((
            "core.routing_slot_eff",
            if slots == 0 { 1.0 } else { trace.blocks as f64 / slots as f64 },
        ));
        Ok(())
    }

    // ---- the same jobs on other runners --------------------------------

    fn reference_runs(&self, out: &mut Metrics) -> Result<(), String> {
        // The no-EM floor: the pipeline on the plain in-memory executor.
        let reps = if self.w.jobs.len() == 1 { PASSES } else { 1 };
        let mut floor = Vec::new();
        for (job, want) in self.w.jobs.iter().zip(&self.w.refs) {
            for _ in 0..reps {
                let (res, ms) =
                    self.tracer.span("ref_job", "bsp", Some(self.root), || job.run(&SeqExecutor));
                if &res.map_err(|e| format!("ref_job: {e}"))? != want {
                    return Err(
                        "ref_job: the plain executor's output differs from the reference".into()
                    );
                }
                floor.push(ms);
            }
        }
        out.push(("bsp.ref_job_ms", median(&floor)));

        // The same job, input and simulator seed on bare memory disks: what is
        // left of the job when the I/O path costs a memcpy.
        if self.w.file_dir.is_some() {
            let twin =
                Recording::new(SeqEmSimulator::new(self.w.machine).with_seed(self.w.sim_seed()));
            let ms = self.timed("mem_twin_job", "core", || self.job0().run(&twin).map(drop))?;
            out.push(("disk.mem_twin_job_ms", ms));
        }

        if let Job::Sort { items, .. } = self.job0() {
            if self.w.jobs.len() == 1 {
                let cfg = self.w.machine.disk_config().map_err(|e| e.to_string())?;
                let sorter = em_baselines::ExternalSort { m_bytes: self.w.machine.m_bytes };
                let mut ops = 0;
                let ms = self.timed("av_sort", "baselines", || {
                    let mut disks = DiskArray::new_memory(cfg);
                    let (sorted, stats) = sorter.run(&mut disks, items.clone())?;
                    ops = stats.io.parallel_ops;
                    black_box(sorted);
                    Ok::<(), em_disk::DiskError>(())
                })?;
                out.push(("baselines.av_sort_io_ops", ops as f64));
                out.push(("baselines.av_sort_ms", ms));
            }
        }

        if matches!(self.w.engine, Engine::Service(_)) {
            let mut solo_ms = Vec::new();
            for (idx, job) in self.w.jobs.iter().enumerate() {
                let sim = SeqEmSimulator::new(self.w.machine).with_seed(self.w.job_seed(idx));
                let solo = SoloRunner::new(sim);
                let (res, ms) =
                    self.tracer.span("solo_job", "service", Some(self.root), || job.run(&solo));
                res.map_err(|e| format!("solo_job: {e}"))?;
                solo_ms.push(ms);
            }
            out.push(("service.solo_job_ms_p50", median(&solo_ms)));
        }
        Ok(())
    }
}

/// Write `tracks` full stripes, then read them back.
fn stripe_pass<B: DiskBackend>(
    backend: &mut B,
    d: usize,
    bytes: usize,
    tracks: usize,
) -> em_disk::DiskResult<()> {
    let payload = vec![0xA5u8; bytes];
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; bytes]; d];
    for track in 0..tracks {
        let writes: Vec<(usize, usize, &[u8])> =
            (0..d).map(|disk| (disk, track, payload.as_slice())).collect();
        backend.write_stripe(&writes)?;
    }
    for track in 0..tracks {
        let addrs: Vec<(usize, usize)> = (0..d).map(|disk| (disk, track)).collect();
        let mut slices: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        backend.read_stripe(&addrs, &mut slices)?;
    }
    black_box(&bufs);
    Ok(())
}

/// Times the codec on the first context it is handed, then lets the plain
/// executor finish the pipeline. Holds `(encode MiB/s, decode MiB/s, bytes)`.
struct CtxProbe(Mutex<Option<(f64, f64, usize)>>);

impl Executor for CtxProbe {
    fn execute<P: BspProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunResult<P::State>, ExecError> {
        let mut slot = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let (None, Some(ctx)) = (&*slot, states.first()) {
            let mut buf = Vec::new();
            em_serial::to_bytes_into(ctx, &mut buf);
            let bytes = buf.len();
            // About 32 MiB each way, so the timing is well above clock resolution.
            let rounds = ((32 << 20) / bytes.max(1)).clamp(16, 1 << 16);
            let t = Instant::now();
            for _ in 0..rounds {
                em_serial::to_bytes_into(black_box(ctx), &mut buf);
                black_box(&buf);
            }
            let enc_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..rounds {
                black_box(em_serial::from_bytes::<P::State>(black_box(&buf))?);
            }
            let dec_s = t.elapsed().as_secs_f64();
            let mib = (rounds * bytes) as f64 / (1 << 20) as f64;
            *slot = Some((mib / enc_s, mib / dec_s, bytes));
        }
        drop(slot);
        SeqExecutor.execute(prog, states)
    }
}
