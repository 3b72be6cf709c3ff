//! The streaming pipeline driver: `Pipeline::stream()`.
//!
//! [`PipelineStream`] drives a [`sid_core::Pipeline`] through the same
//! per-tick seam as the offline loop ([`Pipeline::begin_tick`] →
//! [`Pipeline::finish_tick`]) but sources Phase A from bounded per-node
//! ring buffers that are refilled in chunks: every `chunk_ticks` ticks,
//! the worker pool synthesizes the next block of environment samples
//! for all nodes ahead of time and pushes it into the rings.
//!
//! This works because Phase A is *pure in time* — a node senses through
//! its immutable buoy model ([`Pipeline::sense_at`]), so samples for
//! future ticks are computable before any of the intervening mutable
//! work happens. All RNG consumption, detector state and journal
//! writes stay on the sequential per-tick path, which is why streamed
//! execution is **journal-byte-identical** to [`Pipeline::run`] for
//! every chunk size, ring capacity and pool width (see DESIGN.md §12;
//! enforced by the `variant_equivalence` DST oracle).

use std::sync::Arc;

use sid_core::Pipeline;
use sid_exec::Pool;
use sid_sensor::EnvSample;

use crate::ring::RingBuffer;

/// Streaming driver parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDriverConfig {
    /// Ticks of environment data synthesized per refill (the batch the
    /// pool parallelizes over).
    pub chunk_ticks: usize,
    /// Per-node ring capacity in ticks — the hard bound on resident
    /// window memory. Must be at least `chunk_ticks`.
    pub capacity_ticks: usize,
}

impl Default for StreamDriverConfig {
    /// 32-tick (0.64 s at 50 Hz) chunks in 64-tick rings.
    fn default() -> Self {
        StreamDriverConfig {
            chunk_ticks: 32,
            capacity_ticks: 64,
        }
    }
}

impl StreamDriverConfig {
    /// A config with `chunk_ticks = chunk` and double that capacity.
    pub fn with_chunk(chunk: usize) -> Self {
        StreamDriverConfig {
            chunk_ticks: chunk,
            capacity_ticks: 2 * chunk,
        }
    }
}

/// A pipeline being driven tick-by-tick from bounded ring buffers.
/// Built by [`StreamExt::stream`] / [`StreamExt::stream_with`].
pub struct PipelineStream {
    pipeline: Pipeline,
    config: StreamDriverConfig,
    pool: Arc<Pool>,
    /// One environment-sample ring per node; all rings always hold the
    /// same number of ticks.
    rings: Vec<RingBuffer<EnvSample>>,
    /// Mirror of the pipeline clock advanced to the last synthesized
    /// tick. Accumulated with the *same* `+= dt` operation the pipeline
    /// applies, so pre-computed times are bit-identical to the times
    /// the ticks later run at.
    synth_now: f64,
    /// Ticks currently buffered in every ring.
    buffered_ticks: usize,
    sampling: Vec<usize>,
    envs: Vec<EnvSample>,
    peak_resident: usize,
}

impl PipelineStream {
    fn new(pipeline: Pipeline, config: StreamDriverConfig) -> Self {
        assert!(config.chunk_ticks >= 1, "chunk_ticks must be at least 1");
        assert!(
            config.capacity_ticks >= config.chunk_ticks,
            "ring capacity {} cannot hold a {}-tick chunk",
            config.capacity_ticks,
            config.chunk_ticks
        );
        let nodes = pipeline.node_count();
        let pool = Arc::clone(pipeline.pool());
        let synth_now = pipeline.now();
        PipelineStream {
            rings: (0..nodes)
                .map(|_| RingBuffer::with_capacity(config.capacity_ticks))
                .collect(),
            sampling: Vec::with_capacity(nodes),
            envs: Vec::with_capacity(nodes),
            pipeline,
            config,
            pool,
            synth_now,
            buffered_ticks: 0,
            peak_resident: 0,
        }
    }

    /// Synthesizes the next chunk of environment samples for every node
    /// on the pool and pushes it into the rings.
    fn refill(&mut self) {
        let free = self.config.capacity_ticks - self.buffered_ticks;
        let chunk = self.config.chunk_ticks.min(free);
        if chunk == 0 {
            return;
        }
        let dt = self.pipeline.tick_dt();
        // Replicate the pipeline's own `now += dt` accumulation: the
        // same f64 additions in the same order give bitwise-equal tick
        // times, which is what the equivalence guarantee rests on.
        let mut t = self.synth_now;
        let times: Vec<f64> = (0..chunk)
            .map(|_| {
                t += dt;
                t
            })
            .collect();
        self.synth_now = t;
        let node_idx: Vec<usize> = (0..self.rings.len()).collect();
        let pipeline = &self.pipeline;
        let blocks: Vec<Vec<EnvSample>> = self.pool.par_map(&node_idx, |&idx| {
            times.iter().map(|&t| pipeline.sense_at(idx, t)).collect()
        });
        for (ring, block) in self.rings.iter_mut().zip(blocks) {
            for env in block {
                let pushed = ring.push(env);
                debug_assert!(pushed.is_ok(), "refill bounded by free capacity");
            }
        }
        self.buffered_ticks += chunk;
        let resident = self.buffered_ticks * self.rings.len();
        self.peak_resident = self.peak_resident.max(resident);
    }

    /// Advances the pipeline by exactly one tick, refilling the rings
    /// first when they are dry.
    pub fn step(&mut self) {
        if self.buffered_ticks == 0 {
            self.refill();
        }
        self.pipeline.begin_tick(&mut self.sampling);
        // Pop this tick's sample from *every* ring (occupancy stays
        // uniform); hand the sampling subset to Phase B in node order.
        self.envs.clear();
        let mut next = self.sampling.iter().copied().peekable();
        for (idx, ring) in self.rings.iter_mut().enumerate() {
            let env = ring.pop().expect("rings refilled before stepping");
            if next.peek() == Some(&idx) {
                next.next();
                self.envs.push(env);
            }
        }
        self.buffered_ticks -= 1;
        self.pipeline.finish_tick(&self.sampling, &self.envs);
    }

    /// Streams `duration` simulated seconds — the drop-in equivalent of
    /// [`Pipeline::run`], journal-byte-identical to it.
    pub fn run(&mut self, duration: f64) {
        // The shared tick-count rule (`Pipeline::tick_count`) keeps the
        // streamed clock bit-identical to the offline loop even for
        // durations that are not exact multiples of the tick.
        let steps = self.pipeline.tick_count(duration);
        for _ in 0..steps {
            self.step();
        }
    }

    /// The pipeline under the driver.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the pipeline under the driver, e.g. for
    /// snapshot-restoring the alerting edge. Phase A pre-computation
    /// only depends on the immutable scene and buoy models, so mutable
    /// detection-side access cannot invalidate buffered samples.
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Requests a detection hot reload at the next tick boundary — the
    /// live-stream reload seam. Validation (and a journaled rejection on
    /// failure) happens when the tick opens; the stream keeps running
    /// either way. Buffered environment samples stay valid because
    /// retunes never touch the sensing side.
    pub fn request_retune(&mut self, retune: sid_core::DetectionRetune) {
        self.pipeline.request_retune(retune);
    }

    /// Schedules a detection hot reload for a future simulated time
    /// (scripted variant of [`Self::request_retune`]).
    pub fn schedule_retune(&mut self, at: f64, retune: sid_core::DetectionRetune) {
        self.pipeline.schedule_retune(at, retune);
    }

    /// The driver configuration.
    pub fn config(&self) -> StreamDriverConfig {
        self.config
    }

    /// Ticks currently resident in every ring.
    pub fn buffered_ticks(&self) -> usize {
        self.buffered_ticks
    }

    /// Peak resident window memory, in buffered environment samples
    /// (ticks × nodes). Bounded by `capacity_ticks × node_count` by
    /// construction.
    pub fn peak_resident_samples(&self) -> usize {
        self.peak_resident
    }

    /// Peak resident window memory in bytes.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident * std::mem::size_of::<EnvSample>()
    }

    /// Releases the pipeline (e.g. to inspect its trace or tracker).
    pub fn into_inner(self) -> Pipeline {
        self.pipeline
    }
}

/// Streaming entry points on [`Pipeline`]: `pipeline.stream()` is the
/// online driver, `pipeline.run(..)` the offline loop — same journal
/// either way.
///
/// ```
/// use rand::SeedableRng;
/// use sid_core::{Pipeline, SystemConfig};
/// use sid_ocean::{Scene, SeaState, ShipWaveModel, WaveSpectrum};
/// use sid_stream::StreamExt;
///
/// let make = || {
///     let mut rng = rand::rngs::StdRng::seed_from_u64(3);
///     let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 48, &mut rng);
///     Pipeline::new(Scene::new(sea, ShipWaveModel::default()), SystemConfig::paper_default(3, 3), 5)
/// };
///
/// let mut offline = make();
/// offline.run(2.0);
///
/// let mut streamed = make().stream();
/// streamed.run(2.0);
///
/// assert_eq!(streamed.pipeline().trace(), offline.trace());
/// assert_eq!(streamed.pipeline().now().to_bits(), offline.now().to_bits());
/// ```
pub trait StreamExt {
    /// Wraps the pipeline in a streaming driver with default chunking.
    fn stream(self) -> PipelineStream;
    /// Wraps the pipeline in a streaming driver with explicit chunking.
    fn stream_with(self, config: StreamDriverConfig) -> PipelineStream;
}

impl StreamExt for Pipeline {
    fn stream(self) -> PipelineStream {
        PipelineStream::new(self, StreamDriverConfig::default())
    }

    fn stream_with(self, config: StreamDriverConfig) -> PipelineStream {
        PipelineStream::new(self, config)
    }
}
