//! # sid-exec
//!
//! A small deterministic parallel execution engine for the SID
//! reproduction. The workspace is offline (no rayon), so this crate
//! provides the one fork–join primitive the rest of the system needs —
//! [`Pool::par_map`] — on top of `std::thread` alone.
//!
//! ## Determinism contract
//!
//! `par_map` places every result at the index of the input that
//! produced it, so the returned `Vec` is **independent of scheduling**:
//! for a pure closure, `pool.par_map(items, f)` is byte-identical to
//! `items.iter().map(f).collect()` no matter how many threads the pool
//! has or how the OS interleaves them. Reductions over the returned
//! vector therefore run in input order on the caller, never in
//! completion order. This is what lets the detection pipeline guarantee
//! byte-identical traces across `--threads 1/2/4/8` (see DESIGN.md §9).
//!
//! ## Sizing
//!
//! The pool size resolves, in order: an explicit [`Pool::new`] argument,
//! the `SID_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. Binaries additionally accept
//! `--threads N` and forward it via [`set_global_threads`] (first caller
//! wins; the global pool is built once).
//!
//! ```
//! let pool = sid_exec::Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use sid_obs::{CounterId, Event, GaugeId, Obs, Stage};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Queue + shutdown flag shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Task>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// Completion state of one `par_map` invocation.
struct Batch {
    remaining: Mutex<usize>,
    done_cv: Condvar,
    panicked: AtomicBool,
}

impl Batch {
    fn new(tasks: usize) -> Self {
        Batch {
            remaining: Mutex::new(tasks),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn finish_one(&self) {
        let mut remaining = self.remaining.lock().expect("batch lock");
        *remaining -= 1;
        if *remaining == 0 {
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("batch lock") == 0
    }
}

/// A fixed-size worker pool with fork–join semantics.
///
/// A pool of `threads` has `threads - 1` background workers; the thread
/// that calls [`Pool::par_map`] participates as the final worker, so a
/// one-thread pool runs everything inline with zero overhead and zero
/// background threads.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Observability sink for batch/queue statistics. Batches can run on
    /// any thread (nested fan-out included), so the pool reports only
    /// order-free aggregates — wall timings, task counts, queue depth —
    /// never journal events (see the sid-obs determinism contract).
    obs: RwLock<Obs>,
}

impl Pool {
    /// Creates a pool with the given total parallelism (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sid-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sid-exec worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
            obs: RwLock::new(Obs::noop()),
        }
    }

    /// Total parallelism of this pool (background workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches an observability recorder for execution statistics:
    /// dispatched batches and tasks ([`sid_obs::CounterId`]), batch wall
    /// time (`exec_batch` stage), and the queue-depth high-water mark.
    /// Only batches that go through the shared queue are measured — the
    /// single-thread/single-item fast path of [`Pool::par_map`] bypasses
    /// the queue and the metrics alike.
    pub fn set_obs(&self, obs: Obs) {
        // An invalid SID_THREADS value is announced on stderr when it is
        // first read; attaching the first enabled recorder additionally
        // journals it once, so a misconfigured run is visible in its own
        // artifacts.
        if obs.enabled() {
            if let Some(message) = take_env_warning() {
                obs.record(Event::Warning { time: 0.0, message });
            }
        }
        *self.obs.write().expect("pool obs lock") = obs;
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order. Deterministic: identical output for any pool size.
    ///
    /// ```
    /// let pool = sid_exec::Pool::new(3);
    /// let lengths = pool.par_map(&["ship", "intrusion", "detection"], |s| s.len());
    /// // Results sit at the index of the input that produced them,
    /// // regardless of which worker ran each closure.
    /// assert_eq!(lengths, vec![4, 9, 9]);
    /// ```
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            return items.iter().map(&f).collect();
        }
        // A few chunks per thread gives mild load balancing while keeping
        // the per-batch task count (and thus queue traffic) small.
        let chunk = n.div_ceil(self.threads * 4).max(1);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let f = &f;
            let tasks: Vec<ScopedTask<'_>> = out
                .chunks_mut(chunk)
                .zip(items.chunks(chunk))
                .map(|(out_chunk, in_chunk)| {
                    let task: ScopedTask<'_> = Box::new(move || {
                        for (slot, item) in out_chunk.iter_mut().zip(in_chunk.iter()) {
                            *slot = Some(f(item));
                        }
                    });
                    task
                })
                .collect();
            self.execute(tasks);
        }
        out.into_iter()
            .map(|slot| slot.expect("sid-exec: chunk completed"))
            .collect()
    }

    /// Runs a batch of borrowed tasks to completion, with the calling
    /// thread working alongside the pool's background workers.
    fn execute<'scope>(&self, tasks: Vec<ScopedTask<'scope>>) {
        let obs = self.obs.read().expect("pool obs lock").clone();
        let timer = if obs.enabled() {
            obs.add_count(CounterId::ExecBatches, 1);
            obs.add_count(CounterId::ExecTasks, tasks.len() as u64);
            Some(Instant::now())
        } else {
            None
        };
        let batch = Arc::new(Batch::new(tasks.len()));
        let queue_depth;
        {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            for task in tasks {
                let b = Arc::clone(&batch);
                let wrapped: ScopedTask<'scope> = Box::new(move || {
                    // Catch panics so the batch always completes: a hung
                    // join would otherwise leave borrowed data observable
                    // past a caller unwind.
                    if std::panic::catch_unwind(AssertUnwindSafe(task)).is_err() {
                        b.panicked.store(true, Ordering::SeqCst);
                    }
                    b.finish_one();
                });
                // SAFETY: `execute` does not return until `batch` reports
                // every task finished, so the 'scope borrows inside each
                // task strictly outlive its execution. The transmute only
                // erases the lifetime; layout is identical.
                let wrapped: Task = unsafe {
                    std::mem::transmute::<ScopedTask<'scope>, Task>(wrapped)
                };
                queue.push_back(wrapped);
            }
            queue_depth = queue.len();
            self.shared.work_cv.notify_all();
        }
        if timer.is_some() {
            obs.gauge_max(GaugeId::ExecQueueDepth, queue_depth as f64);
        }
        // The caller is a worker too: drain tasks (ours or a concurrent
        // batch's — either makes progress) until this batch completes.
        loop {
            if batch.is_done() {
                break;
            }
            let task = self.shared.queue.lock().expect("pool queue").pop_front();
            match task {
                Some(task) => task(),
                None => {
                    // Queue empty: our stragglers are running on workers.
                    let mut remaining = batch.remaining.lock().expect("batch lock");
                    while *remaining != 0 {
                        remaining = batch.done_cv.wait(remaining).expect("batch wait");
                    }
                    break;
                }
            }
        }
        if batch.panicked.load(Ordering::SeqCst) {
            panic!("sid-exec: a parallel task panicked");
        }
        if let Some(start) = timer {
            obs.add_time(Stage::ExecBatch, start.elapsed().as_secs_f64());
        }
    }
}

type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = shared.work_cv.wait(queue).expect("worker wait");
            }
        };
        task();
    }
}

/// Parses a `SID_THREADS` value. Accepted: a positive decimal integer,
/// optionally surrounded by whitespace (e.g. `"4"`). Everything else —
/// zero, negatives, floats, words — is rejected with a message naming
/// the accepted form.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid SID_THREADS value {raw:?}: expected a positive integer \
             (e.g. SID_THREADS=4); falling back to the machine parallelism"
        )),
    }
}

/// The one-shot warning for an invalid `SID_THREADS` value: computed on
/// first access, `None` when the variable is unset or valid.
fn env_warning() -> Option<&'static str> {
    static CACHE: OnceLock<Option<String>> = OnceLock::new();
    CACHE
        .get_or_init(|| match std::env::var("SID_THREADS") {
            Ok(raw) => parse_threads(&raw).err(),
            Err(_) => None,
        })
        .as_deref()
}

/// Hands out the pending env warning exactly once per process (for the
/// journal's `Warning` event); later calls return `None`.
fn take_env_warning() -> Option<String> {
    static EMITTED: AtomicBool = AtomicBool::new(false);
    let message = env_warning()?;
    if EMITTED.swap(true, Ordering::SeqCst) {
        return None;
    }
    Some(message.to_string())
}

/// The parallelism the environment asks for: `SID_THREADS` if set to a
/// positive integer, else `std::thread::available_parallelism()`.
///
/// An invalid value is **not** silently ignored: the first read warns
/// once on stderr, and the first enabled recorder attached via
/// [`Pool::set_obs`] records a one-shot [`Event::Warning`].
pub fn configured_threads() -> usize {
    if let Ok(raw) = std::env::var("SID_THREADS") {
        match parse_threads(&raw) {
            Ok(n) => return n,
            Err(_) => {
                static WARNED: AtomicBool = AtomicBool::new(false);
                if !WARNED.swap(true, Ordering::SeqCst) {
                    if let Some(message) = env_warning() {
                        eprintln!("sid-exec: {message}");
                    }
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

/// The process-wide pool, built on first use from [`configured_threads`]
/// (or an earlier [`set_global_threads`] call).
pub fn global() -> Arc<Pool> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Pool::new(configured_threads()))))
}

/// Fixes the global pool's size before anything uses it. Returns `false`
/// (and changes nothing) if the global pool already exists.
pub fn set_global_threads(threads: usize) -> bool {
    GLOBAL.set(Arc::new(Pool::new(threads.max(1)))).is_ok()
}

/// Parses a `--threads N` / `--threads=N` override out of CLI arguments.
pub fn threads_from_args(args: &[String]) -> Option<usize> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            if let Some(n) = iter.next().and_then(|v| v.parse::<usize>().ok()) {
                if n >= 1 {
                    return Some(n);
                }
            }
        } else if let Some(rest) = arg.strip_prefix("--threads=") {
            if let Ok(n) = rest.parse::<usize>() {
                if n >= 1 {
                    return Some(n);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("8"), Ok(8));
        assert_eq!(parse_threads(" 4 "), Ok(4)); // surrounding whitespace ok
    }

    #[test]
    fn parse_threads_rejects_everything_else_with_a_message() {
        for bad in ["0", "-2", "2.5", "four", "", "8 threads", "0x4"] {
            let err = parse_threads(bad).expect_err(bad);
            assert!(err.contains("SID_THREADS"), "message names the variable: {err}");
            assert!(err.contains(bad.trim()) || bad.trim().is_empty());
        }
    }

    #[test]
    fn par_map_matches_sequential_for_any_pool_size() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let got = pool.par_map(&items, |&x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn pool_reports_batch_metrics_when_observed() {
        let pool = Pool::new(4);
        let obs = Obs::in_memory();
        pool.set_obs(obs.clone());
        let items: Vec<u64> = (0..64).collect();
        let _ = pool.par_map(&items, |&x| x + 1);
        let wall = obs.wall();
        let batches: u64 = wall
            .counters
            .iter()
            .filter(|c| c.counter == "exec_batches")
            .map(|c| c.count)
            .sum();
        let tasks: u64 = wall
            .counters
            .iter()
            .filter(|c| c.counter == "exec_tasks")
            .map(|c| c.count)
            .sum();
        assert!(batches >= 1, "at least one dispatched batch");
        // par_map chunks items into tasks: 64 items over 4 threads × 4
        // chunks each queues 16 closures.
        assert_eq!(tasks, 16, "every queued closure counted");
        assert!(
            wall.stages.iter().any(|s| s.stage == "exec_batch" && s.calls >= 1),
            "batch wall time recorded"
        );
        // The journal stays empty: exec reports aggregates only.
        assert!(obs.events().expect("in-memory").is_empty());
    }

    #[test]
    fn par_map_preserves_float_bit_patterns() {
        // The determinism contract is bit-level: the same trigonometry at
        // the same index must land at the same slot regardless of pool.
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let f = |&x: &f64| (x.sin() * x.cos()).to_bits();
        let seq: Vec<u64> = items.iter().map(f).collect();
        let par = Pool::new(8).par_map(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |&x| x).is_empty());
        assert_eq!(pool.par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn one_thread_pool_spawns_no_workers() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        assert_eq!(pool.par_map(&[1, 2, 3], |&x: &i32| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn tasks_actually_run_on_multiple_threads_when_available() {
        // Smoke check that work executes even under heavy fan-out; on a
        // single-core host all chunks may still run on one thread.
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        Pool::new(4).par_map(&items, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn nested_par_map_completes() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let totals = pool.par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..50).map(|j| i * 50 + j).collect();
            pool.par_map(&inner, |&x| x).iter().sum::<usize>()
        });
        let grand: usize = totals.iter().sum();
        assert_eq!(grand, (0..400).sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "a parallel task panicked")]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<usize> = (0..64).collect();
        Pool::new(4).par_map(&items, |&x| {
            assert!(x != 63, "boom");
            x
        });
    }

    #[test]
    fn pool_serves_the_next_batch_after_a_task_panic() {
        // Tasks run under `catch_unwind` outside the queue lock, so a
        // panicking task poisons nothing: the same pool keeps serving.
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        for round in 0..3 {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |&x| {
                    assert!(x != 63, "boom");
                    x
                })
            }));
            assert!(caught.is_err(), "round {round}: the caller sees the panic");
            let expected: Vec<usize> = items.iter().map(|&x| x * 2 + round).collect();
            assert_eq!(pool.par_map(&items, |&x| x * 2 + round), expected);
        }
    }

    #[test]
    fn threads_arg_parsing() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(&to_args(&["--threads", "4"])), Some(4));
        assert_eq!(threads_from_args(&to_args(&["--threads=8"])), Some(8));
        assert_eq!(threads_from_args(&to_args(&["--threads", "0"])), None);
        assert_eq!(threads_from_args(&to_args(&["--quick"])), None);
        assert_eq!(threads_from_args(&to_args(&[])), None);
    }
}
