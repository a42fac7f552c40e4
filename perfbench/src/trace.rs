//! Outside-in tracing.
//!
//! The program is traced only through its public injection points:
//! [`TracedBackend`] wraps a [`CacheBackend`] (passed to
//! `CacheGuessingGame::with_backend`), [`TracedEnv`] wraps an
//! [`Environment`] (passed to `Trainer::new` / `evaluate_batched`) and
//! [`TracedNet`] wraps a [`PolicyValueNet`] (passed to `rollout::collect` /
//! `evaluate_batched`). Hot calls (cache accesses, env steps, forward
//! passes) feed lock-free [`Counter`]s; every public call the benchmark
//! makes itself goes through [`span`], which records `(id, parent, name,
//! start, end)` in memory. Spans are written out with [`write_spans`]
//! when a run ends.
//!
//! Tracing is off unless [`enable`] was called: [`span`] is then a plain
//! call, and the workloads use the unwrapped program types.

use crate::clock;
use autocat_cache::{CacheBackend, CacheEvent, CacheStats, Domain};
use autocat_gym::{Environment, StepResult};
use autocat_nn::models::{PolicyValueNet, RowGrad};
use autocat_nn::{Matrix, Param};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(clock::now);
    ENABLED.store(true, Relaxed);
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A hot-path counter. Times are nanoseconds summed over calls (busy
/// time; calls on parallel lanes add up).
#[derive(Clone, Copy, Debug)]
pub enum Counter {
    CacheAccessCalls,
    CacheAccessNs,
    CacheFlushCalls,
    CacheFlushNs,
    CacheHits,
    CacheNoise,
    GymStepCalls,
    GymStepNs,
    GymResetCalls,
    GymResetNs,
    GymEpisodes,
    GymCorrect,
    GymDetected,
    NnInferCalls,
    NnInferRows,
    NnInferNs,
    NnInferMacs,
    NnTrainCalls,
    NnTrainRows,
    NnTrainNs,
    NnTrainMacs,
    JsonParseBytes,
}

const COUNTERS: usize = Counter::JsonParseBytes as usize + 1;

static VALUES: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

/// Adds `amount` to a counter.
pub fn add(counter: Counter, amount: u64) {
    // Relaxed: statistics only; read after every worker has joined.
    VALUES[counter as usize].fetch_add(amount, Relaxed);
}

/// A copy of every counter.
#[derive(Clone, Copy, Debug)]
pub struct Counters([u64; COUNTERS]);

impl Counters {
    /// Reads the counters now.
    pub fn read() -> Counters {
        Counters(std::array::from_fn(|i| VALUES[i].load(Relaxed)))
    }

    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// A nanosecond counter in seconds.
    pub fn secs(&self, counter: Counter) -> f64 {
        self.get(counter) as f64 * 1e-9
    }

    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded call: nanoseconds since tracing was enabled.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` inside a span named `name` (a plain call when tracing is
/// off). The innermost open span of the calling thread is its parent.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(epoch) = EPOCH.get().filter(|_| ENABLED.load(Relaxed)) else {
        return f();
    };
    let id = NEXT_SPAN.fetch_add(1, Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start_ns = ns_since(*epoch);
    let out = f();
    let end_ns = ns_since(*epoch);
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span log poisoned by a panicking thread")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Turns span recording off again (hot-path wrappers are unaffected:
/// they only exist where a workload chose to wrap).
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Removes and returns every span recorded so far, in completion order.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span log poisoned by a panicking thread"),
    )
}

/// Per-name aggregates over a span log.
pub struct SpanStats<'a> {
    spans: &'a [Span],
    /// Summed duration of each span's direct children, by parent id.
    children_s: BTreeMap<u32, f64>,
}

impl<'a> SpanStats<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children_s = BTreeMap::new();
        for s in spans {
            if let Some(parent) = s.parent {
                *children_s.entry(parent).or_insert(0.0) += s.secs();
            }
        }
        Self { spans, children_s }
    }

    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Durations of spans named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Summed self time of spans named `name`: each span's duration minus
    /// the durations of its direct children.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| s.secs() - self.children_s.get(&s.id).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Writes `spans` as one JSON object per line to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id, s.name, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

/// A [`CacheBackend`] that counts and times `access` and `flush`, and
/// tallies hits and noisy observations (observed ≠ true outcome).
#[derive(Debug)]
pub struct TracedBackend {
    inner: Box<dyn CacheBackend>,
}

impl TracedBackend {
    pub fn boxed(inner: Box<dyn CacheBackend>) -> Box<dyn CacheBackend> {
        Box::new(TracedBackend { inner })
    }
}

impl CacheBackend for TracedBackend {
    fn access(&mut self, addr: u64, domain: Domain) -> (bool, bool) {
        let start = clock::now();
        let (observed, truth) = self.inner.access(addr, domain);
        add(Counter::CacheAccessNs, ns_since(start));
        add(Counter::CacheAccessCalls, 1);
        add(Counter::CacheHits, u64::from(observed));
        add(Counter::CacheNoise, u64::from(observed != truth));
        (observed, truth)
    }

    fn flush(&mut self, addr: u64, domain: Domain) {
        let start = clock::now();
        self.inner.flush(addr, domain);
        add(Counter::CacheFlushNs, ns_since(start));
        add(Counter::CacheFlushCalls, 1);
    }

    fn lock(&mut self, addr: u64) -> bool {
        self.inner.lock(addr)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.inner.drain_events()
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn is_stochastic(&self) -> bool {
        self.inner.is_stochastic()
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    fn box_clone(&self) -> Box<dyn CacheBackend> {
        TracedBackend::boxed(self.inner.box_clone())
    }
}

/// An [`Environment`] that counts and times `step` and `reset`, and
/// tallies finished episodes, correct guesses and detector terminations.
#[derive(Clone, Debug)]
pub struct TracedEnv<E> {
    pub inner: E,
}

impl<E: Environment> Environment for TracedEnv<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn token_dim(&self) -> usize {
        self.inner.token_dim()
    }

    fn window(&self) -> usize {
        self.inner.window()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
        let start = clock::now();
        let obs = self.inner.reset(rng);
        add(Counter::GymResetNs, ns_since(start));
        add(Counter::GymResetCalls, 1);
        obs
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> StepResult {
        let start = clock::now();
        let result = self.inner.step(action, rng);
        add(Counter::GymStepNs, ns_since(start));
        add(Counter::GymStepCalls, 1);
        if result.done {
            add(Counter::GymEpisodes, 1);
            add(
                Counter::GymCorrect,
                u64::from(result.info.guessed == Some(true)),
            );
            add(Counter::GymDetected, u64::from(result.info.detected));
        }
        result
    }
}

/// Multiply-accumulates of one dense forward row: the element count of
/// every weight matrix (parameters with more than one row; biases are
/// single-row).
fn macs_per_row(net: &mut dyn PolicyValueNet) -> u64 {
    let mut macs = 0u64;
    net.visit_params(&mut |p: &mut Param| {
        if p.value.rows() > 1 {
            macs += p.len() as u64;
        }
    });
    macs
}

/// A [`PolicyValueNet`] that counts and times inference and training
/// passes with their rows and dense-equivalent MACs (a training pass
/// counts three forward passes: forward, input gradient, weight gradient).
pub struct TracedNet {
    inner: Box<dyn PolicyValueNet>,
    macs_per_row: u64,
}

impl TracedNet {
    pub fn new(mut inner: Box<dyn PolicyValueNet>) -> Self {
        let macs_per_row = macs_per_row(inner.as_mut());
        Self {
            inner,
            macs_per_row,
        }
    }
}

impl PolicyValueNet for TracedNet {
    fn forward_inference(&self, obs: &Matrix) -> (Matrix, Vec<f32>) {
        let start = clock::now();
        let out = self.inner.forward_inference(obs);
        add(Counter::NnInferNs, ns_since(start));
        add(Counter::NnInferCalls, 1);
        add(Counter::NnInferRows, obs.rows() as u64);
        add(Counter::NnInferMacs, obs.rows() as u64 * self.macs_per_row);
        out
    }

    fn train_batch(
        &mut self,
        obs: &Matrix,
        grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
    ) {
        let start = clock::now();
        self.inner.train_batch(obs, grad_fn);
        add(Counter::NnTrainNs, ns_since(start));
        add(Counter::NnTrainCalls, 1);
        add(Counter::NnTrainRows, obs.rows() as u64);
        add(
            Counter::NnTrainMacs,
            3 * obs.rows() as u64 * self.macs_per_row,
        );
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn clone_box(&self) -> Box<dyn PolicyValueNet> {
        Box::new(TracedNet {
            inner: self.inner.clone_box(),
            macs_per_row: self.macs_per_row,
        })
    }

    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }
}
