//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload train|eval|serve --seed N --seconds S --trace 0|1
//! perfbench --smoke          # every workload once, tiny budgets, both modes
//! perfbench --list-metrics   # the metric names, one per line
//! ```
//!
//! A run measures one workload for `--seconds` and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. Lines before it give the machine stamp and
//! every metric with its median and quartiles over reps. The process
//! exits nonzero if any output check failed.
//!
//! `train` and `eval` run each rep as a child process of this binary
//! (`perfbench child ...`; the rayon pool is sized once per process, so
//! the pool size travels as `RAYON_NUM_THREADS` on the child's command).
//! `serve` starts the daemon as a child (`perfbench daemon ...`) and is
//! its client. Scratch files and span logs go under `.perfbench/` in the
//! working directory.

mod clock;
mod eval;
mod serve;
mod stats;
mod trace;
mod train;

use autocat_scenario::value::{self, Value};
use stats::{median, quantile, tail_quantile};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::{Counter, Counters, SpanStats};

/// Workloads, in listing order.
const WORKLOADS: [&str; 3] = ["train", "eval", "serve"];

/// End-to-end metrics: `(name, unit)`. What each one times depends on the
/// workload — see `perfbench/README.md`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. A layer the
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cache-sim.access.calls", "count"),
    ("cache-sim.access.busy_s", "s"),
    ("cache-sim.flush.calls", "count"),
    ("cache-sim.hit_ratio", "ratio"),
    ("cache-sim.noise_ratio", "ratio"),
    ("cache-sim.self_share", "ratio"),
    ("gym.step.calls", "count"),
    ("gym.step.busy_s", "s"),
    ("gym.step.self_s", "s"),
    ("gym.reset.calls", "count"),
    ("gym.reset.busy_s", "s"),
    ("gym.episodes", "count"),
    ("gym.guess_correct_ratio", "ratio"),
    ("gym.detected_ratio", "ratio"),
    ("gym.self_share", "ratio"),
    ("nn.forward_inference.calls", "count"),
    ("nn.forward_inference.rows", "count"),
    ("nn.forward_inference.busy_s", "s"),
    ("nn.forward_inference.gmacs", "GMAC"),
    ("nn.train_batch.calls", "count"),
    ("nn.train_batch.rows", "count"),
    ("nn.train_batch.busy_s", "s"),
    ("nn.train_batch.gmacs", "GMAC"),
    ("nn.gather_rows.busy_s", "s"),
    ("nn.weight_sync.busy_s", "s"),
    ("nn.shard_phase.busy_s", "s"),
    ("nn.grad_reduce.busy_s", "s"),
    ("nn.clip_grad.busy_s", "s"),
    ("nn.adam.calls", "count"),
    ("nn.adam.busy_s", "s"),
    ("nn.self_share", "ratio"),
    ("ppo.train_update.calls", "count"),
    ("ppo.train_update.busy_s", "s"),
    ("ppo.train_update.ms_p50", "ms"),
    ("ppo.collect.busy_s", "s"),
    ("ppo.gae.busy_s", "s"),
    ("ppo.update.unattributed_s", "s"),
    ("ppo.evaluate_batched.busy_s", "s"),
    ("ppo.pool.cpu_per_wall", "ratio"),
    ("ppo.self_share", "ratio"),
    ("attacks.classify.calls", "count"),
    ("attacks.classify.busy_s", "s"),
    ("attacks.self_share", "ratio"),
    ("scenario.value.from_json.calls", "count"),
    ("scenario.value.from_json.bytes", "bytes"),
    ("scenario.value.from_json.busy_s", "s"),
    ("scenario.value.to_json.busy_s", "s"),
    ("scenario.self_share", "ratio"),
    ("store.codec.encode.busy_s", "s"),
    ("store.codec.bytes", "bytes"),
    ("store.put.busy_s", "s"),
    ("store.fetch_bytes.busy_s", "s"),
    ("store.journal.append.calls", "count"),
    ("store.journal.append.busy_s", "s"),
    ("store.self_share", "ratio"),
    ("serve.submit_fresh.calls", "count"),
    ("serve.submit_fresh.ms_p50", "ms"),
    ("serve.submit_fresh.ms_p99", "ms"),
    ("serve.submit_fresh.failed", "count"),
    ("serve.submit_dedup.calls", "count"),
    ("serve.submit_dedup.ms_p50", "ms"),
    ("serve.submit_dedup.ms_p99", "ms"),
    ("serve.submit_dedup.failed", "count"),
    ("serve.status.calls", "count"),
    ("serve.status.ms_p50", "ms"),
    ("serve.status.ms_p99", "ms"),
    ("serve.status.failed", "count"),
    ("serve.watch.calls", "count"),
    ("serve.watch.ms_p50", "ms"),
    ("serve.watch.ms_p99", "ms"),
    ("serve.watch.failed", "count"),
    ("serve.fetch.calls", "count"),
    ("serve.fetch.ms_p50", "ms"),
    ("serve.fetch.ms_p99", "ms"),
    ("serve.fetch.failed", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.fetch.bytes", "bytes"),
    ("serve.fetch.mb_per_s", "MB/s"),
    ("serve.daemon.cpu_s", "s"),
    ("serve.daemon.cpu_per_wall", "ratio"),
    ("serve.jobs_final", "count"),
    ("serve.job_replay.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Minimum reps of a `train`/`eval` run.
const MIN_REPS: usize = 3;

/// Named per-layer values, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What one `train`/`eval` rep measured; crosses the process boundary as
/// one JSON line.
#[derive(Clone, Debug, Default)]
pub struct RepResult {
    /// Output fingerprint; identical for every rep of a seed, traced or not.
    pub digest: String,
    /// Wall of the timed part.
    pub wall_s: f64,
    /// CPU seconds of the timed part (read inside the rep only).
    pub cpu_s: f64,
    /// Units of work done in the timed part (env steps, episodes).
    pub work: f64,
    /// Latency of each finest visible operation.
    pub ops_ms: Vec<f64>,
    /// Duration of each job (the rep's unit of work).
    pub jobs_s: Vec<f64>,
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub pool: usize,
    pub layers: Option<Layers>,
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| Value::Float(*v)).collect())
}

fn read_floats(value: &Value) -> Result<Vec<f64>, String> {
    value.as_array()?.iter().map(Value::as_f64).collect()
}

impl RepResult {
    fn to_value(&self) -> Value {
        let mut table = Value::table();
        table.set("digest", Value::Str(self.digest.clone()));
        table.set("wall_s", Value::Float(self.wall_s));
        table.set("work", Value::Float(self.work));
        table.set("ops_ms", floats(&self.ops_ms));
        table.set("jobs_s", floats(&self.jobs_s));
        table.set("rss_mb", Value::Float(self.rss_mb));
        table.set("attempted", Value::Int(self.attempted as i64));
        table.set("failed", Value::Int(self.failed as i64));
        table.set("pool", Value::Int(self.pool as i64));
        if let Some(layers) = &self.layers {
            let mut map = Value::table();
            for (name, v) in &layers.0 {
                map.set(name, Value::Float(*v));
            }
            table.set("layers", map);
        }
        table
    }

    fn from_value(value: &Value) -> Result<RepResult, String> {
        let t = value.as_table()?;
        let get = |key: &str| t.get(key).ok_or_else(|| format!("rep result lacks {key}"));
        let layers = match t.get("layers") {
            Some(map) => Some(Layers(
                map.as_table()?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_f64()?)))
                    .collect::<Result<_, String>>()?,
            )),
            None => None,
        };
        Ok(RepResult {
            digest: get("digest")?.as_str()?.to_string(),
            wall_s: get("wall_s")?.as_f64()?,
            work: get("work")?.as_f64()?,
            ops_ms: read_floats(get("ops_ms")?)?,
            jobs_s: read_floats(get("jobs_s")?)?,
            rss_mb: get("rss_mb")?.as_f64()?,
            attempted: get("attempted")?.as_u64()?,
            failed: get("failed")?.as_u64()?,
            pool: get("pool")?.as_usize()?,
            layers,
            ..RepResult::default()
        })
    }
}

// ---------------------------------------------------------------------------
// Per-layer helpers shared by the workloads
// ---------------------------------------------------------------------------

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Cache-sim and gym metrics from the wrapper counters; shares are of `wall`.
pub fn env_layers(layers: &mut Layers, c: &Counters, wall: f64) {
    let accesses = c.get(Counter::CacheAccessCalls);
    let cache_s = c.secs(Counter::CacheAccessNs) + c.secs(Counter::CacheFlushNs);
    let step_s = c.secs(Counter::GymStepNs);
    let gym_s = step_s + c.secs(Counter::GymResetNs);
    let episodes = c.get(Counter::GymEpisodes);
    layers.insert("cache-sim.access.calls", accesses as f64);
    layers.insert("cache-sim.access.busy_s", c.secs(Counter::CacheAccessNs));
    layers.insert(
        "cache-sim.flush.calls",
        c.get(Counter::CacheFlushCalls) as f64,
    );
    layers.insert(
        "cache-sim.hit_ratio",
        ratio(c.get(Counter::CacheHits), accesses),
    );
    layers.insert(
        "cache-sim.noise_ratio",
        ratio(c.get(Counter::CacheNoise), accesses),
    );
    layers.insert("cache-sim.self_share", cache_s / wall);
    layers.insert("gym.step.calls", c.get(Counter::GymStepCalls) as f64);
    layers.insert("gym.step.busy_s", step_s);
    layers.insert("gym.step.self_s", step_s - cache_s);
    layers.insert("gym.reset.calls", c.get(Counter::GymResetCalls) as f64);
    layers.insert("gym.reset.busy_s", c.secs(Counter::GymResetNs));
    layers.insert("gym.episodes", episodes as f64);
    layers.insert(
        "gym.guess_correct_ratio",
        ratio(c.get(Counter::GymCorrect), episodes),
    );
    layers.insert(
        "gym.detected_ratio",
        ratio(c.get(Counter::GymDetected), episodes),
    );
    layers.insert("gym.self_share", (gym_s - cache_s) / wall);
}

/// nn metrics from the wrapper counters and the replay spans.
pub fn nn_layers(layers: &mut Layers, c: &Counters, spans: &SpanStats) {
    layers.insert(
        "nn.forward_inference.calls",
        c.get(Counter::NnInferCalls) as f64,
    );
    layers.insert(
        "nn.forward_inference.rows",
        c.get(Counter::NnInferRows) as f64,
    );
    layers.insert("nn.forward_inference.busy_s", c.secs(Counter::NnInferNs));
    layers.insert(
        "nn.forward_inference.gmacs",
        c.get(Counter::NnInferMacs) as f64 * 1e-9,
    );
    layers.insert("nn.train_batch.calls", c.get(Counter::NnTrainCalls) as f64);
    layers.insert("nn.train_batch.rows", c.get(Counter::NnTrainRows) as f64);
    layers.insert("nn.train_batch.busy_s", c.secs(Counter::NnTrainNs));
    layers.insert(
        "nn.train_batch.gmacs",
        c.get(Counter::NnTrainMacs) as f64 * 1e-9,
    );
    for name in [
        "nn.gather_rows",
        "nn.weight_sync",
        "nn.grad_reduce",
        "nn.clip_grad",
        "nn.adam",
    ] {
        layers.insert(&format!("{name}.busy_s"), spans.busy_s(name));
    }
    layers.insert("nn.adam.calls", spans.calls("nn.adam") as f64);
}

/// The closure report: attributed layer time against the traced unit's
/// time (its wall; on serve, the daemon's CPU seconds).
pub fn closure(layers: &mut Layers, wall: f64, attributed: f64) {
    layers.insert("trace.wall_s", wall);
    layers.insert("trace.attributed_s", attributed);
    layers.insert("trace.unattributed_s", wall - attributed);
    layers.insert("trace.attributed_share", attributed / wall);
}

/// Scratch stores and span logs, relative to the working directory.
const WORK_DIR: &str = ".perfbench";

/// Writes a traced rep's spans to `.perfbench/spans/`.
pub fn write_rep_spans(workload: &str, seed: u64, spans: &[trace::Span]) -> Result<(), String> {
    let dir = Path::new(WORK_DIR).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{workload}-seed{seed}-{}.jsonl",
        std::process::id()
    ));
    trace::write_spans(&path, spans)
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

const READY: &str = "perfbench-ready";
const RESULT: &str = "perfbench-result ";

fn child_main(workload: &str, seed: u64, traced: bool, smoke: bool) -> Result<(), String> {
    if traced {
        trace::enable();
    }
    let ready = || {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{READY}");
        let _ = out.flush();
    };
    // Start the pool before the clock: lazy set-up is not the workload.
    let pool = rayon::current_num_threads();
    rayon::scope(|_| {});
    let mut rep = match workload {
        "train" => train::run(seed, traced, smoke, ready)?,
        "eval" => eval::run(seed, traced, smoke, ready)?,
        other => return Err(format!("no child workload `{other}`")),
    };
    rep.pool = pool;
    rep.rss_mb = stats::peak_rss_mb("self");
    println!("{RESULT}{}", value::to_json(&rep.to_value()));
    Ok(())
}

/// Runs one child rep; returns `(set-up seconds, result)`.
fn spawn_rep(
    exe: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    smoke: bool,
) -> Result<(f64, RepResult), String> {
    let pool = stats::nproc();
    let start = clock::now();
    let mut child = Command::new(exe)
        .args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(if smoke { &["--smoke"][..] } else { &[][..] })
        .env("RAYON_NUM_THREADS", pool.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning a {workload} rep: {e}"))?;
    let stdout = child.stdout.take().ok_or("child stdout")?;
    let mut setup = None;
    let mut result = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("child stdout: {e}"))?;
        if line == READY {
            setup = Some(clock::secs_since(start));
        } else if let Some(json) = line.strip_prefix(RESULT) {
            result = Some(RepResult::from_value(&value::from_json(json)?)?);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a {workload} rep: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} rep exited with {status}"));
    }
    match (setup, result) {
        (Some(setup), Some(result)) => Ok((setup, result)),
        _ => Err(format!("{workload} rep printed no result")),
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// One metric's value plus its spread over reps (for the report lines).
struct Metric {
    value: f64,
    reps: Vec<f64>,
    samples: usize,
    /// The percentile a pooled metric reports (`None`: median over reps).
    q: Option<f64>,
}

impl Metric {
    fn over_reps(reps: Vec<f64>) -> Metric {
        Metric {
            value: median(&reps),
            samples: reps.len(),
            reps,
            q: None,
        }
    }
}

/// Result of one benchmark invocation.
struct Run {
    metrics: BTreeMap<&'static str, Metric>,
    layers: Option<Layers>,
    attempted: u64,
    failed: u64,
    correct: bool,
    stamp: Value,
}

/// A median and a tail percentile over every sample of every rep, with
/// the same percentiles per rep for the spread lines. The tail is the
/// highest of p99/p90/p75 with at least ten samples beyond it (the
/// median when no percentile has).
fn pooled_metrics(
    metrics: &mut BTreeMap<&'static str, Metric>,
    names: [&'static str; 2],
    per_rep: &[Vec<f64>],
) {
    let pooled = per_rep.concat();
    let tail = tail_quantile(pooled.len());
    for (name, q) in names.into_iter().zip([0.5, tail]) {
        metrics.insert(
            name,
            Metric {
                value: quantile(&pooled, q),
                reps: per_rep.iter().map(|s| quantile(s, q)).collect(),
                samples: pooled.len(),
                q: Some(q),
            },
        );
    }
}

fn stamp(workload: &str, seed: u64, pool: usize, reps: usize) -> Value {
    let mut s = Value::table();
    s.set("workload", Value::Str(workload.into()));
    s.set("seed", Value::Int(seed as i64));
    s.set("nproc", Value::Int(stats::nproc() as i64));
    s.set("cpu_model", Value::Str(stats::cpu_model()));
    s.set("simd_tier", Value::Str(simd::tier().name().into()));
    s.set("rayon_pool", Value::Int(pool as i64));
    s.set("git_commit", Value::Str(stats::git_commit()));
    s.set("reps", Value::Int(reps as i64));
    s
}

/// How long a run goes on.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Plain reps a full (not smoke) run takes at least.
    pub min_plain: usize,
}

/// The next rep of a run: `None` once the run is over, else whether the
/// rep is traced. A run fills its seconds; a trace run alternates plain
/// and traced reps, plain first; a smoke run does one of each kind it
/// needs.
pub fn next_rep(
    done_plain: usize,
    done_traced: usize,
    elapsed: f64,
    budget: Budget,
) -> Option<bool> {
    let enough = match (budget.smoke, budget.traced) {
        (true, _) => done_plain >= 1 && (!budget.traced || done_traced >= 1),
        (false, true) => done_traced >= 1 && elapsed >= budget.seconds,
        (false, false) => done_plain >= budget.min_plain && elapsed >= budget.seconds,
    };
    (!enough).then_some(budget.traced && done_traced < done_plain)
}

fn run_children(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = clock::now();
    let mut reps: Vec<(bool, f64, RepResult)> = Vec::new();
    loop {
        let done_plain = reps.iter().filter(|r| !r.0).count();
        let Some(rep_traced) = next_rep(
            done_plain,
            reps.len() - done_plain,
            clock::secs_since(start),
            Budget {
                seconds,
                traced,
                smoke,
                min_plain: MIN_REPS,
            },
        ) else {
            break;
        };
        let (setup, result) = spawn_rep(&exe, workload, seed, rep_traced, smoke)?;
        reps.push((rep_traced, setup, result));
    }

    let digest = &reps[0].2.digest;
    let mismatched = reps.iter().filter(|r| &r.2.digest != digest).count() as u64;
    if mismatched > 0 {
        eprintln!(
            "perfbench: {workload}: {mismatched} rep(s) disagree with the first rep's digest"
        );
    }
    let plain: Vec<&RepResult> = reps.iter().filter(|r| !r.0).map(|r| &r.2).collect();
    let attempted: u64 = reps.iter().map(|r| r.2.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.2.failed).sum::<u64>() + mismatched;

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "setup_s",
        Metric::over_reps(reps.iter().filter(|r| !r.0).map(|r| r.1).collect()),
    );
    metrics.insert(
        "peak_rss_mb",
        Metric::over_reps(plain.iter().map(|r| r.rss_mb).collect()),
    );
    metrics.insert(
        "throughput_per_s",
        Metric::over_reps(plain.iter().map(|r| r.work / r.wall_s).collect()),
    );
    let ops: Vec<Vec<f64>> = plain.iter().map(|r| r.ops_ms.clone()).collect();
    let jobs: Vec<Vec<f64>> = plain.iter().map(|r| r.jobs_s.clone()).collect();
    pooled_metrics(&mut metrics, ["latency_ms_p50", "latency_ms_tail"], &ops);
    pooled_metrics(&mut metrics, ["job_s_p50", "job_s_tail"], &jobs);

    let layers = if traced {
        let traced_reps: Vec<&RepResult> = reps.iter().filter(|r| r.0).map(|r| &r.2).collect();
        let traced_layers: Vec<&Layers> = traced_reps
            .iter()
            .filter_map(|r| r.layers.as_ref())
            .collect();
        let mut layers = mean_layers(&traced_layers);
        let traced_wall = median(&traced_reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        overhead(&mut layers, traced_wall, plain_wall);
        Some(layers)
    } else {
        None
    };
    Ok(Run {
        metrics,
        layers,
        attempted,
        failed,
        correct: failed == 0,
        stamp: stamp(workload, seed, reps[0].2.pool, reps.len()),
    })
}

/// Per-layer values averaged over traced reps.
fn mean_layers(reps: &[&Layers]) -> Layers {
    let n = reps.len() as f64;
    let mut sum = Layers::new();
    for layers in reps {
        for (name, v) in &layers.0 {
            *sum.0.entry(name.clone()).or_insert(0.0) += v / n;
        }
    }
    sum
}

fn overhead(layers: &mut Layers, traced_wall: f64, plain_wall: f64) {
    layers.insert("trace.overhead_s", traced_wall - plain_wall);
    layers.insert(
        "trace.overhead_share",
        (traced_wall - plain_wall) / plain_wall,
    );
}

fn run_serve(seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let work = Path::new(WORK_DIR).join(format!("work-{}", std::process::id()));
    let outcome = serve::run(&exe, &work, seed, seconds, traced, smoke);
    let _ = std::fs::remove_dir_all(&work);
    let out = outcome?;
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", Metric::over_reps(out.setup_s.clone()));
    metrics.insert("peak_rss_mb", Metric::over_reps(out.rss_mb.clone()));
    metrics.insert(
        "throughput_per_s",
        Metric::over_reps(out.rate_per_s.clone()),
    );
    pooled_metrics(
        &mut metrics,
        ["latency_ms_p50", "latency_ms_tail"],
        &out.cycle_ms,
    );
    pooled_metrics(&mut metrics, ["job_s_p50", "job_s_tail"], &out.job_s);
    let layers = traced.then(|| {
        let mut layers = mean_layers(&out.layers.iter().collect::<Vec<_>>());
        overhead(
            &mut layers,
            median(&out.traced_wall_s),
            median(&out.plain_wall_s),
        );
        layers
    });
    Ok(Run {
        metrics,
        layers,
        attempted: out.attempted,
        failed: out.failed,
        correct: out.failed == 0,
        stamp: stamp(
            "serve",
            seed,
            stats::nproc(),
            out.plain_wall_s.len() + out.traced_wall_s.len(),
        ),
    })
}

fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Run, String> {
    if workload == "serve" {
        run_serve(seed, seconds, traced, smoke)
    } else {
        run_children(workload, seed, seconds, traced, smoke)
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    let mut m = Value::table();
    m.set("value", Value::Float(value));
    m.set("unit", Value::Str(unit.into()));
    m
}

/// The metrics a run reports: every end-to-end metric, or with `traced`
/// every per-layer metric (0 for layers the workload does not run).
fn reported(run: &Run, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    if traced {
        let layers = run.layers.clone().unwrap_or_default();
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, *unit, layers.0.get(*name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                (
                    *name,
                    *unit,
                    run.metrics.get(name).map_or(f64::NAN, |m| m.value),
                )
            })
            .collect()
    }
}

fn print_report(run: &Run, traced: bool) {
    println!("perfbench-stamp {}", value::to_json(&run.stamp));
    for (name, _) in END_TO_END {
        if let Some(m) = run.metrics.get(name) {
            let stat = m.q.map_or("median of reps".to_string(), |q| {
                format!("p{:.0} of samples", q * 100.0)
            });
            println!(
                "  {name:<18} {:>14.6}  ({stat}; n={})   per rep: median {:.6} [q1 {:.6}, q3 {:.6}] reps={}",
                m.value,
                m.samples,
                median(&m.reps),
                quantile(&m.reps, 0.25),
                quantile(&m.reps, 0.75),
                m.reps.len(),
            );
        }
    }
    if traced {
        for (name, unit, v) in reported(run, true) {
            println!("  {name:<36} {v:>16.6} {unit}");
        }
    }
}

fn result_line(run: &Run, traced: bool) -> String {
    let mut metrics = Value::table();
    for (name, unit, v) in reported(run, traced) {
        metrics.set(name, metric_value(v, unit));
    }
    let mut out = Value::table();
    out.set("correct", Value::Bool(run.correct));
    out.set("attempted", Value::Int(run.attempted.max(1) as i64));
    out.set("failed", Value::Int(run.failed as i64));
    out.set("metrics", metrics);
    value::to_json(&out)
}

/// Every workload once in both modes at smoke budgets; checks that every
/// named metric is present and finite and every output check passed.
fn smoke() -> Result<(), String> {
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let run = run_workload(workload, 1, 0.0, traced, true)?;
            if !run.correct {
                problems.push(format!("{workload} trace={traced}: output check failed"));
            }
            for (name, _, v) in reported(&run, traced) {
                if !v.is_finite() {
                    problems.push(format!("{workload} trace={traced}: {name} = {v}"));
                }
            }
            println!(
                "smoke {workload} trace={}: {}",
                u8::from(traced),
                result_line(&run, traced)
            );
        }
    }
    if problems.is_empty() {
        println!("smoke ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    store: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        store: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.trace = value()? == "1",
            "--store" => parsed.store = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn workload_name(name: Option<&str>) -> Result<&'static str, String> {
    let name = name.ok_or("--workload is required")?;
    WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload `{name}` (train|eval|serve)"))
}

fn main_result() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("child") => {
            let args = parse(&argv[1..])?;
            child_main(
                workload_name(args.workload.as_deref())?,
                args.seed,
                args.trace,
                args.smoke,
            )?;
            Ok(true)
        }
        Some("daemon") => {
            let args = parse(&argv[1..])?;
            serve::daemon(args.store.ok_or("daemon needs --store")?)?;
            Ok(true)
        }
        Some("--list-metrics") => {
            for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
                println!("{name} {unit}");
            }
            Ok(true)
        }
        _ => {
            let args = parse(&argv)?;
            if args.smoke {
                smoke()?;
                return Ok(true);
            }
            let workload = workload_name(args.workload.as_deref())?;
            let run = run_workload(workload, args.seed, args.seconds, args.trace, false)?;
            print_report(&run, args.trace);
            println!("{}", result_line(&run, args.trace));
            Ok(run.correct)
        }
    }
}

fn main() -> ExitCode {
    match main_result() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
