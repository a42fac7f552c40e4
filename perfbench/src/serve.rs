//! The `serve` workload: one `autocat-serve` daemon (one worker, fresh
//! store) and this process as a closed-loop client on two connections,
//! both driven through the serve crate's own `client::Client`.
//!
//! Connection A submits fresh one-update table4-6 jobs one at a time,
//! watches each to `done` and fetches its checkpoint. Connection B runs
//! read cycles on finished jobs: a dedup re-submit, a whole-table
//! `status`, a `watch` replay and a `fetch`, each once per cycle.
//!
//! After each daemon has shut down, jobs of its lifetime are re-trained in
//! process through the one-shot path and their checkpoint bytes, params
//! digest and eval digest compared with the daemon's: the first and last
//! job of a plain lifetime, every job of a traced one. A traced lifetime
//! also replays the daemon's codec and store work on the messages and
//! checkpoints it exchanged, in the daemon's operation mix, so the
//! daemon's CPU time can be split by layer.

use crate::clock;
use crate::stats::{self, median, quantile};
use crate::trace::{self, Counter, Counters, SpanStats};
use crate::Layers;
use autocat_bench::cli::TrainOverrides;
use autocat_bench::sweep::{row_and_stats, train_trainer};
use autocat_nn::state::params_digest;
use autocat_scenario::value::{self, Value};
use autocat_serve::client::Client;
use autocat_serve::proto::{FetchKey, JobSource, JobState, JobStatus, Request, Response};
use autocat_store::{codec, EntryMeta, Journal, Store};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Scenario the jobs train.
const SCENARIO: &str = "table4-6";
/// Evaluation episodes per job.
const JOB_EVAL_EPISODES: usize = 8;
/// Fresh jobs per daemon lifetime. The work is fixed, not timed, so the
/// job table grows the same way in every lifetime of every run.
const JOBS_PER_LIFETIME: usize = 14;
/// Daemon lifetimes per run, at least: 3 × 14 jobs put ten beyond p75.
const MIN_LIFETIMES: usize = 3;
/// Connection-B read cycles per lifetime, at least: 3 × 34 put ten
/// beyond p90.
const MIN_CYCLES: usize = 34;
/// Start/stop cycles before each lifetime that only measure set-up, so
/// the set-up samples spread over the whole run.
const SETUP_PROBES: usize = 8;

/// Connection B's read cycle, as indices into [`OPS`]: each read once.
const READ_CYCLE: [usize; 4] = [1, 2, 3, 4];
/// Every client operation, as named in the per-layer metrics.
const OPS: [&str; 5] = ["submit_fresh", "submit_dedup", "status", "watch", "fetch"];

/// A finished job as connection A saw it.
#[derive(Clone)]
struct Finished {
    overrides: TrainOverrides,
    status: JobStatus,
    bytes: Vec<u8>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    /// Connection-B requests per second, per daemon lifetime.
    pub rate_per_s: Vec<f64>,
    /// Connection-B read-cycle latencies, per daemon lifetime.
    pub cycle_ms: Vec<Vec<f64>>,
    /// Fresh-job durations, per daemon lifetime.
    pub job_s: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics of each traced lifetime.
    pub layers: Vec<Layers>,
    /// Wall of the traced and untraced lifetimes (trace mode only).
    pub traced_wall_s: Vec<f64>,
    pub plain_wall_s: Vec<f64>,
}

/// How much one daemon lifetime does.
struct Plan {
    seed: u64,
    jobs: usize,
    min_cycles: usize,
    pool: usize,
}

/// Per-operation client measurements of one daemon lifetime.
#[derive(Default)]
struct OpLog {
    /// Keep every protocol message for the codec replay (traced lifetimes).
    keep_messages: bool,
    /// `(op, ms)` of every request.
    ms: Vec<(usize, f64)>,
    /// Connection B: the latency of each read cycle (its four requests).
    cycle_ms: Vec<f64>,
    /// Fresh-job durations, submit to `done`.
    job_s: Vec<f64>,
    failed: Vec<usize>,
    dedup_attached: u64,
    /// Digest of every fetch request, in order.
    fetched: Vec<u64>,
    fetch_bytes: u64,
    fetch_s: f64,
    /// Each request and the lines the daemon answered it with.
    messages: Vec<(Request, Vec<Value>)>,
}

impl OpLog {
    fn new(keep_messages: bool) -> Self {
        OpLog {
            keep_messages,
            ..OpLog::default()
        }
    }

    fn record(&mut self, op: usize, secs: f64, ok: bool) {
        self.ms.push((op, secs * 1e3));
        if !ok {
            self.failed.push(op);
        }
    }

    fn message(&mut self, request: Request, answer: impl FnOnce() -> Vec<Value>) {
        if self.keep_messages {
            self.messages.push((request, answer()));
        }
    }
}

/// A running daemon; dropping it kills (if still running) and reaps it,
/// and joins the thread draining its stdout.
struct Daemon {
    child: Child,
    pid: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn job_overrides(seed: u64, rep: usize, job: usize) -> TrainOverrides {
    TrainOverrides {
        steps: Some(1),
        seed: Some(
            seed.wrapping_mul(1_000_003)
                .wrapping_add((rep as u64) << 32)
                .wrapping_add(job as u64),
        ),
        lanes: Some(1),
        eval_episodes: Some(JOB_EVAL_EPISODES),
        shards: Some(1),
        threads: None,
    }
}

fn source() -> JobSource {
    JobSource::Registry(SCENARIO.into())
}

fn submit_request(overrides: TrainOverrides) -> Request {
    Request::Submit {
        source: source(),
        overrides,
        priority: 0,
    }
}

/// Spawns the daemon over a fresh store and connects both clients.
fn start(exe: &Path, store: &Path, pool: usize) -> Result<(Daemon, Client, Client), String> {
    let mut child = Command::new(exe)
        .args(["daemon", "--store"])
        .arg(store)
        .env("RAYON_NUM_THREADS", pool.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the daemon: {e}"))?;
    let stdout = child.stdout.take().ok_or("daemon stdout")?;
    let pid = child.id().to_string();
    let mut daemon = Daemon {
        child,
        pid,
        drain: None,
    };
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .ok_or("daemon exited before listening")?
            .map_err(|e| format!("daemon stdout: {e}"))?;
        if let Some(addr) = line.strip_prefix("autocat-serve: listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining the daemon's stdout so it never blocks on a full pipe.
    daemon.drain = Some(std::thread::spawn(move || lines.for_each(drop)));
    let a = Client::connect(&addr)?;
    let b = Client::connect(&addr)?;
    Ok((daemon, a, b))
}

/// Starts a daemon over a fresh store under `dir` and records the time
/// from spawn to both connections handshaken as one set-up sample.
fn start_timed(
    exe: &Path,
    dir: &Path,
    pool: usize,
    out: &mut Outcome,
) -> Result<(Daemon, Client, Client), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let t0 = clock::now();
    let started = start(exe, &dir.join("store"), pool)?;
    out.setup_s.push(clock::secs_since(t0));
    Ok(started)
}

/// Shuts a daemon down through `client` and waits for it to exit cleanly.
fn shut_down(mut daemon: Daemon, client: &mut Client) -> Result<(), String> {
    client.shutdown()?;
    let exit = daemon
        .child
        .wait()
        .map_err(|e| format!("waiting for the daemon: {e}"))?;
    if exit.success() {
        Ok(())
    } else {
        Err(format!("daemon exited with {exit}"))
    }
}

/// Connection A: the lifetime's fresh jobs, one at a time.
fn fresh_jobs(
    mut client: Client,
    plan: &Plan,
    rep: usize,
    finished: &Mutex<Vec<Finished>>,
    log: &mut OpLog,
) -> Result<Client, String> {
    for j in 0..plan.jobs {
        let overrides = job_overrides(plan.seed, rep, j);
        let t = clock::now();
        let mut handle = trace::span("serve.submit_fresh", || {
            client.submit(source(), overrides, 0)
        })?;
        log.record(0, clock::secs_since(t), !handle.attached);
        let mut events = Vec::new();
        let keep = log.keep_messages;
        let status = trace::span("serve.watch_fresh", || {
            handle.events(&mut |e| {
                if keep {
                    events.push(e.to_value());
                }
            })
        })?;
        log.job_s.push(clock::secs_since(t));
        log.message(submit_request(overrides), || {
            vec![submitted(handle.job, handle.spec_digest, handle.attached)]
        });
        log.message(Request::Watch { job: handle.job }, || events);
        client = handle.into_client();
        let digest = status.digest.ok_or("done job without a digest")?;
        let f = clock::now();
        let (entry, bytes) = trace::span("serve.fetch_fresh", || {
            client.fetch(&FetchKey::Digest(digest))
        })?;
        log.fetch_s += clock::secs_since(f);
        log.fetch_bytes += bytes.len() as u64;
        log.fetched.push(digest);
        let len = bytes.len() as u64;
        log.message(
            Request::Fetch {
                key: FetchKey::Digest(digest),
            },
            || vec![Response::Fetch { entry, len }.to_value()],
        );
        finished
            .lock()
            .expect("finished-job list poisoned")
            .push(Finished {
                overrides,
                status,
                bytes,
            });
    }
    Ok(client)
}

fn submitted(job: u64, spec_digest: u64, attached: bool) -> Value {
    Response::Submitted {
        job,
        spec_digest,
        attached,
    }
    .to_value()
}

/// One connection-B read on `job`, logged as failed when the answer is
/// wrong; returns the connection and the request's seconds.
fn read_op(
    client: Client,
    op: usize,
    job: &Finished,
    done_count: usize,
    log: &mut OpLog,
) -> Result<(Client, f64), String> {
    let t = clock::now();
    let (client, secs, ok) = match op {
        1 => {
            let handle = trace::span("serve.submit_dedup", || {
                client.submit(source(), job.overrides, 0)
            })?;
            let secs = clock::secs_since(t);
            log.dedup_attached += u64::from(handle.attached);
            let ok = handle.attached && handle.job == job.status.job;
            log.message(submit_request(job.overrides), || {
                vec![submitted(handle.job, handle.spec_digest, handle.attached)]
            });
            (handle.into_client(), secs, ok)
        }
        2 => {
            let mut client = client;
            let jobs = trace::span("serve.status", || client.status(None))?;
            let secs = clock::secs_since(t);
            let ok = jobs.len() >= done_count
                && jobs.iter().filter(|s| s.state == JobState::Done).count() >= done_count;
            log.message(Request::Status { job: None }, || {
                vec![Response::Status { jobs }.to_value()]
            });
            (client, secs, ok)
        }
        3 => {
            let mut handle = client.handle(job.status.job, job.status.spec_digest);
            let mut events = Vec::new();
            let keep = log.keep_messages;
            let status = trace::span("serve.watch", || {
                handle.events(&mut |e| {
                    if keep {
                        events.push(e.to_value());
                    }
                })
            })?;
            let secs = clock::secs_since(t);
            log.message(
                Request::Watch {
                    job: job.status.job,
                },
                || events,
            );
            (handle.into_client(), secs, status == job.status)
        }
        _ => {
            let mut client = client;
            let digest = job.status.digest.unwrap_or(0);
            let (entry, bytes) =
                trace::span("serve.fetch", || client.fetch(&FetchKey::Digest(digest)))?;
            let secs = clock::secs_since(t);
            log.fetch_bytes += bytes.len() as u64;
            log.fetch_s += secs;
            log.fetched.push(digest);
            let ok = bytes == job.bytes;
            let len = bytes.len() as u64;
            log.message(
                Request::Fetch {
                    key: FetchKey::Digest(digest),
                },
                || vec![Response::Fetch { entry, len }.to_value()],
            );
            (client, secs, ok)
        }
    };
    log.record(op, secs, ok);
    Ok((client, secs))
}

/// Connection B: read cycles on finished jobs until `stop` is set and at
/// least `min_cycles` have run. Returns the connection and the wall from
/// its first request on.
fn read_loop(
    mut client: Client,
    finished: &Mutex<Vec<Finished>>,
    stop: &AtomicBool,
    min_cycles: usize,
    log: &mut OpLog,
) -> Result<(Client, f64), String> {
    let mut first = None;
    let mut cycles = 0usize;
    while cycles < min_cycles || !stop.load(Ordering::SeqCst) {
        let pick = {
            let list = finished.lock().expect("finished-job list poisoned");
            if list.is_empty() {
                None
            } else {
                Some((list[cycles % list.len()].clone(), list.len()))
            }
        };
        let Some((job, done_count)) = pick else {
            if stop.load(Ordering::SeqCst) {
                return Err("connection A finished no job".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            continue;
        };
        first.get_or_insert_with(clock::now);
        let mut cycle_s = 0.0;
        for op in READ_CYCLE {
            let secs;
            (client, secs) = read_op(client, op, &job, done_count, log)?;
            cycle_s += secs;
        }
        log.cycle_ms.push(cycle_s * 1e3);
        cycles += 1;
    }
    Ok((client, first.map_or(0.0, clock::secs_since)))
}

/// Re-trains a job's spec in process through the one-shot path and
/// checks that the daemon produced the same checkpoint and digests.
fn matches_one_shot(job: &Finished) -> Result<bool, String> {
    let mut scenario =
        autocat_scenario::lookup(SCENARIO).ok_or_else(|| format!("no scenario {SCENARIO}"))?;
    job.overrides.apply(&mut scenario);
    let mut trainer = trace::span("serve.job_replay.train", || {
        train_trainer(&scenario, |_, _| {})
    })?;
    let bytes = codec::encode(&trainer.to_checkpoint_value());
    let (_, stats) = trace::span("serve.job_replay.eval", || {
        row_and_stats(&mut trainer, &scenario)
    });
    let (_, net, _) = trainer.parts_mut();
    Ok(bytes == job.bytes
        && job.status.params_digest == Some(params_digest(net))
        && job.status.eval_digest == Some(stats.digest()))
}

/// Replays the daemon's codec work on a lifetime's messages: it parses
/// each request line and writes each answer line.
fn replay_codec(messages: &[(Request, Vec<Value>)]) -> Result<(), String> {
    for (request, answers) in messages {
        let line = value::to_json(&request.to_value());
        trace::add(Counter::JsonParseBytes, line.len() as u64 + 1);
        trace::span("scenario.value.from_json", || value::from_json(&line))?;
        for answer in answers {
            trace::span("scenario.value.to_json", || value::to_json(answer));
        }
    }
    Ok(())
}

/// The journal records the daemon appends for a job: submit (with the
/// scenario the overrides produced), running and done.
fn journal_records(job: &Finished) -> Result<[Value; 3], String> {
    let mut scenario =
        autocat_scenario::lookup(SCENARIO).ok_or_else(|| format!("no scenario {SCENARIO}"))?;
    job.overrides.apply(&mut scenario);
    let status = &job.status;
    let queued = JobStatus {
        state: JobState::Queued,
        steps: 0,
        avg_return: 0.0,
        digest: None,
        params_digest: None,
        eval_digest: None,
        accuracy: None,
        ..status.clone()
    };
    let mut submit = Value::table();
    submit.set("op", Value::Str("submit".into()));
    submit.set("status", queued.to_value());
    submit.set("scenario", scenario.to_value());
    let mut running = Value::table();
    running.set("op", Value::Str("running".into()));
    running.set("job", value::u64_value(status.job));
    let mut done = Value::table();
    done.set("op", Value::Str("done".into()));
    done.set("status", status.to_value());
    Ok([submit, running, done])
}

/// Replays the daemon's store work for a lifetime in a client-side store,
/// in the daemon's mix: per fresh job one encode, one `put_bytes` and
/// three journal appends (submit, running, done); per fetch request one
/// `fetch_bytes`. Returns the mismatches (re-encoded or fetched bytes
/// that differ from the daemon's).
fn replay_store(dir: &Path, jobs: &[Finished], fetched: &[u64]) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut store = Store::open(dir.join("store"))?;
    let (mut journal, _) = Journal::open(dir.join("jobs.jsonl"), "perfbench-replay", 1)?;
    let mut mismatches = 0;
    for job in jobs {
        // The daemon encodes the trainer's checkpoint value; decoding the
        // fetched bytes gives that value back (off the clock).
        let value = codec::decode(&job.bytes)?;
        let bytes = trace::span("store.codec.encode", || codec::encode(&value));
        let meta = EntryMeta {
            scenario: job.status.scenario.clone(),
            spec_digest: job.status.spec_digest,
            params_digest: job.status.params_digest.unwrap_or(0),
            steps: job.status.steps,
            accuracy: job.status.accuracy.unwrap_or(0.0),
            created_unix: job.status.job,
        };
        trace::span("store.put", || store.put_bytes(meta, &bytes))?;
        for record in journal_records(job)? {
            trace::span("store.journal.append", || journal.append(&record))?;
        }
        mismatches += u64::from(bytes != job.bytes);
    }
    for digest in fetched {
        let back = trace::span("store.fetch_bytes", || store.fetch_bytes(*digest))?;
        let daemon_bytes = jobs.iter().find(|j| j.status.digest == Some(*digest));
        mismatches += u64::from(daemon_bytes.map(|j| &j.bytes) != Some(&back));
    }
    Ok(mismatches)
}

/// One daemon lifetime.
fn lifetime(
    exe: &Path,
    work: &Path,
    plan: &Plan,
    rep: usize,
    keep_messages: bool,
    out: &mut Outcome,
) -> Result<(Vec<Finished>, OpLog, f64), String> {
    let (daemon, a, b) = start_timed(exe, &work.join(format!("serve-{rep}")), plan.pool, out)?;
    let cpu0 = stats::proc_cpu_s(&daemon.pid).unwrap_or(0.0);

    let finished = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let mut log_a = OpLog::new(keep_messages);
    let mut log_b = OpLog::new(keep_messages);
    let (ra, rb) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(b, &finished, &stop, plan.min_cycles, &mut log_b));
        let ra = fresh_jobs(a, plan, rep, &finished, &mut log_a);
        stop.store(true, Ordering::SeqCst);
        let rb = reader
            .join()
            .unwrap_or_else(|_| Err("reader panicked".into()));
        (ra, rb)
    });
    let mut a = ra?;
    let (mut b, b_wall) = rb?;
    out.rss_mb.push(stats::peak_rss_mb(&daemon.pid));
    let daemon_cpu = stats::proc_cpu_s(&daemon.pid).unwrap_or(0.0) - cpu0;
    let jobs_final = b.status(None)?.len();
    shut_down(daemon, &mut a)?;

    let reads = log_b.ms.len();
    out.rate_per_s.push(reads as f64 / b_wall);
    out.cycle_ms.push(log_b.cycle_ms.clone());
    out.job_s.push(log_a.job_s.clone());
    let finished = finished.into_inner().expect("finished-job list poisoned");
    out.attempted += (log_a.ms.len() + reads) as u64;
    out.failed += (log_a.failed.len() + log_b.failed.len()) as u64;
    if jobs_final != finished.len() {
        out.failed += 1;
    }

    let mut merged = log_a;
    merged.ms.extend(log_b.ms);
    merged.failed.extend(log_b.failed);
    merged.dedup_attached = log_b.dedup_attached;
    merged.fetched.extend(log_b.fetched);
    merged.fetch_bytes += log_b.fetch_bytes;
    merged.fetch_s += log_b.fetch_s;
    merged.messages.extend(log_b.messages);
    Ok((finished, merged, daemon_cpu))
}

/// Runs the workload for `seconds` and returns its measurements.
pub fn run(
    exe: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = Plan {
        seed,
        jobs: if smoke { 2 } else { JOBS_PER_LIFETIME },
        min_cycles: if smoke { 2 } else { MIN_CYCLES },
        pool: stats::nproc(),
    };
    let probes = if smoke { 1 } else { SETUP_PROBES };
    let start = clock::now();
    let budget = crate::Budget {
        seconds,
        traced,
        smoke,
        min_plain: MIN_LIFETIMES,
    };
    for rep in 0.. {
        let (plain, traced_reps) = (out.plain_wall_s.len(), out.traced_wall_s.len());
        let Some(traced_rep) =
            crate::next_rep(plain, traced_reps, clock::secs_since(start), budget)
        else {
            break;
        };
        for probe in 0..probes {
            let dir = work.join(format!("probe-{probe}"));
            let (daemon, mut a, _b) = start_timed(exe, &dir, plan.pool, &mut out)?;
            shut_down(daemon, &mut a)?;
        }
        if traced_rep {
            trace::enable();
        }
        let counters0 = Counters::read();
        let wall0 = clock::now();
        let (finished, log, daemon_cpu_s) = lifetime(exe, work, &plan, rep, traced_rep, &mut out)?;
        let wall = clock::secs_since(wall0);
        // The one-shot gate runs after the daemon is gone, off the clock:
        // on every job of a traced lifetime (its time is the job-compute
        // replay), on the first and last of a plain one.
        let checked: Vec<&Finished> = if traced_rep {
            finished.iter().collect()
        } else {
            [finished.first(), finished.last()]
                .into_iter()
                .flatten()
                .collect()
        };
        let cpu0 = stats::proc_cpu_s("self").unwrap_or(0.0);
        for job in checked {
            out.attempted += 1;
            if !matches_one_shot(job)? {
                eprintln!(
                    "serve: job {} differs from its one-shot run",
                    job.status.job
                );
                out.failed += 1;
            }
        }
        let job_replay_cpu_s = stats::proc_cpu_s("self").unwrap_or(0.0) - cpu0;
        if traced_rep {
            out.traced_wall_s.push(wall);
            replay_codec(&log.messages)?;
            out.failed +=
                replay_store(&work.join(format!("replay-{rep}")), &finished, &log.fetched)?;
            let cpu = Cpu {
                daemon_s: daemon_cpu_s,
                job_replay_s: job_replay_cpu_s,
            };
            let layers = traced_layers(&finished, &log, cpu, wall, &counters0, seed)?;
            out.layers.push(layers);
            trace::disable();
        } else {
            out.plain_wall_s.push(wall);
        }
    }
    Ok(out)
}

/// CPU seconds of a traced lifetime: the daemon's, and this process's
/// while it re-trained the lifetime's jobs.
struct Cpu {
    daemon_s: f64,
    job_replay_s: f64,
}

fn traced_layers(
    finished: &[Finished],
    log: &OpLog,
    cpu: Cpu,
    wall: f64,
    counters0: &Counters,
    seed: u64,
) -> Result<Layers, String> {
    let spans = trace::take_spans();
    let counters = Counters::read().since(counters0);
    let stats = SpanStats::new(&spans);
    let mut layers = Layers::new();
    for (k, op) in OPS.iter().enumerate() {
        let ms: Vec<f64> = log
            .ms
            .iter()
            .filter(|(o, _)| *o == k)
            .map(|(_, ms)| *ms)
            .collect();
        layers.insert(&format!("serve.{op}.calls"), ms.len() as f64);
        layers.insert(&format!("serve.{op}.ms_p50"), median(&ms));
        layers.insert(&format!("serve.{op}.ms_p99"), quantile(&ms, 0.99));
        layers.insert(
            &format!("serve.{op}.failed"),
            log.failed.iter().filter(|o| **o == k).count() as f64,
        );
    }
    let dedups = log.ms.iter().filter(|(o, _)| *o == 1).count().max(1);
    layers.insert(
        "serve.dedup_ratio",
        log.dedup_attached as f64 / dedups as f64,
    );
    layers.insert("serve.fetch.bytes", log.fetch_bytes as f64);
    layers.insert(
        "serve.fetch.mb_per_s",
        log.fetch_bytes as f64 / 1e6 / log.fetch_s.max(1e-9),
    );
    let daemon_cpu_s = cpu.daemon_s;
    layers.insert("serve.daemon.cpu_s", daemon_cpu_s);
    layers.insert("serve.daemon.cpu_per_wall", daemon_cpu_s / wall);
    layers.insert("serve.jobs_final", finished.len() as f64);
    layers.insert("serve.job_replay.cpu_s", cpu.job_replay_s);

    // Every replayed layer's share is of the daemon's CPU time.
    let from_json = stats.busy_s("scenario.value.from_json");
    let to_json = stats.busy_s("scenario.value.to_json");
    layers.insert(
        "scenario.value.from_json.calls",
        stats.calls("scenario.value.from_json") as f64,
    );
    layers.insert(
        "scenario.value.from_json.bytes",
        counters.get(Counter::JsonParseBytes) as f64,
    );
    layers.insert("scenario.value.from_json.busy_s", from_json);
    layers.insert("scenario.value.to_json.busy_s", to_json);
    layers.insert("scenario.self_share", (from_json + to_json) / daemon_cpu_s);

    let store_names = [
        "store.codec.encode",
        "store.put",
        "store.fetch_bytes",
        "store.journal.append",
    ];
    for name in store_names {
        layers.insert(&format!("{name}.busy_s"), stats.busy_s(name));
    }
    layers.insert(
        "store.codec.bytes",
        finished.iter().map(|j| j.bytes.len()).sum::<usize>() as f64,
    );
    layers.insert(
        "store.journal.append.calls",
        stats.calls("store.journal.append") as f64,
    );
    let store_s: f64 = store_names.iter().map(|n| stats.busy_s(n)).sum();
    layers.insert("store.self_share", store_s / daemon_cpu_s);

    // Closure against the daemon's own CPU time: the replayed job
    // compute (CPU time) and codec and store work (single-threaded spans),
    // and the remainder nothing replays (protocol handling, job table,
    // threads, the progress callback).
    crate::closure(
        &mut layers,
        daemon_cpu_s,
        cpu.job_replay_s + from_json + to_json + store_s,
    );
    crate::write_rep_spans("serve", seed, &spans)?;
    Ok(layers)
}

/// The daemon entry point (`perfbench daemon --store DIR`): the serve
/// crate's own daemon with one worker on a loopback port.
pub fn daemon(store: PathBuf) -> Result<(), String> {
    autocat_serve::server::run(&autocat_serve::server::DaemonConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: store.to_string_lossy().into_owned(),
        workers: 1,
    })
}
