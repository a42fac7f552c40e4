//! The scenario-sweep pipeline behind the `sweep` binary: train every
//! registry scenario, checkpoint each policy, evaluate each over its
//! scenario's episode budget, and render a Table IV reproduction report.
//!
//! A report row is a **per-policy statistic**, not a single replay: each
//! scenario is evaluated over `train.eval_episodes` sampled episodes with
//! the lane-batched engine ([`autocat::ppo::eval::evaluate_batched`],
//! [`EVAL_LANES`] lanes), and the row carries N-episode accuracy,
//! detection rate, average length and an attack-category census. The
//! printed sequence is a *representative replay*: the first (preferring
//! correct) episode of the census's majority category, so rows on
//! stochastic backends (random-replacement caches, `SimulatedProcessor`)
//! stop flapping between runs.
//!
//! The pipeline is deliberately split from the CLI so the
//! train-→-artifacts-→-report round trip is testable: a report generated
//! right after training and a report regenerated later from the artifacts
//! alone ([`row_from_artifacts`]) are **identical**, because a row is
//! always produced from a checkpoint-equivalent trainer state (training
//! encodes first, then evaluates; report-only loads, then evaluates — the
//! checkpoint resume guarantee in `autocat_ppo::checkpoint` plus the
//! batched evaluator's determinism contract make both evaluations
//! bit-identical).
//!
//! # Artifact layout
//!
//! Everything lives under one output directory (`--out`, default
//! `runs/sweep`), which is also an [`autocat_store::Store`] root — the
//! layout the serving daemon keeps:
//!
//! ```text
//! runs/sweep/
//!   objects/<digest>.ckpt.bin # binary checkpoints, named by content digest
//!   index.json                # (scenario, spec digest) -> checkpoint entry
//!   table4-1.scenario.json    # the exact scenario trained (with overrides)
//!   ...
//!   report.md                 # the Table IV reproduction report
//!   report.json               # the same rows, machine-readable
//! ```
//!
//! A scenario's checkpoint is found through the store index by its name
//! and the [`spec_digest`] of its sidecar, then fetched digest-verified:
//! `sweep --resume` skips scenarios already stored for the same spec, so
//! an interrupted multi-scenario sweep continues in slices instead of
//! retraining from zero, and a corrupted object is an error rather than a
//! silently different report.

use autocat::attacks::classify::classify_sequence;
use autocat::gym::{Action, CacheGuessingGame};
use autocat::nn::state::params_digest;
use autocat::ppo::{eval, Trainer};
use autocat_scenario::value::{self, req, u64_from, u64_value, Value};
use autocat_scenario::Scenario;
use autocat_store::{codec, now_unix, EntryMeta, Store};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Evaluation lanes used when decoding a report row — the canonical width
/// `autocat::ppo::eval::EVAL_LANES`, so every report of a scenario sees
/// the identical sampling plan. Fixed (not a CLI knob) because the lane split
/// is part of that plan: the same artifacts must yield the same rows on
/// every machine.
pub use autocat::ppo::eval::EVAL_LANES;

/// One row of the sweep report (one trained scenario), carrying N-episode
/// evaluation statistics rather than a single-replay coin flip.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Scenario name (registry or file-derived).
    pub scenario: String,
    /// The scenario's human-readable summary (for Table IV rows, the
    /// attack the paper's agent found).
    pub summary: String,
    /// Environment steps trained.
    pub steps: u64,
    /// Trailing average episode return when training stopped.
    pub final_return: f32,
    /// Whether the trailing return reached the scenario's threshold.
    pub converged: bool,
    /// Episodes evaluated for this row (the scenario's
    /// `train.eval_episodes`).
    pub eval_episodes: u64,
    /// Evaluation episodes ending in a correct guess.
    pub correct: u64,
    /// Evaluation episodes ending in any guess.
    pub guessed: u64,
    /// Evaluation episodes terminated by a detector.
    pub detected: u64,
    /// Mean evaluation episode length.
    pub avg_length: f32,
    /// Majority attack category across the census (the paper's analysis).
    pub category: String,
    /// Attack-category census over every evaluated episode, rendered as
    /// `category:count` pairs sorted by descending count.
    pub census: String,
    /// A representative replay in the paper's notation: the first
    /// (preferring correct) evaluated episode of the majority category.
    pub sequence: String,
}

impl SweepRow {
    /// Correct guesses over **all** evaluation episodes (the paper's
    /// accuracy column).
    pub fn accuracy(&self) -> f64 {
        if self.eval_episodes == 0 {
            0.0
        } else {
            self.correct as f64 / self.eval_episodes as f64
        }
    }

    /// Detector-terminated episodes over all evaluation episodes (the
    /// Sec. V-D defense metric).
    pub fn detection_rate(&self) -> f64 {
        if self.eval_episodes == 0 {
            0.0
        } else {
            self.detected as f64 / self.eval_episodes as f64
        }
    }
}

/// Scenario sidecar file for a scenario name under `out`.
pub fn scenario_path(out: &Path, name: &str) -> PathBuf {
    out.join(format!("{name}.scenario.json"))
}

/// The train-spec digest of a scenario: FNV-1a over its canonical JSON
/// (after any CLI overrides). This is the second half of the store's
/// index key — two submissions of one scenario name with
/// different seeds, budgets or lane counts index separately.
pub fn spec_digest(scenario: &Scenario) -> u64 {
    autocat::nn::state::fnv1a(scenario.to_json().into_bytes())
}

/// Decodes a report row from a trainer whose state equals a stored
/// checkpoint, and returns it with the raw [`eval::EvalStats`] it was
/// decoded from.
///
/// Evaluates the policy over `scenario.train.eval_episodes` sampled
/// episodes on [`EVAL_LANES`] batched lanes (sampling, not argmax: the
/// honest statistic on stochastic backends), then takes a census of the
/// classified attack categories across every episode. The row's printed
/// sequence is the first (preferring correct) episode of the majority
/// category. Every consumer of a checkpoint-equivalent trainer —
/// the sweep, `scenario-run --ckpt`, the serving daemon — evaluates
/// through the *same* code path and therefore produces the same stats
/// digest for the same checkpoint (the daemon/one-shot bit-identity
/// gate in ci.sh compares exactly this).
pub fn row_and_stats(
    trainer: &mut Trainer<CacheGuessingGame>,
    scenario: &Scenario,
) -> (SweepRow, eval::EvalStats) {
    let steps = trainer.total_steps();
    let final_return = trainer.avg_return();
    let converged = final_return >= scenario.train.return_threshold;
    let episodes = scenario.train.eval_episodes.max(1);
    let (env, net, rng) = trainer.parts_mut();
    let report = eval::evaluate_batched(&*env, net, episodes, EVAL_LANES, false, rng);

    let decode = |ep: &eval::EpisodeRecord| -> Vec<Action> {
        ep.actions
            .iter()
            .map(|&i| env.action_space().decode(i))
            .collect()
    };
    let categories: Vec<String> = report
        .episodes
        .iter()
        .map(|ep| classify_sequence(&decode(ep), env.config()).to_string())
        .collect();
    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for category in &categories {
        *counts.entry(category).or_default() += 1;
    }
    // Majority category; ties break to the lexicographically first name
    // (BTreeMap order) so the winner never depends on episode order.
    let category = counts
        .iter()
        .max_by_key(|(name, count)| (*count, std::cmp::Reverse(*name)))
        .map(|(name, _)| (*name).to_string())
        .unwrap_or_default();
    let mut census_pairs: Vec<(&str, u64)> = counts.iter().map(|(n, c)| (*n, *c)).collect();
    census_pairs.sort_by_key(|&(name, count)| (std::cmp::Reverse(count), name));
    let census = census_pairs
        .iter()
        .map(|(name, count)| format!("{name}:{count}"))
        .collect::<Vec<_>>()
        .join(", ");
    // Representative replay: first correct episode of the majority
    // category, else the first episode of that category.
    let mut first_match = None;
    let mut first_correct = None;
    for (ep, cat) in report.episodes.iter().zip(&categories) {
        if *cat != category {
            continue;
        }
        if first_match.is_none() {
            first_match = Some(ep);
        }
        if ep.correct {
            first_correct = Some(ep);
            break;
        }
    }
    let representative = first_correct.or(first_match);
    let sequence = representative
        .map(|ep| {
            decode(ep)
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        })
        .unwrap_or_default();

    let row = SweepRow {
        scenario: scenario.name.clone(),
        summary: scenario.summary.clone(),
        steps,
        final_return,
        converged,
        eval_episodes: report.stats.episodes as u64,
        correct: report.stats.correct as u64,
        guessed: report.stats.guessed as u64,
        detected: report.stats.detected as u64,
        avg_length: report.stats.avg_length,
        category,
        census,
        sequence,
    };
    (row, report.stats)
}

/// Builds and trains a scenario's trainer to its budget — the one
/// training path shared by [`train_one`], `scenario-run --ckpt` and the
/// serving daemon, which is what makes a daemon job bit-identical to its
/// one-shot equivalent. `on_update` observes `(total steps, trailing
/// average return)` after every PPO update (pass a no-op for silence;
/// observation cannot perturb training).
///
/// # Errors
///
/// Returns an error if the scenario's environment cannot be built.
pub fn train_trainer(
    scenario: &Scenario,
    on_update: impl FnMut(u64, f32),
) -> Result<Trainer<CacheGuessingGame>, String> {
    let env = scenario.build_env()?;
    let mut trainer = Trainer::new(
        env,
        scenario.train.backbone.clone(),
        scenario.train.ppo,
        scenario.train.seed,
    );
    trainer.train_until_with(
        scenario.train.return_threshold,
        scenario.train.max_steps,
        on_update,
    );
    Ok(trainer)
}

/// Turns a freshly trained trainer into what the checkpoint store keeps:
/// the canonical checkpoint bytes, encoded *before* evaluation (which
/// advances the trainer's RNG), then the entry metadata and the evaluated
/// row with its stats. The sweep and the serving daemon both store
/// through this, and `scenario-run --ckpt` also saves before evaluating,
/// so all three write byte-identical checkpoints, and the row is decoded
/// from exactly the state a later load restores.
pub fn encode_and_evaluate(
    trainer: &mut Trainer<CacheGuessingGame>,
    scenario: &Scenario,
) -> (Vec<u8>, EntryMeta, SweepRow, eval::EvalStats) {
    let bytes = codec::encode(&trainer.to_checkpoint_value());
    let (row, stats) = row_and_stats(trainer, scenario);
    let (_, net, _) = trainer.parts_mut();
    let meta = EntryMeta {
        scenario: scenario.name.clone(),
        spec_digest: spec_digest(scenario),
        params_digest: params_digest(net),
        steps: row.steps,
        accuracy: row.accuracy(),
        created_unix: now_unix(),
    };
    (bytes, meta, row, stats)
}

/// Trains one scenario to its budget, stores its checkpoint in `store`,
/// writes its scenario sidecar under the store root, and returns its
/// report row.
///
/// # Errors
///
/// Returns an error if the scenario is invalid or an artifact cannot be
/// written.
pub fn train_one(scenario: &Scenario, store: &Mutex<Store>) -> Result<SweepRow, String> {
    let err = |e: String| format!("{}: {e}", scenario.name);
    let mut trainer = train_trainer(scenario, |_, _| {}).map_err(err)?;
    let (bytes, meta, row, _) = encode_and_evaluate(&mut trainer, scenario);
    let mut store = store
        .lock()
        .map_err(|_| err("store lock poisoned".into()))?;
    store.put_bytes(meta, &bytes).map_err(err)?;
    // The sidecar last: it is the discovery key (`artifact_names`), so a
    // run killed before this write leaves an object no report looks for,
    // never a sidecar without a checkpoint.
    scenario
        .save(scenario_path(store.root(), &scenario.name))
        .map_err(err)?;
    Ok(row)
}

/// Whether `--resume` may skip a scenario: the store holds an object for
/// its `(name, spec digest)` and the sidecar on disk is that same spec. A
/// spec change (different seed/budget/lanes via overrides) misses the
/// index and retrains; a deleted object retrains.
pub fn resume_complete(store: &Store, scenario: &Scenario) -> bool {
    let spec = spec_digest(scenario);
    store
        .lookup(&scenario.name, spec)
        .is_some_and(|entry| store.object_path(entry.digest).exists())
        && Scenario::load(scenario_path(store.root(), &scenario.name))
            .is_ok_and(|sidecar| spec_digest(&sidecar) == spec)
}

/// Regenerates one report row from artifacts alone: loads the scenario
/// sidecar, looks its checkpoint up by name and spec digest, fetches it
/// digest-verified, rebuilds the environment and decodes.
///
/// # Errors
///
/// Returns an error if the sidecar or its checkpoint is missing,
/// corrupted, or inconsistent with the other.
pub fn row_from_artifacts(store: &Store, name: &str) -> Result<SweepRow, String> {
    let err = |e: String| format!("{name}: {e}");
    let scenario = Scenario::load(scenario_path(store.root(), name)).map_err(err)?;
    let entry = store.lookup(name, spec_digest(&scenario)).ok_or_else(|| {
        err(format!(
            "no stored checkpoint for this spec in {}",
            store.root().display()
        ))
    })?;
    let checkpoint = store.fetch(entry.digest).map_err(err)?;
    let env = scenario.build_env().map_err(err)?;
    let mut trainer = Trainer::from_checkpoint_value(&checkpoint, env).map_err(err)?;
    Ok(row_and_stats(&mut trainer, &scenario).0)
}

/// Lists the scenario names with artifacts under `out` (every
/// `<name>.scenario.json`), sorted in report order.
///
/// # Errors
///
/// Returns an error if the directory cannot be read.
pub fn artifact_names(out: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", out.display()))?;
        let file = entry.file_name();
        let file = file.to_string_lossy();
        if let Some(name) = file.strip_suffix(".scenario.json") {
            names.push(name.to_string());
        }
    }
    names.sort_by_key(|n| name_sort_key(n));
    Ok(names)
}

/// Natural sort key so `table4-2` precedes `table4-10` the way Table IV
/// orders its rows.
fn name_sort_key(name: &str) -> (String, u64, String) {
    let digits = name.len() - name.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    let (prefix, number) = name.split_at(name.len() - digits);
    (
        prefix.to_string(),
        number.parse().unwrap_or(0),
        name.to_string(),
    )
}

/// Sorts rows into report order (natural order on scenario names).
pub fn sort_rows(rows: &mut [SweepRow]) {
    rows.sort_by_key(|r| name_sort_key(&r.scenario));
}

/// Extends `rows` with a regenerated row for every artifact in `store`
/// not already covered, so a written report always reflects the *whole*
/// artifact directory — a filtered training run must not silently drop
/// previously-trained scenarios from `report.md`.
///
/// # Errors
///
/// Returns an error if the directory cannot be read or an uncovered
/// artifact fails to load.
pub fn fill_missing_rows(store: &Store, rows: &mut Vec<SweepRow>) -> Result<(), String> {
    let covered: std::collections::BTreeSet<String> =
        rows.iter().map(|r| r.scenario.clone()).collect();
    for name in artifact_names(store.root())? {
        if !covered.contains(&name) {
            rows.push(row_from_artifacts(store, &name)?);
        }
    }
    Ok(())
}

/// Renders the Markdown reproduction report.
pub fn render_markdown(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "# Table IV reproduction report\n\n\
         Generated by the `sweep` harness from per-scenario checkpoints; regenerate this\n\
         exact report from the artifacts alone with `sweep --report-only --out <dir>`.\n\n\
         Accuracy, detection rate and average length are per-policy statistics over\n\
         `eval N` sampled evaluation episodes (the scenario's `eval_episodes`), not a\n\
         single replay; `category` is the majority of the per-episode census and the\n\
         sequence column shows a representative episode of that category.\n\n\
         | scenario | steps | final reward | converged | category | accuracy | detect | avg len | eval N | census | representative sequence |\n\
         |----------|------:|-------------:|-----------|----------|---------:|-------:|--------:|-------:|--------|-------------------------|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {} | {} | {:.3} | {:.3} | {:.1} | {} | {} | `{}` |\n",
            row.scenario,
            row.steps,
            row.final_return,
            if row.converged { "yes" } else { "no" },
            row.category,
            row.accuracy(),
            row.detection_rate(),
            row.avg_length,
            row.eval_episodes,
            row.census,
            row.sequence,
        ));
    }
    out
}

/// Renders the machine-readable JSON report.
pub fn render_json(rows: &[SweepRow]) -> String {
    let mut root = Value::table();
    root.set("version", Value::Int(1));
    root.set(
        "rows",
        Value::Array(
            rows.iter()
                .map(|row| {
                    let mut table = Value::table();
                    table.set("scenario", Value::Str(row.scenario.clone()));
                    table.set("summary", Value::Str(row.summary.clone()));
                    table.set("steps", u64_value(row.steps));
                    table.set("final_return", Value::Float(f64::from(row.final_return)));
                    table.set("converged", Value::Bool(row.converged));
                    table.set("eval_episodes", u64_value(row.eval_episodes));
                    table.set("correct", u64_value(row.correct));
                    table.set("guessed", u64_value(row.guessed));
                    table.set("detected", u64_value(row.detected));
                    // Derived ratios, for machine readers; the counts above
                    // are authoritative and exact.
                    table.set("accuracy", Value::Float(row.accuracy()));
                    table.set("detection_rate", Value::Float(row.detection_rate()));
                    table.set("avg_length", Value::Float(f64::from(row.avg_length)));
                    table.set("category", Value::Str(row.category.clone()));
                    table.set("census", Value::Str(row.census.clone()));
                    table.set("sequence", Value::Str(row.sequence.clone()));
                    table
                })
                .collect(),
        ),
    );
    value::to_json(&root)
}

/// Parses rows back out of a [`render_json`] report.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn rows_from_json(text: &str) -> Result<Vec<SweepRow>, String> {
    let root = value::from_json(text)?;
    let table = root.as_table()?;
    req(table, "rows")?
        .as_array()?
        .iter()
        .map(|item| {
            let row = item.as_table()?;
            Ok(SweepRow {
                scenario: req(row, "scenario")?.as_str()?.to_string(),
                summary: req(row, "summary")?.as_str()?.to_string(),
                steps: u64_from(req(row, "steps")?)?,
                final_return: req(row, "final_return")?.as_f32()?,
                converged: req(row, "converged")?.as_bool()?,
                eval_episodes: u64_from(req(row, "eval_episodes")?)?,
                correct: u64_from(req(row, "correct")?)?,
                guessed: u64_from(req(row, "guessed")?)?,
                detected: u64_from(req(row, "detected")?)?,
                avg_length: req(row, "avg_length")?.as_f32()?,
                category: req(row, "category")?.as_str()?.to_string(),
                census: req(row, "census")?.as_str()?.to_string(),
                sequence: req(row, "sequence")?.as_str()?.to_string(),
            })
        })
        .collect()
}

/// Writes `report.md` and `report.json` for sorted `rows` under `out`.
///
/// # Errors
///
/// Returns an error if a file cannot be written.
pub fn write_report(out: &Path, rows: &[SweepRow]) -> Result<(), String> {
    let write = |file: &str, text: String| {
        let path = out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("report.md", render_markdown(rows))?;
    write("report.json", render_json(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_scenario::table4;

    /// A scenario cut down to test size (a handful of updates).
    fn tiny_scenario() -> Scenario {
        let mut scenario = table4(3).unwrap(); // flush+reload: learns fast
        scenario.train.max_steps = 512;
        scenario.train.ppo.horizon = 256;
        scenario.train.ppo.minibatch = 64;
        scenario.train.ppo.epochs_per_update = 2;
        scenario.train.eval_episodes = 10;
        scenario
    }

    /// A fresh store rooted at a per-test scratch directory.
    fn temp_store(name: &str) -> Mutex<Store> {
        let dir = std::env::temp_dir().join("autocat-sweep-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Mutex::new(Store::open(dir).unwrap())
    }

    #[test]
    fn report_only_regenerates_the_identical_report() {
        // The acceptance criterion: train → report, then regenerate the
        // report from the artifacts alone, and demand equality down to the
        // rendered bytes.
        let store = temp_store("identical-report");
        let scenario = tiny_scenario();
        let trained_row = train_one(&scenario, &store).unwrap();
        let store = store.into_inner().unwrap();
        let out = store.root();
        write_report(out, std::slice::from_ref(&trained_row)).unwrap();

        let names = artifact_names(out).unwrap();
        assert_eq!(names, vec![scenario.name.clone()]);
        let regenerated = row_from_artifacts(&store, &scenario.name).unwrap();
        assert_eq!(regenerated, trained_row, "rows must match field-for-field");
        let rows = std::slice::from_ref(&regenerated);
        assert_eq!(
            render_markdown(rows),
            std::fs::read_to_string(out.join("report.md")).unwrap()
        );
        assert_eq!(
            render_json(rows),
            std::fs::read_to_string(out.join("report.json")).unwrap()
        );
    }

    #[test]
    fn filtered_runs_keep_earlier_scenarios_in_the_report() {
        // Two sweeps into one directory with disjoint filters: the report
        // written by the second must still cover the first's scenario.
        let store = temp_store("incremental");
        let first = tiny_scenario();
        let first_row = train_one(&first, &store).unwrap();

        let mut second = tiny_scenario();
        second.name = "tiny-second".into();
        let mut rows = vec![train_one(&second, &store).unwrap()];

        fill_missing_rows(&store.into_inner().unwrap(), &mut rows).unwrap();
        sort_rows(&mut rows);
        let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, [first.name.as_str(), "tiny-second"]);
        assert!(rows.contains(&first_row), "regenerated row must be exact");
    }

    #[test]
    fn json_report_round_trips() {
        let rows = vec![SweepRow {
            scenario: "table4-3".into(),
            summary: "FR".into(),
            steps: 512,
            final_return: 0.123_456_7,
            converged: false,
            eval_episodes: 100,
            correct: 97,
            guessed: 99,
            detected: 2,
            avg_length: 4.25,
            category: "flush+reload".into(),
            census: "flush+reload:93, other:7".into(),
            sequence: "f0 -> v -> 0 -> g".into(),
        }];
        let back = rows_from_json(&render_json(&rows)).unwrap();
        assert_eq!(back, rows);
        assert!((back[0].accuracy() - 0.97).abs() < 1e-12);
        assert!((back[0].detection_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn trained_row_carries_episode_statistics() {
        // A sweep row is an N-episode statistic: counts bounded by the
        // episode budget, a census that names the majority category, and a
        // representative sequence drawn from the evaluated episodes.
        let scenario = tiny_scenario();
        let row = train_one(&scenario, &temp_store("row-stats")).unwrap();
        assert_eq!(row.eval_episodes, scenario.train.eval_episodes as u64);
        assert!(row.correct <= row.guessed);
        assert!(row.guessed <= row.eval_episodes);
        assert!(row.accuracy() <= 1.0);
        assert!(row.avg_length >= 1.0);
        assert!(!row.category.is_empty());
        assert!(
            row.census.contains(&format!("{}:", row.category)),
            "census `{}` must cover the majority category `{}`",
            row.census,
            row.category
        );
        assert!(!row.sequence.is_empty(), "representative replay required");
        let total: u64 = row
            .census
            .split(", ")
            .map(|pair| pair.rsplit(':').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, row.eval_episodes, "census must cover every episode");
    }

    #[test]
    fn rows_sort_in_table_order() {
        let row = |name: &str| SweepRow {
            scenario: name.into(),
            summary: String::new(),
            steps: 0,
            final_return: 0.0,
            converged: false,
            eval_episodes: 0,
            correct: 0,
            guessed: 0,
            detected: 0,
            avg_length: 0.0,
            category: String::new(),
            census: String::new(),
            sequence: String::new(),
        };
        let mut rows = vec![row("table4-10"), row("defense-misscount"), row("table4-2")];
        sort_rows(&mut rows);
        let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, ["defense-misscount", "table4-2", "table4-10"]);
    }

    #[test]
    fn missing_artifacts_are_reported_with_the_scenario_name() {
        let store = temp_store("missing").into_inner().unwrap();
        let err = row_from_artifacts(&store, "table4-1").err().unwrap();
        assert!(err.contains("table4-1"), "{err}");
    }

    #[test]
    fn checkpoints_live_in_the_store_and_corruption_is_an_error() {
        let store = temp_store("store-layout");
        let scenario = tiny_scenario();
        train_one(&scenario, &store).unwrap();
        let store = store.into_inner().unwrap();

        // The daemon's layout: objects + index, no per-name checkpoint
        // files and no manifest beside the sidecar.
        let mut files: Vec<String> = std::fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["index.json", "objects", "table4-3.scenario.json"]);

        // One flipped byte in the stored object fails the digest check.
        let entry = store.latest(&scenario.name).unwrap();
        let object = store.object_path(entry.digest);
        let mut bytes = std::fs::read(&object).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&object, bytes).unwrap();
        let err = row_from_artifacts(&store, &scenario.name).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn spec_digest_survives_the_sidecar_round_trip() {
        // Report-only lookup keys the store by the *loaded* sidecar's spec
        // digest, so saving and reloading must never change it.
        let dir = std::env::temp_dir()
            .join("autocat-sweep-tests")
            .join("sidecar-digests");
        std::fs::create_dir_all(&dir).unwrap();
        let scenarios = autocat_scenario::all()
            .into_iter()
            .chain(autocat_scenario::generate(1, 64));
        for scenario in scenarios {
            let path = scenario_path(&dir, &scenario.name);
            scenario.save(&path).unwrap();
            let loaded = Scenario::load(&path).unwrap();
            assert_eq!(
                spec_digest(&loaded),
                spec_digest(&scenario),
                "{}",
                scenario.name
            );
        }
    }

    #[test]
    fn resume_skips_only_matching_complete_artifacts() {
        let store = temp_store("resume");
        let scenario = tiny_scenario();
        assert!(
            !resume_complete(&store.lock().unwrap(), &scenario),
            "nothing trained yet"
        );

        train_one(&scenario, &store).unwrap();
        let store = store.into_inner().unwrap();
        assert!(resume_complete(&store, &scenario), "stored for this spec");

        // A different train spec (seed bump) must retrain.
        let mut reseeded = scenario.clone();
        reseeded.train.seed += 1;
        assert!(!resume_complete(&store, &reseeded), "spec changed");

        // A deleted object must retrain even though the index has an entry.
        let entry = store
            .lookup(&scenario.name, spec_digest(&scenario))
            .unwrap();
        std::fs::remove_file(store.object_path(entry.digest)).unwrap();
        assert!(!resume_complete(&store, &scenario), "checkpoint gone");
    }

    #[test]
    fn spec_digest_tracks_the_exact_train_spec() {
        let a = tiny_scenario();
        let mut b = tiny_scenario();
        assert_eq!(spec_digest(&a), spec_digest(&b), "identical scenarios");
        b.train.max_steps += 1;
        assert_ne!(spec_digest(&a), spec_digest(&b), "budget change re-keys");
    }
}
