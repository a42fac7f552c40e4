//! The content-addressed checkpoint store: an `objects/` directory of
//! canonical binary blobs keyed by their FNV-1a content digest, plus a
//! JSON index mapping `(scenario name, train-spec digest)` to checkpoint
//! entries.
//!
//! ```text
//! <root>/
//!   objects/<16-hex digest>.ckpt.bin   # canonical binary checkpoint bytes
//!   index.json                         # entry list (scenario, spec, digests, meta)
//! ```
//!
//! Content addressing gives three properties the serving layer leans on:
//! identical training runs (same scenario + spec, the deterministic
//! engine) produce the *same object file* and deduplicate on disk; a
//! fetched object is verified against its digest, so on-disk corruption
//! is an error, never silently-wrong weights; and the index is pure
//! metadata — rebuildable, atomically rewritten, and the only thing a
//! [`Store::gc`] pass mutates besides deleting unreferenced objects.

use crate::codec;
use crate::retention::RetentionPolicy;
use autocat_nn::value::{self, req, u64_from, u64_value, Value};
use std::path::{Path, PathBuf};

/// Index format version written into `index.json`.
pub const INDEX_VERSION: i64 = 1;

/// Formats a digest the way the store names objects: 16 lowercase hex
/// digits.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a [`digest_hex`] digest.
///
/// # Errors
///
/// Returns an error on non-hexadecimal input.
pub fn digest_from_hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|_| format!("bad digest `{text}`"))
}

/// The wall-clock time in Unix seconds, for [`EntryMeta::created_unix`]
/// and [`Store::gc`]'s age rule: the one clock read of every process
/// that writes to a store (0 if the clock is before the epoch).
pub fn now_unix() -> u64 {
    // lint: allow(D2) -- store-entry `created_unix` is gc metadata, never digested
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Everything the index records about one stored checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreEntry {
    /// Scenario name the checkpoint was trained for.
    pub scenario: String,
    /// FNV-1a digest of the scenario's canonical JSON after overrides —
    /// the "train spec" half of the index key. Two submissions with
    /// different budgets/seeds/lane counts index separately.
    pub spec_digest: u64,
    /// Content digest of the canonical checkpoint bytes (the object key).
    pub digest: u64,
    /// `params_digest` of the checkpointed weights (the training
    /// bit-identity fingerprint).
    pub params_digest: u64,
    /// Environment steps trained.
    pub steps: u64,
    /// Evaluation accuracy recorded at store time (drives [`Store::best`]).
    pub accuracy: f64,
    /// Unix timestamp (seconds) the entry was recorded.
    pub created_unix: u64,
}

impl StoreEntry {
    /// Encodes the entry as a [`Value`] table — the form both the index
    /// file and the serve protocol's `fetch` response carry.
    pub fn to_value(&self) -> Value {
        let mut table = Value::table();
        table.set("scenario", Value::Str(self.scenario.clone()));
        table.set("spec_digest", Value::Str(digest_hex(self.spec_digest)));
        table.set("digest", Value::Str(digest_hex(self.digest)));
        table.set("params_digest", Value::Str(digest_hex(self.params_digest)));
        table.set("steps", u64_value(self.steps));
        table.set("accuracy", Value::Float(self.accuracy));
        table.set("created_unix", u64_value(self.created_unix));
        table
    }

    /// Decodes an entry written by [`StoreEntry::to_value`].
    ///
    /// # Errors
    ///
    /// Returns an error on missing keys or mistyped values.
    pub fn from_value(value: &Value) -> Result<StoreEntry, String> {
        let table = value.as_table()?;
        Ok(StoreEntry {
            scenario: req(table, "scenario")?.as_str()?.to_string(),
            spec_digest: digest_from_hex(req(table, "spec_digest")?.as_str()?)?,
            digest: digest_from_hex(req(table, "digest")?.as_str()?)?,
            params_digest: digest_from_hex(req(table, "params_digest")?.as_str()?)?,
            steps: u64_from(req(table, "steps")?)?,
            accuracy: req(table, "accuracy")?.as_f64()?,
            created_unix: u64_from(req(table, "created_unix")?)?,
        })
    }
}

/// Metadata for [`Store::put`] — a [`StoreEntry`] minus the content
/// digest, which the store computes from the bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct EntryMeta {
    /// Scenario name.
    pub scenario: String,
    /// Train-spec digest (see [`StoreEntry::spec_digest`]).
    pub spec_digest: u64,
    /// Weight digest (see [`StoreEntry::params_digest`]).
    pub params_digest: u64,
    /// Environment steps trained.
    pub steps: u64,
    /// Evaluation accuracy.
    pub accuracy: f64,
    /// Unix timestamp (seconds); passed in, not sampled, so gc tests and
    /// replayed imports stay deterministic.
    pub created_unix: u64,
}

/// What a [`Store::gc`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Index entries removed.
    pub removed_entries: usize,
    /// Object files deleted (entries can share objects; only unreferenced
    /// objects are deleted).
    pub removed_objects: usize,
    /// Index entries surviving the pass.
    pub kept_entries: usize,
}

/// The content-addressed checkpoint store. See the [module docs](self).
pub struct Store {
    root: PathBuf,
    entries: Vec<StoreEntry>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root` and loads its
    /// index.
    ///
    /// # Errors
    ///
    /// Returns an error if the directories cannot be created or the index
    /// is unreadable/malformed.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, String> {
        let root = root.into();
        let objects = root.join("objects");
        std::fs::create_dir_all(&objects)
            .map_err(|e| format!("creating {}: {e}", objects.display()))?;
        let index = root.join("index.json");
        let entries = if index.exists() {
            let text = std::fs::read_to_string(&index)
                .map_err(|e| format!("reading {}: {e}", index.display()))?;
            Self::entries_from_json(&text)
                .map_err(|e| format!("parsing {}: {e}", index.display()))?
        } else {
            Vec::new()
        };
        Ok(Self { root, entries })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the object holding `digest`'s canonical bytes.
    pub fn object_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("objects")
            .join(format!("{}.ckpt.bin", digest_hex(digest)))
    }

    /// All index entries, in insertion order.
    pub fn entries(&self) -> &[StoreEntry] {
        &self.entries
    }

    /// The newest entry for a scenario name (any spec).
    pub fn latest(&self, scenario: &str) -> Option<&StoreEntry> {
        self.entries.iter().rev().find(|e| e.scenario == scenario)
    }

    /// The best entry for a scenario name: highest recorded accuracy, ties
    /// broken toward the newest.
    pub fn best(&self, scenario: &str) -> Option<&StoreEntry> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.scenario == scenario)
            .max_by(|(i, a), (j, b)| {
                a.accuracy
                    .total_cmp(&b.accuracy)
                    .then(a.created_unix.cmp(&b.created_unix))
                    .then(i.cmp(j))
            })
            .map(|(_, e)| e)
    }

    /// The newest entry for an exact `(scenario, spec digest)` key — the
    /// lookup the resumable sweep and the daemon's cache hit use.
    pub fn lookup(&self, scenario: &str, spec_digest: u64) -> Option<&StoreEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.scenario == scenario && e.spec_digest == spec_digest)
    }

    /// The newest entry whose object is `digest` — the fetch-by-digest
    /// surface the serve protocol's host-independent `fetch` resolves
    /// through (entries can share an object; any of them describes it).
    pub fn find(&self, digest: u64) -> Option<&StoreEntry> {
        self.entries.iter().rev().find(|e| e.digest == digest)
    }

    /// Stores a checkpoint [`Value`] tree under `meta`, returning the
    /// content digest. The object write is skipped when the digest is
    /// already present (content addressing); an existing entry with the
    /// same `(scenario, spec digest, digest)` is refreshed in place
    /// instead of duplicated.
    ///
    /// # Errors
    ///
    /// Returns an error if the object or index cannot be written.
    pub fn put(&mut self, meta: EntryMeta, checkpoint: &Value) -> Result<u64, String> {
        self.put_bytes(meta, &codec::encode(checkpoint))
    }

    /// [`Store::put`] for already-encoded canonical bytes (the daemon's
    /// import path — no decode/re-encode round trip).
    ///
    /// # Errors
    ///
    /// Returns an error if `bytes` is not a framed binary document or a
    /// file cannot be written.
    pub fn put_bytes(&mut self, meta: EntryMeta, bytes: &[u8]) -> Result<u64, String> {
        // Reject junk imports up front: a store object must always decode.
        codec::decode(bytes).map_err(|e| format!("refusing to store undecodable bytes: {e}"))?;
        let digest = codec::content_digest(bytes);
        let path = self.object_path(digest);
        if !path.exists() {
            std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let entry = StoreEntry {
            scenario: meta.scenario,
            spec_digest: meta.spec_digest,
            digest,
            params_digest: meta.params_digest,
            steps: meta.steps,
            accuracy: meta.accuracy,
            created_unix: meta.created_unix,
        };
        match self.entries.iter_mut().find(|e| {
            e.scenario == entry.scenario
                && e.spec_digest == entry.spec_digest
                && e.digest == entry.digest
        }) {
            Some(existing) => *existing = entry,
            None => self.entries.push(entry),
        }
        self.save_index()?;
        Ok(digest)
    }

    /// Reads and digest-verifies an object's canonical bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if the object is missing or its bytes do not hash
    /// to `digest` (corruption — never returned silently).
    pub fn fetch_bytes(&self, digest: u64) -> Result<Vec<u8>, String> {
        let path = self.object_path(digest);
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let actual = codec::content_digest(&bytes);
        if actual != digest {
            return Err(format!(
                "digest mismatch on {}: file hashes to {}, index says {}",
                path.display(),
                digest_hex(actual),
                digest_hex(digest)
            ));
        }
        Ok(bytes)
    }

    /// Fetches and decodes an object into its checkpoint [`Value`] tree,
    /// after digest verification.
    ///
    /// # Errors
    ///
    /// Returns an error on a missing object, a digest mismatch or
    /// undecodable bytes.
    pub fn fetch(&self, digest: u64) -> Result<Value, String> {
        codec::decode(&self.fetch_bytes(digest)?)
    }

    /// The entries a gc pass under `policy` would remove at time `now`
    /// (Unix seconds) — the dry run behind [`Store::gc`].
    pub fn plan_gc(&self, policy: &RetentionPolicy, now_unix: u64) -> Vec<StoreEntry> {
        let mut drop: Vec<StoreEntry> = Vec::new();
        // Count survivors per scenario, newest first, among entries the
        // age rule and keep patterns leave eligible.
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        // Newest first; ties break toward the later index (later insert).
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.entries[i].created_unix),
                std::cmp::Reverse(i),
            )
        });
        let mut kept_per_scenario: std::collections::BTreeMap<&str, usize> = Default::default();
        for &i in &order {
            let entry = &self.entries[i];
            if policy.is_kept(&entry.scenario) {
                continue;
            }
            let age = now_unix.saturating_sub(entry.created_unix);
            if policy.too_old(age) {
                drop.push(entry.clone());
                continue;
            }
            let kept = kept_per_scenario
                .entry(entry.scenario.as_str())
                .or_insert(0);
            *kept += 1;
            if policy.max_count != 0 && *kept > policy.max_count {
                drop.push(entry.clone());
            }
        }
        drop
    }

    /// Applies `policy` at time `now` (Unix seconds): removes the planned
    /// entries from the index and deletes object files no surviving entry
    /// references.
    ///
    /// # Errors
    ///
    /// Returns an error if the index cannot be rewritten or an object
    /// cannot be deleted.
    pub fn gc(&mut self, policy: &RetentionPolicy, now_unix: u64) -> Result<GcStats, String> {
        let drop = self.plan_gc(policy, now_unix);
        if drop.is_empty() {
            return Ok(GcStats {
                kept_entries: self.entries.len(),
                ..GcStats::default()
            });
        }
        let dropped: std::collections::BTreeSet<(String, u64, u64)> = drop
            .iter()
            .map(|e| (e.scenario.clone(), e.spec_digest, e.digest))
            .collect();
        let before = self.entries.len();
        self.entries
            .retain(|e| !dropped.contains(&(e.scenario.clone(), e.spec_digest, e.digest)));
        let removed_entries = before - self.entries.len();
        let live: std::collections::BTreeSet<u64> = self.entries.iter().map(|e| e.digest).collect();
        let mut removed_objects = 0;
        for entry in &drop {
            if live.contains(&entry.digest) {
                continue;
            }
            let path = self.object_path(entry.digest);
            if path.exists() {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("deleting {}: {e}", path.display()))?;
                removed_objects += 1;
            }
        }
        self.save_index()?;
        Ok(GcStats {
            removed_entries,
            removed_objects,
            kept_entries: self.entries.len(),
        })
    }

    fn entries_from_json(text: &str) -> Result<Vec<StoreEntry>, String> {
        let root = value::from_json(text)?;
        let table = root.as_table()?;
        let version = req(table, "version")?.as_i64()?;
        if version != INDEX_VERSION {
            return Err(format!(
                "unsupported index version {version} (this build reads {INDEX_VERSION})"
            ));
        }
        req(table, "entries")?
            .as_array()?
            .iter()
            .map(StoreEntry::from_value)
            .collect()
    }

    fn save_index(&self) -> Result<(), String> {
        let mut root = Value::table();
        root.set("version", Value::Int(INDEX_VERSION));
        root.set(
            "entries",
            Value::Array(self.entries.iter().map(StoreEntry::to_value).collect()),
        );
        let path = self.root.join("index.json");
        let tmp = self.root.join("index.json.tmp");
        // Write-then-rename: a crash mid-write must never leave a torn
        // index behind (the objects it points at are append-only).
        std::fs::write(&tmp, value::to_json(&root))
            .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> Store {
        let dir = std::env::temp_dir().join("autocat-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn meta(scenario: &str, created: u64) -> EntryMeta {
        EntryMeta {
            scenario: scenario.to_string(),
            spec_digest: 0x1111,
            params_digest: 0x2222,
            steps: 512,
            accuracy: 0.5,
            created_unix: created,
        }
    }

    fn ckpt(tag: i64) -> Value {
        let mut table = Value::table();
        table.set("version", Value::Int(1));
        table.set("tag", Value::Int(tag));
        table
    }

    #[test]
    fn put_fetch_round_trips_with_digest_verification() {
        let mut store = temp_store("round-trip");
        let value = ckpt(7);
        let digest = store.put(meta("table4-6", 100), &value).unwrap();
        assert_eq!(store.fetch(digest).unwrap(), value);
        assert_eq!(store.entries().len(), 1);
        assert_eq!(store.latest("table4-6").unwrap().digest, digest);
        assert!(store.latest("absent").is_none());
    }

    #[test]
    fn corrupted_object_is_a_digest_mismatch_error() {
        let mut store = temp_store("corrupt");
        let digest = store.put(meta("table4-6", 100), &ckpt(7)).unwrap();
        let path = store.object_path(digest);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.fetch(digest).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        // A missing object is an error too (not a panic).
        assert!(store.fetch(digest ^ 0xdead).is_err());
    }

    #[test]
    fn index_survives_reopen_and_rejects_future_versions() {
        let root = {
            let mut store = temp_store("reopen");
            store.put(meta("table4-6", 100), &ckpt(1)).unwrap();
            store.put(meta("table4-7", 200), &ckpt(2)).unwrap();
            store.root().to_path_buf()
        };
        let store = Store::open(&root).unwrap();
        assert_eq!(store.entries().len(), 2);
        assert_eq!(store.latest("table4-7").unwrap().created_unix, 200);

        let index = root.join("index.json");
        let text = std::fs::read_to_string(&index).unwrap();
        std::fs::write(&index, text.replace("\"version\": 1", "\"version\": 99")).unwrap();
        let err = Store::open(&root).err().expect("future index version");
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn identical_content_deduplicates_and_refreshes() {
        let mut store = temp_store("dedup");
        let a = store.put(meta("table4-6", 100), &ckpt(1)).unwrap();
        let mut newer = meta("table4-6", 300);
        newer.accuracy = 0.9;
        let b = store.put(newer, &ckpt(1)).unwrap();
        assert_eq!(a, b, "same bytes, same object");
        assert_eq!(store.entries().len(), 1, "entry refreshed, not duplicated");
        assert_eq!(store.latest("table4-6").unwrap().created_unix, 300);

        // Same scenario, different spec: a second entry sharing the object.
        let mut other_spec = meta("table4-6", 400);
        other_spec.spec_digest = 0x9999;
        store.put(other_spec, &ckpt(1)).unwrap();
        assert_eq!(store.entries().len(), 2);
        assert_eq!(store.lookup("table4-6", 0x9999).unwrap().created_unix, 400);
        assert!(store.lookup("table4-6", 0x4444).is_none());
    }

    #[test]
    fn best_prefers_accuracy_then_recency() {
        let mut store = temp_store("best");
        let mut low = meta("table4-6", 300);
        low.accuracy = 0.4;
        low.spec_digest = 1;
        store.put(low, &ckpt(1)).unwrap();
        let mut high = meta("table4-6", 100);
        high.accuracy = 0.9;
        high.spec_digest = 2;
        store.put(high, &ckpt(2)).unwrap();
        assert_eq!(store.best("table4-6").unwrap().spec_digest, 2);
        assert_eq!(
            store.latest("table4-6").unwrap().spec_digest,
            2,
            "later insert"
        );

        let mut tie = meta("table4-6", 500);
        tie.accuracy = 0.9;
        tie.spec_digest = 3;
        store.put(tie, &ckpt(3)).unwrap();
        assert_eq!(
            store.best("table4-6").unwrap().spec_digest,
            3,
            "accuracy tie breaks toward the newest"
        );
    }

    #[test]
    fn find_resolves_objects_by_content_digest() {
        let mut store = temp_store("find");
        let digest = store.put(meta("table4-6", 100), &ckpt(1)).unwrap();
        let found = store.find(digest).unwrap();
        assert_eq!(found.scenario, "table4-6");
        assert!(store.find(digest ^ 1).is_none());
        // Value codec round trip (the form the fetch response ships).
        assert_eq!(StoreEntry::from_value(&found.to_value()).unwrap(), *found);
    }

    #[test]
    fn junk_bytes_are_refused_at_put() {
        let mut store = temp_store("junk");
        let err = store
            .put_bytes(meta("table4-6", 100), b"not a checkpoint")
            .unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert!(store.entries().is_empty());
    }

    #[test]
    fn gc_enforces_max_count_per_scenario() {
        let mut store = temp_store("gc-count");
        for (i, t) in [100u64, 200, 300].iter().enumerate() {
            let mut m = meta("table4-6", *t);
            m.spec_digest = i as u64;
            store.put(m, &ckpt(i as i64)).unwrap();
        }
        let mut other = meta("table4-7", 150);
        other.spec_digest = 77;
        store.put(other, &ckpt(100)).unwrap();

        let policy = RetentionPolicy::default().with_max_count(2);
        let planned = store.plan_gc(&policy, 1_000);
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].created_unix, 100, "oldest table4-6 entry goes");

        let stats = store.gc(&policy, 1_000).unwrap();
        assert_eq!(stats.removed_entries, 1);
        assert_eq!(stats.removed_objects, 1);
        assert_eq!(stats.kept_entries, 3);
        assert!(store.lookup("table4-6", 0).is_none());
        // Survivors still fetch.
        for entry in store.entries().to_vec() {
            store.fetch(entry.digest).unwrap();
        }
        // table4-7 (1 entry) was untouched by the per-scenario budget.
        assert!(store.latest("table4-7").is_some());
    }

    #[test]
    fn gc_enforces_max_age_and_keep_patterns() {
        let mut store = temp_store("gc-age");
        for (scenario, t, spec) in [
            ("table4-6", 100u64, 1u64),
            ("table4-6", 900, 2),
            ("defense-misscount", 50, 3),
        ] {
            let mut m = meta(scenario, t);
            m.spec_digest = spec;
            store.put(m, &ckpt(spec as i64)).unwrap();
        }
        // Horizon 500s at now=1000: the t=100 entry is too old, t=900
        // survives, and defense-* is pattern-exempt despite being oldest.
        let policy = RetentionPolicy::default()
            .with_max_age_secs(500)
            .keep("defense-*");
        let stats = store.gc(&policy, 1_000).unwrap();
        assert_eq!(stats.removed_entries, 1);
        assert_eq!(stats.kept_entries, 2);
        assert!(store.lookup("table4-6", 1).is_none());
        assert!(store.lookup("table4-6", 2).is_some());
        assert!(store.latest("defense-misscount").is_some());
    }

    #[test]
    fn gc_keeps_shared_objects_alive() {
        let mut store = temp_store("gc-shared");
        // Two entries, one object (identical checkpoint bytes).
        let mut a = meta("table4-6", 100);
        a.spec_digest = 1;
        let digest = store.put(a, &ckpt(42)).unwrap();
        let mut b = meta("table4-7", 200);
        b.spec_digest = 2;
        assert_eq!(store.put(b, &ckpt(42)).unwrap(), digest);

        // Age out only the older entry; the shared object must survive.
        let stats = store
            .gc(&RetentionPolicy::default().with_max_age_secs(500), 700)
            .unwrap();
        assert_eq!(stats.removed_entries, 1);
        assert_eq!(stats.removed_objects, 0, "object still referenced");
        assert_eq!(store.fetch(digest).unwrap(), ckpt(42));
    }

    #[test]
    fn unlimited_policy_removes_nothing() {
        let mut store = temp_store("gc-noop");
        store.put(meta("table4-6", 1), &ckpt(1)).unwrap();
        let stats = store.gc(&RetentionPolicy::default(), u64::MAX).unwrap();
        assert_eq!(
            stats,
            GcStats {
                removed_entries: 0,
                removed_objects: 0,
                kept_entries: 1
            }
        );
    }
}
