//! The result record of a run and its JSON form (`results.json`).
//!
//! Schema `dynabench-results/1`: an environment block, the seed and
//! repeat counts, and per workload every metric as
//! `{median, q1, q3, n, unit}` plus the exact counts and the op-stream
//! digest. `compare` reads two of these files.

use crate::json::Json;
use crate::ops::OpsTally;
use crate::stats::Summary;

/// Schema tag written to (and required from) every results file.
pub const SCHEMA: &str = "dynabench-results/1";

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of `spec::END_TO_END` / `spec::PER_LAYER`).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, unit: &str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            summary,
        }
    }

    fn to_json(&self) -> (String, Json) {
        (
            self.name.clone(),
            Json::obj([
                ("median", Json::Num(self.summary.median)),
                ("q1", Json::Num(self.summary.q1)),
                ("q3", Json::Num(self.summary.q3)),
                ("n", Json::Num(self.summary.n as f64)),
                ("unit", Json::str(&self.unit)),
            ]),
        )
    }

    fn from_json(name: &str, v: &Json) -> Result<Metric, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` lacks number `{key}`"))
        };
        Ok(Metric {
            name: name.into(),
            unit: v
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}` lacks `unit`"))?
                .into(),
            summary: Summary {
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            },
        })
    }
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the correctness gate passed.
    pub correct: bool,
    /// Why it did not, one line per failed check.
    pub gate_failures: Vec<String>,
    /// Operations attempted (accepted + refused).
    pub attempted: u64,
    /// Operations failed (wedged + regularity-violating + refused).
    pub failed: u64,
    /// FNV digest of every key's op stream (fleet: the fleet digest).
    pub digest: u64,
    /// Repeat counts by phase (`setup`, `timed`, …).
    pub repeats: Vec<(String, usize)>,
    /// Exact simulated counts that must not differ between two runs of
    /// the same seed.
    pub counts: Vec<(String, u64)>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless the run was traced).
    pub per_layer: Vec<Metric>,
    /// The layer with the largest estimated share of `run_until_s`
    /// (traced runs only).
    pub owner: Option<String>,
}

impl WorkloadResult {
    /// An empty record for `name`, with the op counts taken from `ops`.
    pub fn new(name: &str, seed: u64, digest: u64, ops: &OpsTally) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            seed,
            correct: true,
            gate_failures: Vec::new(),
            attempted: ops.attempted(),
            failed: ops.failed(),
            digest,
            repeats: Vec::new(),
            counts: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            owner: None,
        }
    }

    /// Records the gate's verdict.
    pub fn set_gate(&mut self, failures: Vec<String>) {
        self.correct = failures.is_empty();
        self.gate_failures = failures;
    }

    /// The one-line object the benchmark driver reads: `correct`,
    /// `attempted`, `failed`, and either every end-to-end metric or (for a
    /// traced run) every per-layer metric as `{value, unit}`.
    pub fn driver_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.summary.median)),
                                    ("unit", Json::str(&m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let metrics = |ms: &[Metric]| Json::Obj(ms.iter().map(Metric::to_json).collect());
        Json::obj([
            ("name", Json::str(&self.name)),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct)),
            (
                "gate_failures",
                Json::Arr(self.gate_failures.iter().map(Json::str).collect()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("digest", Json::str(format!("{:#018x}", self.digest))),
            (
                "repeats",
                Json::Obj(
                    self.repeats
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
            ("owner", self.owner.as_ref().map_or(Json::Null, Json::str)),
        ])
    }

    /// Parses a record written by [`WorkloadResult::to_json`].
    pub fn from_json(v: &Json) -> Result<WorkloadResult, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload lacks `name`")?
            .to_string();
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("workload `{name}` lacks number `{key}`"))
        };
        let members = |key: &str| {
            v.get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("workload `{name}` lacks object `{key}`"))
        };
        let counts = |key: &str| -> Result<Vec<(String, f64)>, String> {
            members(key)?
                .iter()
                .map(|(k, n)| {
                    n.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("`{key}.{k}` of `{name}` is not a number"))
                })
                .collect()
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            members(key)?
                .iter()
                .map(|(k, m)| Metric::from_json(k, m))
                .collect()
        };
        let digest = v
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or_else(|| format!("workload `{name}` lacks a hex `digest`"))?;
        Ok(WorkloadResult {
            seed: num("seed")? as u64,
            correct: matches!(v.get("correct"), Some(Json::Bool(true))),
            gate_failures: v
                .get("gate_failures")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            digest,
            repeats: counts("repeats")?
                .into_iter()
                .map(|(k, n)| (k, n as usize))
                .collect(),
            counts: counts("counts")?
                .into_iter()
                .map(|(k, n)| (k, n as u64))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            owner: v.get("owner").and_then(Json::as_str).map(String::from),
            name,
        })
    }
}

/// Where and how a results file was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// Available parallelism (`dynareg_fleet::default_threads`).
    pub nproc: usize,
    /// Fleet worker threads used.
    pub threads: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_head: String,
}

impl Env {
    /// Probes the current machine and checkout.
    pub fn probe(threads: usize) -> Env {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        Env {
            nproc: dynareg_fleet::default_threads(),
            threads,
            rustc: run("rustc", &["-V"]),
            git_head: run("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// A whole results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// Machine and checkout.
    pub env: Env,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repeats per workload.
    pub seconds: f64,
    /// One record per workload run.
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    /// The file's JSON text.
    pub fn to_json_text(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "env",
                Json::obj([
                    ("nproc", Json::Num(self.env.nproc as f64)),
                    ("threads", Json::Num(self.env.threads as f64)),
                    ("rustc", Json::str(&self.env.rustc)),
                    ("git_head", Json::str(&self.env.git_head)),
                ]),
            ),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
        .pretty()
    }

    /// Parses a results file.
    pub fn from_json_text(text: &str) -> Result<Results, String> {
        let v = Json::parse(text)?;
        if v.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a `{SCHEMA}` file"));
        }
        let env = v.get("env").ok_or("results lack `env`")?;
        let env_str = |key: &str| {
            env.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("env lacks `{key}`"))
        };
        let env_num = |key: &str| {
            env.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("env lacks `{key}`"))
        };
        Ok(Results {
            env: Env {
                nproc: env_num("nproc")? as usize,
                threads: env_num("threads")? as usize,
                rustc: env_str("rustc")?,
                git_head: env_str("git_head")?,
            },
            seed: v
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("results lack `seed`")? as u64,
            seconds: v
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("results lack `seconds`")?,
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("results lack `workloads`")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}
