//! Run results: the hardware stamp, the result file, the one-screen
//! summary, the contract's last output line, and stamp-checked
//! comparison of two result files.

use std::fmt::Write as _;

use zkdet_telemetry::Value;

use crate::stats::{median, summarize, Tally};

/// Change in the host's kernel reading (see [`crate::calib`]) beyond
/// which [`compare`] warns that two results' wall times are not
/// comparable.
pub const HOST_DRIFT_WARN: f64 = 0.10;

/// What a result was measured on. Two results compare only when every
/// field matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run was the traced one.
    pub trace: bool,
    /// Cores the process may use (`available_parallelism`).
    pub cores: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Build profile of the benchmark binary.
    pub profile: String,
}

impl Stamp {
    /// The stamp of this process.
    pub fn current(workload: &str, seed: u64, trace: bool) -> Stamp {
        Stamp {
            workload: workload.to_string(),
            seed,
            trace,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }

    /// Fields on which two stamps differ, as `field: a != b` lines.
    pub fn differences(&self, other: &Stamp) -> Vec<String> {
        let mut out = Vec::new();
        let mut cmp = |field: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{field}: {a} != {b}"));
            }
        };
        cmp("workload", self.workload.clone(), other.workload.clone());
        cmp("seed", self.seed.to_string(), other.seed.to_string());
        cmp("trace", self.trace.to_string(), other.trace.to_string());
        cmp("cores", self.cores.to_string(), other.cores.to_string());
        cmp("cpu_model", self.cpu_model.clone(), other.cpu_model.clone());
        cmp("profile", self.profile.clone(), other.profile.clone());
        out
    }

    fn to_json(&self) -> Value {
        Value::object()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("trace", self.trace)
            .with("cores", self.cores as u64)
            .with("cpu_model", self.cpu_model.as_str())
            .with("profile", self.profile.as_str())
    }

    fn from_json(v: &Value) -> Option<Stamp> {
        Some(Stamp {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            trace: matches!(v.get("trace")?, Value::Bool(true)),
            cores: v.get("cores")?.as_u64()? as usize,
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            profile: v.get("profile")?.as_str()?.to_string(),
        })
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A named sample series (one value per operation).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Name, e.g. `publish_s`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Samples in the order taken.
    pub samples: Vec<f64>,
}

/// Everything one run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// What the run was measured on.
    pub stamp: Stamp,
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Attempted/failed operations.
    pub tally: Tally,
    /// The contract's metrics for this mode: `(name, value, unit)`.
    pub metrics: crate::Metrics,
    /// Per-operation samples behind the summary table.
    pub series: Vec<Series>,
    /// Traced runs: the program's own telemetry profile (self time per
    /// span name) over the traced half.
    pub profile: Option<String>,
}

impl RunResult {
    /// The contract's last line of standard output.
    pub fn contract_line(&self) -> String {
        let mut metrics = Value::object();
        for (name, value, unit) in &self.metrics {
            metrics.set(
                name,
                Value::object()
                    .with("value", Value::Float(*value))
                    .with("unit", unit.as_str()),
            );
        }
        Value::object()
            .with("correct", self.correct)
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with("metrics", metrics)
            .encode()
    }

    /// The result file: stamp, contract fields and every sample.
    pub fn to_json(&self) -> Value {
        let mut series = Value::object();
        for s in &self.series {
            series.set(
                &s.name,
                Value::object().with("unit", s.unit.as_str()).with(
                    "samples",
                    Value::Array(s.samples.iter().map(|v| Value::Float(*v)).collect()),
                ),
            );
        }
        let mut metrics = Value::object();
        for (name, value, unit) in &self.metrics {
            metrics.set(
                name,
                Value::object()
                    .with("value", Value::Float(*value))
                    .with("unit", unit.as_str()),
            );
        }
        Value::object()
            .with("schema", "zkdet-perfbench-v1")
            .with("stamp", self.stamp.to_json())
            .with("correct", self.correct)
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with(
                "failures",
                Value::Array(
                    self.tally
                        .failures
                        .iter()
                        .map(|f| f.as_str().into())
                        .collect(),
                ),
            )
            .with("metrics", metrics)
            .with("series", series)
            .with(
                "profile",
                self.profile.as_deref().map_or(Value::Null, Value::from),
            )
    }

    /// Parses a result file written by [`RunResult::to_json`].
    pub fn from_json(v: &Value) -> Option<RunResult> {
        let num = |v: &Value| match v {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        };
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                Some((
                    name.clone(),
                    num(m.get("value")?)?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let series = v
            .get("series")?
            .as_object()?
            .iter()
            .map(|(name, s)| {
                Some(Series {
                    name: name.clone(),
                    unit: s.get("unit")?.as_str()?.to_string(),
                    samples: s
                        .get("samples")?
                        .as_array()?
                        .iter()
                        .map(num)
                        .collect::<Option<Vec<_>>>()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            stamp: Stamp::from_json(v.get("stamp")?)?,
            correct: matches!(v.get("correct")?, Value::Bool(true)),
            tally: Tally {
                attempted: v.get("attempted")?.as_u64()?,
                failed: v.get("failed")?.as_u64()?,
                failures: v
                    .get("failures")?
                    .as_array()?
                    .iter()
                    .map(|f| f.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()?,
            },
            metrics,
            series,
            profile: v.get("profile").and_then(Value::as_str).map(str::to_string),
        })
    }

    /// The one-screen summary: stamp, then metric / unit / median /
    /// quartiles / samples for every series, then the contract metrics.
    pub fn summary(&self) -> String {
        let s = &self.stamp;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== workload {} | seed {} | trace {} | {} cores | {} | {} build",
            s.workload, s.seed, s.trace as u8, s.cores, s.cpu_model, s.profile
        );
        let _ = writeln!(
            out,
            "{:<30} {:>6} {:>12} {:>12} {:>12} {:>5}  tail",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for series in &self.series {
            let Some(sum) = summarize(&series.samples) else {
                continue;
            };
            let tail = sum
                .tail
                .map(|(p, v)| format!("p{p}={}", fmt_num(v)))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:<30} {:>6} {:>12} {:>12} {:>12} {:>5}  {tail}",
                series.name,
                series.unit,
                fmt_num(sum.median),
                fmt_num(sum.q1),
                fmt_num(sum.q3),
                sum.n
            );
        }
        let _ = writeln!(
            out,
            "{:<30} {:>6} {:>12}   ({} attempted, {} failed)",
            "fail_ratio",
            "ratio",
            fmt_num(self.tally.fail_ratio()),
            self.tally.attempted,
            self.tally.failed
        );
        for f in &self.tally.failures {
            let _ = writeln!(out, "  failure: {f}");
        }
        if let Some(profile) = &self.profile {
            let _ = writeln!(out, "-- program telemetry profile of the traced half");
            out.push_str(profile);
        }
        let _ = writeln!(
            out,
            "-- contract metrics ({})",
            if s.trace { "per-layer" } else { "end-to-end" }
        );
        for (name, value, unit) in &self.metrics {
            let note = crate::spec::find(name).map_or("", |m| m.note);
            let _ = writeln!(out, "{name:<34} {:>14} {unit:<6} {note}", fmt_num(*value));
        }
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Compares two results metric by metric. Refuses (returns `Err` with the
/// reasons) when their stamps differ: figures from another machine, build
/// or seed are not comparable. Warns when the host's kernel reading moved
/// by more than [`HOST_DRIFT_WARN`]. `bound(name)` gives each metric's
/// regression bound, if it has one.
pub fn compare(
    old: &RunResult,
    new: &RunResult,
    bound: impl Fn(&str) -> Option<f64>,
) -> Result<String, Vec<String>> {
    let diffs = old.stamp.differences(&new.stamp);
    if !diffs.is_empty() {
        return Err(diffs);
    }
    let mut out = String::new();
    let host = |r: &RunResult| {
        r.series
            .iter()
            .find(|s| s.name == "host_kernel_us")
            .and_then(|s| median(&s.samples))
    };
    if let (Some(a), Some(b)) = (host(old), host(new)) {
        if (b / a - 1.0).abs() > HOST_DRIFT_WARN {
            let _ = writeln!(
                out,
                "warning: host kernel reading moved {:+.1}% ({a:.1} -> {b:.1} us); wall times differ with it, scaled metrics (setup_s, op_s) should not",
                (b / a - 1.0) * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "old", "new", "change", "bound"
    );
    for (name, new_v, unit) in &new.metrics {
        let Some((_, old_v, _)) = old.metrics.iter().find(|(n, _, _)| n == name) else {
            let _ = writeln!(
                out,
                "{name:<34} {:>14} {:>14}  new metric",
                "-",
                fmt_num(*new_v)
            );
            continue;
        };
        let better = crate::spec::find(name).map(|m| m.better);
        let change = if *old_v != 0.0 {
            new_v / old_v - 1.0
        } else {
            0.0
        };
        let worse = match better {
            Some(crate::spec::Better::Higher) => -change,
            _ => change,
        };
        let b = bound(name);
        let verdict = match b {
            Some(b) if worse > b => "REGRESSION",
            Some(_) => "ok",
            None => "-",
        };
        let _ = writeln!(
            out,
            "{name:<34} {:>14} {:>14} {:>+8.1}% {:>7}  {verdict} [{unit}]",
            fmt_num(*old_v),
            fmt_num(*new_v),
            change * 100.0,
            b.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    Ok(out)
}
