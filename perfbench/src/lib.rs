//! End-to-end and per-layer benchmark of the ZKDET marketplace.
//!
//! One process runs one workload of [`spec::Workload`] for a fixed wall
//! time, checks every output, and prints a one-screen summary followed by
//! the contract's JSON line. With `trace = false` the JSON carries the
//! end-to-end metrics of [`spec::END_TO_END`]; with `trace = true` it
//! carries the per-layer metrics of [`spec::PER_LAYER`], from spans the
//! benchmark records around its own calls into each crate.

#![forbid(unsafe_code)]

pub mod calib;
pub mod probe;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkdet_telemetry::{Recorder, SpanGuard};

use calib::{Stopwatch, Timed};
use report::{RunResult, Series, Stamp};
use spec::Workload;
use stats::{median, Tally};

/// `(name, value, unit)` of each metric a run reports.
pub type Metrics = Vec<(String, f64, String)>;

/// Set-ups per run; `setup_s` reports the median bootstrap.
pub const SETUP_REPEATS: usize = 3;

/// Hottest program spans kept from the traced half's telemetry profile.
const PROFILE_ROWS: usize = 15;

/// The benchmark's own spans, on a `zkdet-telemetry` recorder of its
/// own. They are opened around the calls the benchmark makes into each
/// crate's public API, never inside the program; a span's layer is the
/// first segment of its name (`plonk` in `plonk.prove`), the crate it
/// calls into. While off, spans record nothing.
pub struct Spans {
    on: bool,
    recorder: Recorder,
}

impl Spans {
    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for later spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span named `name`; it ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if self.on {
            self.recorder.span(name)
        } else {
            SpanGuard::disabled()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn run<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Durations (ms) of every span called `name`, in open order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.recorder
            .finished_spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in ms, from the recorder's attribution.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for row in zkdet_telemetry::attribute(&self.recorder.finished_spans()) {
            let layer = row.name.split('.').next().unwrap_or(row.name);
            *out.entry(layer).or_insert(0.0) += row.self_time as f64 / 1e6;
        }
        out
    }
}

/// State shared by a workload's set-up, loop and probe.
pub struct Ctx {
    /// The workload's input generator, seeded from `--seed`.
    pub rng: StdRng,
    /// The workload seed.
    pub seed: u64,
    /// The benchmark's spans (off outside the traced half).
    pub spans: Spans,
    /// Attempted/failed operations.
    pub tally: Tally,
    /// Named samples for the summary, in first-recorded order.
    pub series: Vec<Series>,
    /// `(size class, seconds)` of each user operation behind `op_s`.
    pub ops: Vec<(usize, f64)>,
    /// Per-layer values that are not span durations (counts, ratios).
    pub layer: BTreeMap<&'static str, f64>,
    /// `VmHWM` once set-up and the first round of operations are done.
    pub round_rss_mb: Option<f64>,
}

impl Ctx {
    fn new(seed: u64) -> Ctx {
        Ctx {
            rng: StdRng::seed_from_u64(seed),
            seed,
            spans: Spans {
                on: false,
                recorder: Recorder::new(),
            },
            tally: Tally::default(),
            series: Vec::new(),
            ops: Vec::new(),
            layer: BTreeMap::new(),
            round_rss_mb: None,
        }
    }

    /// Appends one sample to the series `name`.
    pub fn sample(&mut self, name: &str, unit: &str, value: f64) {
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.samples.push(value),
            None => self.series.push(Series {
                name: name.to_string(),
                unit: unit.to_string(),
                samples: vec![value],
            }),
        }
    }

    /// Starts timing a call (see [`calib`]).
    pub fn watch(&self) -> Stopwatch {
        Stopwatch::start()
    }

    /// The host's kernel readings so far (see [`calib`]), in order.
    pub fn readings(&self) -> &[f64] {
        self.series
            .iter()
            .find(|s| s.name == "host_kernel_us")
            .map_or(&[], |s| &s.samples)
    }

    /// Stops timing a call and keeps the host's kernel reading around it.
    pub fn stop(&mut self, watch: Stopwatch) -> Timed {
        let (timed, kernel_us) = watch.stop();
        self.sample("host_kernel_us", "us", kernel_us);
        timed
    }

    /// Records a failed check or call as a failed operation.
    pub fn fail(&mut self, outcome: stats::Outcome, what: String) {
        self.tally.record(outcome, || what);
    }
}

/// `op_s` over a slice of operations: the median of each size class,
/// averaged over the classes present, so a run's mix of sizes does not
/// move the figure.
pub fn op_seconds(ops: &[(usize, f64)]) -> Option<f64> {
    let mut classes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (class, secs) in ops {
        classes.entry(*class).or_default().push(*secs);
    }
    let medians: Vec<f64> = classes.values().filter_map(|v| median(v)).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// A workload after set-up.
pub trait Bench {
    /// Runs one operation, checks its output, records its samples (its
    /// `op_s` sample in [`Ctx::ops`]), and returns the wall seconds it
    /// counts toward the measured window.
    fn step(&mut self, cx: &mut Ctx) -> f64;

    /// Re-issues the representative operation's lower-layer calls at the
    /// workload's sizes (inside spans) and fills workload-specific
    /// per-layer values. Returns the `(core step, re-issued spans)` pairs
    /// whose coverage the run reports.
    fn probe(&mut self, cx: &mut Ctx) -> Result<Vec<(&'static str, Vec<&'static str>)>, String>;

    /// Operations in one round of the workload's mix, in which every kind
    /// of operation it runs occurs.
    fn round(&self) -> usize {
        1
    }

    /// Whether `op_s` is scaled by the readings taken around the window's
    /// timed calls ([`calib::window_scale`]): for windows of many
    /// multi-second calls.
    fn scaled_by_window(&self) -> bool {
        false
    }
}

/// Runs operations until the next one (predicted to take as long as the
/// last) would overrun `seconds` of wall time; always at least one.
/// Reads `VmHWM` after the first round: the peak keeps creeping up with
/// every further operation (allocator fragmentation), and how many
/// operations a window holds depends on the host's speed.
fn run_window(bench: &mut dyn Bench, cx: &mut Ctx, seconds: f64) {
    let mut used = 0.0;
    let mut ops = 0;
    loop {
        let last = bench.step(cx);
        used += last;
        ops += 1;
        if ops == bench.round() && cx.round_rss_mb.is_none() {
            cx.round_rss_mb = report::peak_rss_mb();
        }
        if used + last > seconds {
            break;
        }
    }
}

/// Runs `workload` and returns its result. Set-up failures are `Err`;
/// failed operations and checks are counted in the result.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut cx = Ctx::new(seed);
    let (mut bench, setup_s) = workloads::setup(workload, &mut cx)?;

    let (metrics, profile) = if trace {
        let (metrics, profile) = traced(bench.as_mut(), &mut cx, seconds)?;
        (metrics, Some(profile))
    } else {
        let first = cx.readings().len();
        run_window(bench.as_mut(), &mut cx, seconds);
        let mut op_s = op_seconds(&cx.ops).ok_or("no operation completed")?;
        if bench.scaled_by_window() {
            let scale = calib::window_scale(&cx.readings()[first..])
                .ok_or("no host reading in the window")?;
            cx.sample("window_scale", "ratio", scale);
            op_s *= scale;
        }
        let rss = cx
            .round_rss_mb
            .or_else(report::peak_rss_mb)
            .ok_or("VmHWM unavailable")?;
        cx.sample("peak_rss_mb", "MB", rss);
        let metrics = vec![
            ("setup_s".to_string(), setup_s, "s".to_string()),
            ("op_s".to_string(), op_s, "s".to_string()),
            ("peak_rss_mb".to_string(), rss, "MB".to_string()),
        ];
        (metrics, None)
    };
    Ok(RunResult {
        stamp: Stamp::current(workload.name(), seed, trace),
        correct: cx.tally.failed == 0,
        tally: cx.tally,
        metrics,
        series: cx.series,
        profile,
    })
}

/// The traced run: half the window untraced, half traced (with the
/// program's own telemetry recorder on too), then the layer probe.
fn traced(bench: &mut dyn Bench, cx: &mut Ctx, seconds: f64) -> Result<(Metrics, String), String> {
    run_window(bench, cx, seconds / 2.0);
    let split = cx.ops.len();
    cx.spans.set_on(true);
    zkdet_telemetry::reset();
    zkdet_telemetry::enable();
    run_window(bench, cx, seconds / 2.0);
    zkdet_telemetry::disable();
    let telemetry = zkdet_telemetry::snapshot();
    // The program's own spans: where the traced half's time went, below
    // the calls the benchmark can see.
    let profile = zkdet_telemetry::render_attribution(
        &zkdet_telemetry::attribute(&telemetry.spans),
        PROFILE_ROWS,
        false,
    );

    let untraced = op_seconds(&cx.ops[..split]).ok_or("no untraced operation")?;
    let traced = op_seconds(&cx.ops[split..]).ok_or("no traced operation")?;
    cx.layer
        .insert("trace.overhead_ratio", traced / untraced - 1.0);
    let counter = |name: &str| {
        telemetry
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v) as f64
    };
    let fetches = counter("zkdet.storage.retrieve.calls");
    if fetches > 0.0 {
        cx.layer.insert(
            "storage.attempts_per_fetch",
            counter("zkdet.storage.retrieve.attempts") / fetches,
        );
    }
    cx.layer
        .insert("storage.hedges", counter("zkdet.storage.retrieve.hedges"));
    cx.layer.insert(
        "storage.repaired_shares",
        counter("zkdet.storage.repair.shares_restored"),
    );

    let probe_start = Instant::now();
    let steps = bench.probe(cx)?;
    cx.sample("probe_s", "s", probe_start.elapsed().as_secs_f64());
    let (mut covered, mut total) = (0.0, 0.0);
    for (step, calls) in &steps {
        // The probe re-issues the last operation's calls at its sizes, so
        // it is compared with that operation's step.
        let step_ms = cx.spans.durations_ms(step).last().copied().unwrap_or(0.0);
        let calls_ms: f64 = calls
            .iter()
            .filter_map(|c| cx.spans.durations_ms(c).last().copied())
            .sum();
        if step_ms > 0.0 {
            cx.sample(&format!("coverage.{step}"), "ratio", calls_ms / step_ms);
            covered += calls_ms;
            total += step_ms;
        }
    }
    if total > 0.0 {
        cx.layer.insert("trace.coverage", covered / total);
    }
    Ok((per_layer(cx), profile))
}

/// Span name → per-layer metric, with the factor from ms to its unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("field.batch_inv", "field.batch_inv_ms", 1.0),
    ("poly.fft.pi_e", "poly.fft_ms.pi_e", 1.0),
    ("poly.coset_fft.pi_e", "poly.coset_fft_ms.pi_e", 1.0),
    ("poly.fft.pi_p", "poly.fft_ms.pi_p", 1.0),
    ("poly.coset_fft.pi_p", "poly.coset_fft_ms.pi_p", 1.0),
    ("curve.msm.pi_e", "curve.msm_ms.pi_e", 1.0),
    ("curve.msm.pi_p", "curve.msm_ms.pi_p", 1.0),
    ("curve.pairing", "curve.pairing_ms", 1.0),
    ("kzg.commit.pi_e", "kzg.commit_ms.pi_e", 1.0),
    ("kzg.setup", "kzg.setup_s", 1e-3),
    ("plonk.preprocess.pi_e", "plonk.preprocess_ms.pi_e", 1.0),
    ("plonk.preprocess.pi_p", "plonk.preprocess_ms.pi_p", 1.0),
    ("plonk.preprocess.pi_k", "plonk.preprocess_ms.pi_k", 1.0),
    ("plonk.prove.pi_e", "plonk.prove_ms.pi_e", 1.0),
    ("plonk.prove.pi_p", "plonk.prove_ms.pi_p", 1.0),
    ("plonk.prove.pi_k", "plonk.prove_ms.pi_k", 1.0),
    ("plonk.verify.pi_p", "plonk.verify_ms", 1.0),
    ("circuits.synth.pi_e", "circuits.synth_ms.pi_e", 1.0),
    ("circuits.synth.pi_p", "circuits.synth_ms.pi_p", 1.0),
    ("circuits.synth.pi_k", "circuits.synth_ms.pi_k", 1.0),
    ("crypto.poseidon_commit", "crypto.poseidon_commit_us", 1e3),
    ("storage.publish", "storage.publish_ms", 1.0),
    ("storage.fetch", "storage.fetch_ms", 1.0),
    ("chain.verify_tx", "chain.verify_tx_ms", 1.0),
    ("chain.mine_block", "chain.mine_block_us", 1e3),
    ("core.publish", "core.publish_ms", 1.0),
    ("core.list", "core.list_ms", 1.0),
    ("core.validation_package", "core.validation_package_ms", 1.0),
    ("core.validate_lock", "core.validate_lock_ms", 1.0),
    ("core.settle", "core.settle_ms", 1.0),
    ("core.buyer_recover", "core.buyer_recover_ms", 1.0),
    ("core.restart_recover", "core.restart_recover_ms", 1.0),
    ("core.audit_cold", "core.audit_cold_ms", 1.0),
    ("core.audit_warm", "core.audit_warm_ms", 1.0),
    ("core.run_load", "core.run_load_s", 1e-3),
];

/// Assembles every per-layer metric: span medians, derived values, layer
/// self times; anything the workload does not exercise reads 0.
fn per_layer(cx: &mut Ctx) -> Metrics {
    let t = &cx.spans;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, metric, factor) in SPAN_METRICS {
        if let Some(ms) = median(&t.durations_ms(span)) {
            values.insert(metric, ms * factor);
        }
    }
    if let Some(ms) = t.durations_ms("field.fr_mul").last() {
        values.insert("field.fr_mul_ns", ms * 1e6 / f64::from(probe::FR_MUL_CHAIN));
    }
    if let Some(ms) = t.durations_ms("plonk.batch_verify").last() {
        values.insert("plonk.batch_verify_ms_per_proof", ms / 3.0);
    }
    for (layer, ms) in t.self_ms_by_layer() {
        if spec::LAYERS.contains(&layer) {
            values.insert(self_metric(layer), ms);
        }
    }
    for (name, v) in &cx.layer {
        values.insert(name, *v);
    }
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), v, m.unit.to_string())
        })
        .collect()
}

fn self_metric(layer: &str) -> &'static str {
    spec::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_suffix(".self_ms") == Some(layer))
        .unwrap_or("core.self_ms")
}
