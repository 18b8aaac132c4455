//! End-to-end benchmark for Borges on the paper-scale synthetic world.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload build|refresh|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from `--seed` in a child process (so
//! input generation never counts toward the program's memory or time),
//! sets up, measures for about `--seconds`, checks every output against
//! a reference, and prints one JSON object as its last line. With
//! `--trace 1` it also times each public call it makes into the layers
//! and reports the per-layer split. See `perfbench/README.md`.

mod build;
mod host;
mod prepare;
mod refresh;
mod rng;
mod serve;
mod stats;
mod trace;

use borges_llm::{CachingModel, SimLlm};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;

/// The three workloads; see README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Build,
    Refresh,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Build, Workload::Refresh, Workload::Serve];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Refresh => "refresh",
            Workload::Serve => "serve",
        }
    }
}

/// Share of ASNs the `refresh` workload churns between T and T+1. An
/// assumption, not measured from real snapshot pairs.
pub const CHURN_PERCENT: f64 = 1.0;

/// Times each workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Fewest measured iterations a batch workload runs, however long each
/// takes, so `wall_s` is always a median.
pub const MIN_ITERATIONS: usize = 3;

/// The LLM seed `borges map` uses when no `--seed` is given.
const LLM_SEED: u64 = 20240724;

/// The model every pipeline run uses, fresh per run as in one CLI
/// invocation: the simulated LLM behind the CLI's response cache.
pub fn llm() -> CachingModel<SimLlm> {
    CachingModel::new(SimLlm::new(LLM_SEED))
}

pub fn sha256_hex(bytes: &[u8]) -> String {
    borges_store::sha256::hex(&borges_store::sha256::sha256(bytes))
}

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every traced run; a layer a workload
/// does not exercise reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synthnet.load_ms", "ms"),
    ("websim.crawl_ms", "ms"),
    ("websim.fetches", "count"),
    ("websim.cache_hit_ratio", "ratio"),
    ("ner.extract_ms", "ms"),
    ("llmsim.ner_calls", "count"),
    ("rr.infer_ms", "ms"),
    ("favicon.infer_ms", "ms"),
    ("llmsim.favicon_calls", "count"),
    ("pipeline.run_parallel_ms", "ms"),
    ("pipeline.compile_ms", "ms"),
    ("pipeline.edges", "count"),
    ("mapping.materialize_ms", "ms"),
    ("mapfile.serialize_ms", "ms"),
    ("mapfile.write_ms", "ms"),
    ("mapfile.bytes", "bytes"),
    ("store.to_world_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("delta.snapshot_ms", "ms"),
    ("delta.remap_ms", "ms"),
    ("delta.ner_reused", "count"),
    ("delta.ner_recomputed", "count"),
    ("delta.edges_retained_ratio", "ratio"),
    ("timeline.append_ms", "ms"),
    ("timeline.diff_ms", "ms"),
    ("timeline.delta_bytes", "bytes"),
    ("store.read_ms", "ms"),
    ("store.sha256_ms", "ms"),
    ("store.crc32_ms", "ms"),
    ("store.container_ms", "ms"),
    ("store.validate_ms", "ms"),
    ("store.payload_ms", "ms"),
    ("pipeline.replay_ms", "ms"),
    ("serve.bind_ms", "ms"),
    ("serve.warmup_ms", "ms"),
    ("serve.socket_floor_us", "us"),
    ("http.parse_us", "us"),
    ("serve.handle_us.map", "us"),
    ("serve.handle_us.org", "us"),
    ("serve.handle_us.coverage", "us"),
    ("serve.handle_us.healthz", "us"),
    ("serve.handle_us.evidence", "us"),
    ("http.render_us", "us"),
    ("serve.unexplained_us", "us"),
    ("core.evidence_us", "us"),
    ("serve.lru_hits", "count"),
    ("serve.lru_misses", "count"),
    ("serve.shed", "count"),
    ("client.lookup_p50_ms", "ms"),
    ("client.lookup_p99_ms", "ms"),
    ("client.lookup_rps", "1/s"),
    ("client.evidence_p50_ms", "ms"),
    ("client.evidence_p95_ms", "ms"),
    ("client.evidence_rps", "1/s"),
    ("run.stored_mb", "MB"),
    ("run.failed_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.bad_samples", "count"),
];

/// One reported number with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks, each passed or not.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics, plus the workload's own user-facing numbers
    /// (`stored_mb`, `lookup_p50_ms`, ...) printed alongside them.
    pub e2e: BTreeMap<String, (Value, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, Value>,
    /// Free-form report lines (trace accounting and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.e2e
            .insert(name.to_string(), (Value { value, samples }, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layers.insert(name, Value { value, samples });
    }

    /// Records the median of `values` as an end-to-end number.
    pub fn e2e_median(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        let median = stats::median(values).expect("a measured phase yields samples");
        self.e2e(name, unit, median, values.len());
    }

    /// Records, for each `(metric, span)`, the median duration of the
    /// spans named `span`, in the metric's declared unit (ms or µs).
    pub fn layer_spans(&mut self, spans: &[trace::Span], pairs: &[(&'static str, &str)]) {
        for &(metric, span) in pairs {
            let per_us = match PER_LAYER.iter().find(|(n, _)| *n == metric) {
                Some((_, "ms")) => 1e3,
                _ => 1.0,
            };
            let values: Vec<f64> = trace::durations_us(spans, span)
                .into_iter()
                .map(|us| us / per_us)
                .collect();
            self.layer_median(metric, &values);
        }
    }

    /// Records, for each `(metric, span, attr)`, the median of the
    /// attribute `attr` over the spans named `span`.
    pub fn layer_attrs(&mut self, spans: &[trace::Span], triples: &[(&'static str, &str, &str)]) {
        for &(metric, span, attr) in triples {
            self.layer_median(metric, &trace::attr_values(spans, span, attr));
        }
    }

    /// For a batch workload: the traced / untraced ratio of iteration
    /// medians, and the self-time account of the last traced `root`.
    pub fn trace_account(
        &mut self,
        spans: &[trace::Span],
        root: &str,
        walls: &[f64],
        traced_walls: &[f64],
    ) {
        let untraced = stats::median(walls).expect("untraced iterations ran");
        let traced = stats::median(traced_walls).expect("traced iterations ran");
        self.layer(
            "trace.overhead_ratio",
            traced / untraced,
            traced_walls.len(),
        );
        self.notes.extend(trace::account(spans, root, untraced));
    }

    /// Records the median of `values` (skipped when empty).
    pub fn layer_median(&mut self, name: &'static str, values: &[f64]) {
        if let Some(m) = stats::median(values) {
            self.layer(name, m, values.len());
        }
    }

    /// Records a named check over operations already counted.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records a whole-run output check that is itself one operation:
    /// attempted, and failed unless `ok`.
    pub fn check_op(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.check(name, ok);
    }
}

/// What a workload gets to run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub work: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Budget of one measured phase: all of `--seconds`, or half of it
    /// in a traced run, which measures an untraced and a traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.tracer.enabled() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Runs `iteration` until its iterations have taken `budget` seconds
/// and at least [`MIN_ITERATIONS`] have run. `reset` readies the inputs
/// before each iteration and `check` digests each iteration's output,
/// both outside the timed part. Returns each iteration's wall seconds
/// with its checked result.
pub fn timed_loop<T, U>(
    budget: f64,
    mut reset: impl FnMut() -> Result<(), String>,
    mut iteration: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(T) -> U,
) -> Result<Vec<(f64, U)>, String> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.len() < MIN_ITERATIONS || spent < budget {
        reset()?;
        let started = Instant::now();
        let result = iteration()?;
        let wall = started.elapsed().as_secs_f64();
        spent += wall;
        out.push((wall, check(result)));
    }
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    prepare_dir: Option<PathBuf>,
    setup_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: number("seed")?,
        seconds: seconds as f64,
        trace,
        prepare_dir: map.get("prepare-dir").map(PathBuf::from),
        setup_dir: map.get("setup-dir").map(PathBuf::from),
    })
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run(args: Args) -> Result<(), String> {
    let threads = host::cpus_online();
    if let Some(dir) = &args.prepare_dir {
        let workload = Workload::parse(&args.workload)
            .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
        return prepare::prepare(workload, args.seed, threads, dir);
    }
    if let Some(dir) = &args.setup_dir {
        let seconds = serve::setup_once(dir, threads)?;
        println!("{seconds}");
        return Ok(());
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = Workload::parse(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (build, refresh, serve, all)",
            args.workload
        )
    })?;

    let root = PathBuf::from(".perfbench");
    let work = root.join(format!(
        "run-{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    let results = root.join("results");
    for dir in [&work, &results] {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let outcome = prepare_child(workload, &args, &work).and_then(|()| {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            threads,
            work: work.clone(),
            tracer: Tracer::new(args.trace),
        };
        let mut outcome = match workload {
            Workload::Build => build::run(&ctx),
            Workload::Refresh => refresh::run(&ctx),
            Workload::Serve => serve::run(&ctx),
        }?;
        let frac = stats::failed_frac(outcome.attempted, outcome.failed);
        let attempts = outcome.attempted as usize;
        outcome.e2e("failed_frac", "ratio", frac, attempts);
        outcome.layer("run.failed_frac", frac, attempts);
        if ctx.tracer.enabled() {
            let spans = ctx.tracer.spans();
            let path = results.join(format!("{}-seed{}.spans.jsonl", workload.name(), args.seed));
            std::fs::write(&path, trace::to_jsonl(&spans))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            outcome.notes.push(format!(
                "spans: {} written to {}",
                spans.len(),
                path.display()
            ));
        }
        let inputs = std::fs::read_to_string(work.join("inputs.txt"))
            .map_err(|e| format!("read inputs: {e}"))?;
        Ok((outcome, inputs))
    });
    let _ = std::fs::remove_dir_all(&work);
    let (outcome, inputs) = outcome?;
    report(workload, &args, threads, &outcome, &inputs, &results)
}

/// Generates the workload's inputs in a child process.
fn prepare_child(workload: Workload, args: &Args, work: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .arg("--prepare-dir")
        .arg(work)
        .status()
        .map_err(|e| format!("spawn input generation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generation failed ({status})"))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the human report, writes the result file, and prints the
/// final JSON line.
fn report(
    workload: Workload,
    args: &Args,
    threads: usize,
    outcome: &Outcome,
    inputs: &str,
    results: &Path,
) -> Result<(), String> {
    let commit = host::git_commit();
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|(_, ok)| *ok);
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"run_seconds\":{},\"scale\":\"paper\",\
         \"cpus_online\":{threads},\"threads\":{threads},\"commit\":\"{commit}\",\"inputs\":{{",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let pairs: Vec<String> = inputs
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let _ = write!(record, "{}}},\"checks\":{{", pairs.join(","));
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok)| format!("\"{name}\":{ok}"))
        .collect();
    let _ = write!(
        record,
        "{}}},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.join(","),
        outcome.attempted,
        outcome.failed
    );
    let metric = |name: &str, v: &Value, unit: &str| {
        format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"samples\":{}}}",
            json_number(v.value),
            v.samples
        )
    };
    let mut all: Vec<String> = outcome
        .e2e
        .iter()
        .map(|(n, (v, u))| metric(n, v, u))
        .collect();
    all.extend(outcome.layers.iter().map(|(n, v)| {
        let unit = PER_LAYER
            .iter()
            .find(|(m, _)| m == n)
            .map_or("", |(_, u)| u);
        metric(n, v, unit)
    }));
    let _ = write!(record, "{}}}}}", all.join(","));
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    println!(
        "perfbench {} seed={} trace={} run_seconds={} cpus_online={threads} commit={commit}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("inputs: {}", inputs.lines().collect::<Vec<_>>().join(" "));
    for (name, ok) in &outcome.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, (v, unit)) in &outcome.e2e {
        println!("{name} = {:.6} {unit} (n={})", v.value, v.samples);
    }
    if args.trace {
        for (name, v) in &outcome.layers {
            println!("layer {name} = {:.6} (n={})", v.value, v.samples);
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("result: {}", path.display());

    let selected: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = outcome.layers.get(name).map_or(0.0, |v| v.value);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = outcome.e2e.get(*name).map_or(f64::NAN, |(v, _)| v.value);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        selected.join(",")
    );
    Ok(())
}

/// `--workload all`: runs every workload in turn as a child process and
/// passes its report through; fails if any workload's checks failed.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut incorrect = Vec::new();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        println!("{stdout}");
        if !output.status.success() {
            return Err(format!("{} failed ({})", workload.name(), output.status));
        }
        let last = stdout.lines().last().unwrap_or("");
        if !last.starts_with("{\"correct\":true") {
            incorrect.push(workload.name());
        }
    }
    if incorrect.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed on {}", incorrect.join(", ")))
    }
}
