//! One repeatable benchmark for the vertical-power-delivery system:
//! the `vpd` CLI's paper-reproduction path (`cli-repro`) and `vpd
//! serve` traffic that the scenario cache serves (`serve-hot`) or
//! cannot serve (`serve-churn`).
//!
//! An untraced run reports the end-to-end metrics, whose times are CPU
//! times (see [`cpu`]; wall-clock figures stay in the run record); a
//! traced run (`--trace
//! 1`) records the benchmark's own spans around each call into a layer's
//! public functions, enables `vpd_obs`, and reports per-layer metrics.
//! Every run audits its outputs and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare OLD NEW
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod cli;
pub mod compare;
pub mod cpu;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod streams;
pub mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use vpd_report::Json;

use crate::report::Report;
use crate::serve::Mix;
use crate::trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["cli-repro", "serve-hot", "serve-churn"];

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Repository root (holds the workspace `Cargo.toml`).
    pub root: PathBuf,
    /// Where results, spans and scratch files go.
    pub out_dir: PathBuf,
}

/// The repository root this benchmark was built from.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a over the program's sources (paths and contents, in sorted
/// order): identifies the code measured when no commit is available.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["src", "crates"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", vpd_scenario::fnv1a64(&bytes))
}

/// Commit, source hash, CPU count and model, and compiler version.
#[must_use]
pub fn provenance(root: &Path) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    vec![
        (
            "commit",
            Json::from(
                command_line("git", &["rev-parse", "HEAD"], root)
                    .unwrap_or_else(|| "unavailable (not a git checkout)".to_owned()),
            ),
        ),
        ("source_fnv64", Json::from(source_hash(root))),
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu)),
        (
            "rustc",
            Json::from(command_line(&rustc, &["-V"], root).unwrap_or_else(|| "unknown".to_owned())),
        ),
    ]
}

/// Per-layer metrics derived from `vpd_obs` counters per operation.
fn counter_metrics(report: &mut Report) {
    let c = |k: &str| report.counters.get(k).copied().unwrap_or(0.0);
    let cg = if c("cg.solves") > 0.0 {
        c("cg.iterations") / c("cg.solves")
    } else {
        0.0
    };
    let values = [
        ("circuit.restamps_per_op", c("plan.restamps")),
        ("circuit.solves_per_op", c("plan.solves")),
        ("circuit.grid_compiles_per_op", c("grid.plan_compiles")),
        ("numeric.cg_iters_per_solve", cg),
        (
            "numeric.fallbacks_per_op",
            c("faults.fallbacks") + c("plan.direct_factor_failures"),
        ),
    ];
    for (name, v) in values {
        report.metric(name, v, "count");
    }
}

/// Runs one workload and returns its report.
///
/// # Panics
///
/// On an unknown workload, or when the program cannot be built or
/// started at all.
pub fn run(opts: &Opts) -> (Report, Tracer) {
    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    let mut report = Report::default();
    let mut tracer = Tracer::new(opts.trace);
    let cli_repro = opts.workload == "cli-repro";
    let vpd = (cli_repro || opts.trace).then(|| cli::build_vpd(&opts.root));
    let wall = Instant::now();
    tracer.enter("bench", &opts.workload);
    if opts.trace && cli_repro {
        // Before the workload, whose own `report.*` figures (the CLI's
        // documents) replace the probe's.
        serve::probe(opts.seed, &mut tracer, &mut report);
    }
    match opts.workload.as_str() {
        "cli-repro" => {
            let vpd = vpd.as_deref().expect("vpd was built");
            cli::run(opts, vpd, &mut tracer, &mut report);
        }
        "serve-hot" => serve::run(Mix::Hot, opts, &mut tracer, &mut report),
        "serve-churn" => serve::run(Mix::Churn, opts, &mut tracer, &mut report),
        other => panic!("unknown workload `{other}`"),
    }
    if opts.trace {
        if !cli_repro {
            let vpd = vpd.as_deref().expect("vpd was built");
            cli::probe(vpd, opts.seed, &mut tracer, &mut report);
        }
        let docs: Vec<String> = if opts.workload == "serve-churn" {
            (0..10)
                .map(|i| streams::churn_doc(opts.seed, 2, 2 * i + 1))
                .collect()
        } else {
            vpd_scenario::builtin_docs()
                .iter()
                .map(|(_, text)| (*text).to_owned())
                .collect()
        };
        tracer.enter("bench", "probes");
        probes::scenario(&docs, &mut tracer, &mut report);
        probes::core(&mut tracer, &mut report);
        probes::circuit(&mut tracer, &mut report);
        probes::numeric(&mut tracer, &mut report);
        tracer.exit();
        counter_metrics(&mut report);
    }
    tracer.exit();
    report.note("wall_s", wall.elapsed().as_secs_f64());
    if opts.trace {
        for (layer, ms) in tracer.self_ms() {
            report.metric(&format!("span.self_ms.{layer}"), ms, "ms");
        }
    }
    (report, tracer)
}
