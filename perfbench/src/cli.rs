//! `cli-repro`: a closed loop over the paper-reproduction command list,
//! one `vpd --format json` process at a time.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::audit;
use crate::cpu;
use crate::report::Report;
use crate::stats::{median, sorted, tail};
use crate::streams::{cli_commands, CliCmd};
use crate::trace::Tracer;
use crate::Opts;
use vpd_report::Json;

/// Set-up passes; `setup_s` is their median.
const SETUP_PASSES: usize = 5;
/// Fewest timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One finished `vpd` process.
pub struct Run {
    /// Exit status was success.
    pub ok: bool,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Captured stderr.
    pub stderr: Vec<u8>,
    /// Wall time from spawn to reap, seconds.
    pub secs: f64,
    /// User plus system CPU time of the process, seconds (its wall
    /// time where unmeasurable).
    pub cpu_s: f64,
    /// Peak resident set of the process, MiB (0 where unmeasurable).
    pub peak_rss_mb: f64,
}

/// Runs `vpd --format json [extra...] <args>` to completion.
///
/// # Panics
///
/// If the process cannot be spawned or its pipes read.
#[must_use]
pub fn run_vpd(vpd: &Path, extra: &[String], args: &[String]) -> Run {
    let start = Instant::now();
    let mut child = Command::new(vpd)
        .arg("--format")
        .arg("json")
        .args(extra)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vpd");
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut stdout)
        .expect("read vpd stdout");
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_end(&mut stderr)
        .expect("read vpd stderr");
    let (ok, peak_rss_mb, cpu_s) = reap(child);
    let secs = start.elapsed().as_secs_f64();
    Run {
        ok,
        stdout,
        stderr,
        secs,
        cpu_s: cpu_s.unwrap_or(secs),
        peak_rss_mb,
    }
}

/// Waits for `child` and returns (success, peak RSS in MiB, CPU
/// seconds). On 64-bit Linux the peak and CPU time come from `wait4`'s
/// resource usage of that one child; elsewhere they read 0 and `None`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn reap(child: std::process::Child) -> (bool, f64, Option<f64>) {
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
    }
    let pid = i32::try_from(child.id()).expect("pid fits i32");
    // `struct rusage` on 64-bit Linux: two timevals (4 longs), then 14
    // longs starting with ru_maxrss in KiB.
    let mut usage = [0i64; 18];
    let mut status = 0i32;
    // SAFETY: `pid` is our own unreaped child (std never waited on it),
    // and both out-pointers are to live, properly sized locals that
    // outlive the call.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(rc, pid, "wait4 on vpd child failed");
    // Drop without waiting: the process is already reaped.
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    (
        exited_zero,
        usage[4] as f64 / 1024.0,
        Some(cpu::rusage_s(&usage)),
    )
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn reap(mut child: std::process::Child) -> (bool, f64, Option<f64>) {
    let status = child.wait().expect("wait for vpd");
    (status.success(), 0.0, None)
}

/// Builds the `vpd` binary from the checkout's sources into the same
/// target directory as this benchmark, and returns its path.
///
/// # Panics
///
/// If cargo fails.
#[must_use]
pub fn build_vpd(root: &Path) -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let profile_dir = exe.parent().expect("executable directory");
    let target_dir = profile_dir.parent().expect("target directory");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned()))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "vpd"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .expect("run cargo build for vpd");
    assert!(status.success(), "building vpd failed");
    profile_dir.join("vpd")
}

/// Checks a command's stdout against the set-up pass's, byte for byte.
#[must_use]
pub fn check_stdout(
    reference: &BTreeMap<String, Vec<u8>>,
    cmd: &CliCmd,
    stdout: &[u8],
) -> Option<String> {
    match reference.get(&cmd.name) {
        Some(want) if want.as_slice() == stdout => None,
        Some(_) => Some(format!(
            "vpd {} stdout differs from the set-up pass",
            cmd.args.join(" ")
        )),
        None => Some(format!("vpd {} has no set-up output", cmd.args.join(" "))),
    }
}

struct Pass {
    secs: f64,
    /// CPU seconds of the `vpd` processes and of this process's
    /// spawning and reading.
    cpu_s: f64,
    /// Commands that exited zero with the expected output.
    ok: usize,
    /// Each command's name, wall seconds and CPU seconds.
    cmds: Vec<(String, f64, f64)>,
}

/// Runs one pass over `list`, auditing each command against `reference`
/// (when given), and returns its timing.
fn pass(
    vpd: &Path,
    extra: &[String],
    list: &[CliCmd],
    reference: Option<&BTreeMap<String, Vec<u8>>>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Pass, BTreeMap<String, Vec<u8>>) {
    let (start, cpu0) = (Instant::now(), cpu::process_s());
    let mut children_cpu = 0.0;
    let mut cmds = Vec::with_capacity(list.len());
    let mut ok = 0;
    let mut outputs = BTreeMap::new();
    for c in list {
        let t0 = Instant::now();
        let run = run_vpd(vpd, extra, &c.args);
        tracer.record("cli", &c.name, t0, Instant::now());
        report.attempted += 1;
        report.peak_rss_mb = report.peak_rss_mb.max(run.peak_rss_mb);
        let failed = report.failed;
        if !run.ok {
            report.fail(format!(
                "vpd {} exited non-zero: {}",
                c.args.join(" "),
                String::from_utf8_lossy(&run.stderr).trim()
            ));
        } else if let Some(msg) = reference.and_then(|r| check_stdout(r, c, &run.stdout)) {
            report.fail(msg);
        }
        ok += usize::from(report.failed == failed);
        children_cpu += run.cpu_s;
        cmds.push((c.name.clone(), run.secs, run.cpu_s));
        outputs.insert(c.name.clone(), run.stdout);
    }
    (
        Pass {
            secs: start.elapsed().as_secs_f64(),
            cpu_s: cpu::process_s() - cpu0 + children_cpu,
            ok,
            cmds,
        },
        outputs,
    )
}

/// The set-up pass's paper checks: figure-7 shape on `matrix`, and the
/// vertical-loss claim on every `analyze`.
fn paper_checks(reference: &BTreeMap<String, Vec<u8>>, report: &mut Report) {
    for (name, out) in reference {
        let text = String::from_utf8_lossy(out);
        let problems = if name == "matrix" {
            audit::check_matrix(&text)
        } else if name.starts_with("analyze.") {
            audit::check_analyze(&text)
        } else {
            continue;
        };
        report.attempted += 1;
        for p in problems {
            report.fail(format!("paper check on {name}: {p}"));
        }
    }
}

/// `report.*` on the CLI's own JSON documents: parse and re-serialize
/// each set-up output.
fn report_probe(outputs: &BTreeMap<String, Vec<u8>>, tracer: &mut Tracer, report: &mut Report) {
    let (mut parse, mut ser, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for out in outputs.values() {
        let text = String::from_utf8_lossy(out);
        for _ in 0..5 {
            let (doc, dt) = tracer.time("vpd-report", "parse", || Json::parse(text.trim_end()));
            parse.push(dt.as_secs_f64());
            if let Ok(doc) = doc {
                let (_, dt) = tracer.time("vpd-report", "serialize", || doc.to_string());
                ser.push(dt.as_secs_f64());
            }
        }
        bytes.push(text.len() as f64);
    }
    report.metric("report.parse_us", median(&parse) * 1e6, "us");
    report.metric("report.serialize_us", median(&ser) * 1e6, "us");
    report.metric("report.response_bytes", median(&bytes), "bytes");
}

/// `cli.cmd_ms.*` for a workload that runs no `vpd` process (the serve
/// workloads): every command of the list once.
pub fn probe(vpd: &Path, seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let (light, heavy) = cli_commands(seed);
    tracer.enter("bench", "cli-probe");
    let (p, _) = pass(vpd, &[], &[light, heavy].concat(), None, tracer, report);
    tracer.exit();
    for (name, secs, _) in p.cmds {
        report.metric(&format!("cli.cmd_ms.{name}"), secs * 1e3, "ms");
    }
}

struct Loop {
    light: Vec<f64>,
    heavy: Vec<f64>,
    light_cpu: Vec<f64>,
    heavy_cpu: Vec<f64>,
    /// Ok commands per second of each pass over both lists.
    pair_rates: Vec<f64>,
    cmd_secs: BTreeMap<String, Vec<f64>>,
    all_cmd_secs: Vec<f64>,
    all_cmd_cpu: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn timed_loop(
    vpd: &Path,
    extra: &[String],
    lists: &(Vec<CliCmd>, Vec<CliCmd>),
    reference: &BTreeMap<String, Vec<u8>>,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Loop {
    let mut l = Loop {
        light: Vec::new(),
        heavy: Vec::new(),
        light_cpu: Vec::new(),
        heavy_cpu: Vec::new(),
        pair_rates: Vec::new(),
        cmd_secs: BTreeMap::new(),
        all_cmd_secs: Vec::new(),
        all_cmd_cpu: Vec::new(),
    };
    let start = Instant::now();
    while l.light.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        tracer.enter("bench", "pass");
        let (mut pair_ok, mut pair_secs) = (0, 0.0);
        for (heavy, list) in [(false, &lists.0), (true, &lists.1)] {
            let (p, _) = pass(vpd, extra, list, Some(reference), tracer, report);
            pair_ok += p.ok;
            pair_secs += p.secs;
            if heavy {
                l.heavy.push(p.secs);
                l.heavy_cpu.push(p.cpu_s);
            } else {
                l.light.push(p.secs);
                l.light_cpu.push(p.cpu_s);
            }
            for (name, secs, cpu_s) in p.cmds {
                l.all_cmd_secs.push(secs);
                l.all_cmd_cpu.push(cpu_s);
                l.cmd_secs.entry(name).or_default().push(secs);
            }
        }
        l.pair_rates.push(pair_ok as f64 / pair_secs);
        tracer.exit();
    }
    l
}

/// Runs `cli-repro`.
///
/// # Panics
///
/// If `vpd` cannot be built or spawned.
pub fn run(opts: &Opts, vpd: &Path, tracer: &mut Tracer, report: &mut Report) {
    let lists = cli_commands(opts.seed);
    let all: Vec<CliCmd> = lists.0.iter().chain(&lists.1).cloned().collect();
    report.note("light_commands", lists.0.len());
    report.note("heavy_commands", lists.1.len());

    // Set-up: untimed passes; the first is the byte-for-byte reference.
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let mut reference = None;
    for _ in 0..SETUP_PASSES {
        let (p, out) = pass(vpd, &[], &all, reference.as_ref(), tracer, report);
        setup.push(p.cpu_s);
        setup_wall.push(p.secs);
        reference.get_or_insert(out);
    }
    let reference = reference.expect("at least one set-up pass");
    paper_checks(&reference, report);
    report.metric("setup_s", median(&setup), "s");
    report.metric("setup_wall_s", median(&setup_wall), "s");

    if !opts.trace {
        let l = timed_loop(vpd, &[], &lists, &reference, opts.seconds, tracer, report);
        let cmd_sorted = sorted(&l.all_cmd_secs);
        let (p_used, p99) = tail(&cmd_sorted, 0.99);
        report.metric("p50_ms", median(&l.all_cmd_secs) * 1e3, "ms");
        report.metric("p99_ms", p99 * 1e3, "ms");
        report.metric("capacity_per_s", median(&l.pair_rates), "1/s");
        report.metric("light_s", median(&l.light), "s");
        report.metric("heavy_s", median(&l.heavy), "s");
        report.metric("light_cpu_ms", median(&l.light_cpu) * 1e3, "ms");
        report.metric("heavy_cpu_ms", median(&l.heavy_cpu) * 1e3, "ms");
        report.metric("op_cpu_us", median(&l.all_cmd_cpu) * 1e6, "us");
        report.metric("peak_rss_mb", report.peak_rss_mb, "MiB");
        report.note("p99_percentile_used", p_used);
        report.note("timed_commands", l.all_cmd_secs.len());
        report.note("timed_passes", l.light.len());
        return;
    }

    // Traced: an untraced half, then a half with `vpd --metrics` and
    // spans; the difference in mean pass time is the tracing overhead.
    let half = opts.seconds / 2.0;
    let mut quiet = Tracer::new(false);
    let plain = timed_loop(vpd, &[], &lists, &reference, half, &mut quiet, report);
    let metrics_file = opts
        .out_dir
        .join(format!("cli-metrics-{}.ndjson", opts.seed));
    let _ = std::fs::remove_file(&metrics_file);
    let extra = vec!["--metrics".to_owned(), metrics_file.display().to_string()];
    tracer.enter("bench", "traced-loop");
    let traced = timed_loop(vpd, &extra, &lists, &reference, half, tracer, report);
    tracer.exit();
    let per_pass = |l: &Loop| {
        l.light
            .iter()
            .zip(&l.heavy)
            .map(|(a, b)| a + b)
            .sum::<f64>()
            / l.light.len() as f64
    };
    let (u, t) = (per_pass(&plain), per_pass(&traced));
    report.metric("obs.overhead_frac", (t - u) / u, "ratio");
    for (name, secs) in &plain.cmd_secs {
        report.metric(&format!("cli.cmd_ms.{name}"), median(secs) * 1e3, "ms");
    }
    let text = std::fs::read_to_string(&metrics_file).unwrap_or_default();
    let counters = crate::report::sum_counters(&text);
    let passes = traced.light.len() as f64;
    let ops = passes * all.len() as f64;
    report.counters = counters
        .into_iter()
        .map(|(k, v)| (k, v as f64 / ops))
        .collect();
    report_probe(&reference, tracer, report);
}
