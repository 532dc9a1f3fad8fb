//! `vpd` — command-line front end for the vertical-power-delivery
//! models.
//!
//! ```sh
//! vpd analyze --arch a1 --topology dsch --power 1000
//! vpd matrix
//! vpd recommend
//! vpd sharing --placement below --modules 48
//! vpd mc --arch a2 --samples 200
//! vpd impedance --arch a2
//! vpd droop --arch a0
//! vpd thermal --arch a2 --tech si
//! vpd faults --arch a2 --n-minus-1
//! vpd --format json --metrics metrics.ndjson mc --arch a1
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use vertical_power_delivery::core::{
    compare_architectures, compare_droop_architectures, electro_thermal, explore_matrix, recommend,
    run_tolerance, simulate_droop, solve_sharing, survival_envelope, CascadeSettings, DroopSweep,
    DroopSweepSettings, ElectroThermalSettings, FaultImpedanceSweep, FaultScenario, FaultSweep,
    FaultTransientSweep, ImpedanceSweep, ImpedanceSweepSettings, LoadStep, McSettings, PdnModel,
    VrFailureScenario,
};
use vertical_power_delivery::obs;
use vertical_power_delivery::prelude::*;
use vertical_power_delivery::report::Json;
use vertical_power_delivery::scenario::ScenarioDoc;
use vertical_power_delivery::serve::proto::{
    parse_architecture, parse_topology, wire_count_range, wire_default_count, wire_default_f64,
    wire_default_seed,
};
use vertical_power_delivery::serve::{
    self, ServeConfig, FAULT_TRANSIENT_DT_NS, FAULT_TRANSIENT_SIM_US, FAULT_TRANSIENT_WINDOW_US,
};
use vertical_power_delivery::thermal::DeviceTechnology;
use vpd_units::Seconds;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match Invocation::parse(&args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if invocation.metrics.is_some() {
        obs::set_enabled(true);
    }
    let label = invocation.command.label();
    let outcome = run(invocation.command, invocation.format);
    if let Some(path) = &invocation.metrics {
        let snapshot = obs::snapshot();
        if let Err(e) = obs::append_ndjson(path, label, &snapshot) {
            eprintln!(
                "warning: could not write metrics to {}: {e}",
                path.display()
            );
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: vpd [--format <text|json>] [--metrics <path>] <command> [options]

global options:
  --format <text|json>  output format (default: text)
  --metrics <path>      record solver metrics and append one NDJSON
                        snapshot line per invocation to <path>

commands:
  analyze     --arch <a0|a1|a2|a3-12|a3-6> [--topology <dpmih|dsch|3lhd>]
              [--power <watts>] [--density <A/mm2>]
  matrix      full architecture x topology loss table
  recommend   designer ranking (no overload extrapolation)
  sharing     [--placement <periphery|below>] [--modules <n>]
  mc          --arch <a0|a1|a2|a3-12|a3-6> [--topology <dpmih|dsch|3lhd>]
              [--samples <n>] [--seed <s>] [--threads <n>]
  impedance   --arch <a0|a1|a2|a3-12|a3-6|all> [--fmin <hz>] [--fmax <hz>]
              [--points <n>] [--profile]
              (defaults: 200 points, 1 kHz – 1 GHz; --arch all compares
              A0/A1/A2 on one grid; --profile prints every swept point)
  droop       --arch <a0|a1|a2|a3-12|a3-6|all> [--sweep] [--amps <n>]
              [--slews <n>] [--threads <n>]
              (--sweep runs a load-step amplitude x slew-rate grid
              through one compiled transient plan; --arch all compares
              A0/A1/A2 sweeps and requires --sweep)
  thermal     --arch <a1|a2> [--tech <si|gan>]
  faults      --arch <a0|a1|a2|a3-12|a3-6> [--topology <dpmih|dsch|3lhd>]
              [--n-minus-1 | --random-k <k>] [--count <n>] [--seed <s>]
              [--dynamic]
              (--dynamic runs the fault power-integrity triad instead
              of the static drop sweep: faulted impedance profiles,
              mid-run VR-failure transients, and the electro-thermal
              cascade survival envelope; requires a vertical
              architecture for the cascade stage)
  serve       [--addr <host:port>] [--workers <n>] [--queue-depth <n>]
              [--cache-size <n>] [--max-batch <n>] [--stdio]
              NDJSON analysis service: multiplexed connections, a
              per-worker sharded compiled-plan cache, batched block
              solves (--max-batch 1 disables), and deadline-aware load
              shedding (default addr 127.0.0.1:7171; --stdio serves one
              session on stdin/stdout instead of TCP)
  call        [--addr <host:port>] --request '<json>' [--request ...]
              [--shutdown]
              send request lines to a running server, print one
              response line each; fails fast on a protocol-version
              mismatch; --shutdown drains the server after
  scenario    <check|render|run> (--file <path> | --name <a0|a1|a2|a3-12|a3-6>)
              declarative .vpd scenario documents: `check` validates
              (stable error[code] at line:col diagnostics), `render`
              prints the canonical text (the content-hash input), `run`
              compiles and analyzes — `--format json` output is
              byte-identical to the served `scenario` request
  help        print this message";

/// A full CLI invocation: global flags plus the subcommand.
#[derive(Clone, Debug, PartialEq)]
struct Invocation {
    command: Command,
    format: RenderFormat,
    metrics: Option<PathBuf>,
}

impl Invocation {
    /// Extracts the global `--format` / `--metrics` flags (accepted
    /// anywhere on the line) and parses the rest as a [`Command`].
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut format = RenderFormat::Text;
        let mut metrics = None;
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--format" => {
                    let v = it.next().ok_or("--format expects text|json")?;
                    format = v.parse()?;
                }
                "--metrics" => {
                    let v = it.next().ok_or("--metrics expects a file path")?;
                    metrics = Some(PathBuf::from(v));
                }
                _ => rest.push(arg.clone()),
            }
        }
        Ok(Self {
            command: Command::parse(&rest)?,
            format,
            metrics,
        })
    }
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
enum Command {
    Analyze {
        arch: Architecture,
        topology: VrTopologyKind,
        power_w: f64,
        density: f64,
    },
    Matrix,
    Recommend,
    Sharing {
        placement: VrPlacement,
        modules: usize,
    },
    Mc {
        arch: Architecture,
        topology: VrTopologyKind,
        samples: usize,
        seed: u64,
        threads: usize,
    },
    Impedance {
        /// None = compare all single-stage architectures on one grid.
        arch: Option<Architecture>,
        fmin_hz: f64,
        fmax_hz: f64,
        points: usize,
        profile: bool,
    },
    Droop {
        /// None = compare A0/A1/A2 sweeps (only valid with `--sweep`).
        arch: Option<Architecture>,
        sweep: bool,
        amps: usize,
        slews: usize,
        threads: usize,
    },
    Thermal {
        arch: Architecture,
        tech: DeviceTechnology,
    },
    Faults {
        arch: Architecture,
        topology: VrTopologyKind,
        /// None = N-1 contingency; Some(k) = random scenarios of k
        /// simultaneous faults.
        random_k: Option<usize>,
        count: usize,
        seed: u64,
        /// Run the dynamic triad (faulted impedance, VR-failure
        /// transients, cascade survival) instead of the static sweep.
        dynamic: bool,
    },
    Serve {
        addr: String,
        workers: usize,
        queue_depth: usize,
        cache_size: usize,
        max_batch: usize,
        stdio: bool,
    },
    Call {
        addr: String,
        requests: Vec<String>,
        shutdown: bool,
    },
    Scenario {
        action: ScenarioAction,
        /// Path to a `.vpd` document on disk.
        file: Option<PathBuf>,
        /// Builtin scenario name (`a0`…`a3-6`).
        name: Option<String>,
    },
    Help,
}

/// What `vpd scenario` should do with the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScenarioAction {
    /// Parse and validate only; report the stable diagnostic on failure.
    Check,
    /// Print the canonical rendering (the content-hash input).
    Render,
    /// Compile and analyze through the serve dispatcher, so `--format
    /// json` output is byte-identical to the served `scenario` result.
    Run,
}

impl Command {
    /// The subcommand label: the metrics snapshot tag and the
    /// `"command"` field of every JSON document this subcommand emits.
    fn label(&self) -> &'static str {
        match self {
            Self::Analyze { .. } => "analyze",
            Self::Matrix => "matrix",
            Self::Recommend => "recommend",
            Self::Sharing { .. } => "sharing",
            Self::Mc { .. } => "mc",
            Self::Impedance { .. } => "impedance",
            Self::Droop { .. } => "droop",
            Self::Thermal { .. } => "thermal",
            Self::Faults { .. } => "faults",
            Self::Serve { .. } => "serve",
            Self::Call { .. } => "call",
            Self::Scenario { .. } => "scenario",
            Self::Help => "help",
        }
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let cmd = it.next().ok_or("missing command")?;
        let rest: Vec<&String> = it.collect();
        let flag = |name: &str| -> Option<&str> {
            rest.iter()
                .position(|a| a.as_str() == name)
                .and_then(|i| rest.get(i + 1))
                .map(|s| s.as_str())
        };
        // Architecture/topology spellings are shared with the serve
        // protocol, so the CLI and the wire accept the same tags.
        let parse_arch = |required: bool| -> Result<Architecture, String> {
            match flag("--arch") {
                Some(s) => {
                    parse_architecture(s).ok_or_else(|| format!("unknown architecture '{s}'"))
                }
                None if required => Err("--arch is required".into()),
                None => Ok(Architecture::InterposerPeriphery),
            }
        };
        let parse_topo = || -> Result<VrTopologyKind, String> {
            match flag("--topology") {
                Some(s) => parse_topology(s).ok_or_else(|| format!("unknown topology '{s}'")),
                None => Ok(VrTopologyKind::Dsch),
            }
        };
        let parse_f64 = |name: &str, default: f64| -> Result<f64, String> {
            match flag(name) {
                Some(v) => v
                    .parse::<f64>()
                    .map_err(|_| format!("{name} expects a number, got '{v}'")),
                None => Ok(default),
            }
        };
        // Count and seed flags are whole numbers, bounded by the range of
        // the matching wire field where the protocol has one.
        let count = |name: &str, default: usize, (min, max): (usize, usize)| {
            flag(name).map_or(Ok(default), |v| {
                whole_number(name, v, min as u64, max as u64).map(|n| n as usize)
            })
        };
        let seed = |name: &str, kind: &str| {
            flag(name).map_or(Ok(wire_default_seed(kind, "seed")), |v| {
                whole_number(name, v, 0, u64::MAX)
            })
        };
        let threads = wire_count_range("mc", "threads");
        let any = (0, usize::MAX);
        match cmd.as_str() {
            "analyze" => Ok(Self::Analyze {
                arch: parse_arch(true)?,
                topology: parse_topo()?,
                power_w: parse_f64("--power", wire_default_f64("analyze", "power_w"))?,
                density: parse_f64("--density", wire_default_f64("analyze", "density"))?,
            }),
            "matrix" => Ok(Self::Matrix),
            "recommend" => Ok(Self::Recommend),
            "sharing" => {
                let placement = match flag("--placement") {
                    Some("periphery") | None => VrPlacement::Periphery,
                    Some("below") => VrPlacement::BelowDie,
                    Some(other) => return Err(format!("unknown placement '{other}'")),
                };
                let modules = count(
                    "--modules",
                    wire_default_count("sharing", "modules"),
                    wire_count_range("sharing", "modules"),
                )?;
                Ok(Self::Sharing { placement, modules })
            }
            "mc" => Ok(Self::Mc {
                arch: parse_arch(true)?,
                topology: parse_topo()?,
                samples: count(
                    "--samples",
                    wire_default_count("mc", "samples"),
                    wire_count_range("mc", "samples"),
                )?,
                seed: seed("--seed", "mc")?,
                threads: count("--threads", 0, threads)?,
            }),
            "impedance" => {
                let arch = match flag("--arch") {
                    Some("all") => None,
                    _ => Some(parse_arch(true)?),
                };
                // Bounds and point counts are validated downstream by
                // the checked sweep builder, so every bad value becomes
                // a typed error instead of a panic. Defaults come from
                // the wire field-spec table (which itself reads
                // `ImpedanceSweepSettings::default()`), so the CLI and
                // the protocol cannot drift apart.
                Ok(Self::Impedance {
                    arch,
                    fmin_hz: parse_f64("--fmin", wire_default_f64("impedance", "fmin_hz"))?,
                    fmax_hz: parse_f64("--fmax", wire_default_f64("impedance", "fmax_hz"))?,
                    // The checked sweep builder owns the lower bound.
                    points: count(
                        "--points",
                        wire_default_count("impedance", "points"),
                        (0, wire_count_range("impedance", "points").1),
                    )?,
                    profile: rest.iter().any(|a| a.as_str() == "--profile"),
                })
            }
            "droop" => {
                let sweep = rest.iter().any(|a| a.as_str() == "--sweep");
                let arch = match flag("--arch") {
                    Some("all") => {
                        if !sweep {
                            return Err("droop --arch all requires --sweep".into());
                        }
                        None
                    }
                    _ => Some(parse_arch(true)?),
                };
                Ok(Self::Droop {
                    arch,
                    sweep,
                    amps: count("--amps", 4, any)?,
                    slews: count("--slews", 3, any)?,
                    threads: count("--threads", 0, threads)?,
                })
            }
            "thermal" => {
                let tech = match flag("--tech") {
                    Some("si") => DeviceTechnology::Si,
                    Some("gan") | None => DeviceTechnology::GaN,
                    Some(other) => return Err(format!("unknown technology '{other}'")),
                };
                Ok(Self::Thermal {
                    arch: parse_arch(true)?,
                    tech,
                })
            }
            "faults" => {
                let n_minus_1 = rest.iter().any(|a| a.as_str() == "--n-minus-1");
                let random_k = match flag("--random-k") {
                    Some(_) => Some(count("--random-k", 0, (1, usize::MAX))?),
                    None => None,
                };
                if n_minus_1 && random_k.is_some() {
                    return Err("--n-minus-1 and --random-k are mutually exclusive".into());
                }
                Ok(Self::Faults {
                    arch: parse_arch(true)?,
                    topology: parse_topo()?,
                    random_k,
                    count: count(
                        "--count",
                        wire_default_count("faults", "count"),
                        wire_count_range("faults", "count"),
                    )?,
                    seed: seed("--seed", "faults")?,
                    dynamic: rest.iter().any(|a| a.as_str() == "--dynamic"),
                })
            }
            "serve" => {
                let defaults = ServeConfig::default();
                Ok(Self::Serve {
                    addr: flag("--addr").unwrap_or(DEFAULT_ADDR).to_owned(),
                    workers: count("--workers", defaults.workers, threads)?,
                    queue_depth: count("--queue-depth", defaults.queue_depth, any)?,
                    cache_size: count("--cache-size", defaults.cache_capacity, any)?,
                    max_batch: count("--max-batch", defaults.max_batch, any)?,
                    stdio: rest.iter().any(|a| a.as_str() == "--stdio"),
                })
            }
            "call" => {
                // `--request` repeats; collect every occurrence in order.
                let mut requests = Vec::new();
                let mut i = 0;
                while i < rest.len() {
                    if rest[i].as_str() == "--request" {
                        let v = rest
                            .get(i + 1)
                            .ok_or("--request expects a JSON request line")?;
                        requests.push((*v).clone());
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let shutdown = rest.iter().any(|a| a.as_str() == "--shutdown");
                if requests.is_empty() && !shutdown {
                    return Err("call needs at least one --request (or --shutdown)".into());
                }
                Ok(Self::Call {
                    addr: flag("--addr").unwrap_or(DEFAULT_ADDR).to_owned(),
                    requests,
                    shutdown,
                })
            }
            "scenario" => {
                let action = match rest.first().map(|s| s.as_str()) {
                    Some("check") => ScenarioAction::Check,
                    Some("render") => ScenarioAction::Render,
                    Some("run") => ScenarioAction::Run,
                    Some(other) => {
                        return Err(format!(
                            "unknown scenario action '{other}' (expected check|render|run)"
                        ))
                    }
                    None => return Err("scenario needs an action (check|render|run)".into()),
                };
                let file = flag("--file").map(PathBuf::from);
                let name = flag("--name").map(str::to_owned);
                match (&file, &name) {
                    (Some(_), Some(_)) => {
                        return Err("--file and --name are mutually exclusive".into())
                    }
                    (None, None) => {
                        return Err("scenario needs --file <path> or --name <builtin>".into())
                    }
                    _ => {}
                }
                Ok(Self::Scenario { action, file, name })
            }
            "help" | "--help" | "-h" => Ok(Self::Help),
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// Parses the value of a count or seed flag: a whole number in
/// `min..=max`, with an error that names the flag.
fn whole_number(flag: &str, raw: &str, min: u64, max: u64) -> Result<u64, String> {
    let n: u64 = raw
        .parse()
        .map_err(|_| format!("{flag} expects a whole number, got '{raw}'"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}, got {n}"));
    }
    if n > max {
        return Err(format!("{flag} is capped at {max}, got {n}"));
    }
    Ok(n)
}

/// The default service endpoint shared by `serve` and `call`.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Prints one document: the text rendering, or the context-wrapped JSON.
fn emit(format: RenderFormat, text: impl FnOnce() -> String, json: impl FnOnce() -> Json) {
    match format {
        RenderFormat::Text => print!("{}", text()),
        RenderFormat::Json => println!("{}", json()),
    }
}

/// Builds the context-wrapped JSON document every subcommand emits: the
/// subcommand label under `"command"`, then the given pairs. One
/// assembly point instead of a per-arm `("command", ...)` block keeps
/// the label in lockstep with [`Command::label`] (and with the serve
/// protocol, whose `result` documents reproduce these bytes exactly).
fn command_json(
    label: &'static str,
    pairs: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    Json::Object(
        std::iter::once(("command".to_owned(), Json::from(label)))
            .chain(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)))
            .collect(),
    )
}

fn run(cmd: Command, format: RenderFormat) -> Result<(), Box<dyn std::error::Error>> {
    let calib = Calibration::paper_default();
    let label = cmd.label();
    match cmd {
        Command::Help => println!("{USAGE}"),
        Command::Analyze {
            arch,
            topology,
            power_w,
            density,
        } => {
            let spec = SystemSpec::new(
                Volts::new(48.0),
                Volts::new(1.0),
                Watts::new(power_w),
                CurrentDensity::from_amps_per_square_millimeter(density),
            )?;
            let report = analyze(arch, topology, &spec, &calib, &AnalysisOptions::default())?;
            emit(
                format,
                || {
                    format!(
                        "{} / {} at {:.0} W, {:.1} A/mm² (die {:.0} mm²)\n{}",
                        arch.name(),
                        topology,
                        power_w,
                        density,
                        spec.die_area().as_square_millimeters(),
                        report.breakdown.render_text(),
                    )
                },
                || {
                    command_json(
                        label,
                        [
                            ("architecture", Json::from(arch.name())),
                            ("topology", Json::from(topology.name())),
                            ("power_w", Json::from(power_w)),
                            ("density_a_per_mm2", Json::from(density)),
                            (
                                "die_area_mm2",
                                Json::from(spec.die_area().as_square_millimeters()),
                            ),
                            ("overloaded", Json::from(report.overloaded)),
                            ("breakdown", report.breakdown.render_json()),
                        ],
                    )
                },
            );
        }
        Command::Matrix => {
            let spec = SystemSpec::paper_default();
            let entries = explore_matrix(
                &VrTopologyKind::ALL,
                &spec,
                &calib,
                &AnalysisOptions::default(),
            );
            emit(
                format,
                || {
                    let mut out = String::new();
                    for e in &entries {
                        match &e.outcome {
                            Ok(r) => out.push_str(&format!(
                                "{:<8} {:<6} {:>5.1}%{}\n",
                                e.architecture.name(),
                                e.topology.name(),
                                r.loss_percent(),
                                if r.overloaded { "  [extrapolated]" } else { "" }
                            )),
                            Err(err) => out.push_str(&format!(
                                "{:<8} {:<6} excluded: {err}\n",
                                e.architecture.name(),
                                e.topology.name()
                            )),
                        }
                    }
                    out
                },
                || {
                    command_json(
                        label,
                        [(
                            "entries",
                            Json::array(entries.iter().map(|e| {
                                let mut pairs = vec![
                                    ("architecture".to_owned(), Json::from(e.architecture.name())),
                                    ("topology".to_owned(), Json::from(e.topology.name())),
                                ];
                                match &e.outcome {
                                    Ok(r) => {
                                        pairs.push((
                                            "loss_percent".to_owned(),
                                            Json::from(r.loss_percent()),
                                        ));
                                        pairs.push((
                                            "overloaded".to_owned(),
                                            Json::from(r.overloaded),
                                        ));
                                    }
                                    Err(err) => pairs
                                        .push(("excluded".to_owned(), Json::from(err.to_string()))),
                                }
                                Json::Object(pairs)
                            })),
                        )],
                    )
                },
            );
        }
        Command::Recommend => {
            let rec = recommend(&SystemSpec::paper_default(), &calib);
            emit(
                format,
                || {
                    let mut out = String::new();
                    for (i, c) in rec.ranked.iter().enumerate() {
                        out.push_str(&format!("#{}: {}\n", i + 1, c.rationale));
                    }
                    for (a, t, e) in &rec.rejected {
                        out.push_str(&format!("rejected {}/{t}: {e}\n", a.name()));
                    }
                    out
                },
                || {
                    command_json(
                        label,
                        [
                            (
                                "ranked",
                                Json::array(rec.ranked.iter().map(|c| {
                                    Json::obj([
                                        ("architecture", Json::from(c.architecture.name())),
                                        ("topology", Json::from(c.topology.name())),
                                        ("loss_percent", Json::from(c.report.loss_percent())),
                                        ("rationale", Json::from(c.rationale.as_str())),
                                    ])
                                })),
                            ),
                            (
                                "rejected",
                                Json::array(rec.rejected.iter().map(|(a, t, e)| {
                                    Json::obj([
                                        ("architecture", Json::from(a.name())),
                                        ("topology", Json::from(t.name())),
                                        ("error", Json::from(e.to_string())),
                                    ])
                                })),
                            ),
                        ],
                    )
                },
            );
        }
        Command::Sharing { placement, modules } => {
            let rep = solve_sharing(&SystemSpec::paper_default(), &calib, placement, modules)?;
            emit(
                format,
                || format!("{modules} modules {placement}: {}", rep.render_text()),
                || {
                    command_json(
                        label,
                        [
                            ("placement", Json::from(placement.to_string())),
                            ("report", rep.render_json()),
                        ],
                    )
                },
            );
        }
        Command::Mc {
            arch,
            topology,
            samples,
            seed,
            threads,
        } => {
            let settings = McSettings {
                samples,
                seed,
                threads,
                ..McSettings::default()
            };
            let summary = run_tolerance(
                arch,
                topology,
                &SystemSpec::paper_default(),
                &calib,
                &settings,
            )?;
            emit(
                format,
                || {
                    format!(
                        "{} / {topology}: {samples} samples (seed {seed}): {}",
                        arch.name(),
                        summary.render_text(),
                    )
                },
                || {
                    command_json(
                        label,
                        [
                            ("architecture", Json::from(arch.name())),
                            ("topology", Json::from(topology.name())),
                            ("samples", Json::from(samples)),
                            ("seed", Json::from(i64::try_from(seed).unwrap_or(i64::MAX))),
                            ("summary", summary.render_json()),
                        ],
                    )
                },
            );
        }
        Command::Impedance {
            arch,
            fmin_hz,
            fmax_hz,
            points,
            profile,
        } => {
            let spec = SystemSpec::paper_default();
            let settings = ImpedanceSweepSettings {
                fmin: Hertz::new(fmin_hz),
                fmax: Hertz::new(fmax_hz),
                points,
                threads: 0,
            };
            match arch {
                None => {
                    let cmp = compare_architectures(
                        &[
                            Architecture::Reference,
                            Architecture::InterposerPeriphery,
                            Architecture::InterposerEmbedded,
                        ],
                        &spec,
                        &settings,
                    )?;
                    emit(
                        format,
                        || {
                            format!(
                                "impedance comparison, {points} points {} – {}:\n{}",
                                Hertz::new(fmin_hz),
                                Hertz::new(fmax_hz),
                                cmp.render_text()
                            )
                        },
                        || {
                            command_json(
                                label,
                                [
                                    ("points", Json::from(points)),
                                    ("fmin_hz", Json::from(fmin_hz)),
                                    ("fmax_hz", Json::from(fmax_hz)),
                                    ("comparison", cmp.render_json()),
                                ],
                            )
                        },
                    );
                }
                Some(arch) => {
                    let rep = ImpedanceSweep::for_architecture(arch, &spec)?.run(&settings)?;
                    if profile {
                        emit(
                            format,
                            || rep.render_text(),
                            || command_json(label, [("report", rep.render_json())]),
                        );
                    } else {
                        emit(
                            format,
                            || {
                                format!(
                                    "{}: peak |Z| = {} at {} vs target {} → {}\n",
                                    rep.label,
                                    rep.peak,
                                    rep.peak_frequency,
                                    rep.target,
                                    if rep.meets_target() {
                                        "meets target"
                                    } else {
                                        "violates target"
                                    }
                                )
                            },
                            || {
                                command_json(
                                    label,
                                    [
                                        ("architecture", Json::from(rep.label.as_str())),
                                        ("points", Json::from(points)),
                                        ("peak_impedance_ohm", Json::from(rep.peak.value())),
                                        (
                                            "peak_frequency_hz",
                                            Json::from(rep.peak_frequency.value()),
                                        ),
                                        ("target_ohm", Json::from(rep.target.value())),
                                        ("margin", rep.margin().map_or(Json::Null, Json::from)),
                                        ("meets_target", Json::from(rep.meets_target())),
                                    ],
                                )
                            },
                        );
                    }
                }
            }
        }
        Command::Droop {
            arch,
            sweep,
            amps,
            slews,
            threads,
        } => {
            let spec = SystemSpec::paper_default();
            let sim = Seconds::from_microseconds(60.0);
            let dt = Seconds::from_nanoseconds(10.0);
            if sweep {
                let mut settings = DroopSweepSettings::paper_default(&spec, amps, slews)?;
                settings.threads = threads;
                match arch {
                    None => {
                        let cmp = compare_droop_architectures(
                            &[
                                Architecture::Reference,
                                Architecture::InterposerPeriphery,
                                Architecture::InterposerEmbedded,
                            ],
                            &spec,
                            sim,
                            dt,
                            &settings,
                        )?;
                        emit(
                            format,
                            || cmp.render_text(),
                            || {
                                command_json(
                                    label,
                                    [
                                        ("amps", Json::from(amps)),
                                        ("slews", Json::from(slews)),
                                        ("comparison", cmp.render_json()),
                                    ],
                                )
                            },
                        );
                    }
                    Some(arch) => {
                        let rep =
                            DroopSweep::for_architecture(arch, &spec, sim, dt)?.run(&settings)?;
                        emit(
                            format,
                            || rep.render_text(),
                            || {
                                command_json(
                                    label,
                                    [
                                        ("architecture", Json::from(arch.name())),
                                        ("amps", Json::from(amps)),
                                        ("slews", Json::from(slews)),
                                        ("report", rep.render_json()),
                                    ],
                                )
                            },
                        );
                    }
                }
            } else {
                let arch = arch.expect("parser requires an architecture without --sweep");
                let report = simulate_droop(
                    &PdnModel::for_architecture(arch),
                    &LoadStep::paper_default(&spec),
                    sim,
                    dt,
                )?;
                emit(
                    format,
                    || {
                        format!(
                            "{}: 250 A → 1 kA step: {}",
                            arch.name(),
                            report.render_text()
                        )
                    },
                    || {
                        command_json(
                            label,
                            [
                                ("architecture", Json::from(arch.name())),
                                ("report", report.render_json()),
                            ],
                        )
                    },
                );
            }
        }
        Command::Thermal { arch, tech } => {
            let settings = ElectroThermalSettings {
                technology: tech,
                ..ElectroThermalSettings::default()
            };
            let r = electro_thermal(
                arch,
                VrTopologyKind::Dsch,
                &SystemSpec::paper_default(),
                &calib,
                &AnalysisOptions::default(),
                &settings,
            )?;
            emit(
                format,
                || {
                    format!(
                        "{} ({tech:?}): worst module {:.0} °C, VR loss {:.0} W → {:.0} W (+{:.1} W), within rating: {}\n",
                        arch.name(),
                        r.worst_module_temperature.value(),
                        r.nominal_conversion_loss.value(),
                        r.derated_conversion_loss.value(),
                        r.thermal_penalty().value(),
                        r.modules_within_rating
                    )
                },
                || {
                    command_json(
                        label,
                        [
                            ("architecture", Json::from(arch.name())),
                            ("technology", Json::from(format!("{tech:?}"))),
                            (
                                "worst_module_temperature_c",
                                Json::from(r.worst_module_temperature.value()),
                            ),
                            (
                                "nominal_conversion_loss_w",
                                Json::from(r.nominal_conversion_loss.value()),
                            ),
                            (
                                "derated_conversion_loss_w",
                                Json::from(r.derated_conversion_loss.value()),
                            ),
                            ("thermal_penalty_w", Json::from(r.thermal_penalty().value())),
                            ("within_rating", Json::from(r.modules_within_rating)),
                        ],
                    )
                },
            );
        }
        Command::Faults {
            arch,
            topology,
            random_k,
            count,
            seed,
            dynamic: true,
        } => {
            // The dynamic triad reuses the serve protocol's wire
            // defaults and transient window constants, so the CLI and
            // the service evaluate identical grids.
            let spec = SystemSpec::paper_default();
            let zsweep = FaultImpedanceSweep::new(arch, &spec, &calib)?;
            let scenarios = match random_k {
                None => FaultScenario::n_minus_1(zsweep.vr_count()),
                Some(k) => {
                    FaultScenario::random_k(k, count, seed, zsweep.vr_count(), zsweep.grid_side())
                }
            };
            let mode_label = match random_k {
                None => format!("N-1 over {} modules", zsweep.vr_count()),
                Some(k) => format!("{count} random {k}-fault scenarios (seed {seed})"),
            };
            let freqs = ImpedanceSweepSettings {
                fmin: Hertz::new(wire_default_f64("fault_impedance", "fmin_hz")),
                fmax: Hertz::new(wire_default_f64("fault_impedance", "fmax_hz")),
                points: wire_default_count("fault_impedance", "points"),
                threads: 0,
            }
            .frequencies()?;
            let impedance = zsweep.run(&scenarios, &freqs, 0)?;

            let tsweep = FaultTransientSweep::new(
                arch,
                &PdnModel::for_architecture(arch),
                &LoadStep::paper_default(&spec),
                Seconds::from_microseconds(FAULT_TRANSIENT_SIM_US),
                Seconds::from_nanoseconds(FAULT_TRANSIENT_DT_NS),
            )?;
            let fails = VrFailureScenario::grid(
                wire_default_count("fault_transient", "count"),
                Seconds::from_microseconds(FAULT_TRANSIENT_WINDOW_US),
            );
            let transient = tsweep.run(&fails, 0)?;

            let envelope = survival_envelope(
                arch,
                topology,
                &spec,
                &calib,
                &CascadeSettings::default(),
                0,
            )?;
            emit(
                format,
                || {
                    format!(
                        "{} / {topology}: dynamic fault power-integrity ({mode_label})\n\
                         -- faulted impedance --\n{}\
                         -- VR-failure transients --\n{}\
                         -- electro-thermal cascade --\n{}",
                        arch.name(),
                        impedance.render_text(),
                        transient.render_text(),
                        envelope.render_text(),
                    )
                },
                || {
                    command_json(
                        label,
                        [
                            ("mode", Json::from("dynamic")),
                            ("scenarios", Json::from(mode_label.as_str())),
                            ("topology", Json::from(topology.name())),
                            ("impedance", impedance.render_json()),
                            ("transient", transient.render_json()),
                            ("survival", envelope.render_json()),
                        ],
                    )
                },
            );
        }
        Command::Faults {
            arch,
            topology,
            random_k,
            count,
            seed,
            dynamic: false,
        } => {
            let sweep = FaultSweep::new(arch, topology, &SystemSpec::paper_default(), &calib)?;
            let scenarios = match random_k {
                None => FaultScenario::n_minus_1(sweep.vr_count()),
                Some(k) => {
                    FaultScenario::random_k(k, count, seed, sweep.vr_count(), sweep.grid_side())
                }
            };
            let mode_label = match random_k {
                None => format!("N-1 over {} modules", sweep.vr_count()),
                Some(k) => format!("{count} random {k}-fault scenarios (seed {seed})"),
            };
            let report = sweep.run(&scenarios, 0)?;
            emit(
                format,
                || {
                    format!(
                        "{} / {topology}: {mode_label}\n  nominal:  worst drop {}, spread {:.2}x\n{}",
                        arch.name(),
                        sweep.nominal().worst_drop(),
                        sweep.nominal().max().value() / sweep.nominal().mean().value(),
                        report.render_text(),
                    )
                },
                || {
                    command_json(
                        label,
                        [
                            ("mode", Json::from(mode_label.as_str())),
                            ("topology", Json::from(topology.name())),
                            (
                                "nominal_worst_drop_v",
                                Json::from(sweep.nominal().worst_drop().value()),
                            ),
                            ("report", report.render_json()),
                        ],
                    )
                },
            );
        }
        Command::Serve {
            addr,
            workers,
            queue_depth,
            cache_size,
            max_batch,
            stdio,
        } => {
            let cfg = ServeConfig {
                workers,
                queue_depth,
                cache_capacity: cache_size,
                max_batch,
                ..ServeConfig::default()
            };
            if stdio {
                // One session over stdin/stdout: requests in, responses
                // out, ends on EOF or a shutdown request.
                serve::serve_lines(std::io::stdin().lock(), std::io::stdout(), &cfg)?;
            } else {
                let server = serve::Server::bind(&addr, cfg)?;
                eprintln!("vpd serve: listening on {}", server.local_addr()?);
                server.run()?;
            }
        }
        Command::Call {
            addr,
            requests,
            shutdown,
        } => {
            for line in serve::call(&addr, &requests, shutdown)? {
                println!("{line}");
            }
        }
        Command::Scenario { action, file, name } => {
            // Resolve the document text, then parse through the same
            // validator serve uses at admission — so `check` failures
            // print the exact stable diagnostic the wire carries.
            let (source, text): (String, String) = match (&file, &name) {
                (Some(path), None) => (
                    path.display().to_string(),
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                ),
                (None, Some(n)) => (
                    format!("builtin {n}"),
                    scenario_builtin(n)
                        .ok_or_else(|| {
                            format!(
                                "unknown builtin scenario '{n}' (builtins: {})",
                                vertical_power_delivery::scenario::BUILTIN_NAMES.join(", ")
                            )
                        })?
                        .to_owned(),
                ),
                _ => unreachable!("parse enforces exactly one of --file/--name"),
            };
            let doc = ScenarioDoc::parse(&text).map_err(|e| format!("{source}: {e}"))?;
            let hash = format!("{:016x}", doc.content_hash());
            match action {
                ScenarioAction::Check => emit(
                    format,
                    || {
                        format!(
                            "ok: \"{}\" ({}, hash {hash})\n",
                            doc.name,
                            doc.architecture.name()
                        )
                    },
                    || {
                        command_json(
                            label,
                            [
                                ("action", Json::from("check")),
                                ("ok", Json::from(true)),
                                ("name", Json::from(doc.name.as_str())),
                                ("architecture", Json::from(doc.architecture.name())),
                                ("hash", Json::from(hash.as_str())),
                            ],
                        )
                    },
                ),
                ScenarioAction::Render => emit(
                    format,
                    || doc.render(),
                    || {
                        command_json(
                            label,
                            [
                                ("action", Json::from("render")),
                                ("name", Json::from(doc.name.as_str())),
                                ("hash", Json::from(hash.as_str())),
                                ("doc", Json::from(doc.render().as_str())),
                            ],
                        )
                    },
                ),
                ScenarioAction::Run => {
                    // Dispatch through the serve engine (cache disabled:
                    // one shot), so the JSON document is byte-identical
                    // to the served `scenario` result by construction.
                    let dispatcher = serve::Dispatcher::new(0);
                    let work = serve::Work::Scenario { doc: Box::new(doc) };
                    let (result, _) = dispatcher
                        .dispatch(&work)
                        .map_err(|(code, message)| format!("{}: {message}", code.as_str()))?;
                    emit(format, || render_scenario_text(&result), || result.clone());
                }
            }
        }
    }
    Ok(())
}

/// Builtin `.vpd` lookup, aliased so the `Command::Scenario` arm reads
/// cleanly.
fn scenario_builtin(name: &str) -> Option<&'static str> {
    vertical_power_delivery::scenario::builtin_doc(name)
}

/// Text rendering of a served `scenario` result document.
fn render_scenario_text(result: &Json) -> String {
    let s = |k: &str| result.get(k).and_then(Json::as_str).unwrap_or("?");
    let mut out = format!(
        "scenario \"{}\" — {} / {}, placement {} (hash {})\noverloaded: {}\n",
        s("name"),
        s("architecture"),
        s("topology"),
        s("placement"),
        s("hash"),
        result
            .get("overloaded")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    let section = |out: &mut String, title: &str, doc: &Json| {
        out.push_str(title);
        out.push('\n');
        if let Json::Object(pairs) = doc {
            for (k, v) in pairs {
                out.push_str(&format!("  {k}: {v}\n"));
            }
        }
    };
    if let Some(b) = result.get("breakdown") {
        section(&mut out, "breakdown:", b);
    }
    if let Some(c) = result.get("converter") {
        section(&mut out, "converter:", c);
    }
    if let Some(Json::Array(techs)) = result.get("techs") {
        out.push_str("techs:\n");
        for t in techs {
            out.push_str(&format!(
                "  {}: {} sites, {} µΩ/via\n",
                t.get("base").and_then(Json::as_str).unwrap_or("?"),
                t.get("sites").and_then(Json::as_i64).unwrap_or(0),
                t.get("via_resistance_uohm")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            ));
        }
    }
    if let Some(f) = result.get("faults") {
        out.push_str(&format!(
            "faults: {}\n",
            f.get("mode").and_then(Json::as_str).unwrap_or("?")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Command::parse(&owned)
    }

    fn parse_invocation(args: &[&str]) -> Result<Invocation, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Invocation::parse(&owned)
    }

    #[test]
    fn parses_analyze_with_defaults() {
        let cmd = parse(&["analyze", "--arch", "a1"]).unwrap();
        match cmd {
            Command::Analyze {
                arch,
                topology,
                power_w,
                density,
            } => {
                assert_eq!(arch.name(), "A1");
                assert_eq!(topology, VrTopologyKind::Dsch);
                assert_eq!(power_w, 1000.0);
                assert_eq!(density, 2.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_two_stage_buses() {
        assert!(matches!(
            parse(&["analyze", "--arch", "a3-12"]).unwrap(),
            Command::Analyze {
                arch: Architecture::TwoStage { .. },
                ..
            }
        ));
        assert!(matches!(
            parse(&["droop", "--arch", "a0"]).unwrap(),
            Command::Droop {
                arch: Some(Architecture::Reference),
                sweep: false,
                ..
            }
        ));
    }

    #[test]
    fn parses_droop_sweeps() {
        assert_eq!(
            parse(&[
                "droop",
                "--arch",
                "a2",
                "--sweep",
                "--amps",
                "5",
                "--slews",
                "2",
                "--threads",
                "3"
            ])
            .unwrap(),
            Command::Droop {
                arch: Some(Architecture::InterposerEmbedded),
                sweep: true,
                amps: 5,
                slews: 2,
                threads: 3,
            }
        );
        assert!(matches!(
            parse(&["droop", "--arch", "all", "--sweep"]).unwrap(),
            Command::Droop {
                arch: None,
                sweep: true,
                amps: 4,
                slews: 3,
                threads: 0,
            }
        ));
        assert!(
            parse(&["droop", "--arch", "all"]).is_err(),
            "--arch all needs --sweep"
        );
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["analyze", "--arch", "a9"]).is_err());
        assert!(parse(&["analyze", "--arch", "a1", "--topology", "zeta"]).is_err());
        assert!(parse(&["analyze", "--arch", "a1", "--power", "lots"]).is_err());
        assert!(parse(&["analyze"]).is_err(), "--arch required");
        assert!(parse(&["sharing", "--placement", "sideways"]).is_err());
        assert!(parse(&["thermal", "--arch", "a2", "--tech", "sic"]).is_err());
    }

    #[test]
    fn parses_sharing_and_thermal() {
        assert_eq!(
            parse(&["sharing", "--placement", "below", "--modules", "24"]).unwrap(),
            Command::Sharing {
                placement: VrPlacement::BelowDie,
                modules: 24
            }
        );
        assert!(matches!(
            parse(&["thermal", "--arch", "a2", "--tech", "si"]).unwrap(),
            Command::Thermal {
                tech: DeviceTechnology::Si,
                ..
            }
        ));
    }

    #[test]
    fn parses_mc() {
        match parse(&["mc", "--arch", "a2", "--samples", "50", "--seed", "9"]).unwrap() {
            Command::Mc {
                arch,
                topology,
                samples,
                seed,
                threads,
            } => {
                assert_eq!(arch, Architecture::InterposerEmbedded);
                assert_eq!(topology, VrTopologyKind::Dsch);
                assert_eq!(samples, 50);
                assert_eq!(seed, 9);
                assert_eq!(threads, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["mc"]).is_err(), "--arch required");
        assert!(parse(&["mc", "--arch", "a1", "--samples", "0"]).is_err());
    }

    #[test]
    fn parses_impedance_grid_flags() {
        let defaults = ImpedanceSweepSettings::default();
        match parse(&["impedance", "--arch", "a2"]).unwrap() {
            Command::Impedance {
                arch,
                fmin_hz,
                fmax_hz,
                points,
                profile,
            } => {
                assert_eq!(arch, Some(Architecture::InterposerEmbedded));
                assert_eq!(fmin_hz, defaults.fmin.value());
                assert_eq!(fmax_hz, defaults.fmax.value());
                assert_eq!(points, defaults.points);
                assert!(!profile);
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "impedance",
            "--arch",
            "all",
            "--fmin",
            "1e4",
            "--fmax",
            "1e8",
            "--points",
            "64",
            "--profile",
        ])
        .unwrap()
        {
            Command::Impedance {
                arch,
                fmin_hz,
                fmax_hz,
                points,
                profile,
            } => {
                assert_eq!(arch, None);
                assert_eq!(fmin_hz, 1e4);
                assert_eq!(fmax_hz, 1e8);
                assert_eq!(points, 64);
                assert!(profile);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["impedance"]).is_err(), "--arch required");
        assert!(parse(&["impedance", "--arch", "a9"]).is_err());
        assert!(parse(&["impedance", "--arch", "a1", "--points", "many"]).is_err());
        // Bad grids parse fine and fail later with a typed solver error.
        assert!(parse(&["impedance", "--arch", "a1", "--points", "1"]).is_ok());
        assert!(parse(&["impedance", "--arch", "a1", "--fmin", "-3"]).is_ok());
    }

    #[test]
    fn bad_impedance_grids_error_instead_of_panicking() {
        for args in [
            ["impedance", "--arch", "a1", "--points", "1"].as_slice(),
            ["impedance", "--arch", "a1", "--points", "0"].as_slice(),
            ["impedance", "--arch", "a1", "--fmin", "-3"].as_slice(),
            ["impedance", "--arch", "a1", "--fmin", "0"].as_slice(),
            ["impedance", "--arch", "a1", "--fmax", "nan"].as_slice(),
            [
                "impedance",
                "--arch",
                "all",
                "--fmin",
                "1e9",
                "--fmax",
                "1e3",
            ]
            .as_slice(),
            ["impedance", "--arch", "a2", "--fmax", "inf"].as_slice(),
        ] {
            let cmd = parse(args).unwrap();
            let err = run(cmd, RenderFormat::Text).unwrap_err().to_string();
            assert!(err.contains("sweep"), "{args:?}: {err}");
        }
    }

    #[test]
    fn parses_faults_modes() {
        assert!(matches!(
            parse(&["faults", "--arch", "a2", "--n-minus-1"]).unwrap(),
            Command::Faults {
                arch: Architecture::InterposerEmbedded,
                random_k: None,
                ..
            }
        ));
        // N-1 is also the default mode.
        assert!(matches!(
            parse(&["faults", "--arch", "a1"]).unwrap(),
            Command::Faults { random_k: None, .. }
        ));
        match parse(&[
            "faults",
            "--arch",
            "a1",
            "--random-k",
            "3",
            "--count",
            "64",
            "--seed",
            "7",
        ])
        .unwrap()
        {
            Command::Faults {
                random_k,
                count,
                seed,
                ..
            } => {
                assert_eq!(random_k, Some(3));
                assert_eq!(count, 64);
                assert_eq!(seed, 7);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["faults"]).is_err(), "--arch required");
        assert!(parse(&["faults", "--arch", "a1", "--random-k", "three"]).is_err());
        assert!(parse(&["faults", "--arch", "a1", "--random-k", "0"]).is_err());
        assert!(parse(&["faults", "--arch", "a1", "--n-minus-1", "--random-k", "2"]).is_err());
    }

    #[test]
    fn count_flags_are_whole_numbers_in_wire_range() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        // Fractions and exponents no longer truncate into a count.
        for (args, flag) in [
            (
                ["mc", "--arch", "a2", "--samples", "2.7"].as_slice(),
                "--samples",
            ),
            (
                ["mc", "--arch", "a2", "--threads", "1e6"].as_slice(),
                "--threads",
            ),
            (["mc", "--arch", "a2", "--seed", "-1"].as_slice(), "--seed"),
            (
                ["impedance", "--arch", "a1", "--points", "1.9"].as_slice(),
                "--points",
            ),
            (["sharing", "--modules", "4.5"].as_slice(), "--modules"),
            (
                ["droop", "--arch", "a2", "--amps", "2.0"].as_slice(),
                "--amps",
            ),
            (
                ["faults", "--arch", "a2", "--count", "8.5"].as_slice(),
                "--count",
            ),
            (
                ["faults", "--arch", "a2", "--random-k", "1.5"].as_slice(),
                "--random-k",
            ),
            (["serve", "--queue-depth", "8x"].as_slice(), "--queue-depth"),
        ] {
            let msg = err(args);
            assert!(msg.starts_with(flag), "{args:?}: {msg}");
            assert!(msg.contains("whole number"), "{args:?}: {msg}");
        }
        // The wire ranges bound the CLI too.
        assert_eq!(
            err(&["mc", "--arch", "a2", "--threads", "1000000"]),
            "--threads is capped at 10000, got 1000000"
        );
        assert_eq!(
            err(&["mc", "--arch", "a2", "--samples", "0"]),
            "--samples must be at least 1, got 0"
        );
        assert!(err(&["mc", "--arch", "a2", "--samples", "1000001"]).starts_with("--samples"));
        assert!(err(&["sharing", "--modules", "0"]).starts_with("--modules"));
        assert!(err(&["impedance", "--arch", "a1", "--points", "100001"]).starts_with("--points"));
        assert!(err(&["faults", "--arch", "a2", "--count", "0"]).starts_with("--count"));
        assert!(err(&["droop", "--arch", "a2", "--threads", "10001"]).starts_with("--threads"));
        assert!(err(&["serve", "--workers", "10001"]).starts_with("--workers"));
        // Whole numbers at the edges still parse.
        assert!(parse(&["mc", "--arch", "a2", "--threads", "10000"]).is_ok());
        assert!(matches!(
            parse(&["mc", "--arch", "a2", "--seed", "18446744073709551615"]).unwrap(),
            Command::Mc { seed: u64::MAX, .. }
        ));
    }

    #[test]
    fn parses_faults_dynamic_flag() {
        // The static sweep stays the default; --dynamic composes with
        // the existing scenario-selection flags.
        assert!(matches!(
            parse(&["faults", "--arch", "a1"]).unwrap(),
            Command::Faults { dynamic: false, .. }
        ));
        assert!(matches!(
            parse(&["faults", "--arch", "a2", "--dynamic"]).unwrap(),
            Command::Faults {
                arch: Architecture::InterposerEmbedded,
                dynamic: true,
                random_k: None,
                ..
            }
        ));
        match parse(&["faults", "--arch", "a1", "--dynamic", "--random-k", "2"]).unwrap() {
            Command::Faults {
                dynamic, random_k, ..
            } => {
                assert!(dynamic);
                assert_eq!(random_k, Some(2));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse(&["faults", "--arch", "a1", "--dynamic"])
                .unwrap()
                .label(),
            "faults"
        );
    }

    #[test]
    fn global_flags_parse_anywhere() {
        let inv = parse_invocation(&["--format", "json", "matrix"]).unwrap();
        assert_eq!(inv.format, RenderFormat::Json);
        assert_eq!(inv.command, Command::Matrix);
        assert_eq!(inv.metrics, None);

        // Globals are accepted after the subcommand too.
        let inv =
            parse_invocation(&["sharing", "--metrics", "m.ndjson", "--format", "text"]).unwrap();
        assert_eq!(inv.format, RenderFormat::Text);
        assert_eq!(inv.metrics, Some(PathBuf::from("m.ndjson")));
        assert!(matches!(inv.command, Command::Sharing { .. }));

        // Defaults: text, no metrics.
        let inv = parse_invocation(&["recommend"]).unwrap();
        assert_eq!(inv.format, RenderFormat::Text);
        assert_eq!(inv.metrics, None);
    }

    #[test]
    fn global_flags_reject_bad_values() {
        assert!(parse_invocation(&["--format", "yaml", "matrix"]).is_err());
        assert!(parse_invocation(&["matrix", "--format"]).is_err());
        assert!(parse_invocation(&["matrix", "--metrics"]).is_err());
    }

    #[test]
    fn command_labels_cover_every_variant() {
        assert_eq!(parse(&["matrix"]).unwrap().label(), "matrix");
        assert_eq!(parse(&["mc", "--arch", "a1"]).unwrap().label(), "mc");
        assert_eq!(
            parse(&["faults", "--arch", "a1"]).unwrap().label(),
            "faults"
        );
        assert_eq!(parse(&["serve"]).unwrap().label(), "serve");
        assert_eq!(parse(&["call", "--shutdown"]).unwrap().label(), "call");
        assert_eq!(parse(&["help"]).unwrap().label(), "help");
    }

    #[test]
    fn command_json_prepends_the_label() {
        let doc = command_json("analyze", [("x", Json::from(1.5))]);
        assert_eq!(doc.to_string(), r#"{"command":"analyze","x":1.5}"#);
        let empty = command_json("matrix", []);
        assert_eq!(empty.to_string(), r#"{"command":"matrix"}"#);
    }

    #[test]
    fn parses_serve_flags() {
        let defaults = ServeConfig::default();
        match parse(&["serve"]).unwrap() {
            Command::Serve {
                addr,
                workers,
                queue_depth,
                cache_size,
                max_batch,
                stdio,
            } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(workers, defaults.workers);
                assert_eq!(queue_depth, defaults.queue_depth);
                assert_eq!(cache_size, defaults.cache_capacity);
                assert_eq!(max_batch, defaults.max_batch);
                assert!(!stdio);
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-depth",
            "8",
            "--cache-size",
            "2",
            "--max-batch",
            "1",
            "--stdio",
        ])
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                queue_depth,
                cache_size,
                max_batch,
                stdio,
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(workers, 4);
                assert_eq!(queue_depth, 8);
                assert_eq!(cache_size, 2);
                assert_eq!(max_batch, 1, "--max-batch 1 disables batching");
                assert!(stdio);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "--workers", "lots"]).is_err());
    }

    #[test]
    fn parses_call_with_repeated_requests() {
        match parse(&[
            "call",
            "--request",
            r#"{"kind":"ping"}"#,
            "--request",
            r#"{"kind":"stats"}"#,
        ])
        .unwrap()
        {
            Command::Call {
                addr,
                requests,
                shutdown,
            } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(
                    requests,
                    vec![
                        r#"{"kind":"ping"}"#.to_owned(),
                        r#"{"kind":"stats"}"#.to_owned()
                    ]
                );
                assert!(!shutdown);
            }
            other => panic!("{other:?}"),
        }
        // --shutdown alone is a valid drain-only call.
        assert!(matches!(
            parse(&["call", "--shutdown"]).unwrap(),
            Command::Call { shutdown: true, .. }
        ));
        assert!(parse(&["call"]).is_err(), "needs a request or --shutdown");
        assert!(parse(&["call", "--request"]).is_err(), "dangling value");
    }

    #[test]
    fn parses_scenario_commands() {
        let cmd = parse(&["scenario", "check", "--name", "a2"]).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                action: ScenarioAction::Check,
                file: None,
                name: Some("a2".into()),
            }
        );
        assert_eq!(cmd.label(), "scenario");
        let cmd = parse(&["scenario", "run", "--file", "custom.vpd"]).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                action: ScenarioAction::Run,
                file: Some(PathBuf::from("custom.vpd")),
                name: None,
            }
        );
        assert!(matches!(
            parse(&["scenario", "render", "--name", "a0"]).unwrap(),
            Command::Scenario {
                action: ScenarioAction::Render,
                ..
            }
        ));
        assert!(parse(&["scenario"]).is_err(), "needs an action");
        assert!(parse(&["scenario", "frob", "--name", "a0"]).is_err());
        assert!(
            parse(&["scenario", "check"]).is_err(),
            "needs --file or --name"
        );
        assert!(
            parse(&["scenario", "check", "--file", "x.vpd", "--name", "a0"]).is_err(),
            "--file and --name are exclusive"
        );
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&[h]).unwrap(), Command::Help);
        }
    }
}
