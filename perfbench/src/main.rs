//! Command-line entry of the benchmark. See the library docs.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use perfbench::{compare, metrics, repo_root, streams, Opts, WORKLOADS};
use vpd_report::Json;

const USAGE: &str = "usage:
  perfbench --workload <cli-repro|serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1>
  perfbench --list                 every metric with its unit and what it should move
  perfbench compare <OLD> <NEW>    parent vs change result sets (file or directory)";

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(at + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let workload = flag(args, "--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = flag(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let root = repo_root();
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        out_dir: root.join(".perfbench"),
        root,
    })
}

fn list() {
    println!(
        "held-out seed for confirming a claim: {}",
        streams::HELD_OUT_SEED
    );
    println!("\nend-to-end (untraced runs, every workload):");
    for m in metrics::end_to_end() {
        println!("  {:<34} {:<8} {:<6} {}", m.name, m.unit, m.better, m.moves);
    }
    println!("\nper-layer (traced runs, every workload):");
    for m in metrics::per_layer() {
        println!("  {:<34} {:<8} {:<6} {}", m.name, m.unit, m.better, m.moves);
    }
}

fn run_compare(old: &str, new: &str) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(repo_root().join("BENCHMARK.json")))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let bounds = compare::bounds(&text)?;
    let parent = compare::load(Path::new(old)).map_err(|e| format!("{old}: {e}"))?;
    let change = compare::load(Path::new(new)).map_err(|e| format!("{new}: {e}"))?;
    print!("{}", compare::render(&parent, &change, &bounds));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list") {
        list();
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(old), Some(new)) = (args.get(1), args.get(2)) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match run_compare(old, new) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (report, tracer) = perfbench::run(&opts);

    let mut header = vec![
        ("workload", Json::from(opts.workload.as_str())),
        (
            "seed",
            Json::Int(i64::try_from(opts.seed).unwrap_or(i64::MAX)),
        ),
        ("trace", Json::from(opts.trace)),
        ("seconds", Json::from(opts.seconds)),
    ];
    header.extend(perfbench::provenance(&opts.root));
    let record = report.to_json(header).to_string();
    let results = opts.out_dir.join("runs.ndjson");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = appended {
        eprintln!("warning: could not append to {}: {e}", results.display());
    }
    if opts.trace {
        let dir = opts.out_dir.join("spans");
        let file = dir.join(format!("{}-seed{}.ndjson", opts.workload, opts.seed));
        // The spans, then one summary line: self time per layer.
        let mut text = tracer.to_ndjson();
        let self_ms = tracer
            .self_ms()
            .into_iter()
            .map(|(l, ms)| (l, Json::from(ms)));
        text.push_str(&Json::obj([("self_ms", Json::obj(self_ms))]).to_string());
        text.push('\n');
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, text));
        if let Err(e) = written {
            eprintln!("error: could not write spans to {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {} ({} spans)", file.display(), tracer.spans().len());
    }
    for p in &report.problems {
        eprintln!("problem: {p}");
    }
    for p in &report.invalid {
        eprintln!("invalid: {p}");
    }

    let defs = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let names: Vec<(&str, &str)> = defs.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    match report.result_line(&names) {
        Ok(line) => {
            println!("{record}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
