//! Every metric the benchmark reports: its unit, which direction is
//! better, and (for per-layer metrics) the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names and
//! units; a test keeps the two in step.

use crate::streams::cli_commands;
use crate::trace::LAYERS;

/// One metric's definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// What it is, or which end-to-end metric it should move and where.
    pub moves: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, printed by every untraced run. Every time
/// among them is CPU time (see [`crate::cpu`]). The wall-clock figures
/// (`p50_ms` and `p99_ms` at the fixed offered rate, `capacity_per_s`,
/// `light_s`, `heavy_s`, `setup_wall_s`), the generator's lateness
/// (`gen.late_p50_ms`, `gen.late_p99_ms`) are measured by the same
/// runs and kept in the run record, without a bound.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", "CPU time from start to first timed op (this process and its vpd children), median of several set-ups: serve-hot bind + one warm-up pass (9 before timing); serve-churn bind + one ping (9 before timing, 2 after each slice); cli-repro one untimed pass (5)"),
        def("op_cpu_us", "us", "lower", "serve: CPU time of the server threads per request at the fixed offered rate (open loop), over the whole run; cli-repro: median CPU time of one vpd command"),
        def("light_cpu_ms", "ms", "lower", "median CPU time of one closed-loop pass over the light list (serve: server threads, 2 connections with 1 in flight each; cli: the vpd processes and their spawning)"),
        def("heavy_cpu_ms", "ms", "lower", "median CPU time of one closed-loop pass over the heavy list, measured as light_cpu_ms"),
        def("peak_rss_mb", "MiB", "lower", "serve: VmHWM of the process hosting the server; cli-repro: largest vpd process"),
    ]
}

/// Per-layer metrics, printed by every traced run.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let (light, heavy) = cli_commands(0);
    let mut cli: Vec<MetricDef> = light
        .iter()
        .map(|c| {
            def(
                &format!("cli.cmd_ms.{}", c.name),
                "ms",
                "lower",
                "light_cpu_ms on cli-repro",
            )
        })
        .chain(heavy.iter().map(|c| {
            def(
                &format!("cli.cmd_ms.{}", c.name),
                "ms",
                "lower",
                "heavy_cpu_ms on cli-repro",
            )
        }))
        .collect();
    cli.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = cli;
    let serve_hot = "op_cpu_us (and the recorded p50_ms, p99_ms) on serve-hot";
    out.extend([
        def(
            "scenario.parse_us",
            "us",
            "lower",
            "op_cpu_us (and the recorded p50_ms, p99_ms) on serve-churn, light_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "scenario.compile_us",
            "us",
            "lower",
            "op_cpu_us (and the recorded p50_ms, p99_ms) on serve-churn, light_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "scenario.render_us",
            "us",
            "lower",
            "op_cpu_us (and the recorded p50_ms, p99_ms) on serve-churn, light_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def("serve.parse_us", "us", "lower", serve_hot),
    ]);
    for kind in [
        "analyze",
        "impedance",
        "mc",
        "scenario",
        "sharing",
        "sharing_sweep",
    ] {
        out.push(def(
            &format!("serve.dispatch_us.{kind}"),
            "us",
            "lower",
            serve_hot,
        ));
    }
    out.extend([
        def("serve.transport_us", "us", "lower", serve_hot),
        def(
            "serve.cache.hit_ratio",
            "ratio",
            "higher",
            "peak_rss_mb and the recorded p99_ms on serve-churn (about 1 on serve-hot, 0 on serve-churn)",
        ),
        def(
            "serve.cache.evictions",
            "count",
            "lower",
            "peak_rss_mb and the recorded p99_ms on serve-churn",
        ),
        def(
            "serve.cache.steals",
            "count",
            "lower",
            "peak_rss_mb and the recorded p99_ms on serve-churn",
        ),
        def(
            "serve.batch.mean_columns",
            "columns",
            "higher",
            "light_cpu_ms on serve-hot (and the recorded capacity_per_s)",
        ),
        def(
            "core.session_build_us.analysis",
            "us",
            "lower",
            "op_cpu_us on serve-churn",
        ),
        def(
            "core.session_build_us.sharing",
            "us",
            "lower",
            "op_cpu_us on serve-churn",
        ),
        def(
            "core.session_build_us.impedance",
            "us",
            "lower",
            "op_cpu_us on serve-churn",
        ),
        def(
            "core.session_build_us.faults",
            "us",
            "lower",
            "op_cpu_us on serve-churn",
        ),
    ]);
    for sweep in ["mc", "faults", "zsweep", "droopsweep", "faultdyn"] {
        out.push(def(
            &format!("core.sweep_ms.{sweep}"),
            "ms",
            "lower",
            "heavy_cpu_ms on cli-repro",
        ));
    }
    out.extend([
        def(
            "circuit.plan_compile_us.dc",
            "us",
            "lower",
            "op_cpu_us on serve-churn, light_cpu_ms on cli-repro",
        ),
        def(
            "circuit.plan_compile_us.ac",
            "us",
            "lower",
            "op_cpu_us on serve-churn, light_cpu_ms on cli-repro",
        ),
        def(
            "circuit.plan_compile_us.transient",
            "us",
            "lower",
            "op_cpu_us on serve-churn, light_cpu_ms on cli-repro",
        ),
        def(
            "circuit.dc_solve_us",
            "us",
            "lower",
            "heavy_cpu_ms on cli-repro",
        ),
        def(
            "circuit.restamps_per_op",
            "count",
            "lower",
            "heavy_cpu_ms on cli-repro",
        ),
        def(
            "circuit.solves_per_op",
            "count",
            "lower",
            "heavy_cpu_ms on cli-repro",
        ),
        def(
            "circuit.grid_compiles_per_op",
            "count",
            "lower",
            "heavy_cpu_ms on cli-repro",
        ),
        def(
            "numeric.symbolic_us",
            "us",
            "lower",
            "heavy_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "numeric.refactor_us",
            "us",
            "lower",
            "heavy_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "numeric.solve_us",
            "us",
            "lower",
            "heavy_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "numeric.cg_iters_per_solve",
            "count",
            "lower",
            "heavy_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "numeric.fallbacks_per_op",
            "count",
            "lower",
            "heavy_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "numeric.factor_nnz",
            "count",
            "lower",
            "heavy_cpu_ms on cli-repro; serve-hot unchanged",
        ),
        def(
            "numeric.solve_bytes_computed",
            "bytes",
            "lower",
            "heavy_cpu_ms on cli-repro (computed from sizes, not measured)",
        ),
        def(
            "report.serialize_us",
            "us",
            "lower",
            "op_cpu_us on serve-hot, light_cpu_ms on cli-repro",
        ),
        def(
            "report.parse_us",
            "us",
            "lower",
            "op_cpu_us on serve-hot, light_cpu_ms on cli-repro",
        ),
        def(
            "report.response_bytes",
            "bytes",
            "lower",
            "op_cpu_us on serve-hot, light_cpu_ms on cli-repro",
        ),
        def(
            "obs.overhead_frac",
            "ratio",
            "lower",
            "cost of leaving metrics on: (traced - untraced) / untraced, per workload",
        ),
    ]);
    for layer in LAYERS {
        out.push(def(
            &format!("span.self_ms.{layer}"),
            "ms",
            "lower",
            "self time of this layer's spans in the traced run",
        ));
    }
    out
}
