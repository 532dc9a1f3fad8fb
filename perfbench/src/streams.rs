//! Seeded workload inputs. Every command list and request stream is a
//! pure function of the seed (and, for open loops, the fixed rate and
//! duration), so one seed always gives byte-identical inputs.

use crate::rng::Rng;

/// The seed later changes confirm a claim on. It is never used while
/// a change is being tuned.
pub const HELD_OUT_SEED: u64 = 20_231_023;

/// The builtin architectures, in wire spelling.
pub const ARCHS: [&str; 5] = ["a0", "a1", "a2", "a3-12", "a3-6"];

/// One `vpd` invocation of the command list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliCmd {
    /// Metric key (`cli.cmd_ms.<name>`).
    pub name: String,
    /// Arguments after `vpd --format json`.
    pub args: Vec<String>,
}

fn cmd(name: &str, args: &str) -> CliCmd {
    CliCmd {
        name: name.to_owned(),
        args: args.split_whitespace().map(str::to_owned).collect(),
    }
}

/// The `cli-repro` command lists `(light, heavy)`. The seed picks the
/// Monte-Carlo and random-k fault seeds and the order within each list.
#[must_use]
pub fn cli_commands(seed: u64) -> (Vec<CliCmd>, Vec<CliCmd>) {
    let mut rng = Rng::new(seed);
    let mut light = Vec::new();
    for a in ARCHS {
        light.push(cmd(&format!("analyze.{a}"), &format!("analyze --arch {a}")));
    }
    light.push(cmd("matrix", "matrix"));
    light.push(cmd("recommend", "recommend"));
    for p in ["periphery", "below"] {
        light.push(cmd(
            &format!("sharing.{p}"),
            &format!("sharing --placement {p}"),
        ));
    }
    light.push(cmd("impedance.all", "impedance --arch all"));
    light.push(cmd("thermal.a1", "thermal --arch a1"));
    light.push(cmd("thermal.a2-gan", "thermal --arch a2 --tech gan"));
    for a in ARCHS {
        light.push(cmd(
            &format!("scenario.{a}"),
            &format!("scenario run --name {a}"),
        ));
    }
    let mc_seed = rng.next_u64() % 1_000_000;
    let fault_seed = rng.next_u64() % 1_000_000;
    let mut heavy = vec![
        cmd(
            "mc.a2",
            &format!("mc --arch a2 --samples 200 --seed {mc_seed}"),
        ),
        cmd("droop.a2-sweep", "droop --arch a2 --sweep"),
        cmd("faults.n-1", "faults --arch a2 --n-minus-1"),
        cmd(
            "faults.random-k",
            &format!("faults --arch a2 --random-k 3 --count 128 --seed {fault_seed}"),
        ),
        cmd("faults.dynamic", "faults --arch a2 --dynamic"),
    ];
    rng.shuffle(&mut light);
    rng.shuffle(&mut heavy);
    (light, heavy)
}

/// A request line without its `id`: `"kind":...,"params":{...}`.
pub type Body = String;

/// Wraps a body into a request line with `id`.
#[must_use]
pub fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}")
}

/// The `serve-hot` request set `(light, heavy)`: builtin analyses,
/// sharing, builtin scenarios, and `sharing_sweep`s that share one
/// plan (light); small impedance and Monte-Carlo runs (heavy).
#[must_use]
pub fn hot_set(seed: u64) -> (Vec<Body>, Vec<Body>) {
    let mut rng = Rng::new(seed ^ 0x0068_6f74);
    let mut light = Vec::new();
    for a in ARCHS {
        light.push(format!(r#""kind":"analyze","params":{{"arch":"{a}"}}"#));
    }
    for p in ["periphery", "below"] {
        light.push(format!(
            r#""kind":"sharing","params":{{"placement":"{p}","modules":48}}"#
        ));
    }
    for a in ARCHS {
        light.push(format!(r#""kind":"scenario","params":{{"name":"{a}"}}"#));
    }
    for _ in 0..8 {
        let (x, y) = (rng.range(0.99, 1.01), rng.range(0.99, 1.01));
        light.push(format!(
            r#""kind":"sharing_sweep","params":{{"placement":"below","modules":48,"setpoints":[{x},{y}]}}"#
        ));
    }
    let mut heavy = Vec::new();
    for arch in ["a1", "a2"] {
        let mc_seed = rng.next_u64() % 1_000_000;
        heavy.push(format!(
            r#""kind":"mc","params":{{"arch":"{arch}","samples":6,"seed":{mc_seed},"threads":1}}"#
        ));
        heavy.push(format!(
            r#""kind":"impedance","params":{{"arch":"{arch}","points":16}}"#
        ));
    }
    (light, heavy)
}

/// The request of `serve-churn` at `index` in stream `stream` (the
/// open loop and the closed loop draw from different streams): three
/// light `analyze` requests (see [`churn_analyze`]) to one heavy inline
/// scenario document (see [`churn_scenario`]). The light share keeps the
/// median inside one request class. Every request has a cache key no
/// other has.
#[must_use]
pub fn churn_body(seed: u64, stream: u64, index: u64) -> Body {
    if index % 4 == 3 {
        churn_scenario(seed, stream, index)
    } else {
        churn_analyze(seed, stream, index)
    }
}

/// A light churn request: `analyze` of A2 with fresh float parameters.
/// One architecture keeps the light requests' cost in one class.
#[must_use]
pub fn churn_analyze(seed: u64, stream: u64, index: u64) -> Body {
    let mut rng = churn_rng(seed, stream, index);
    let arch = "a2";
    let power = rng.range(700.0, 1100.0);
    let density = rng.range(1.6, 2.4);
    format!(
        r#""kind":"analyze","params":{{"arch":"{arch}","power_w":{power},"density":{density}}}"#
    )
}

/// A heavy churn request: the inline document [`churn_doc`].
#[must_use]
pub fn churn_scenario(seed: u64, stream: u64, index: u64) -> Body {
    format!(
        r#""kind":"scenario","params":{{"doc":{}}}"#,
        vpd_report::Json::from(churn_doc(seed, stream, index))
    )
}

fn churn_rng(seed: u64, stream: u64, index: u64) -> Rng {
    Rng::for_item(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f), index)
}

/// The `.vpd` document of churn request `index`: a builtin
/// architecture with seeded perturbations of `[spec]`, `[calibration]`
/// and `[load]`, and a `[faults]` block when `index` is a multiple of 3.
#[must_use]
pub fn churn_doc(seed: u64, stream: u64, index: u64) -> String {
    let mut rng = churn_rng(seed, stream, index);
    let arch = ARCHS[rng.below(ARCHS.len())];
    let placement = if arch == "a2" { "below" } else { "periphery" };
    let mut doc = format!(
        "[scenario]\nname = \"churn-{stream}-{index}\"\narchitecture = \"{arch}\"\n\
         topology = \"dsch\"\nplacement = \"{placement}\"\nallow_overload = true\n\
         solve_mode = \"warm-cg\"\n\n[spec]\npcb_v = 48\npol_v = 1\npower_w = {}\n\
         density_a_mm2 = {}\n\n[calibration]\nhorizontal_pol_uohm = {}\n\
         horizontal_hv_mohm = 10\ninterposer_bus_mohm = {}\ngrid_sheet_mohm = {}\n\
         vr_droop_periphery_mohm = 1.2\nvr_droop_below_die_uohm = {}\n\
         grid_nodes_per_side = 25\n\n[load]\nmap = \"gaussian\"\ncx = {}\ncy = {}\n\
         sigma = {}\nfloor = {}\n",
        rng.range(800.0, 1100.0),
        rng.range(1.6, 2.4),
        rng.range(250.0, 310.0),
        rng.range(1.0, 1.3),
        rng.range(0.27, 0.33),
        rng.range(50.0, 70.0),
        rng.range(0.4, 0.6),
        rng.range(0.4, 0.6),
        rng.range(0.07, 0.12),
        rng.range(0.25, 0.4),
    );
    if index.is_multiple_of(3) {
        doc.push_str(&format!(
            "\n[faults]\nmode = \"random-k\"\nk = 2\ncount = 8\nseed = {}\n",
            rng.next_u64() % 1_000_000
        ));
    }
    doc
}

/// Open-loop arrival offsets (seconds from the phase start) of a
/// Poisson process at `rate` per second over `seconds`.
#[must_use]
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x6172_7269_7661_6c73);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp_gap(rate);
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Request indices reserved per open-loop slice, so every slice of a
/// run draws requests no other slice draws.
pub const SLICE_STRIDE: u64 = 1_000_000;

/// The `serve-hot` open-loop stream of slice `slice`: one request line
/// per arrival, drawn from the request set, ids from 1.
#[must_use]
pub fn hot_open_loop(seed: u64, slice: u64, rate: f64, seconds: f64) -> Vec<(f64, String)> {
    let (light, heavy) = hot_set(seed);
    let all: Vec<&Body> = light.iter().chain(&heavy).collect();
    let slice_seed = seed ^ slice.wrapping_mul(0x9e37_79b9);
    let mut rng = Rng::new(slice_seed ^ 0x7069_636b);
    arrivals(slice_seed, rate, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, line(i as u64 + 1, all[rng.below(all.len())])))
        .collect()
}

/// The `serve-churn` open-loop stream of slice `slice`, ids from 1.
#[must_use]
pub fn churn_open_loop(seed: u64, slice: u64, rate: f64, seconds: f64) -> Vec<(f64, String)> {
    let slice_seed = seed ^ slice.wrapping_mul(0x9e37_79b9);
    arrivals(slice_seed, rate, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let index = slice * SLICE_STRIDE + i as u64;
            (t, line(i as u64 + 1, &churn_body(seed, 0, index)))
        })
        .collect()
}
