//! The traced run's layer probes: timed calls into the public
//! functions of `vpd-scenario`, `vpd-core`, `vpd-circuit` and
//! `vpd-numeric` at the CLI's sizes. Each call is repeated and its
//! median reported, so one slow call does not move the figure.

use vpd_circuit::{AcPlan, PowerGrid, SparseDcPlan, TransientPlan, TransientSettings};
use vpd_converters::VrTopologyKind;
use vpd_core::{
    AnalysisOptions, AnalysisSession, Architecture, Calibration, DroopSweep, DroopSweepSettings,
    FaultImpedanceSweep, FaultScenario, FaultSweep, FaultTransientSweep, ImpedanceSweep,
    ImpedanceSweepSettings, LoadStep, McSettings, PdnModel, SharingSolver, SystemSpec,
    VrFailureScenario, VrPlacement,
};
use vpd_numeric::{CooMatrix, CsrMatrix, SparseCholesky, SymbolicCholesky};
use vpd_scenario::ScenarioDoc;
use vpd_serve::{FAULT_TRANSIENT_DT_NS, FAULT_TRANSIENT_SIM_US, FAULT_TRANSIENT_WINDOW_US};
use vpd_units::{Amps, Ohms, Seconds, Volts};

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of each cheap call.
const REPS: usize = 15;
/// Repetitions of each sweep.
const SWEEP_REPS: usize = 3;
/// Side of the A2 die grid (625 unknowns), as the builtins set it.
const GRID_SIDE: usize = 25;
/// Regulator modules on the grid.
const MODULES: usize = 48;

/// Median seconds of `reps` timed calls of `f`.
fn med<T>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| tracer.time(layer, name, &mut f).1.as_secs_f64())
        .collect();
    median(&times)
}

/// `vpd-scenario`: parse, compile and render, per document.
pub fn scenario(docs: &[String], tracer: &mut Tracer, report: &mut Report) {
    let (mut parse, mut compile, mut render) = (Vec::new(), Vec::new(), Vec::new());
    for text in docs {
        parse.push(med(tracer, "vpd-scenario", "parse", REPS, || {
            ScenarioDoc::parse(text)
        }));
        let doc = match ScenarioDoc::parse(text) {
            Ok(doc) => doc,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("scenario probe: document does not parse: {e}"));
                continue;
            }
        };
        compile.push(med(tracer, "vpd-scenario", "compile", REPS, || {
            doc.compile()
        }));
        render.push(med(tracer, "vpd-scenario", "render", REPS, || doc.render()));
    }
    report.metric("scenario.parse_us", median(&parse) * 1e6, "us");
    report.metric("scenario.compile_us", median(&compile) * 1e6, "us");
    report.metric("scenario.render_us", median(&render) * 1e6, "us");
}

/// `vpd-core`: engine construction, and each sweep at the CLI's sizes
/// on engines that are already built.
///
/// # Panics
///
/// If an engine rejects the paper's default configuration.
pub fn core(tracer: &mut Tracer, report: &mut Report) {
    let spec = SystemSpec::paper_default();
    let calib = Calibration::paper_default();
    let opts = AnalysisOptions::default();
    let arch = Architecture::InterposerEmbedded;
    let topo = VrTopologyKind::Dsch;
    let sim = Seconds::from_microseconds(60.0);
    let dt = Seconds::from_nanoseconds(10.0);

    let mut build = |name: &str, f: &mut dyn FnMut()| {
        let t = med(tracer, "vpd-core", name, REPS, f);
        report.metric(&format!("core.session_build_us.{name}"), t * 1e6, "us");
    };
    build("analysis", &mut || {
        let _ = std::hint::black_box(AnalysisSession::new(arch, &spec, &calib, &opts));
    });
    build("sharing", &mut || {
        let _ = std::hint::black_box(
            SharingSolver::builder(&spec, &calib)
                .placement(VrPlacement::BelowDie)
                .modules(MODULES)
                .build(),
        );
    });
    build("impedance", &mut || {
        let _ = std::hint::black_box(ImpedanceSweep::for_architecture(arch, &spec));
    });
    build("faults", &mut || {
        let _ = std::hint::black_box(FaultSweep::new(arch, topo, &spec, &calib));
    });

    let mut session = AnalysisSession::new(arch, &spec, &calib, &opts).expect("A2 session");
    let mc = McSettings {
        samples: 200,
        ..McSettings::default()
    };
    let t = med(tracer, "vpd-core", "mc", SWEEP_REPS, || {
        vpd_core::run_tolerance_with(&mut session, topo, &calib, &mc).expect("mc sweep")
    });
    report.metric("core.sweep_ms.mc", t * 1e3, "ms");

    let faults = FaultSweep::new(arch, topo, &spec, &calib).expect("fault sweep");
    let n1 = FaultScenario::n_minus_1(faults.vr_count());
    let t = med(tracer, "vpd-core", "faults", SWEEP_REPS, || {
        faults.run(&n1, 0).expect("faults")
    });
    report.metric("core.sweep_ms.faults", t * 1e3, "ms");

    let z = ImpedanceSweep::for_architecture(arch, &spec).expect("impedance sweep");
    let zs = ImpedanceSweepSettings::default();
    let t = med(tracer, "vpd-core", "zsweep", SWEEP_REPS, || {
        z.run(&zs).expect("zsweep")
    });
    report.metric("core.sweep_ms.zsweep", t * 1e3, "ms");

    let droop = DroopSweep::for_architecture(arch, &spec, sim, dt).expect("droop sweep");
    let ds = DroopSweepSettings::paper_default(&spec, 4, 3).expect("droop settings");
    let t = med(tracer, "vpd-core", "droopsweep", SWEEP_REPS, || {
        droop.run(&ds).expect("droop")
    });
    report.metric("core.sweep_ms.droopsweep", t * 1e3, "ms");

    let fz = FaultImpedanceSweep::new(arch, &spec, &calib).expect("fault impedance sweep");
    let fz_scen = FaultScenario::n_minus_1(fz.vr_count());
    let freqs = ImpedanceSweepSettings {
        fmin: vpd_units::Hertz::new(vpd_serve::proto::wire_default_f64(
            "fault_impedance",
            "fmin_hz",
        )),
        fmax: vpd_units::Hertz::new(vpd_serve::proto::wire_default_f64(
            "fault_impedance",
            "fmax_hz",
        )),
        points: vpd_serve::proto::wire_default_count("fault_impedance", "points"),
        threads: 0,
    }
    .frequencies()
    .expect("fault impedance grid");
    let ft = FaultTransientSweep::new(
        arch,
        &PdnModel::for_architecture(arch),
        &LoadStep::paper_default(&spec),
        Seconds::from_microseconds(FAULT_TRANSIENT_SIM_US),
        Seconds::from_nanoseconds(FAULT_TRANSIENT_DT_NS),
    )
    .expect("fault transient sweep");
    let fails = VrFailureScenario::grid(
        vpd_serve::proto::wire_default_count("fault_transient", "count"),
        Seconds::from_microseconds(FAULT_TRANSIENT_WINDOW_US),
    );
    let t = med(tracer, "vpd-core", "faultdyn", SWEEP_REPS, || {
        (
            fz.run(&fz_scen, &freqs, 0).expect("faulted impedance"),
            ft.run(&fails, 0).expect("fault transients"),
        )
    });
    report.metric("core.sweep_ms.faultdyn", t * 1e3, "ms");
}

/// The A2 die grid as `vpd-circuit` builds it: a 25 × 25 mesh with the
/// paper's 48 regulators and a uniform 1 kA load.
fn a2_grid() -> PowerGrid {
    let calib = Calibration::paper_default();
    let mut grid = PowerGrid::new(GRID_SIDE, GRID_SIDE, Ohms::new(0.3e-3)).expect("grid");
    for k in 0..MODULES {
        let (x, y) = ((k * 7) % GRID_SIDE, (k * 11 + 3) % GRID_SIDE);
        grid.attach_regulator(x, y, Volts::new(1.0), calib.vr_droop_below_die)
            .expect("regulator");
    }
    grid.attach_uniform_load(Amps::new(1000.0)).expect("load");
    grid
}

/// `vpd-circuit`: DC, AC and transient plan compiles, and one DC
/// restamp + solve on a compiled plan.
///
/// # Panics
///
/// If a plan fails to compile on the paper's networks.
pub fn circuit(tracer: &mut Tracer, report: &mut Report) {
    let grid = a2_grid();
    let net = grid.netlist();
    let t = med(tracer, "vpd-circuit", "dc_compile", REPS, || {
        SparseDcPlan::compile(net)
    });
    report.metric("circuit.plan_compile_us.dc", t * 1e6, "us");
    let mut plan = SparseDcPlan::compile(net).expect("dc plan");
    plan.solve(net).expect("dc solve");
    let t = med(tracer, "vpd-circuit", "dc_solve", REPS, || {
        plan.solve(net).expect("dc solve")
    });
    report.metric("circuit.dc_solve_us", t * 1e6, "us");

    let (pdn, _) = PdnModel::for_architecture(Architecture::InterposerEmbedded)
        .netlist()
        .expect("pdn netlist");
    let t = med(tracer, "vpd-circuit", "ac_compile", REPS, || {
        AcPlan::compile(&pdn)
    });
    report.metric("circuit.plan_compile_us.ac", t * 1e6, "us");
    let settings = TransientSettings::new(
        Seconds::from_microseconds(60.0),
        Seconds::from_nanoseconds(10.0),
    )
    .expect("transient settings");
    let t = med(tracer, "vpd-circuit", "transient_compile", REPS, || {
        TransientPlan::compile(&pdn, &settings)
    });
    report.metric("circuit.plan_compile_us.transient", t * 1e6, "us");
}

/// The 625-unknown grid Laplacian with one grounded droop conductance
/// per module site: the system the A2 sharing solve reduces to.
fn grid_matrix(droop_ohm: f64) -> CsrMatrix {
    let side = GRID_SIDE;
    let n = side * side;
    let id = |x: usize, y: usize| y * side + x;
    let g = 1.0 / 0.3e-3;
    let mut coo = CooMatrix::new(n, n);
    for y in 0..side {
        for x in 0..side {
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx < side && ny < side {
                    let (a, b) = (id(x, y), id(nx, ny));
                    coo.push(a, a, g);
                    coo.push(b, b, g);
                    coo.push(a, b, -g);
                    coo.push(b, a, -g);
                }
            }
        }
    }
    for k in 0..MODULES {
        let i = id((k * 7) % side, (k * 11 + 3) % side);
        coo.push(i, i, 1.0 / droop_ohm);
    }
    coo.to_csr()
}

/// `vpd-numeric`: `SparseCholesky` symbolic analysis, numeric
/// refactorization and one solve on the A2 grid, with the factor's
/// size and the bytes one solve moves, computed from sizes.
///
/// # Panics
///
/// If the grid matrix is not positive definite (a bug in the probe).
pub fn numeric(tracer: &mut Tracer, report: &mut Report) {
    // Two value sets on one pattern: a refactorization whose values did
    // not change is skipped, so the probe alternates between them.
    let pair = [grid_matrix(60e-6), grid_matrix(61e-6)];
    let a = &pair[0];
    let n = GRID_SIDE * GRID_SIDE;
    let t = med(tracer, "vpd-numeric", "symbolic", REPS, || {
        SymbolicCholesky::analyze(a)
    });
    report.metric("numeric.symbolic_us", t * 1e6, "us");
    let mut chol = SparseCholesky::factor(a).expect("grid factors");
    let mut flip = 0;
    let t = med(tracer, "vpd-numeric", "refactor", REPS, || {
        flip ^= 1;
        chol.refactor(&pair[flip]).expect("refactor");
    });
    report.metric("numeric.refactor_us", t * 1e6, "us");
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect();
    let mut x = b.clone();
    let t = med(tracer, "vpd-numeric", "solve", REPS, || {
        x.copy_from_slice(&b);
        chol.solve_into(&mut x).expect("solve");
    });
    report.metric("numeric.solve_us", t * 1e6, "us");
    let nnz = chol.symbolic().factor_nnz();
    report.metric("numeric.factor_nnz", nnz as f64, "count");
    // Forward and back substitution each stream L once (an f64 value
    // and a usize row index per entry) and touch the permuted vector
    // (read and write) on the way: computed, not measured.
    let bytes = 2 * nnz * (8 + std::mem::size_of::<usize>()) + 4 * n * 8;
    report.metric("numeric.solve_bytes_computed", bytes as f64, "bytes");
}
