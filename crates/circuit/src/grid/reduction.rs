//! Exact Kron (Schur-complement) reduction of a [`PowerGrid`] mesh onto
//! its regulator nodes.
//!
//! Split the mesh nodes into *ports* (nodes with at least one regulator
//! attached) and *interior* nodes. With the mesh Laplacian `L`, the load
//! right-hand side `b`, and each regulator `k` a conductance `g_k` from
//! its port to a source at `V_k`, the grid equations are
//!
//! ```text
//! [ L_II  L_IP     ] [v_I]   [ b_I     ]
//! [ L_PI  L_PP + D ] [v_P] = [ b_P + d ]      D = diag(Σ g_k),  d = Σ g_k·V_k
//! ```
//!
//! Eliminating the interior once gives `W = L_II⁻¹·L_IP`, the load
//! response `u = L_II⁻¹·b_I`, the dense port Laplacian
//! `S = L_PP − L_PI·W` and the port load vector `c = b_P − L_PI·u`.
//! Regulators only enter `D` and `d`, so any droops and setpoints solve
//! as `(S + D)·v_P = c + d` followed by `v_I = u − W·v_P`. Scaling every
//! mesh edge by one factor `s` scales `L` by `1/s`, which leaves `W` and
//! `c` alone and turns `S` into `S/s` and `u` into `s·u`.

use super::PowerGrid;
use crate::{CircuitError, ElementId, ElementKind, Netlist};
use vpd_numeric::{CooMatrix, SparseCholesky};

/// A [`PowerGrid`]'s mesh reduced exactly onto its regulator nodes.
///
/// Built once from a grid ([`PortReduction::new`]: one sparse Cholesky
/// of the interior mesh and one block solve with a column per port plus
/// one for the loads), it then answers [`PortReduction::predict`] for any
/// regulator droops and setpoints — open or derated modules included —
/// and any uniform scale of the sheet resistance, at
/// `O(ports² + ports·nodes)` per call.
///
/// ```
/// use vpd_circuit::{PortReduction, PowerGrid};
/// use vpd_units::{Amps, Ohms, Volts};
///
/// # fn main() -> Result<(), vpd_circuit::CircuitError> {
/// let mut grid = PowerGrid::new(8, 8, Ohms::from_milliohms(2.0))?;
/// grid.attach_uniform_load(Amps::new(64.0))?;
/// grid.attach_regulator(1, 1, Volts::new(1.0), Ohms::from_milliohms(1.0))?;
/// grid.attach_regulator(6, 6, Volts::new(1.0), Ohms::from_milliohms(1.0))?;
/// let reduction = PortReduction::new(&grid)?;
/// // Open one module: the reduction still predicts the exact answer.
/// grid.set_regulator_droop(0, Ohms::new(1e9))?;
/// let predicted = reduction.predict(&grid).expect("only a port changed");
/// let solved = grid.solve()?;
/// for (p, s) in predicted.iter().zip(solved.node_voltages()) {
///     assert!((p - s).abs() < 1e-9);
/// }
/// // A change away from the ports is outside the reduction.
/// grid.scale_region_resistance(2, 2, 4, 4, 10.0)?;
/// assert!(reduction.predict(&grid).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PortReduction {
    nx: usize,
    ny: usize,
    node_count: usize,
    element_count: usize,
    /// Mesh index (`y·nx + x`) of each regulator, in attach order.
    sites: Vec<usize>,
    /// Port index of each regulator, in attach order.
    reg_port: Vec<usize>,
    /// Per mesh index: `Ok(port)` or `Err(interior row)`.
    slot: Vec<Result<usize, usize>>,
    /// Reference mesh-edge resistances, in `mesh_edges` order.
    edge_r: Vec<f64>,
    /// Reference load currents, in `loads` order.
    load_i: Vec<f64>,
    /// `W = L_II⁻¹·L_IP`, column-major: `w[p·interior + i]`.
    w: Vec<f64>,
    /// `u = L_II⁻¹·b_I` at the reference sheet.
    u: Vec<f64>,
    /// `S = L_PP − L_PI·W`, row-major `ports × ports`.
    s: Vec<f64>,
    /// `c = b_P − L_PI·u`.
    c: Vec<f64>,
}

/// The DC value of a resistor element.
fn resistance(net: &Netlist, id: ElementId) -> Result<f64, CircuitError> {
    match net.element(id)?.kind {
        ElementKind::Resistor { r } => Ok(r.value()),
        _ => Err(CircuitError::UnknownElement { index: id.index() }),
    }
}

/// The current of a load element.
fn load_current(net: &Netlist, id: ElementId) -> Result<f64, CircuitError> {
    match net.element(id)?.kind {
        ElementKind::CurrentSource { i } => Ok(i.value()),
        _ => Err(CircuitError::UnknownElement { index: id.index() }),
    }
}

/// The voltage of a source element.
fn source_voltage(net: &Netlist, id: ElementId) -> Result<f64, CircuitError> {
    match net.element(id)?.kind {
        ElementKind::VoltageSource { v } => Ok(v.value()),
        _ => Err(CircuitError::UnknownElement { index: id.index() }),
    }
}

impl PortReduction {
    /// Reduces `grid`'s mesh, at its current edge resistances and loads,
    /// onto the nodes its regulators attach to.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::FloatingNode`] when no regulator is attached.
    /// * [`CircuitError::Numeric`] if the interior factorization fails.
    pub fn new(grid: &PowerGrid) -> Result<Self, CircuitError> {
        let _span = vpd_obs::span("reduction.build_ns");
        if grid.regulators.is_empty() {
            return Err(CircuitError::FloatingNode {
                label: "port reduction needs a regulator".to_owned(),
            });
        }
        let net = &grid.net;
        let mesh_nodes = grid.nodes.len();
        let mut mesh_of_node = vec![usize::MAX; net.node_count()];
        for (m, node) in grid.nodes.iter().enumerate() {
            mesh_of_node[node.index()] = m;
        }

        let sites: Vec<usize> = grid
            .regulators
            .iter()
            .map(|r| r.y * grid.nx + r.x)
            .collect();
        let mut port_of_mesh = vec![usize::MAX; mesh_nodes];
        let mut reg_port = Vec::with_capacity(sites.len());
        let mut ports = 0;
        for &m in &sites {
            if port_of_mesh[m] == usize::MAX {
                port_of_mesh[m] = ports;
                ports += 1;
            }
            reg_port.push(port_of_mesh[m]);
        }
        let mut interior = 0;
        let slot: Vec<Result<usize, usize>> = port_of_mesh
            .iter()
            .map(|&p| {
                if p == usize::MAX {
                    interior += 1;
                    Err(interior - 1)
                } else {
                    Ok(p)
                }
            })
            .collect();

        // Stamp the mesh: L_II as a sparse matrix, L_PP densely, and the
        // interior-port couplings as (interior row, port, conductance).
        let mut l_ii = CooMatrix::new(interior, interior);
        let mut s = vec![0.0; ports * ports];
        let mut couplings = Vec::new();
        let mut edge_r = Vec::with_capacity(grid.mesh_edges.len());
        for &id in &grid.mesh_edges {
            let r = resistance(net, id)?;
            edge_r.push(r);
            let g = 1.0 / r;
            let e = net.element(id)?;
            let a = slot[mesh_of_node[e.a.index()]];
            let b = slot[mesh_of_node[e.b.index()]];
            match (a, b) {
                (Err(i), Err(j)) => {
                    l_ii.push(i, i, g);
                    l_ii.push(j, j, g);
                    l_ii.push(i, j, -g);
                    l_ii.push(j, i, -g);
                }
                (Err(i), Ok(p)) | (Ok(p), Err(i)) => {
                    l_ii.push(i, i, g);
                    s[p * ports + p] += g;
                    couplings.push((i, p, g));
                }
                (Ok(p), Ok(q)) => {
                    s[p * ports + p] += g;
                    s[q * ports + q] += g;
                    s[p * ports + q] -= g;
                    s[q * ports + p] -= g;
                }
            }
        }
        let mut b = vec![0.0; mesh_nodes];
        let mut load_i = Vec::with_capacity(grid.loads.len());
        for &id in &grid.loads {
            let i = load_current(net, id)?;
            load_i.push(i);
            b[mesh_of_node[net.element(id)?.a.index()]] -= i;
        }

        // One block solve: column p is L_IP's column p (so it returns
        // W's column p), the last column is b_I (returning u).
        let mut block = vec![0.0; interior * (ports + 1)];
        for &(i, p, g) in &couplings {
            block[p * interior + i] -= g;
        }
        for (m, &bm) in b.iter().enumerate() {
            if let Err(i) = slot[m] {
                block[ports * interior + i] = bm;
            }
        }
        if interior > 0 {
            SparseCholesky::factor(&l_ii.to_csr())?.solve_block_into(&mut block, ports + 1)?;
        }
        let u = block.split_off(ports * interior);
        let w = block;

        // S = L_PP − L_PI·W and c = b_P − L_PI·u, with L_PI = −g at
        // each coupling.
        let mut c = vec![0.0; ports];
        for (m, &bm) in b.iter().enumerate() {
            if let Ok(p) = slot[m] {
                c[p] += bm;
            }
        }
        for &(i, p, g) in &couplings {
            for q in 0..ports {
                s[p * ports + q] += g * w[q * interior + i];
            }
            c[p] += g * u[i];
        }
        vpd_obs::incr("reduction.builds");
        Ok(Self {
            nx: grid.nx,
            ny: grid.ny,
            node_count: net.node_count(),
            element_count: net.element_count(),
            sites,
            reg_port,
            slot,
            edge_r,
            load_i,
            w,
            u,
            s,
            c,
        })
    }

    /// Number of distinct regulator nodes the mesh is reduced onto.
    #[must_use]
    pub fn port_count(&self) -> usize {
        self.c.len()
    }

    /// The exact node voltages of `grid` (indexed like
    /// [`crate::DcSolution::node_voltages`]) for its current regulator
    /// droops and setpoints and its sheet scale.
    ///
    /// Returns `None` when `grid` left what the reduction covers: a
    /// different mesh or node count, an added element, a moved
    /// regulator, changed load currents, or mesh edges that are not all
    /// one common multiple of their reference values (a region-scaled
    /// patch). Also `None` if the port system is not numerically
    /// positive definite (every module open).
    #[must_use]
    pub fn predict(&self, grid: &PowerGrid) -> Option<Vec<f64>> {
        let net = &grid.net;
        let unchanged = grid.nx == self.nx
            && grid.ny == self.ny
            && net.node_count() == self.node_count
            && net.element_count() == self.element_count
            && grid.regulators.len() == self.sites.len()
            && grid.loads.len() == self.load_i.len()
            && grid.mesh_edges.len() == self.edge_r.len()
            && grid
                .regulators
                .iter()
                .zip(&self.sites)
                .all(|(r, &m)| r.y * grid.nx + r.x == m)
            && grid.loads.iter().zip(&self.load_i).all(|(&id, &i)| {
                load_current(net, id).is_ok_and(|now| now.to_bits() == i.to_bits())
            });
        if !unchanged {
            vpd_obs::incr("reduction.misses");
            return None;
        }
        // Uniform sheet scale: every edge the same multiple of its
        // reference, bit for bit.
        let mut scale = 1.0;
        for (k, (&id, &r_ref)) in grid.mesh_edges.iter().zip(&self.edge_r).enumerate() {
            let ratio = resistance(net, id).ok()? / r_ref;
            if k == 0 {
                scale = ratio;
            } else if ratio.to_bits() != scale.to_bits() {
                vpd_obs::incr("reduction.misses");
                return None;
            }
        }

        let ports = self.port_count();
        let mut a: Vec<f64> = self.s.iter().map(|v| v / scale).collect();
        let mut v_p = self.c.clone();
        let mut setpoints = Vec::with_capacity(self.sites.len());
        for (r, &p) in grid.regulators.iter().zip(&self.reg_port) {
            let g = 1.0 / resistance(net, r.droop_element).ok()?;
            let v = source_voltage(net, r.source_element).ok()?;
            a[p * ports + p] += g;
            v_p[p] += g * v;
            setpoints.push(v);
        }
        if !cholesky_solve_in_place(&mut a, ports, &mut v_p) {
            vpd_obs::incr("reduction.misses");
            return None;
        }

        // v_I = s·u − W·v_P, accumulated column by column.
        let interior = self.u.len();
        let mut v_i: Vec<f64> = self.u.iter().map(|u| scale * u).collect();
        for (q, &vq) in v_p.iter().enumerate() {
            for (vi, wi) in v_i
                .iter_mut()
                .zip(&self.w[q * interior..(q + 1) * interior])
            {
                *vi -= wi * vq;
            }
        }
        let mut out = vec![0.0; self.node_count];
        for (node, slot) in grid.nodes.iter().zip(&self.slot) {
            out[node.index()] = match *slot {
                Ok(p) => v_p[p],
                Err(i) => v_i[i],
            };
        }
        for (r, v) in grid.regulators.iter().zip(setpoints) {
            out[r.source_node.index()] = v;
        }
        vpd_obs::incr("reduction.predictions");
        Some(out)
    }
}

/// Solves the SPD system `a·x = b` in place (`a` row-major `n × n`,
/// lower triangle read and overwritten by its Cholesky factor; `b`
/// becomes `x`). Returns `false` on a non-positive or non-finite pivot.
fn cholesky_solve_in_place(a: &mut [f64], n: usize, b: &mut [f64]) -> bool {
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if !(d > 0.0 && d.is_finite()) {
            return false;
        }
        a[j * n + j] = d.sqrt();
        for i in j + 1..n {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = sum / a[j * n + j];
        }
    }
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= a[i * n + k] * b[k];
        }
        b[i] = sum / a[i * n + i];
    }
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= a[k * n + i] * b[k];
        }
        b[i] = sum / a[i * n + i];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DcPlanMode;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vpd_units::{Amps, Ohms, Volts};

    /// Droop of an electrically open module (the fault engine's value).
    const OPEN: f64 = 1e9;

    fn direct_solution(grid: &PowerGrid) -> Vec<f64> {
        let mut direct = grid.clone();
        direct.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        direct.solve_cached().unwrap().node_voltages().to_vec()
    }

    fn assert_matches(predicted: &[f64], exact: &[f64]) {
        assert_eq!(predicted.len(), exact.len());
        let scale = exact.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        for (node, (p, e)) in predicted.iter().zip(exact).enumerate() {
            assert!(
                (p - e).abs() <= 1e-12 * scale,
                "node {node}: predicted {p} vs direct {e}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random meshes with shared and distinct regulator sites,
        /// any droops (open modules included), setpoint drift and sheet
        /// scale predict the direct solution; anything off the ports
        /// makes the prediction refuse.
        #[test]
        fn prop_predict_matches_direct_cholesky(
            nx in 4_usize..12,
            ny in 4_usize..12,
            r_edge_mohm in 0.1_f64..10.0,
            sites in vec(0_usize..10_000, 1..9),
            shared in 0_usize..3,
            droop_mohm in vec(0.05_f64..5.0, 12),
            open in vec(0_usize..4, 12),
            drift_mv in vec(-5.0_f64..5.0, 12),
            scale in 0.5_f64..3.0,
            loads in vec(0.0_f64..2.0, 121),
        ) {
            let r_edge = Ohms::from_milliohms(r_edge_mohm);
            let mut grid = PowerGrid::new(nx, ny, r_edge).unwrap();
            grid.attach_dense_load_profile(|x, y| Amps::new(loads[y * nx + x])).unwrap();
            let mut mesh_sites: Vec<usize> = sites.iter().map(|s| s % (nx * ny)).collect();
            mesh_sites.extend(std::iter::repeat_n(mesh_sites[0], shared));
            for &m in &mesh_sites {
                grid.attach_regulator(m % nx, m / nx, Volts::new(1.0), Ohms::from_milliohms(0.5))
                    .unwrap();
            }
            let reduction = PortReduction::new(&grid).unwrap();
            prop_assert!(reduction.port_count() <= mesh_sites.len());
            assert_matches(&reduction.predict(&grid).unwrap(), &direct_solution(&grid));

            for k in 0..mesh_sites.len() {
                // Module 0 stays closed so the rail is always driven.
                let droop = if k > 0 && open[k] == 0 {
                    Ohms::new(OPEN)
                } else {
                    Ohms::from_milliohms(droop_mohm[k])
                };
                grid.set_regulator_droop(k, droop).unwrap();
                grid.set_regulator_setpoint(k, Volts::new(1.0 + drift_mv[k] * 1e-3))
                    .unwrap();
            }
            grid.set_sheet_resistance(r_edge * scale).unwrap();
            assert_matches(&reduction.predict(&grid).unwrap(), &direct_solution(&grid));

            let mut region = grid.clone();
            region.scale_region_resistance(0, 0, 1, 1, 2.0).unwrap();
            prop_assert!(reduction.predict(&region).is_none());
            let mut load = grid.clone();
            load.set_uniform_load(Amps::new(3.0)).unwrap();
            prop_assert!(reduction.predict(&load).is_none());
            let mut moved = grid.clone();
            let m = mesh_sites[0];
            moved.move_regulator(0, (m % nx + 1) % nx, m / nx).unwrap();
            prop_assert!(reduction.predict(&moved).is_none());
            let mut added = grid.clone();
            added.attach_regulator(0, 0, Volts::new(1.0), r_edge).unwrap();
            prop_assert!(reduction.predict(&added).is_none());
            let mut loaded = grid.clone();
            loaded.attach_uniform_load(Amps::new(1.0)).unwrap();
            prop_assert!(reduction.predict(&loaded).is_none());
        }
    }

    #[test]
    fn reduction_needs_a_regulator() {
        let mut grid = PowerGrid::new(4, 4, Ohms::new(1.0)).unwrap();
        grid.attach_uniform_load(Amps::new(1.0)).unwrap();
        assert!(matches!(
            PortReduction::new(&grid),
            Err(CircuitError::FloatingNode { .. })
        ));
    }
}
