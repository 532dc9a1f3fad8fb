//! Steady-state thermal modeling for vertical power delivery.
//!
//! Embedding regulators *under* the die (the paper's A2/A3) puts their
//! dissipation directly beneath the compute hotspot — a thermal cost the
//! dc-loss picture alone does not show. This crate provides the
//! substrate for that trade: a 2-D thermal resistance mesh solved with
//! the workspace's own sparse CG, plus temperature-derating models for
//! the power devices.
//!
//! ```
//! use vpd_thermal::ThermalMesh;
//! use vpd_units::{Celsius, Watts};
//!
//! # fn main() -> Result<(), vpd_thermal::ThermalError> {
//! let mesh = ThermalMesh::silicon_die_default(9, 9)?;
//! // 100 W uniformly over the die.
//! let power = vec![vec![Watts::new(100.0 / 81.0); 9]; 9];
//! let map = mesh.solve(&power)?;
//! assert!(map.max().value() > 25.0); // hotter than ambient
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod derate;
mod error;
mod mesh;

pub use derate::{DeratingModel, DeviceTechnology};
pub use error::ThermalError;
pub use mesh::{ThermalMap, ThermalMesh, ThermalPlan};
