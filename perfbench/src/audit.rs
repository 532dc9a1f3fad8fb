//! Output audit: every timed operation's output is checked, and each
//! mismatch counts as a failed operation.
//!
//! * Served results must equal, byte for byte, what a cold
//!   `Dispatcher::new(0)` computes for the same request.
//! * `vpd` stdout must equal the set-up pass's stdout byte for byte.
//! * The headline paper numbers must fall within the tolerances that
//!   `tests/paper_reproduction.rs` asserts.

use vpd_package::InterconnectTech;
use vpd_report::Json;
use vpd_serve::{Dispatcher, Request};

/// The raw `result` text of a successful response line, or the error
/// code (or `"malformed"`) of any other line.
///
/// # Errors
///
/// The typed error code of a non-ok response.
pub fn result_of(line: &str) -> Result<&str, String> {
    const OK: &str = "\"ok\":true,";
    const RESULT: &str = ",\"result\":";
    if line.contains(OK) {
        if let Some(at) = line.find(RESULT) {
            if let Some(body) = line[at + RESULT.len()..].strip_suffix('}') {
                return Ok(body);
            }
        }
        return Err("malformed".to_owned());
    }
    let code = Json::parse(line)
        .ok()
        .and_then(|d| {
            d.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "malformed".to_owned());
    Err(code)
}

/// The cold oracle: a dispatcher with no cache, one request at a time.
pub struct Oracle(Dispatcher);

impl Default for Oracle {
    fn default() -> Self {
        Self(Dispatcher::new(0))
    }
}

impl Oracle {
    /// The serialized `result` a correct server answers `line` with.
    ///
    /// # Errors
    ///
    /// The parse or engine error when the oracle itself fails.
    pub fn result(&self, line: &str) -> Result<String, String> {
        let req = Request::parse_line(line).map_err(|e| e.message)?;
        let (json, _cached) = self.0.dispatch(&req.work).map_err(|(_, m)| m)?;
        Ok(json.to_string())
    }
}

/// Compares a served result text with the oracle's. Returns a
/// description of the mismatch, if any.
#[must_use]
pub fn mismatch(got: &str, want: &Result<String, String>) -> Option<String> {
    match want {
        Ok(want) if want == got => None,
        Ok(want) => Some(format!(
            "result differs from the cold oracle: got {} bytes, want {} bytes",
            got.len(),
            want.len()
        )),
        Err(msg) => Some(format!("oracle failed: {msg}")),
    }
}

fn entry_loss(doc: &Json, arch: &str, topo: &str) -> Option<f64> {
    let Some(Json::Array(entries)) = doc.get("entries") else {
        return None;
    };
    entries
        .iter()
        .find(|e| {
            e.get("architecture").and_then(Json::as_str) == Some(arch)
                && e.get("topology").and_then(Json::as_str) == Some(topo)
        })
        .and_then(|e| e.get("loss_percent"))
        .and_then(Json::as_f64)
}

/// The figure-7 shape assertions of `tests/paper_reproduction.rs`,
/// applied to `vpd --format json matrix` stdout. Returns each violated
/// claim.
#[must_use]
pub fn check_matrix(stdout: &str) -> Vec<String> {
    let Ok(doc) = Json::parse(stdout.trim_end()) else {
        return vec!["matrix output is not JSON".to_owned()];
    };
    let Some(Json::Array(entries)) = doc.get("entries") else {
        return vec!["matrix output has no entries".to_owned()];
    };
    let mut bad = Vec::new();
    let Some(a0) = entry_loss(&doc, "A0", "DSCH") else {
        return vec!["matrix lacks A0/DSCH".to_owned()];
    };
    // "over 40% power loss" for the traditional approach.
    if a0 <= 40.0 {
        bad.push(format!("A0 loss {a0:.2}% is not over 40%"));
    }
    let mut near_80 = 0;
    for e in entries {
        let arch = e.get("architecture").and_then(Json::as_str).unwrap_or("?");
        let Some(loss) = e.get("loss_percent").and_then(Json::as_f64) else {
            continue;
        };
        if loss > a0 + 1e-9 {
            bad.push(format!("{arch} loss {loss:.2}% exceeds A0"));
        }
        if arch == "A0" {
            continue;
        }
        if loss >= 30.0 {
            bad.push(format!("{arch} loss {loss:.2}% is not below 30%"));
        }
        // End-to-end efficiency = delivered / (delivered + loss).
        let eta = 100.0 / (1.0 + loss / 100.0);
        if (75.0..90.0).contains(&eta) {
            near_80 += 1;
        }
    }
    if near_80 < 6 {
        bad.push(format!("only {near_80} proposed bars near 80% efficiency"));
    }
    bad
}

/// The "vertical interconnect negligible everywhere" claim (< 2 W),
/// applied to `vpd --format json analyze` stdout.
#[must_use]
pub fn check_analyze(stdout: &str) -> Vec<String> {
    let Ok(doc) = Json::parse(stdout.trim_end()) else {
        return vec!["analyze output is not JSON".to_owned()];
    };
    let vertical: Vec<&str> = [
        InterconnectTech::BGA,
        InterconnectTech::C4,
        InterconnectTech::TSV,
        InterconnectTech::MICRO_BUMP,
        InterconnectTech::CU_PAD,
    ]
    .iter()
    .map(|t| t.name)
    .collect();
    let Some(Json::Array(segments)) = doc.get("breakdown").and_then(|b| b.get("segments")) else {
        return vec!["analyze output has no loss segments".to_owned()];
    };
    let watts: f64 = segments
        .iter()
        .filter(|s| {
            s.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| vertical.contains(&n))
        })
        .filter_map(|s| s.get("power_w").and_then(Json::as_f64))
        .sum();
    if watts < 2.0 {
        Vec::new()
    } else {
        vec![format!(
            "vertical interconnect loss {watts:.3} W is not below 2 W"
        )]
    }
}
