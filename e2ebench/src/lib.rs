//! End-to-end benchmark of the dbpl engine: seeded MiniDBPL programs
//! through `ServerSession::run` on a `Server` over a timing `Vfs`, with
//! every output checked and a traced run that splits the time by layer.
//!
//! Run `cargo run --release --manifest-path e2ebench/Cargo.toml --
//! --workload get_hierarchy --seed 1 --seconds 50 --trace 0`.

pub mod calib;
pub mod gen;
pub mod io;
pub mod spans;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use workload::Outcome;

/// The result line: `correct`, `attempted`, `failed` and the metrics,
/// each with its value and unit. A value that is not finite is written
/// as `null` and makes the run incorrect.
pub fn result_json(o: &Outcome) -> String {
    let finite = o.metrics.iter().all(|m| m.value.is_finite());
    let correct = o.failed == 0 && o.problems.is_empty() && finite;
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted, o.failed
    )
}
