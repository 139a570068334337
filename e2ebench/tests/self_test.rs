//! Runs every workload at smoke size, untraced and traced, and checks
//! that each metric `BENCHMARK.json` names is reported with its unit,
//! that every program's output passed the oracle, and that every
//! residual is non-negative.

use dbpl_e2ebench::workload::{self, Params, Workload};
use dbpl_obs::json::{self, Json};
use std::path::PathBuf;

/// `(name, unit)` of each metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> workload::Outcome {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("self-test");
    let out = workload::run(&Params::smoke(workload, 7, trace, dir)).expect("run completes");
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.problems);
    assert!(
        out.problems.is_empty(),
        "{}: {:?}",
        workload.name(),
        out.problems
    );
    assert!(out.attempted > 1);
    out
}

fn check_declared(out: &workload::Outcome, section: &str) {
    let line = dbpl_e2ebench::result_json(out);
    let doc = json::parse(&line).expect("result line is JSON");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    let metrics = doc.get("metrics").expect("metrics");
    let names = declared(section);
    assert_eq!(
        out.metrics.len(),
        names.len(),
        "exactly the declared metrics: {line}"
    );
    for (name, unit) in names {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            !m.get("value").expect("value").is_null(),
            "{name} is not a number"
        );
    }
}

#[test]
fn every_workload_reports_declared_metrics_and_passes_its_oracle() {
    for w in Workload::ALL {
        let e2e = smoke(w, false);
        check_declared(&e2e, "end_to_end");
        for name in ["setup_s", "ref_programs_per_s", "ref_p50_ms", "rss_peak_mb"] {
            assert!(e2e.metric(name).unwrap() > 0.0, "{}: {name}", w.name());
        }

        let traced = smoke(w, true);
        check_declared(&traced, "per_layer");
        for name in ["lang.residual_read_us", "lang.residual_write_us"] {
            let v = traced.metric(name).unwrap();
            assert!(v >= 0.0, "{}: {name} = {v}", w.name());
        }
        for name in [
            "core.get_us",
            "lang.parse_us",
            "core.clone_put_us",
            "relation.join_us",
        ] {
            assert!(traced.metric(name).unwrap() > 0.0, "{}: {name}", w.name());
        }
        let trace = std::fs::read_to_string(traced.trace_file.as_ref().expect("trace written"))
            .expect("trace readable");
        assert!(trace.lines().all(|l| json::parse(l).is_ok()));
        assert!(
            trace.contains("\"name\":\"program.read\"")
                || trace.contains("\"name\":\"program.write\"")
        );
    }
}
