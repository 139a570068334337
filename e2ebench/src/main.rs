//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. Stores and
//! traces go to `--work-dir` (default `e2ebench/.work`).

use dbpl_e2ebench::workload::{self, Params, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2ebench --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--work-dir <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Params, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Params::full(workload, seed, seconds, trace, work_dir))
}

/// Fix glibc malloc's policy. By default glibc adapts its mmap and trim
/// thresholds to the allocation history: measured on a 2-core host, the
/// same round of reads ran at 150 or 220 programs/s depending on what
/// earlier rounds had freed, and a quarter of the process's time went to
/// the kernel faulting in and returning pages. It also gives threads
/// arenas of their own, so which arena each round's new threads drew
/// moved peak RSS between 33 and 40 MB from run to run. With fixed
/// thresholds and one arena every round runs under the same policy.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_policy() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only sets allocator parameters; it is called before
    // any thread is started.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_policy() {}

fn main() -> ExitCode {
    fix_malloc_policy();
    dbpl_e2ebench::stats::pin_to_one_core();
    let params = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match workload::run(&params) {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            if let Some(f) = &outcome.trace_file {
                println!("trace: {}", f.display());
            }
            for p in &outcome.problems {
                eprintln!("e2ebench: {p}");
            }
            println!("{}", dbpl_e2ebench::result_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
