//! The rfsp benchmark: four workloads, each timed end to end through the
//! surfaces users drive (`RunSession` with a `RunConfig`, and the
//! `rfsp serve` daemon over its wire protocol), plus a separate traced run
//! that breaks the time down by layer.
//!
//! ```text
//! perfbench --workload tick-wide|tick-narrow|ckpt|daemon --seed N \
//!     --seconds S --trace 0|1 [--rfsp PATH] [--work-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The lines
//! before it name the host and every metric with its unit. A failed
//! correctness check makes the exit code non-zero.

mod daemon;
mod session;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("tick_p50_us", "us"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit. A layer a workload does not exercise
/// reads 0. The p99.9 tick interval of the timed runs is listed here,
/// without a bound: on `tick-narrow` it reads the host's scheduling noise.
const PER_LAYER: [(&str, &str); 33] = [
    ("tick_p999_us", "us"),
    ("pram.ticks", "count"),
    ("pram.work_s", "count"),
    ("pram.pattern_size", "count"),
    ("pram.exec_self_ns", "ns"),
    ("pram.exec_ns_per_cycle", "ns"),
    ("pram.seq_run_s", "s"),
    ("pram.pool_speedup", "x"),
    ("adversary.decide_calls", "count"),
    ("adversary.decide_ns", "ns"),
    ("observer.emit_ns", "ns"),
    ("run.ckpt_count", "count"),
    ("run.ckpt_file_bytes", "bytes"),
    ("run.ckpt_pattern_bytes", "bytes"),
    ("run.ckpt_memory_bytes", "bytes"),
    ("run.ckpt_pause_ns", "ns"),
    ("run.ckpt_session_ns", "ns"),
    ("run.ckpt_encode_ns", "ns"),
    ("run.ckpt_write_ns", "ns"),
    ("run.restore_ns", "ns"),
    ("run.restore_ckpt_bytes", "bytes"),
    ("run.events_bytes", "bytes"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.job_run_ms", "ms"),
    ("serve.events_per_job", "count"),
    ("serve.ckpts_per_job", "count"),
    ("serve.spool_bytes", "bytes"),
    ("serve.jobs", "count"),
    ("trace.overhead", "x"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Correctness checks made.
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Record a line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The peak resident set (VmHWM) of a process — this one by default — in
/// MiB.
///
/// # Errors
///
/// An unreadable or malformed `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(|| "/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Restart this process's VmHWM from its current resident set, so the next
/// read gives the peak of what ran in between. Best effort: without
/// `/proc/self/clear_refs` the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host a result was measured on.
fn host(work: &Path) -> BTreeMap<&'static str, String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The filesystem of the longest mount point containing the work dir.
    let dir = std::fs::canonicalize(work).unwrap_or_else(|_| work.to_path_buf());
    let fs = std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| {
            m.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point).then(|| (point.len(), kind.to_string()))
                })
                .max()
                .map(|(_, kind)| kind)
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    BTreeMap::from([
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("work_dir_fs", fs),
        ("rustc", rustc),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rfsp: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: seconds as f64,
        trace,
        rfsp: map
            .get("rfsp")
            .map_or_else(|| Path::new(&target).join("release/rfsp"), PathBuf::from),
        work: map.get("work-dir").map_or_else(|| PathBuf::from(".perfbench_work"), PathBuf::from),
    })
}

/// Whether another round, as long as the `last` one took, still ends
/// within `seconds` of `begun`. The first round always runs.
pub fn room_for_another(begun: std::time::Instant, last: Option<f64>, seconds: f64) -> bool {
    last.is_none_or(|last| begun.elapsed().as_secs_f64() + last <= seconds)
}

/// SplitMix64: spreads a small benchmark seed over the run seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let seed = mix(args.seed);
    let (secs, trace, work) = (args.seconds, args.trace, args.work.as_path());
    match args.workload.as_str() {
        "tick-wide" => session::run(&session::TICK_WIDE, seed, secs, trace, work),
        "tick-narrow" => session::run(&session::TICK_NARROW, seed, secs, trace, work),
        "ckpt" => session::run(&session::CKPT, seed, secs, trace, work),
        "daemon" => daemon::run(&args.rfsp, seed, secs, trace, work),
        other => Err(format!("unknown workload {other:?} (tick-wide, tick-narrow, ckpt, daemon)")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let (catalog, values): (&[(&str, &str)], _) =
        if args.trace { (&PER_LAYER, &out.layers) } else { (&END_TO_END, &out.e2e) };
    let mut fields = Vec::new();
    for &(name, unit) in catalog {
        if let Err(e) = stats::check_name(name).and_then(|()| stats::check_unit(unit)) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        let value = match values.get(name) {
            Some(&v) => v,
            // A layer the workload does not exercise.
            None if args.trace => 0.0,
            None => {
                eprintln!(
                    "perfbench: {}: end-to-end metric {name} was not measured",
                    args.workload
                );
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {}: {name} is {value}", args.workload);
            return ExitCode::FAILURE;
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let failed = out.failures.len() as u64;
    let host = host(&args.work);
    let host_json: Vec<String> =
        host.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {{{}}}", host_json.join(", "));
    for line in &out.notes {
        println!("# {line}");
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    let mut all: Vec<(&str, f64, &str)> = Vec::new();
    for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(&v) = out.e2e.get(name).or_else(|| out.layers.get(name)) {
            all.push((name, v, unit));
        }
    }
    all.push(("failed_frac", failed as f64 / out.attempted.max(1) as f64, "ratio"));
    for (name, v, unit) in all {
        println!("# {name:<26} {v:>18.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            stats::check_name(name).unwrap();
            stats::check_unit(unit).unwrap();
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = serde::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_seq())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("run_s"), "\"run_s\"");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn seeds_spread() {
        assert_ne!(mix(1), mix(2));
        assert_eq!(mix(7), mix(7));
    }
}
