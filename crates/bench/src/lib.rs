//! Shared harness for the experiments.
//!
//! Every experiment (`rfsp experiment --id e1` … `e13`) prints a Markdown
//! table comparing the paper's claim with the measured behaviour;
//! `rfsp experiment --id all` runs the full suite. This library holds the
//! common plumbing: algorithm runners, table formatting, and regression
//! helpers.

pub mod experiments;
pub mod soak;
pub mod telemetry;

use rfsp_core::{
    AccOptions, AlgoAcc, AlgoV, AlgoW, AlgoX, AlgoXInPlace, Interleaved, WriteAllTasks, XOptions,
};
use rfsp_pram::{
    Adversary, CycleBudget, ExecMode, LayoutBuilder, Machine, MemoryLayout, NoopObserver, Observer,
    PramError, Program, RunLimits, RunReport, RunSpec,
};
use serde::{Deserialize, Serialize};

pub use telemetry::{BenchArtifact, BenchRun, TelemetrySink};

/// Short display label of a tick engine: `seq` for one thread, `poolN`
/// for a pool of `N` workers (the `rfsp writeall` summary and the
/// `BENCH_TICK.json` rows are keyed by it).
pub fn exec_label(exec: ExecMode<'_>) -> String {
    match exec {
        ExecMode::Sequential => "seq".to_string(),
        ExecMode::Threads(threads) => format!("pool{threads}"),
        ExecMode::Pool(pool) => format!("pool{}", pool.threads()),
    }
}

/// Which Write-All algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Algorithm X (local traversal).
    X,
    /// Algorithm V (phase-synchronized).
    V,
    /// Algorithm W (the [KS 89] baseline with enumeration).
    W,
    /// Interleaved V+X (Theorem 4.9).
    Interleaved,
    /// Algorithm X in place (Remark 7; power-of-two sizes only).
    XInPlace,
    /// Randomized ACC with this seed (§5 baseline).
    Acc(u64),
}

impl Algo {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::X => "X",
            Algo::V => "V",
            Algo::W => "W",
            Algo::Interleaved => "V+X",
            Algo::XInPlace => "X-inplace",
            Algo::Acc(_) => "ACC",
        }
    }
}

/// Outcome of one Write-All run.
#[derive(Clone, Debug)]
pub struct WriteAllRun {
    /// The machine report.
    pub report: RunReport,
    /// Whether the array was fully written (always true on `Ok`).
    pub verified: bool,
}

/// Run a Write-All instance of size `n` on `p` processors under
/// `adversary`.
///
/// # Errors
///
/// Propagates machine errors; [`PramError::CycleLimit`] marks runs the
/// adversary successfully prevented from finishing within `limits`.
pub fn run_write_all<A: Adversary>(
    algo: Algo,
    n: usize,
    p: usize,
    adversary: &mut A,
    limits: RunLimits,
) -> Result<WriteAllRun, PramError> {
    run_write_all_observed(algo, n, p, adversary, limits, &mut NoopObserver)
}

/// [`run_write_all`] with an event stream: every machine event of the run
/// goes to `observer` (attach a
/// [`MetricsObserver`](rfsp_pram::MetricsObserver) to collect the per-tick
/// telemetry behind the `BENCH_*.json` artifacts).
///
/// # Errors
///
/// As [`run_write_all`].
pub fn run_write_all_observed<A: Adversary>(
    algo: Algo,
    n: usize,
    p: usize,
    adversary: &mut A,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError> {
    run_write_all_with_observed(algo, n, p, |_| adversary, limits, observer)
}

/// Run a Write-All instance and also hand the adversary constructor the
/// array region (needed by region-aware adversaries like the pigeonhole
/// and the stalker).
///
/// # Errors
///
/// As [`run_write_all`].
pub fn run_write_all_with<F, A>(
    algo: Algo,
    n: usize,
    p: usize,
    make_adversary: F,
    limits: RunLimits,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    run_write_all_with_observed(algo, n, p, make_adversary, limits, &mut NoopObserver)
}

/// [`run_write_all_with`] with an event stream (see
/// [`run_write_all_observed`]).
///
/// # Errors
///
/// As [`run_write_all`].
pub fn run_write_all_with_observed<F, A>(
    algo: Algo,
    n: usize,
    p: usize,
    make_adversary: F,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    run_write_all_tuned_observed(
        algo,
        ExecMode::Sequential,
        MemoryLayout::Flat,
        n,
        p,
        make_adversary,
        limits,
        observer,
    )
}

/// [`run_write_all_with_observed`] on the tick engine `exec`, over a
/// shared memory banked per `mem_layout`. Every engine and layout
/// produces a bit-identical run; the layout only changes what the per-bank
/// counters (and any attached network meter) see.
///
/// # Errors
///
/// As [`run_write_all`]; additionally rejects invalid layouts.
#[allow(clippy::too_many_arguments)]
pub fn run_write_all_tuned_observed<F, A>(
    algo: Algo,
    exec: ExecMode<'_>,
    mem_layout: MemoryLayout,
    n: usize,
    p: usize,
    make_adversary: F,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    let run = Drive { exec, mem_layout, p, make_adversary, limits, observer };
    with_write_all_program(algo, n, p, run)
}

/// The [`WriteAllVisitor`] behind [`run_write_all_tuned_observed`].
struct Drive<'a, F> {
    exec: ExecMode<'a>,
    mem_layout: MemoryLayout,
    p: usize,
    make_adversary: F,
    limits: RunLimits,
    observer: &'a mut dyn Observer,
}

impl<F, A> WriteAllVisitor for Drive<'_, F>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    type Out = Result<WriteAllRun, PramError>;

    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program + Sync,
        P::Private: Send + Serialize + Deserialize,
    {
        let mut adversary = (self.make_adversary)(setup);
        let mut m = Machine::with_layout(prog, self.p, budget, self.mem_layout)?;
        let spec = RunSpec {
            limits: self.limits,
            exec: self.exec,
            observer: Some(self.observer),
            ..RunSpec::default()
        };
        let status = m.run_with(&mut adversary, spec)?;
        let report = status.completed().expect("a run without a control hook completes");
        Ok(WriteAllRun { report, verified: setup.tasks.all_written(m.memory()) })
    }
}

/// A computation generic over the *concrete* Write-All program type.
///
/// [`run_write_all_tuned_observed`] erases the program behind a fixed run
/// recipe; anything needing the extra capabilities of the machine's
/// crash-safety surface — [`Machine::save_checkpoint`] /
/// [`Machine::restore_checkpoint`] (which require `P::Private:
/// Serialize + Deserialize`), a pause hook or panic isolation
/// ([`Machine::run_with`]), or multiple machines over one program —
/// implements this trait instead and lets [`with_write_all_program`]
/// construct the program `algo` names (the run recipe is one such
/// visitor).
pub trait WriteAllVisitor {
    /// What the visit produces.
    type Out;

    /// Run against the concrete program. `budget` is the cycle budget the
    /// algorithm requires (the paper's 4-read/2-write budget for all but
    /// the interleaved algorithm).
    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program + Sync,
        P::Private: Send + Serialize + Deserialize;
}

/// Build the Write-All program `algo` names (instance size `n`, `p`
/// processors) and hand it to `visitor` — the checkpoint-capable
/// counterpart of [`run_write_all_tuned_observed`].
pub fn with_write_all_program<V: WriteAllVisitor>(
    algo: Algo,
    n: usize,
    p: usize,
    visitor: V,
) -> V::Out {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    match algo {
        Algo::X => {
            let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
            let setup =
                WriteAllSetup { tasks, x_layout: Some(*prog.layout()), tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::V => {
            let prog = AlgoV::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::W => {
            let prog = AlgoW::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::Interleaved => {
            let prog = Interleaved::new(&mut layout, tasks, p);
            let setup = WriteAllSetup {
                tasks,
                x_layout: Some(*prog.x_half().layout()),
                tree: Some(prog.x_half().tree()),
            };
            let budget = prog.required_budget();
            visitor.visit(&prog, &setup, budget)
        }
        Algo::XInPlace => {
            let prog = AlgoXInPlace::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::Acc(seed) => {
            let prog = AlgoAcc::new(&mut layout, tasks, AccOptions { seed });
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
    }
}

/// Like [`run_write_all_with`], restricted to algorithm X but with
/// explicit [`XOptions`] — used by the Remark 5
/// ablation (E11).
///
/// # Errors
///
/// As [`run_write_all`].
pub fn run_write_all_with_options<F, A>(
    algo: Algo,
    opts: rfsp_core::XOptions,
    n: usize,
    p: usize,
    make_adversary: F,
    limits: RunLimits,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    run_write_all_with_options_observed(algo, opts, n, p, make_adversary, limits, &mut NoopObserver)
}

/// [`run_write_all_with_options`] with an event stream (see
/// [`run_write_all_observed`]).
///
/// # Errors
///
/// As [`run_write_all`].
pub fn run_write_all_with_options_observed<F, A>(
    algo: Algo,
    opts: rfsp_core::XOptions,
    n: usize,
    p: usize,
    make_adversary: F,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    assert!(matches!(algo, Algo::X), "options apply to algorithm X only");
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, p, opts);
    let setup = WriteAllSetup { tasks, x_layout: Some(*prog.layout()), tree: Some(prog.tree()) };
    let exec = ExecMode::Sequential;
    let mem_layout = MemoryLayout::Flat;
    let run = Drive { exec, mem_layout, p, make_adversary, limits, observer };
    run.visit(&prog, &setup, CycleBudget::PAPER)
}

/// What a region-aware adversary constructor gets to see.
#[derive(Clone, Debug)]
pub struct WriteAllSetup {
    /// The Write-All instance (exposes the array region).
    pub tasks: WriteAllTasks,
    /// Algorithm X's layout, when the algorithm is X-based.
    pub x_layout: Option<rfsp_core::XLayout>,
    /// The progress-tree shape, when the algorithm has one.
    pub tree: Option<rfsp_core::HeapTree>,
}

/// Least-squares slope of `log y` against `log x` — the empirical exponent
/// of a power law.
///
/// # Panics
///
/// Panics on fewer than two points or non-positive coordinates.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Print a Markdown table and, if `RFSP_CSV_DIR` is set, also write the
/// rows as `<dir>/<slug-of-title>.csv` so experiment data can be plotted
/// without scraping stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    if let Ok(dir) = std::env::var("RFSP_CSV_DIR") {
        if let Err(e) = write_csv(&dir, title, headers, rows) {
            eprintln!("warning: could not write CSV for '{title}': {e}");
        }
    }
}

/// Turn a table title into a file-system-friendly slug.
pub fn slugify(title: &str) -> String {
    let mut slug = String::new();
    let mut dash = false;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !slug.is_empty() {
            slug.push('-');
            dash = true;
        }
    }
    slug.trim_end_matches('-').to_string()
}

fn write_csv(
    dir: &str,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{}.csv", slugify(title)));
    let escape = |cell: &str| {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Format a float compactly.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_pram::NoFailures;

    #[test]
    fn runner_covers_all_algorithms() {
        for algo in [Algo::X, Algo::V, Algo::W, Algo::Interleaved, Algo::XInPlace, Algo::Acc(3)] {
            let run = run_write_all(algo, 32, 8, &mut NoFailures, RunLimits::default()).unwrap();
            assert!(run.verified, "{algo:?}");
            assert!(run.report.stats.completed_work() > 0);
        }
    }

    #[test]
    fn pooled_engine_matches_sequential_runner() {
        let seq = run_write_all_tuned_observed(
            Algo::X,
            ExecMode::Sequential,
            MemoryLayout::Flat,
            32,
            8,
            |_| NoFailures,
            RunLimits::default(),
            &mut NoopObserver,
        )
        .unwrap();
        let pooled = run_write_all_tuned_observed(
            Algo::X,
            ExecMode::Threads(3),
            MemoryLayout::Flat,
            32,
            8,
            |_| NoFailures,
            RunLimits::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(seq.verified && pooled.verified);
        assert_eq!(seq.report.stats, pooled.report.stats);
        assert_eq!(exec_label(ExecMode::Threads(3)), "pool3");
        assert_eq!(exec_label(ExecMode::Sequential), "seq");
    }

    #[test]
    fn banked_layout_matches_flat_runner() {
        let flat = run_write_all(Algo::X, 32, 8, &mut NoFailures, RunLimits::default()).unwrap();
        let banked = run_write_all_tuned_observed(
            Algo::X,
            ExecMode::Sequential,
            MemoryLayout::banked(4),
            32,
            8,
            |_| NoFailures,
            RunLimits::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(banked.verified);
        assert_eq!(flat.report.stats, banked.report.stats);
    }

    #[test]
    fn slugify_is_filesystem_friendly() {
        assert_eq!(
            slugify("E7 (Theorem 4.8) — algorithm X, P = N"),
            "e7-theorem-4-8-algorithm-x-p-n"
        );
        assert_eq!(slugify("---"), "");
    }

    #[test]
    fn csv_emission_roundtrips() {
        let dir = std::env::temp_dir().join("rfsp-csv-test");
        let dir_s = dir.to_str().unwrap().to_string();
        write_csv(&dir_s, "T1, with \"quotes\"", &["a", "b"], &[vec!["1".into(), "x,y".into()]])
            .unwrap();
        let text = std::fs::read_to_string(dir.join("t1-with-quotes.csv")).unwrap();
        assert_eq!(text, "a,b\n1,\"x,y\"\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn slope_of_a_pure_power_law() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|k| {
                let x = (1 << k) as f64;
                (x, 3.0 * x.powf(1.585))
            })
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 1.585).abs() < 1e-9);
    }

    #[test]
    fn region_aware_runner_exposes_layout() {
        let run = run_write_all_with(
            Algo::X,
            16,
            16,
            |setup| {
                assert!(setup.x_layout.is_some());
                NoFailures
            },
            RunLimits::default(),
        )
        .unwrap();
        assert!(run.verified);
    }
}
