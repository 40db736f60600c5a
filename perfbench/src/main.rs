//! `wdm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  --wdm <path to wdm binary> --work <scratch dir>`
//!
//! With `--trace 0` one untraced run gives every end-to-end metric. With
//! `--trace 1` an untraced and a traced run split the window, and the
//! traced run gives every per-layer metric plus the budget table. The
//! last stdout line is the JSON result; the exit code is 1 when a run
//! fails its correctness check.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use wdm_core::{textfmt, WdmNetwork};
use wdm_perfbench::client::{self, Daemon, ErrorKind, Outcome, RunLog, WorkDir};
use wdm_perfbench::summary::{Ratio, Timing};
use wdm_perfbench::workload::{self, Op, Workload};
use wdm_perfbench::{alloc, check, layers, Metric};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Daemon start-ups per untraced run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 25;

/// Traffic before the timed window: fills each connection to its target
/// and lets the orphans that cuts leave behind settle (see `workload`).
const WARMUP: Duration = Duration::from_secs(2);

/// Slice of the timed window for the per-slice estimators.
const SLICE: Duration = Duration::from_millis(500);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    wdm: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("bad {flag} (want a whole number)"))
    };
    let name = get("--workload")?;
    let workload = workload::workload(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (want one of {})",
            names.join(", ")
        )
    })?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("bad --trace (want 0 or 1)".to_string()),
        },
        wdm: PathBuf::from(get("--wdm")?),
        work: PathBuf::from(get("--work")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok((true, out)) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Ok((false, out)) => {
            println!("{out}");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; returns whether it passed and the JSON line.
fn bench(args: &Args) -> Result<(bool, String), String> {
    let w = args.workload;
    let text = w.instance_text(args.seed)?;
    let net = textfmt::from_text(&text).map_err(|e| e.to_string())?;
    let work = WorkDir::new(&args.work).map_err(|e| e.to_string())?;
    let instance = work.file("instance.wdm");
    std::fs::write(&instance, &text).map_err(|e| e.to_string())?;
    println!(
        "workload {} seed {}: {} nodes, {} links, k = {}, {} connection(s), {}",
        w.name,
        args.seed,
        net.node_count(),
        net.link_count(),
        w.k,
        w.connections,
        if w.sharded { "sharded" } else { "single" }
    );
    let start = |spawns: usize| -> Result<(Vec<Duration>, Daemon), String> {
        let ready = work.file("ready");
        let mut setups = Vec::with_capacity(spawns);
        for i in 0..spawns {
            let d = Daemon::spawn(&args.wdm, &instance, w.sharded, &ready)
                .map_err(|e| format!("spawn {}: {e}", args.wdm.display()))?;
            setups.push(d.setup);
            if i + 1 == spawns {
                return Ok((setups, d));
            }
            d.drain().map_err(|e| format!("drain: {e}"))?;
        }
        unreachable!("spawns is at least 1")
    };
    let run = |daemon: Daemon, window: Duration, tag: bool| -> Result<RunLog, String> {
        client::run(w, args.seed, &net, daemon, WARMUP, window, tag).map_err(|e| e.to_string())
    };
    let window = Duration::from_secs(args.seconds);
    let (metrics, logs) = if args.trace {
        let half = window / 2;
        let (_, d) = start(1)?;
        let untraced = run(d, half, false)?;
        let (_, d) = start(1)?;
        let traced = run(d, half, true)?;
        println!("provision rtt ns, untraced: {}", provision_rtt(&untraced));
        println!("provision rtt ns, traced: {}", provision_rtt(&traced));
        let p50 = |log: &RunLog| slice_median_us(&slices(log, is_provision).1, 50.0);
        let overhead_pct = (p50(&traced) / p50(&untraced) - 1.0) * 100.0;
        let mut ok = true;
        for log in [&untraced, &traced] {
            ok &= verdict(w, &net, log);
        }
        if !ok {
            return Ok((false, result(false, &[untraced, traced], &[])));
        }
        let report = layers::measure(w, &net, &traced, overhead_pct)?;
        print!("{}", report.budget);
        (report.metrics, vec![untraced, traced])
    } else {
        let (setups, d) = start(SETUP_SPAWNS)?;
        let log = run(d, window, false)?;
        if !verdict(w, &net, &log) {
            return Ok((false, result(false, &[log], &[])));
        }
        (end_to_end(&log, &setups), vec![log])
    };
    for m in &metrics {
        println!(
            "{} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    Ok((true, result(true, &logs, &metrics)))
}

/// Runs the correctness check and says what it found.
fn verdict(w: &Workload, net: &WdmNetwork, log: &RunLog) -> bool {
    match check::check(w, net, log) {
        Ok(()) => {
            println!(
                "check: ok ({} frames, {})",
                log.recs.len(),
                if w.sharded {
                    "sharded stats reconciled"
                } else {
                    "byte-identical offline replay"
                }
            );
            true
        }
        Err(e) => {
            println!("check: FAILED: {e}");
            false
        }
    }
}

fn is_provision(op: Op) -> bool {
    matches!(op, Op::Provision { .. })
}

fn provision_rtt(log: &RunLog) -> Timing {
    rtts(log, is_provision)
}

fn rtts(log: &RunLog, pick: impl Fn(Op) -> bool) -> Timing {
    Timing::new(
        log.recs
            .iter()
            .filter(|r| r.measured && pick(r.op))
            .map(|r| r.rtt_ns)
            .collect(),
    )
}

/// The timed window cut into [`SLICE`]s: per slice, the frames completed
/// and the round trips of the frames `pick` selects.
fn slices(log: &RunLog, pick: impl Fn(Op) -> bool) -> (Vec<u64>, Vec<Timing>) {
    let n = (log.window.as_nanos() / SLICE.as_nanos()).max(1) as usize;
    let mut frames = vec![0u64; n];
    let mut rtts: Vec<Vec<u64>> = vec![Vec::new(); n];
    for r in log.recs.iter().filter(|r| r.measured) {
        let i = (u128::from(r.at_ns) / SLICE.as_nanos()) as usize;
        if i < n {
            frames[i] += 1;
            if pick(r.op) {
                rtts[i].push(r.rtt_ns);
            }
        }
    }
    (frames, rtts.into_iter().map(Timing::new).collect())
}

/// Median over slices of each slice's `p`-th percentile, in µs.
fn slice_median_us(slices: &[Timing], p: f64) -> f64 {
    let per_slice = slices.iter().filter_map(|t| t.at(p)).collect();
    Timing::new(per_slice).median().unwrap_or(0) as f64 / 1e3
}

/// The end-to-end metrics of one untraced run.
///
/// Throughput and the provision and release percentiles are medians over
/// half-second slices, so a stall of the host (a neighbour's burst, a
/// hypervisor pause) moves a slice or two rather than the whole figure.
/// Cuts are too sparse per slice, so `fail_link_rtt_p50_us` is the
/// whole-window median.
fn end_to_end(log: &RunLog, setups: &[Duration]) -> Vec<Metric> {
    let measured: Vec<_> = log.recs.iter().filter(|r| r.measured).collect();
    let provision = provision_rtt(log);
    let release = rtts(log, |op| matches!(op, Op::Release { .. }));
    let fail = rtts(log, |op| matches!(op, Op::FailLink { .. }));
    let (frames, provision_slices) = slices(log, is_provision);
    let (_, release_slices) = slices(log, |op| matches!(op, Op::Release { .. }));
    let blocked = Ratio {
        part: measured
            .iter()
            .filter(|r| r.outcome == Outcome::Blocked)
            .count() as u64,
        whole: provision.count() as u64,
    };
    let errors = Ratio {
        part: measured
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Error(_) | Outcome::Lost))
            .count() as u64,
        whole: measured.len() as u64,
    };
    let unknown = measured
        .iter()
        .filter(|r| r.outcome == Outcome::Error(ErrorKind::UnknownConnection))
        .count();
    let costs: Vec<u64> = measured
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Accepted { cost, .. } => Some(cost),
            _ => None,
        })
        .collect();
    let setup = Timing::new(setups.iter().map(|d| d.as_nanos() as u64).collect());
    let per_slice = Timing::new(frames);
    println!("provision rtt ns: {provision}");
    println!("release rtt ns: {release}");
    println!("fail-link rtt ns: {fail}");
    println!("frames per {SLICE:?} slice: {per_slice}");
    println!("setup ns: {setup}");
    println!("blocking: {blocked}");
    println!("errors: {errors}, of which unknown_connection {unknown}");
    let m = Metric::new;
    vec![
        m(
            "throughput_rps",
            per_slice.median().unwrap_or(0) as f64 / SLICE.as_secs_f64(),
            "1/s",
            measured.len(),
        ),
        m(
            "provision_rtt_p50_us",
            slice_median_us(&provision_slices, 50.0),
            "us",
            provision.count(),
        ),
        m(
            "provision_rtt_p99_us",
            slice_median_us(&provision_slices, 99.0),
            "us",
            provision.count(),
        ),
        m(
            "release_rtt_p50_us",
            slice_median_us(&release_slices, 50.0),
            "us",
            release.count(),
        ),
        m(
            "fail_link_rtt_p50_us",
            fail.median().unwrap_or(0) as f64 / 1e3,
            "us",
            fail.count(),
        ),
        m(
            "blocking_ratio",
            blocked.value(),
            "ratio",
            blocked.whole as usize,
        ),
        m(
            "error_ratio",
            errors.value(),
            "ratio",
            errors.whole as usize,
        ),
        m(
            "mean_path_cost",
            costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64,
            "cost",
            costs.len(),
        ),
        m(
            "setup_s",
            setup.median().unwrap_or(0) as f64 / 1e9,
            "s",
            setup.count(),
        ),
        m(
            "server_peak_rss_mb",
            log.peak_rss_kb as f64 / 1024.0,
            "MiB",
            1,
        ),
    ]
}

/// The JSON result line. `attempted` counts timed frames; `failed`
/// counts frames left without a well-formed reply. Typed protocol
/// answers (`blocked`, `unknown_connection`, `contended`) are correct
/// replies, counted by `blocking_ratio` and `error_ratio` instead.
fn result(correct: bool, logs: &[RunLog], metrics: &[Metric]) -> String {
    let measured = || logs.iter().flat_map(|l| &l.recs).filter(|r| r.measured);
    let attempted = measured().count().max(1);
    let failed = measured()
        .filter(|r| {
            matches!(
                r.outcome,
                Outcome::Lost | Outcome::Error(ErrorKind::Other | ErrorKind::Overloaded)
            )
        })
        .count();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}":{{"value":{value},"unit":"{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}
