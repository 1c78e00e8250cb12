//! `sal-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload on one thread and prints, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics traced.
//!
//! With `--setup-only` it performs the workload's set-up, prints its
//! host seconds and exits: the runner starts itself this way to time
//! cold set-ups.

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sal_perfbench::exec::{execute, rerun_matches, Context, Counters};
use sal_perfbench::fixtures::Fixtures;
use sal_perfbench::plan::{plan, Op};
use sal_perfbench::reference;
use sal_perfbench::report::{self, Sample};
use sal_perfbench::trace::Tracer;
use sal_perfbench::Workload;

/// Cold set-ups `setup_s` is the median of: the runner's own, before
/// its first operation, and the rest each in a fresh copy of the runner,
/// so a one-time cost (first allocations, a lazily built table) shows in
/// every sample instead of only the first.
const SETUP_SAMPLES: usize = 21;

/// Timed work between two reference samples.
const REFERENCE_EVERY: Duration = Duration::from_millis(500);

/// No new operation starts after this much timed host time, so a run
/// on a badly overloaded machine still ends well inside three minutes.
const TIME_CAP: Duration = Duration::from_mins(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
        setup_only,
    })
}

/// The set-up before the first timed operation: the shared context and
/// the operation list. Returns its host seconds with what it built. The
/// benchmark's own fixture index is built before and not timed.
fn set_up(args: &Args, rounds: usize) -> (f64, Context, Vec<Op>) {
    let fixtures = Fixtures::committed();
    let t = Instant::now();
    let ctx = Context::new(fixtures);
    let ops = plan(args.workload, args.seed, rounds);
    (t.elapsed().as_secs_f64(), ctx, ops)
}

/// Host seconds of one cold set-up, in a fresh copy of this runner.
fn cold_set_up(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--setup-only")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up run ended with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up run printed no time: {e}"))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sal-perfbench: {e}");
            eprintln!(
                "usage: sal-perfbench --workload <lattice_sweep|gate_stream|mesh_load|mesh_chaos> \
                 --seed <n> [--seconds <s>] [--trace <0|1>] [--setup-only]"
            );
            return ExitCode::from(2);
        }
    };
    // One simulation thread: no campaign helper may fan out.
    std::env::set_var("SAL_SWEEP_THREADS", "1");
    let w = args.workload;
    let rounds = w.rounds(args.seconds);
    let (first_setup_s, ctx, planned) = set_up(&args, rounds);
    if args.setup_only {
        println!("{first_setup_s}");
        return ExitCode::SUCCESS;
    }

    let mut tr = Tracer::new(args.trace);
    let mut per_op: Vec<Counters> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut timed_ns, mut failed, mut fixture_cells) = (0u64, 0usize, 0usize);
    let mut first_load = None;
    // Host-speed samples: one now, then one per REFERENCE_EVERY of
    // timed work; each operation is scaled by the median of the last
    // three taken before it.
    let mut refs = vec![reference::measure()];
    let mut since_ref = Duration::ZERO;
    let host_speed = |refs: &[f64]| {
        reference::NOMINAL_S / report::median(refs[refs.len().saturating_sub(3)..].to_vec())
    };
    for (i, op) in planned.iter().enumerate() {
        if Duration::from_nanos(timed_ns) > TIME_CAP {
            eprintln!("time cap reached: {i} of {} operations run", planned.len());
            break;
        }
        tr.set_op(i);
        let out = execute(op, &ctx, &mut tr);
        timed_ns += out.timed_ns;
        if let Err(e) = &out.check {
            failed += 1;
            eprintln!("operation {i} ({}) failed: {e}", op.kind());
        }
        fixture_cells += usize::from(out.fixture_checked);
        samples.push(Sample {
            kind: op.kind(),
            work: out.work(w),
            ns: out.timed_ns,
            host_speed: host_speed(&refs),
        });
        if let (0, Op::Load(cell), Some(stats)) = (i, op, out.load_stats) {
            first_load = Some((*cell, stats));
        }
        since_ref += Duration::from_nanos(out.timed_ns);
        if since_ref >= REFERENCE_EVERY {
            refs.push(reference::measure());
            since_ref = Duration::ZERO;
        }
        per_op.push(out.counters);
    }
    // The fault-free mesh is deterministic: replaying the first
    // configuration must reproduce its statistics exactly.
    if let Some((cell, stats)) = first_load {
        if let Err(e) = rerun_matches(&cell, &ctx, &stats) {
            failed += 1;
            eprintln!("operation 0 failed: {e}");
        }
    }
    let attempted = per_op.len();
    let mut total = Counters::default();
    for c in &per_op {
        total.absorb(c);
    }

    let (unit, rate_name) = w.work_unit();
    let (rate, per_kind) = report::work_rate(&samples);
    println!(
        "{} seed {} rounds {rounds}: {attempted} operations attempted, {failed} failed, \
         {fixture_cells} reproduced a committed fixture cell",
        w.name(),
        args.seed
    );
    println!(
        "  {rate_name} = {rate:.6} {unit}/s at reference host speed \
         ({:.1} {unit} in {:.3} s timed)",
        total.work(w),
        timed_ns as f64 / 1e9
    );
    for (kind, r) in per_kind {
        println!("    {kind}: {r:.3} {unit}/s");
    }
    let unscaled: Vec<Sample> = samples
        .iter()
        .map(|s| Sample {
            host_speed: 1.0,
            ..*s
        })
        .collect();
    println!(
        "  unscaled: {:.6} {unit}/s at the host speed seen",
        report::work_rate(&unscaled).0
    );
    println!(
        "  host speed: reference computation median {:.3} ms ({:.3} x nominal)",
        report::median(refs.clone()) * 1e3,
        reference::NOMINAL_S / report::median(refs.clone())
    );

    let metrics = if args.trace {
        let layers = report::per_layer(&planned[..attempted], &per_op, &samples, tr.spans());
        println!(
            "{}",
            report::layer_share_line(w, tr.spans(), timed_ns, &layers)
        );
        layers
    } else {
        let rss = match peak_rss_mb() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("sal-perfbench: cannot read peak RSS: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut setup_times = vec![first_setup_s];
        while setup_times.len() < SETUP_SAMPLES {
            match cold_set_up(&args) {
                Ok(s) => setup_times.push(s),
                Err(e) => {
                    eprintln!("sal-perfbench: cannot time a cold set-up: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // Scaled to the reference machine like the operations, by a
        // host-speed sample taken right after the set-ups.
        let setup_raw_s = report::median(setup_times);
        refs.push(reference::measure());
        println!(
            "  set-up: median {:.1} us over {SETUP_SAMPLES} cold set-ups at the host speed seen",
            setup_raw_s * 1e6
        );
        report::end_to_end(&samples, setup_raw_s * host_speed(&refs), rss)
    };
    for x in &metrics {
        println!("  {} = {} {}", x.name, x.value, x.unit);
    }
    println!("{}", report::result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
