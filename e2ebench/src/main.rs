//! End-to-end PIER benchmark.
//!
//! ```text
//! e2ebench --workload <fig1_sum|join3_stream|dashboards|all> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced: a checked repetition,
//! set-ups alone over consecutive seeds, then further repetitions until
//! `--seconds` of wall time have passed.
//! It checks every answer against the reference evaluator and its own
//! determinism, and prints the end-to-end metrics, wall times scaled to
//! a reference host (`host.rs`).
//! With `--trace 1` it makes two traced and two untraced repetitions and
//! one stepped once per epoch, checks that all counted the same, replays
//! the captured inputs through the layer functions and prints the
//! per-layer metrics.  `all` runs every
//! workload on `--seed` and on `--seed + 1`, each in its own process.
//! The last line a single workload prints is one JSON object.  See
//! `README.md` beside this crate for the metrics and what moves them.

mod bed;
mod host;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{run_rep, Rep, Stepping};
use stats::{median, tail};
use std::process::ExitCode;
use std::time::Instant;
use trace::Layer;
use workloads::Kind;

/// Set-ups timed per run, one per seed: at least `MIN_SETUPS`, topped up
/// to `MAX_SETUPS` while the top-up has taken under `SETUP_TOP_UP_S`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_TOP_UP_S: f64 = 1.5;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Kind::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric { name, unit, value, note: note.into() }
}

/// Process-wide memory high-water mark, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.4} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
}

/// A self-check: name and outcome, printed and folded into `correct`.
fn check(name: &str, ok: bool) -> bool {
    println!("  check {:<44} {}", name, if ok { "ok" } else { "FAILED" });
    ok
}

/// List the failed answers; only failures inside a churn period are
/// tolerated (PIER's best effort), any other makes the run incorrect.
fn check_answers(rep: &Rep) -> bool {
    for (q, e, why, churn) in &rep.failures {
        let when = if *churn { "during churn" } else { "outside churn" };
        println!("  failed answer: query {q} epoch {e} {why} ({when})");
    }
    check("answers right outside the churn period", rep.failures.iter().all(|f| f.3))
}

/// A self-check that two runs counted the same; prints both on a mismatch.
fn check_counts(name: &str, a: &run::Counts, b: &run::Counts) -> bool {
    let ok = check(name, a == b);
    if !ok {
        println!("    {a:?}\n    {b:?}");
    }
    ok
}

/// The virtual-time outputs of a repetition, which are deterministic.
fn virtual_outputs(r: &Rep) -> (Vec<f64>, Vec<f64>, &run::Counts) {
    (r.latencies_ms.clone(), r.first_result_ms.clone(), &r.counts)
}

fn untraced(kind: Kind, seed: u64, seconds: f64) -> ExitCode {
    let started = Instant::now();
    println!("workload {} seed {seed}: {}", kind.name(), kind.why());
    let (first, wl, _) = run_rep(kind, seed, Stepping::Poll, false, true, false);
    drop(wl);
    // The workload's own memory: later repetitions only add allocator
    // fragmentation, by as much as a tenth on fig1_sum.
    let peak_rss = peak_rss_mb();
    // Set-up work depends on the seed (on join3_stream by up to 2x), so
    // the set-up sample spans seeds `seed`, `seed + 1`, ...: one set-up
    // each, which also tops up the sample of short, noisy set-ups.
    let mut setups = vec![first.setup_s];
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setup_started.elapsed().as_secs_f64() < SETUP_TOP_UP_S)
    {
        setups.push(run::setup_only(kind, seed.wrapping_add(setups.len() as u64)));
    }
    let mut reps = vec![first];
    while reps.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let (rep, _, _) = run_rep(kind, seed, Stepping::Poll, false, false, false);
        reps.push(rep);
    }
    let first = &reps[0];
    let (attempted, failed) = first.checked.expect("first repetition is checked");
    let lat = &first.latencies_ms;
    let t = tail(lat, TAIL_BEYOND);
    let rates: Vec<f64> = reps.iter().map(Rep::sim_rate).collect();
    let raw_rates: Vec<f64> = reps.iter().map(Rep::raw_sim_rate).collect();
    let metrics = vec![
        metric(
            "setup_s",
            "s",
            median(&setups),
            format!(
                "reference-host s, median of {} set-ups on seeds {seed}..={}",
                setups.len(),
                seed.wrapping_add(setups.len() as u64 - 1)
            ),
        ),
        metric(
            "sim_rate",
            "1/s",
            median(&rates),
            format!(
                "virtual s per reference-host s, median of {} runs of {:.0} virtual s, {} nodes \
                 ({:.3} per unscaled wall s)",
                rates.len(),
                first.virtual_s,
                kind.shape().nodes,
                median(&raw_rates)
            ),
        ),
        metric(
            "latency_p50_ms",
            "ms",
            median(lat),
            format!("{} (query, epoch) samples", lat.len()),
        ),
        metric(
            "latency_tail_ms",
            "ms",
            t.value,
            format!("p{:.1} of {} samples, {} beyond", t.percentile, t.samples, TAIL_BEYOND),
        ),
        metric(
            "first_result_ms",
            "ms",
            median(&first.first_result_ms),
            format!("median over {} queries", first.first_result_ms.len()),
        ),
        metric(
            "wire_kb_per_epoch",
            "KB",
            first.wire_kb_per_epoch(),
            format!("{} epochs incl. overlay upkeep", first.epochs),
        ),
        metric("peak_rss_mb", "MB", peak_rss, "VmHWM after the checked repetition"),
    ];
    let share = if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 };
    let share_metric = metric(
        "failed_epoch_share",
        "ratio",
        share,
        format!("{failed} of {attempted} answers missing or wrong"),
    );
    print_table(&metrics);
    print_table(std::slice::from_ref(&share_metric));
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    println!("  sim_rate samples: {}", fmt(&rates));
    println!("  unscaled sim_rate samples: {}", fmt(&raw_rates));
    println!("  setup_s samples: {}", fmt(&setups));

    let mut ok = true;
    ok &= check_answers(first);
    ok &= check("latency attribution complete", first.attribution_complete);
    ok &= check(
        "same seed, same virtual-time outputs",
        reps.iter().all(|r| virtual_outputs(r) == virtual_outputs(first)),
    );
    ok &= check("every epoch answered at least once", !lat.is_empty());
    println!(
        "  counts: {} events, {} messages delivered, {} bytes delivered",
        first.counts.events, first.counts.msgs.1, first.counts.bytes_delivered
    );
    print_result(ok, attempted, failed, &metrics);
    ExitCode::SUCCESS
}

fn traced(kind: Kind, seed: u64) -> ExitCode {
    println!("workload {} seed {seed} (traced): {}", kind.name(), kind.why());
    // Traced, untraced, untraced, traced: the overhead is the mean of the
    // two differences, which cancels a machine slowing down or speeding up
    // steadily across the four repetitions.
    let (t, wl, cap) = run_rep(kind, seed, Stepping::Poll, true, false, true);
    let (u, _, _) = run_rep(kind, seed, Stepping::Poll, false, true, false);
    let (u2, _, _) = run_rep(kind, seed, Stepping::Poll, false, false, false);
    let (t2, _, _) = run_rep(kind, seed, Stepping::Poll, true, false, false);
    let (stepped, _, _) = run_rep(kind, seed, Stepping::PerEpoch, false, false, false);
    let spans = t.spans.as_ref().expect("traced run has spans");
    let e = &t.engine;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (traced_s, untraced_s) =
        ((t.scaled_s + t2.scaled_s) / 2.0, (u.scaled_s + u2.scaled_s) / 2.0);
    let overhead = traced_s - untraced_s;
    let m = |name: &'static str, unit: &'static str, value: f64| metric(name, unit, value, "");
    let handlers: f64 = Layer::ALL[4..].iter().map(|&l| spans.total_s(l)).sum();
    let mut metrics = vec![
        m("simnet.events", "count", t.counts.events as f64),
        m("simnet.self_s", "s", spans.self_s(Layer::Step)),
        m("simnet.msgs_delivered", "count", t.counts.msgs.1 as f64),
        m("simnet.msgs_dropped", "count", t.counts.msgs.2 as f64),
        m("dht.maint_msgs", "count", spans.frames(Layer::DhtMaint) as f64),
        m("dht.maint_self_s", "s", spans.self_s(Layer::DhtMaint)),
        m("dht.timer_self_s", "s", spans.self_s(Layer::DhtTimer)),
        m("dht.route_frames", "count", spans.routed_frames() as f64),
        m("dht.route_hops_mean", "hops", ratio(t.routes.1, t.routes.0)),
        m(
            "dht.store_frames",
            "count",
            (spans.frames(Layer::DhtStore) + spans.frames(Layer::EnginePublish)) as f64,
        ),
        m("dht.store_self_s", "s", spans.self_s(Layer::DhtStore)),
        m("engine.agg_self_s", "s", spans.self_s(Layer::EngineAgg)),
        m("engine.partials_merge_ratio", "ratio", ratio(e.partials_merged, e.partials_sent)),
        m("engine.join_self_s", "s", spans.self_s(Layer::EngineJoin)),
        m("engine.join_tuples_sent", "count", e.join_tuples_sent as f64),
        m("engine.join_matches", "count", e.join_matches as f64),
        m("engine.bloom_pass_ratio", "ratio", ratio(e.bloom_passed, e.bloom_tested)),
        m("engine.bytes_shipped", "B", e.bytes_shipped as f64),
        m("engine.piggyback_share", "ratio", ratio(e.piggybacked_payloads, e.messages_sent)),
        m("engine.result_self_s", "s", spans.self_s(Layer::EngineResult)),
        m("engine.timer_self_s", "s", spans.self_s(Layer::EngineTimer)),
        m("engine.tuples_scanned", "count", e.tuples_scanned as f64),
        m("engine.control_self_s", "s", spans.self_s(Layer::EngineControl)),
        m("engine.publish_self_s", "s", spans.self_s(Layer::EnginePublish)),
        m("engine.messages_sent", "count", e.messages_sent as f64),
        m("testbed.publish_s", "s", spans.self_s(Layer::Publish)),
        m("testbed.submit_s", "s", spans.self_s(Layer::Submit)),
        m("bench.poll_s", "s", spans.self_s(Layer::Poll)),
    ];
    let cap = cap.expect("traced run captures replay inputs");
    let replays = replay::run(&wl, &cap);
    for r in &replays {
        let note = format!("{:.4} {} in {:.6} s", r.work, r.work_unit, r.secs);
        metrics.push(metric(r.name, r.unit, r.value, note));
    }
    metrics.push(metric(
        "trace.overhead_s",
        "s",
        overhead,
        format!("mean traced {traced_s:.3} s - mean untraced {untraced_s:.3} s"),
    ));
    metrics.push(m("trace.overhead_share", "ratio", overhead / untraced_s));
    print_table(&metrics);
    println!(
        "  handler time {handlers:.3} s of {:.3} s in {} run_until steps; node boots/stops {:.3} s",
        spans.total_s(Layer::Step),
        spans.count(Layer::Step),
        spans.self_s(Layer::Lifecycle)
    );

    let (attempted, failed) = u.checked.expect("untraced repetition is checked");
    let mut ok = true;
    ok &= check_counts("traced counts equal untraced counts", &u.counts, &t.counts);
    ok &= check_counts("second traced and untraced counts equal", &u2.counts, &t2.counts);
    ok &= check_counts("per-epoch stepping counts equal poll stepping", &u.counts, &stepped.counts);
    ok &= check(
        "traced virtual-time outputs equal untraced",
        virtual_outputs(&t) == virtual_outputs(&u),
    );
    ok &= check_answers(&u);
    print_result(ok, attempted, failed, &metrics);
    ExitCode::SUCCESS
}

/// Run every workload on two seeds, each in its own process (so each
/// workload's memory high-water mark is its own), forwarding their output.
/// Fails if any run fails or reports an incorrect result.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        for seed in [args.seed, args.seed + 1] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output();
            match out {
                Ok(out) if out.status.success() => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    print!("{text}");
                    let last = text.lines().last().unwrap_or_default();
                    ok &= last.starts_with("{\"correct\": true");
                }
                Ok(out) => {
                    eprintln!("{} seed {seed} failed: {}", kind.name(), out.status);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("cannot run {}: {e}", kind.name());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return all(&args);
    }
    let kind = Kind::parse(&args.workload).expect("workload name validated");
    if args.trace {
        traced(kind, args.seed)
    } else {
        untraced(kind, args.seed, args.seconds)
    }
}
