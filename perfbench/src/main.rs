//! Closed-loop trial benchmark for the radio-network simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload broadcast_rgg --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One process runs one workload. It builds the workload's topology from a
//! seed derived from `--seed`, warms one `TrialPool` per worker, then runs
//! trials in a closed loop on [`WORKERS`] threads for `--seconds`: each
//! worker pulls the next trial index as soon as its previous trial returns.
//! Records are folded through `rn_bench::TrialAccumulator`.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run (see `workload.rs` and `trace.rs`), which also
//! writes its spans to `.bench_out/`. The last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! trial or check makes the exit code 1.

#![forbid(unsafe_code)]

mod trace;
mod workload;

use rn_bench::TrialAccumulator;
use rn_sim::{TrialPool, TrialRecord};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{Prepared, Seeds, Setup, TracedWorker, Workload, WORKLOADS};

/// Closed-loop clients: one per core of the reference machine.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// At least this many timed trials lie beyond `trial_ms_tail`, the
/// workload's `tail_pct` percentile: the untraced run times at least
/// [`tail_min_trials`] trials, whatever the run length.
const TAIL_BEYOND: f64 = 10.0;
/// `rounds_p50` is the median over the first `ROUNDS_PREFIX` trial seeds, so
/// it is a pure function of `--seed`. No workload times fewer trials.
const ROUNDS_PREFIX: u64 = 50;
/// The traced run's minimum; its counts come from the first `PREFIX` trial
/// seeds, so they too are a pure function of `--seed`.
const PREFIX: u64 = 16;
/// Named up front for later claims to be re-checked on; never used while
/// tuning the benchmark.
const HELD_OUT_SEED: u64 = 9973;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "error: {msg}\nusage: rn_perfbench --workload <{}> --seed <u64> --seconds <s> [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let prov = provenance(&args);
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    let mut report = Report::default();
    if args.trace {
        traced_run(&args, &prov, &mut report);
    } else {
        untraced_run(&args, &mut report);
    }
    report.finish()
}

/// What the run prints: metrics in order, trial and failure counts.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name, value, unit, samples));
    }

    /// Counts `rec` as one attempted trial, failed when not completed.
    fn trial(&mut self, what: &str, rec: &TrialRecord) {
        self.attempted += 1;
        if !rec.completed {
            self.failures.push(format!("{what}: completed = false"));
        }
    }

    /// Checks that `again` reproduces `first`.
    fn same(&mut self, what: &str, first: &TrialRecord, again: &TrialRecord) {
        if first != again {
            self.failures.push(format!("{what}: {again:?} != {first:?}"));
        }
    }

    fn finish(self) -> ExitCode {
        for (name, value, unit, samples) in &self.metrics {
            println!("{name:<26} {value:>14.4} {unit:<6} (n={samples})");
        }
        let fail_rate = self.failures.len() as f64 / self.attempted.max(1) as f64;
        println!("{:<26} {fail_rate:>14.4} ratio  (n={})", "fail_rate", self.attempted);
        for f in &self.failures {
            println!("# FAILED {f}");
        }
        let mut json = String::from("{");
        let correct = self.failures.is_empty();
        let _ = write!(
            json,
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Sets up [`SETUP_REPS`] times (each from scratch) and keeps the last.
fn setups(
    args: &Args,
    seeds: &Seeds,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> (Setup, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take()); // free the previous topology before building the next
        let s = workload::setup(args.workload, seeds, WORKERS, rep, tr.as_deref_mut());
        for (w, rec) in s.warmups.iter().enumerate() {
            report.trial(&format!("set-up {rep} warm-up trial of worker {w}"), rec);
        }
        times.push(s.elapsed.as_secs_f64());
        last = Some(s);
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// Fewest trials that leave [`TAIL_BEYOND`] samples beyond the workload's
/// tail percentile.
fn tail_min_trials(wl: &Workload) -> u64 {
    (TAIL_BEYOND / (1.0 - wl.tail_pct / 100.0)).ceil() as u64
}

struct Sample {
    idx: u64,
    /// `TrialRecord::default()` when the trial returned an error.
    record: TrialRecord,
    ms: f64,
    error: Option<String>,
}

/// One closed-loop phase: samples sorted by trial index (always the
/// contiguous range `0..len`) and the phase's wall time.
struct Phase {
    samples: Vec<Sample>,
    wall: Duration,
}

/// Runs trials on one thread per worker state: each worker claims the next
/// trial index as soon as its previous trial returns, and folds the record
/// with `fold`. Workers stop claiming after `seconds`, once at least `min`
/// trials are claimed.
fn closed_loop<S: Send>(
    states: &mut [S],
    seconds: f64,
    min: u64,
    trial: &(dyn Fn(&mut S, u64) -> Result<TrialRecord, String> + Sync),
    fold: &(dyn Fn(&mut S, u64, TrialRecord, Duration) + Sync),
) -> Phase {
    let cursor = AtomicU64::new(0);
    // rn-lint: allow(no-wall-clock) — closed-loop phase timing is the benchmark's measurement
    let start = Instant::now();
    let per_worker: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds
                        || cursor.load(Ordering::SeqCst) < min
                    {
                        let idx = cursor.fetch_add(1, Ordering::SeqCst);
                        // rn-lint: allow(no-wall-clock) — per-trial latency is the benchmark's measurement
                        let t0 = Instant::now();
                        let result = trial(state, idx);
                        let dt = t0.elapsed();
                        let (record, error) = match result {
                            Ok(r) => (r, None),
                            Err(e) => (TrialRecord::default(), Some(e)),
                        };
                        fold(state, idx, record, dt);
                        samples.push(Sample { idx, record, ms: dt.as_secs_f64() * 1e3, error });
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("trial worker panicked")).collect()
    });
    let wall = start.elapsed();
    let mut samples: Vec<Sample> = per_worker.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.idx);
    Phase { samples, wall }
}

fn fold_into(acc: &Mutex<TrialAccumulator>, idx: u64, rec: TrialRecord, dt: Duration) {
    acc.lock().expect("accumulator lock").push(idx, rec, Some(dt));
}

fn untraced_run(args: &Args, report: &mut Report) {
    let seeds = Seeds::new(args.seed);
    let (Setup { prepared, mut pools, .. }, setup_s) = setups(args, &seeds, report, None);
    let acc = Mutex::new(TrialAccumulator::new(u64::MAX, true));
    let phase = closed_loop(
        &mut pools,
        args.seconds,
        tail_min_trials(args.workload),
        &|pool: &mut TrialPool, idx| Ok(prepared.run(pool, seeds.trial(idx))),
        &|_, idx, rec, dt| fold_into(&acc, idx, rec, dt),
    );
    check_phase(report, "timed", &phase);
    rerun_first(report, &prepared, &mut pools[0], &seeds, &phase);

    let ms: Vec<f64> = phase.samples.iter().map(|s| s.ms).collect();
    let n = ms.len();
    report.metric("trial_ms_p50", percentile(&ms, 50.0), "ms", n);
    report.metric("trial_ms_tail", percentile(&ms, args.workload.tail_pct), "ms", n);
    report.metric("trials_per_s", n as f64 / phase.wall.as_secs_f64(), "1/s", n);
    report.metric("setup_s", percentile(&setup_s, 50.0), "s", setup_s.len());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let rounds: Vec<f64> =
        phase.samples[..ROUNDS_PREFIX as usize].iter().map(|s| s.record.rounds as f64).collect();
    report.metric("rounds_p50", percentile(&rounds, 50.0), "rounds", rounds.len());
    print_digest(&acc, &phase);
}

/// Counts every trial of `phase`; a trial that returned an error fails.
fn check_phase(report: &mut Report, what: &str, phase: &Phase) {
    for s in &phase.samples {
        let what = format!("{what} trial {}", s.idx);
        match &s.error {
            None => report.trial(&what, &s.record),
            Some(e) => {
                report.attempted += 1;
                report.failures.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Re-runs the first timed seed on a warm pool: it must reproduce the record.
fn rerun_first(
    report: &mut Report,
    p: &Prepared,
    pool: &mut TrialPool,
    seeds: &Seeds,
    phase: &Phase,
) {
    let again = p.run(pool, seeds.trial(0));
    report.trial("re-run of trial 0", &again);
    report.same("re-run of trial 0 on a warm pool", &phase.samples[0].record, &again);
}

/// Informational: the accumulator's fold of all records and a hash of the
/// records in trial order.
fn print_digest(acc: &Mutex<TrialAccumulator>, phase: &Phase) {
    let acc = acc.lock().expect("accumulator lock");
    let r = acc.rounds_stats();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in &phase.samples {
        let m = s.record.metrics;
        for x in [
            s.idx,
            s.record.completed as u64,
            s.record.rounds,
            m.transmissions,
            m.deliveries,
            m.collisions,
        ] {
            h = rn_sim::rng::derive(h, x);
        }
    }
    println!(
        "# digest: {} records folded, {} completed, rounds mean {:.1} p50~{:.0} p95~{:.0}, record hash {h:016x}",
        acc.folded(),
        acc.completed(),
        r.mean,
        r.p50,
        r.p95
    );
}

/// Per-worker state of the traced run: each trial index runs untraced on
/// `pool` (timed, for the tracing overhead) and then traced on `traced`.
struct Interleaved {
    pool: TrialPool,
    traced: TracedWorker,
    plain: Vec<(TrialRecord, f64)>,
}

fn traced_run(args: &Args, prov: &[(&'static str, String)], report: &mut Report) {
    let seeds = Seeds::new(args.seed);
    let wl = args.workload;
    // rn-lint: allow(no-wall-clock) — shared epoch of every worker's span timestamps
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::new(epoch, WORKERS);
    let (Setup { prepared, pools, .. }, _) = setups(args, &seeds, report, Some(&mut setup_tracer));
    let mut workers: Vec<Interleaved> = pools
        .into_iter()
        .enumerate()
        .map(|(w, pool)| {
            let mut traced = TracedWorker::new(Tracer::new(epoch, w));
            // Warm the split's own buffers with a discarded trial.
            if let Err(e) = traced.trial(wl, &prepared, u64::MAX - w as u64, seeds.warmup(w)) {
                report.failures.push(format!("traced warm-up of worker {w}: {e}"));
            }
            traced.tracer.spans.clear();
            traced.tracer.counts.clear();
            Interleaved { pool, traced, plain: Vec::new() }
        })
        .collect();

    let acc = Mutex::new(TrialAccumulator::new(u64::MAX, true));
    let phase = closed_loop(
        &mut workers,
        args.seconds,
        PREFIX,
        &|w: &mut Interleaved, idx| {
            let seed = seeds.trial(idx);
            // rn-lint: allow(no-wall-clock) — untraced trial time is the base of the tracing overhead
            let t0 = Instant::now();
            let plain = prepared.run(&mut w.pool, seed);
            w.plain.push((plain, t0.elapsed().as_secs_f64() * 1e3));
            let traced = w.traced.trial(wl, &prepared, idx, seed)?;
            if traced != plain {
                return Err(format!("traced split gave {traced:?}, untraced run {plain:?}"));
            }
            Ok(traced)
        },
        &|w, idx, rec, dt| {
            let id = w.traced.tracer.begin("bench.fold", 0, idx);
            fold_into(&acc, idx, rec, dt);
            w.traced.tracer.end(id);
        },
    );
    check_phase(report, "traced", &phase);
    let mut plain_ms = Vec::new();
    for w in &workers {
        for (rec, ms) in &w.plain {
            report.trial("untraced trial", rec);
            plain_ms.push(*ms);
        }
    }
    rerun_first(report, &prepared, &mut workers[0].pool, &seeds, &phase);

    let mut spans = setup_tracer.spans;
    let mut counts = setup_tracer.counts;
    for w in workers {
        spans.extend(w.traced.tracer.spans);
        counts.extend(w.traced.tracer.counts);
    }
    layer_metrics(report, &prepared, &spans, &counts, &plain_ms, &phase);
    print_digest(&acc, &phase);
    write_trace(args, prov, &spans, &counts);
}

fn layer_metrics(
    report: &mut Report,
    p: &Prepared,
    spans: &[Span],
    counts: &[trace::Count],
    plain_ms: &[f64],
    traced: &Phase,
) {
    let setups: Vec<u64> = (0..SETUP_REPS).map(trace::setup_trial).collect();
    let trials: Vec<u64> = (0..traced.samples.len() as u64).collect();
    let prefix = &trials[..PREFIX as usize];
    // Median over `ids` of a per-trial value.
    let med = |ids: &[u64], f: &dyn Fn(u64) -> f64| {
        let v: Vec<f64> = ids.iter().map(|&t| f(t)).collect();
        percentile(&v, 50.0)
    };
    let ms = |name: &'static str| move |t| trace::total_ms(spans, t, name);
    let count = |name: &'static str| move |t| trace::total_count(counts, t, name) as f64;
    let (s, t, k) = (setups.len(), trials.len(), prefix.len());

    report.metric("graph.build_ms", med(&setups, &ms("graph.build")), "ms", s);
    report.metric("graph.diameter_ms", med(&setups, &ms("graph.diameter")), "ms", s);
    report.metric("graph.hybrid_ms", med(&setups, &ms("graph.hybrid")), "ms", s);
    report.metric("graph.edges", p.graph.m() as f64, "count", 1);
    let graph_share = |id| {
        let graph = ms("graph.build")(id) + ms("graph.diameter")(id);
        100.0 * graph / (ms("setup")(id) - ms("graph.hybrid")(id))
    };
    report.metric("setup.graph_pct", med(&setups, &graph_share), "%", s);

    report.metric("cluster.partition_ms", med(&trials, &ms("cluster.partition")), "ms", t);
    report.metric("cluster.partitions", med(prefix, &count("cluster.partitions")), "count", k);
    report.metric("cluster.clusters", med(prefix, &count("cluster.clusters")), "count", k);
    report.metric("schedule.rebuild_ms", med(&trials, &ms("schedule.rebuild")), "ms", t);
    report.metric("schedule.rebuilds", med(prefix, &count("schedule.rebuilds")), "count", k);
    report.metric("core.precompute_ms", med(&trials, &ms("core.precompute")), "ms", t);
    report.metric("core.reuse_ms", med(&trials, &ms("core.reuse")), "ms", t);
    report.metric("core.charged_rounds", med(prefix, &count("core.charged_rounds")), "count", k);
    report.metric("core.candidates", med(prefix, &count("core.candidates")), "count", k);

    let sim = ms("sim.run");
    report.metric("sim.run_ms", med(&trials, &sim), "ms", t);
    let per_round = |id| 1e3 * sim(id) / count("sim.rounds")(id).max(1.0);
    report.metric("sim.us_per_round", med(&trials, &per_round), "us", t);
    let total = |name| prefix.iter().map(|&id| count(name)(id)).sum::<f64>();
    for name in ["sim.rounds", "sim.transmissions", "sim.deliveries", "sim.collisions"] {
        report.metric(name, med(prefix, &count(name)), "count", k);
    }
    report.metric(
        "sim.delivery_ratio",
        total("sim.deliveries") / total("sim.transmissions").max(1.0),
        "ratio",
        k,
    );

    let fold_us = |id| 1e3 * ms("bench.fold")(id);
    report.metric("bench.fold_us", med(&trials, &fold_us), "us", t);

    let trial_spans: Vec<&Span> =
        spans.iter().filter(|s| s.name == "trial" && s.trial < trials.len() as u64).collect();
    let traced_ms: Vec<f64> = trial_spans.iter().map(|s| s.ms()).collect();
    let coverage: Vec<f64> = trial_spans
        .iter()
        .map(|s| 100.0 * (1.0 - trace::self_ms(spans, s) / s.ms().max(1e-9)))
        .collect();
    let (traced_p50, plain_p50) = (percentile(&traced_ms, 50.0), percentile(plain_ms, 50.0));
    report.metric("trace.trial_ms", traced_p50, "ms", t);
    report.metric("trace.coverage_pct", percentile(&coverage, 50.0), "%", t);
    report.metric("trace.overhead_pct", 100.0 * (traced_p50 - plain_p50) / plain_p50, "%", t);
}

/// Writes every span and count, after a provenance header, to
/// `.bench_out/<workload>-seed<seed>-trace.jsonl`.
fn write_trace(
    args: &Args,
    prov: &[(&'static str, String)],
    spans: &[Span],
    counts: &[trace::Count],
) {
    let mut header = String::from("{");
    for (i, (k, v)) in prov.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(header, "{sep}\"{k}\":\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    header.push('}');
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}-trace.jsonl", args.workload.name, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&header, spans, counts)));
    match written {
        Ok(()) => println!(
            "# trace: {} spans, {} counts written to {}",
            spans.len(),
            counts.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Linear-interpolated percentile `pct` of `values` (0 when empty).
fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    rn_bench::exact_quantile_sorted(&v, pct / 100.0)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and how this run was made.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let wl = args.workload;
    vec![
        ("workload", format!("{} = {}@{}", wl.name, wl.protocol, wl.topology)),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("workers", WORKERS.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", git_commit()),
        ("tail_percentile", wl.tail_pct.to_string()),
    ]
}

/// The commit of a git checkout in the working directory, read from `.git`
/// directly so nothing outside the checkout is consulted.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}
