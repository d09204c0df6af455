//! End-to-end SDX benchmark: BGP update convergence, background reoptimize
//! and sharded forwarding, driven through the repository's public API, with
//! per-layer attribution from outside-in spans.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload churn|scale|forward --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! loop with spans on, then an untraced loop over the same operations, and
//! prints the per-layer metrics, attribution coverage and tracing overhead.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed correctness gate exits
//! with code 1. See `README.md` for the workloads and metric definitions.

mod fabric;
mod forward;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use sdx_core::AnalysisMode;

use fabric::{Fabric, SetupTimes, Shape};
use stats::{median, us, LayerCounts, Metrics, Outcome, Summary};
use trace::Tracer;

/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 8;
/// Batches in one `forward` replica.
const FORWARD_BATCHES: u64 = 125;
/// `attribution_coverage` a traced `churn` or `scale` run must reach.
const MIN_COVERAGE: f64 = 0.95;

const USAGE: &str =
    "usage: e2ebench --workload churn|scale|forward --seed N --seconds S --trace 0|1";

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// 60 × 4 000 multi-homed, §6.1 mix, `delta_check = Deny`.
    Churn,
    /// 300 × 10 000 single-homed, ~500 groups, `delta_check` off.
    Scale,
    /// The `scale` exchange, no BGP changes, routers + switch only.
    Forward,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "churn" => Some(Workload::Churn),
            "scale" => Some(Workload::Scale),
            "forward" => Some(Workload::Forward),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Scale => "scale",
            Workload::Forward => "forward",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::Churn => Shape {
                participants: 60,
                prefixes: 4_000,
                target_groups: None,
                delta_check: AnalysisMode::Deny,
            },
            Workload::Scale | Workload::Forward => Shape {
                participants: 300,
                prefixes: 10_000,
                target_groups: Some(500),
                delta_check: AnalysisMode::Off,
            },
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "{}",
        report.metrics.result_json(report.correct, report.outcome)
    );
    if !report.correct {
        std::process::exit(1);
    }
}

/// Everything a run prints.
#[derive(Debug, Default)]
struct Report {
    lines: Vec<String>,
    metrics: Metrics,
    outcome: Outcome,
    correct: bool,
}

impl Report {
    /// Record a correctness gate.
    fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.correct &= ok;
        let verdict = if ok { "ok" } else { "FAIL" };
        self.lines
            .push(format!("gate {name}: {verdict} ({detail})"));
    }
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let shape = w.shape();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.lines.push(format!(
        "workload {}: {} participants, {} prefixes, {}, delta_check {:?}, seed {}, {} s, trace {}; \
         {}, {} data-plane shards, compile threads {}",
        w.name(),
        shape.participants,
        shape.prefixes,
        match shape.target_groups {
            None => "multi-homed, section 6.1 policy mix".to_string(),
            Some(g) => format!("single-homed, ~{g} target groups"),
        },
        shape.delta_check,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        match w {
            Workload::Forward => "closed loop, no BGP changes",
            Workload::Churn | Workload::Scale => "closed loop over one trace",
        },
        fabric::SHARDS,
        fabric::COMPILE_THREADS,
    ));
    let mut tracer = Tracer::new(args.trace);
    let layers = match w {
        Workload::Forward => run_forward(args, shape, &mut report, &mut tracer),
        Workload::Churn | Workload::Scale => run_stream(args, shape, &mut report, &mut tracer),
    };
    if let Some(layers) = layers {
        per_layer(&mut report, &layers, &tracer);
        if w != Workload::Forward {
            let coverage = report.metrics.get("attribution_coverage").unwrap_or(0.0);
            report.gate(
                "attribution_coverage",
                coverage >= MIN_COVERAGE,
                format!("{coverage:.4} of the traced loop, minimum {MIN_COVERAGE}"),
            );
        }
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
            "spans-{}-{}.tsv",
            w.name(),
            args.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => report
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.lines.push(format!("spans not written: {e}")),
        }
    }
    report
}

/// Whether replica `i` runs traced: in a traced run, every other one, so
/// the untraced ones in between measure the same work without spans.
fn traced(args: &Args, i: usize) -> bool {
    args.trace && i.is_multiple_of(2)
}

/// Whether the run has measured enough: `--seconds` of loop time, and in a
/// traced run at least one traced and one untraced replica.
fn done(args: &Args, measured: Duration, replicas: usize) -> bool {
    measured >= Duration::from_secs(args.seconds) && (!args.trace || replicas >= 2)
}

/// The `churn` and `scale` workloads: replicas of one trace window, each on
/// a freshly set-up exchange. Returns the per-layer inputs of a traced run.
fn run_stream(
    args: &Args,
    shape: Shape,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Option<Layers> {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut reps: Vec<(bool, stream::StreamRun)> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut untraced = Tracer::new(false);
    // A warm-up replica, discarded: caches and the allocator start warm.
    let (mut fab, t) = fabric::setup(shape, args.seed);
    setups.push(t);
    let flows = fabric::flows(&fab.topology, &fab.sources, fabric::BATCH, args.seed);
    stream::run(&mut fab, &flows, stream::WINDOW_S, &mut untraced);
    let mut last = Some(fab);
    while !done(args, measured, reps.len()) {
        drop(last.take());
        let (mut fab, t) = fabric::setup(shape, args.seed);
        setups.push(t);
        let on = traced(args, reps.len());
        tracer.set_replica(reps.len() as u32);
        let tr = if on { &mut *tracer } else { &mut untraced };
        let run = stream::run(&mut fab, &flows, stream::WINDOW_S, tr);
        measured += run.loop_wall;
        reps.push((on, run));
        last = Some(fab);
    }
    let peak_rss = stats::peak_rss_mb();
    let mut fab = last.expect("at least one replica");
    while setups.len() < MIN_SETUPS {
        setups.push(fabric::setup(shape, args.seed).1);
    }
    for (_, r) in &reps {
        report
            .outcome
            .record_many(r.outcome.attempted, r.outcome.failed);
    }

    // Correctness gates, off every clock.
    let events: u64 = reps.iter().map(|(_, r)| r.events).sum();
    let mismatches: u64 = reps.iter().map(|(_, r)| r.wire_mismatches).sum();
    report.gate(
        "events",
        reps.iter()
            .all(|(_, r)| r.events > 0 && !r.converge_us.is_empty()),
        format!(
            "{events} events over {} replicas of the first {} virtual s",
            reps.len(),
            stream::WINDOW_S
        ),
    );
    report.gate(
        "wire_roundtrip",
        mismatches == 0,
        format!("{mismatches} of {events} decoded UPDATEs differ from their source"),
    );
    let (_, final_run) = reps.last().expect("at least one replica");
    let (streamed, batch) = stream::batch_oracle(&mut fab.runtime, shape, final_run.events);
    report.gate(
        "streamed_eq_batch",
        streamed == batch,
        format!("streamed {streamed:016x}, batch recompile {batch:016x}"),
    );

    let setup_s = median_setup(&setups);
    if args.trace {
        let mut layers = Layers::new(&setups);
        for (on, r) in &reps {
            layers.add(*on, r.loop_wall, r.counts);
        }
        return Some(layers);
    }

    let pool = |f: fn(&stream::StreamRun) -> &Vec<u64>| {
        let mut all: Vec<u64> = reps
            .iter()
            .flat_map(|(_, r)| f(r).iter().copied())
            .collect();
        Summary::of(&mut all)
    };
    let converge = pool(|r| &r.converge_us);
    let reoptimize = pool(|r| &r.reoptimize_us);
    let batch = pool(|r| &r.batch_us);
    let rules = pool(|r| &r.table_rules);
    let rates: Vec<f64> = reps
        .iter()
        .map(|(_, r)| r.events as f64 / r.loop_wall.as_secs_f64())
        .collect();
    let updates_per_s = median(&rates);
    let packets: u64 = reps.iter().map(|(_, r)| r.counts.packets).sum();
    let forward_wall: f64 = reps.iter().map(|(_, r)| r.forward_wall.as_secs_f64()).sum();
    let undelivered: u64 = reps.iter().map(|(_, r)| r.undelivered).sum();
    let denied: u64 = reps.iter().map(|(_, r)| r.denied_events).sum();
    let forced: u64 = reps.iter().map(|(_, r)| r.forced).sum();

    let lines = &mut report.lines;
    lines.push(format!(
        "updates_per_s = {updates_per_s} 1/s (median over {} replicas of events / loop wall: {rates:?})",
        reps.len()
    ));
    lines.push(converge.describe("converge", "us"));
    lines.push(format!(
        "failed_ratio = {} ratio ({undelivered} undelivered probes, {denied} events with a denied delta, of {events} events)",
        report.outcome.ratio()
    ));
    lines.push(format!(
        "reoptimize_p50_ms = {} ms (n={}, {forced} forced)",
        reoptimize.p50 as f64 / 1e3,
        reoptimize.samples
    ));
    lines.push(format!(
        "forward_pps = {} pkt/s ({packets} replay packets through router + fabric)",
        packets as f64 / forward_wall.max(f64::EPSILON)
    ));
    lines.push(batch.describe("batch", "us"));
    let latency = replica_percentiles(reps.iter().map(|(_, r)| &r.converge_us));
    report.lines.push(format!(
        "converge per replica, median over {} replicas: p50 {} us, p90 {} us",
        reps.len(),
        latency.0,
        latency.1
    ));
    end_to_end(
        report,
        setup_s,
        updates_per_s,
        latency.0,
        rules.p50,
        peak_rss,
    );
    None
}

/// The `forward` workload: replicas of [`FORWARD_BATCHES`] batches on one
/// exchange. Returns the per-layer inputs of a traced run.
fn run_forward(
    args: &Args,
    shape: Shape,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Option<Layers> {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut last: Option<Fabric> = None;
    for _ in 0..MIN_SETUPS {
        drop(last.take());
        let (fab, t) = fabric::setup(shape, args.seed);
        setups.push(t);
        last = Some(fab);
    }
    let mut fab = last.expect("at least one set-up");
    let flows = fabric::flows(
        &fab.topology,
        &fab.sources,
        forward::DISTINCT_BATCHES * forward::BATCH,
        args.seed,
    );
    let mut reps: Vec<(bool, forward::ForwardRun)> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut untraced = Tracer::new(false);
    // A warm-up replica, discarded: caches and the shard threads start warm.
    forward::run(&mut fab, &flows, FORWARD_BATCHES, &mut untraced);
    while !done(args, measured, reps.len()) {
        let on = traced(args, reps.len());
        tracer.set_replica(reps.len() as u32);
        let tr = if on { &mut *tracer } else { &mut untraced };
        let run = forward::run(&mut fab, &flows, FORWARD_BATCHES, tr);
        measured += run.loop_wall;
        reps.push((on, run));
    }
    let peak_rss = stats::peak_rss_mb();
    for (_, r) in &reps {
        report
            .outcome
            .record_many(r.outcome.attempted, r.outcome.failed);
    }

    let (sharded, single) = forward::shard_oracle(&mut fab, &flows);
    report.gate(
        "sharded_eq_single",
        sharded == single,
        format!(
            "{} shards {sharded:016x}, 1 shard {single:016x}",
            fabric::SHARDS
        ),
    );

    let setup_s = median_setup(&setups);
    if args.trace {
        let mut layers = Layers::new(&setups);
        for (on, r) in &reps {
            layers.add(*on, r.loop_wall, r.counts);
        }
        return Some(layers);
    }

    let mut batch_us: Vec<u64> = reps
        .iter()
        .flat_map(|(_, r)| r.batch_us.iter().copied())
        .collect();
    let batch = Summary::of(&mut batch_us);
    let rates: Vec<f64> = reps
        .iter()
        .map(|(_, r)| r.counts.packets as f64 / r.loop_wall.as_secs_f64())
        .collect();
    let forward_pps = median(&rates);
    let lines = &mut report.lines;
    lines.push(format!(
        "forward_pps = {forward_pps} pkt/s (median over {} replicas of {FORWARD_BATCHES} batches, packets / loop wall: {rates:?})",
        reps.len()
    ));
    lines.push(batch.describe("batch", "us"));
    lines.push(format!(
        "failed_ratio = {} ratio ({} of {} flows without route or egress)",
        report.outcome.ratio(),
        report.outcome.failed,
        report.outcome.attempted
    ));
    let rules = reps.last().map_or(0, |(_, r)| r.table_rules);
    let latency = replica_percentiles(reps.iter().map(|(_, r)| &r.batch_us));
    report.lines.push(format!(
        "batch per replica, median over {} replicas: p50 {} us, p90 {} us",
        reps.len(),
        latency.0,
        latency.1
    ));
    end_to_end(report, setup_s, forward_pps, latency.0, rules, peak_rss);
    None
}

fn median_setup(setups: &[SetupTimes]) -> f64 {
    median(
        &setups
            .iter()
            .map(|t| t.total().as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// Each replica's p50 and p90, summarized by their medians over replicas.
fn replica_percentiles<'a>(samples: impl Iterator<Item = &'a Vec<u64>>) -> (f64, f64) {
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for s in samples {
        let summary = Summary::of(&mut s.clone());
        p50.push(summary.p50 as f64);
        p90.push(summary.p90 as f64);
    }
    (median(&p50), median(&p90))
}

/// The end-to-end metrics of an untraced run. The JSON names are shared by
/// every workload; the lines above them give each workload's own names.
fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    throughput: f64,
    latency_p50: f64,
    table_rules: u64,
    peak_rss: f64,
) {
    let lines = &mut report.lines;
    lines.push(format!("table_rules = {table_rules} count"));
    lines.push(format!("peak_rss_mb = {peak_rss} MiB"));
    lines.push(format!("setup_s = {setup_s} s (median of the set-ups)"));
    let m = &mut report.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("throughput_per_s", throughput, "1/s");
    m.put("latency_p50_us", latency_p50, "us");
    m.put("table_rules", table_rules as f64, "count");
    m.put("peak_rss_mb", peak_rss, "MiB");
}

/// What the per-layer report needs from a traced run's replicas.
#[derive(Debug, Default)]
struct Layers {
    setups: Vec<SetupTimes>,
    counts: LayerCounts,
    traced: Vec<Duration>,
    untraced: Vec<Duration>,
}

impl Layers {
    fn new(setups: &[SetupTimes]) -> Self {
        Layers {
            setups: setups.to_vec(),
            ..Layers::default()
        }
    }

    fn add(&mut self, traced: bool, wall: Duration, counts: LayerCounts) {
        if traced {
            self.traced.push(wall);
            self.counts += counts;
        } else {
            self.untraced.push(wall);
        }
    }
}

fn mean_us(walls: &[Duration]) -> f64 {
    walls.iter().map(|d| us(*d)).sum::<f64>() / walls.len().max(1) as f64
}

/// The per-layer metrics of a traced run: span self times and program
/// counters as means per traced replica, coverage and tracing overhead.
/// Every workload reports every name; layers a workload does not run read 0.
fn per_layer(report: &mut Report, layers: &Layers, tr: &Tracer) {
    let spans = tr.spans();
    let n = layers.traced.len().max(1) as f64;
    let by = trace::self_time_by_name(spans);
    let self_us = |name: &str| by.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e3 / n);
    let calls = |name: &str| by.get(name).map_or(0, |&(c, _)| c) as f64 / n;
    let mut update_us: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "core.update")
        .map(|s| (s.end_ns - s.start_ns) / 1_000)
        .collect();
    let update = Summary::of(&mut update_us);
    let glue_us: f64 = ["event", "replay", "reoptimize", "batch"]
        .iter()
        .map(|name| self_us(name))
        .sum();
    let traced_us = mean_us(&layers.traced);
    let untraced_us = mean_us(&layers.untraced);
    let traced_ns: u64 = layers
        .traced
        .iter()
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .sum();
    let coverage = trace::coverage(spans, traced_ns);
    let c = &layers.counts;
    let per = |v: u64| v as f64 / n;

    let m = &mut report.metrics;
    m.put("bgp.wire_us", self_us("bgp.wire"), "us");
    m.put("bgp.wire_calls", calls("bgp.wire"), "count");
    m.put("bgp.best_route_us", self_us("bgp.best_route"), "us");
    m.put("core.update_us", self_us("core.update"), "us");
    m.put("core.update_p50_us", update.p50 as f64, "us");
    m.put("core.update_p99_us", update.p99 as f64, "us");
    m.put("core.rules_installed", per(c.rules_installed), "count");
    m.put("core.rules_removed", per(c.rules_removed), "count");
    m.put("plan.check_us", per(c.check_us), "us");
    m.put("plan.checked", per(c.checked), "count");
    let structural = if c.checked == 0 {
        0.0
    } else {
        c.structural as f64 / c.checked as f64
    };
    m.put("plan.structural_ratio", structural, "ratio");
    m.put("plan.denied", per(c.denied), "count");
    m.put("core.reoptimizes", per(c.reoptimizes), "count");
    m.put("core.reoptimize_us", self_us("core.reoptimize"), "us");
    m.put("core.compile_us", per(c.compile_us), "us");
    m.put("core.fec_us", per(c.fec_us), "us");
    m.put("core.stage1_us", per(c.stage1_us), "us");
    m.put("core.stage2_us", per(c.stage2_us), "us");
    m.put("core.compose_us", per(c.compose_us), "us");
    m.put("core.install_us", per(c.install_us), "us");
    m.put("core.sync_router_us", self_us("core.sync_router"), "us");
    m.put("core.sync_router_routes", per(c.sync_routes), "count");
    m.put("churn.sync_prefix_us", self_us("churn.sync_prefix"), "us");
    m.put("switch.probe_us", self_us("switch.probe"), "us");
    m.put("switch.batch_us", self_us("switch.batch"), "us");
    m.put("switch.packets", per(c.packets), "count");
    m.put("switch.republish", per(c.republish), "count");
    m.put(
        "switch.router_forward_us",
        self_us("switch.router_forward"),
        "us",
    );
    let phase = |f: fn(&SetupTimes) -> Duration| {
        median(&layers.setups.iter().map(|t| us(f(t))).collect::<Vec<_>>())
    };
    m.put("setup.generate_us", phase(|t| t.generate), "us");
    m.put("setup.compile_us", phase(|t| t.compile), "us");
    m.put("setup.sync_us", phase(|t| t.sync), "us");
    m.put("harness.glue_us", glue_us, "us");
    m.put("attribution_coverage", coverage, "ratio");
    m.put("trace.spans", spans.len() as f64 / n, "count");
    m.put("trace.loop_wall_us", traced_us, "us");
    m.put("trace.untraced_wall_us", untraced_us, "us");
    m.put("trace.overhead_us", traced_us - untraced_us, "us");
    m.put(
        "trace.overhead_ratio",
        (traced_us - untraced_us) / untraced_us.max(1.0),
        "ratio",
    );

    report.lines.push(format!(
        "{} traced and {} untraced replicas; per-layer figures are means per traced replica",
        layers.traced.len(),
        layers.untraced.len()
    ));
    report.lines.push(update.describe("core.update", "us"));
    report.lines.extend(m.lines());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_driver_arguments() {
        let a = parse_args(&argv("--workload scale --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Scale);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload churn --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload churn --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload churn --seed")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [Workload::Churn, Workload::Scale, Workload::Forward] {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(stats::valid_name(w.name()));
        }
    }
}
