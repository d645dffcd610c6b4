//! The repo's performance ledger. One workload per process:
//!
//! ```text
//! bdisk-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! bdisk-benchmark manifest        # prints BENCHMARK.json
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every per-layer
//! metric (and writes `benchmark/out/trace-NAME.jsonl`). The last line of
//! standard output is the result as one JSON object. See README.md.

mod common;
mod fanout;
mod layers;
mod pin;
mod pull;
mod replan;
mod span;
mod spec;
mod sweep;

use std::time::Instant;

use common::{median, percentile, Repeat, Workload};
use span::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bdisk-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         bdisk-benchmark manifest\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "manifest" {
            print!("{}", spec::manifest());
            std::process::exit(0);
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    args
}

fn workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fanout_small" => Box::new(fanout::Fanout(fanout::SMALL)),
        "fanout_page4k" => Box::new(fanout::Fanout(fanout::PAGE4K)),
        "pull_paced" => Box::new(pull::PullPaced { seed }),
        "sim_sweep" => Box::new(sweep::SimSweep { seed }),
        "replan" => Box::new(replan::Replan { seed }),
        _ => usage(),
    }
}

/// `BENCHMARK.json` in the working directory must be [`spec::manifest`]:
/// the bounds printed beside each number are the ones the driver applies.
fn check_manifest() {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == spec::manifest() => {}
        Ok(_) => {
            eprintln!(
                "BENCHMARK.json differs from benchmark/src/spec.rs; regenerate it with `manifest`"
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("run from the repo root (BENCHMARK.json: {e})");
            std::process::exit(1);
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One measured repeat with the wall time spent outside its timed region.
struct Measured {
    repeat: Repeat,
    setup_s: f64,
}

fn measure(w: &mut dyn Workload, tr: &mut Tracer) -> Measured {
    let t0 = Instant::now();
    let repeat = w.repeat(tr);
    let setup_s = (t0.elapsed().as_secs_f64() - repeat.timed_s).max(0.0);
    Measured { repeat, setup_s }
}

fn rate(m: &Measured) -> f64 {
    m.repeat.ops as f64 / m.repeat.timed_s
}

struct Row {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// The regression bound (end-to-end) or the number it should move
    /// (per-layer).
    note: String,
    samples: usize,
    value: f64,
}

fn print_result(args: &Args, rows: &[Row], attempted: u64, failed: u64, digests_agree: bool) {
    println!(
        "# workload={} seed={} seconds={} trace={} | EventedTcpTransport over 127.0.0.1 \
         (loopback, not a link) | at most 2 runnable threads in a timed region | nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let note = if args.trace { "should move" } else { "bound" };
    println!(
        "{:<36} {:<6} {:<7} {:<14} {:>8}  {:>16}  {note}",
        "metric", "unit", "better", "workload", "samples", "value"
    );
    for r in rows {
        println!(
            "{:<36} {:<6} {:<7} {:<14} {:>8}  {:>16.6}  {}",
            r.name, r.unit, r.better, args.workload, r.samples, r.value, r.note
        );
    }
    println!(
        "# attempted={attempted} failed={failed} failed_share={} digests_agree={digests_agree}",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && digests_agree,
        metrics.join(", ")
    );
}

/// The untraced pass: a discarded warm-up repeat, then repeats until
/// `seconds` of measuring have gone by (three at least).
fn end_to_end(args: &Args, w: &mut dyn Workload) {
    let mut off = Tracer::new(false);
    let reference = measure(w, &mut off).repeat.digest;
    let mut runs: Vec<Measured> = Vec::new();
    let started = Instant::now();
    while runs.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        runs.push(measure(w, &mut off));
    }

    let attempted: u64 = runs.iter().map(|m| m.repeat.attempted).sum();
    let failed: u64 = runs.iter().map(|m| m.repeat.failed).sum();
    let digests_agree = runs.iter().all(|m| m.repeat.digest == reference);
    // Percentiles per repeat, then the median over repeats: a stall that
    // hits one repeat moves one sample of the median, not the pooled tail.
    let over_repeats = |f: fn(&Measured) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let samples: usize = runs.iter().map(|m| m.repeat.latency_us.len()).sum();
    let values = [
        (over_repeats(rate), runs.len()),
        (
            over_repeats(|m| percentile(&m.repeat.latency_us, 0.50)),
            samples,
        ),
        (
            over_repeats(|m| percentile(&m.repeat.latency_us, 0.99)),
            samples,
        ),
        (over_repeats(|m| m.repeat.delay_bu), runs.len()),
        (over_repeats(|m| m.setup_s), runs.len()),
        (peak_rss_mb(), 1),
    ];
    let rows: Vec<Row> = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Row {
            name: m.name,
            unit: m.unit,
            better: m.better,
            note: format!("{}", m.bound),
            samples,
            value,
        })
        .collect();
    print_result(args, &rows, attempted, failed, digests_agree);
}

/// The traced pass: the workload alternately untraced and traced (spans on,
/// the program's own 1-in-64 span sampling on) for a third of `seconds`,
/// then the per-layer probes; spans go to `benchmark/out/`.
fn per_layer(args: &Args, w: &mut dyn Workload) {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let reference = measure(w, &mut off).repeat.digest;
    let (mut plain, mut traced): (Vec<Measured>, Vec<Measured>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.is_empty() || started.elapsed().as_secs_f64() < args.seconds / 3.0 {
        plain.push(measure(w, &mut off));
        bdisk_obs::set_sample_every(64);
        let s = tr.enter(&args.workload);
        traced.push(measure(w, &mut tr));
        tr.exit(s);
        bdisk_obs::set_sample_every(0);
    }
    let plain_rate = median(&plain.iter().map(rate).collect::<Vec<_>>());
    let traced_rate = median(&traced.iter().map(rate).collect::<Vec<_>>());
    let trace_overhead_pct = (plain_rate - traced_rate) / plain_rate * 100.0;

    let (mut values, gate) = layers::run(args.seed, &mut tr);
    values.push(("obs.trace_overhead_pct", trace_overhead_pct, plain.len()));

    let path = std::path::Path::new("benchmark/out").join(format!("trace-{}.jsonl", args.workload));
    tr.write_jsonl(&path, &args.workload)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("# {} spans written to {}", tr.len(), path.display());

    let all = plain.iter().chain(&traced);
    let attempted = gate.attempted + all.clone().map(|m| m.repeat.attempted).sum::<u64>();
    let failed = gate.failed + all.clone().map(|m| m.repeat.failed).sum::<u64>();
    let digests_agree = all.clone().all(|m| m.repeat.digest == reference);
    let rows: Vec<Row> = spec::PER_LAYER
        .iter()
        .map(|m| {
            let &(_, value, samples) = values
                .iter()
                .find(|(name, _, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no probe reported {}", m.name));
            Row {
                name: m.name,
                unit: m.unit,
                better: m.better,
                note: m.moves.to_string(),
                samples,
                value,
            }
        })
        .collect();
    print_result(args, &rows, attempted, failed, digests_agree);
}

fn main() {
    let args = parse_args();
    if args.workload.is_empty() {
        usage();
    }
    check_manifest();
    // Before any thread is spawned or pinned elsewhere: see pin.rs.
    pin::pin(pin::Core::Broker);
    let mut w = workload(&args.workload, args.seed);
    if args.trace {
        per_layer(&args, w.as_mut());
    } else {
        end_to_end(&args, w.as_mut());
    }
}
