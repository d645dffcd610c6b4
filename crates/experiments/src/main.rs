//! `repro` — regenerates every table and figure of the Broadcast Disks
//! paper (Acharya, Alonso, Franklin, Zdonik, SIGMOD 1995), and runs the
//! live broadcast engine against the simulator.
//!
//! ```text
//! repro [flags] <experiment> [...]
//!
//! flags:
//!   --quick            reduced requests/seeds for a fast smoke run
//!   --out DIR          write CSVs under DIR (default results/)
//!   --seed N           base seed for derived sweep seeds (default 101)
//!   --transport T      live: bus (default, lossless) or tcp
//!   --clients N        live: concurrent clients (default 16, min 4)
//!   --channels N       live: broadcast channels to stripe across (default 1)
//!   --page-size N      live: payload bytes per page frame (default 64)
//!   --metrics-addr A   live/trace: serve GET /metrics and /events on HOST:PORT
//!   --serve-secs N     live: keep serving metrics N seconds after the run ends
//!
//! experiments:
//!   table1   expected delay of the Figure 2 example programs
//!   fig3     broadcast program generation worked example
//!   fig5     response vs Delta, configs D1..D5, no cache
//!   fig6     noise sensitivity, D3, no cache
//!   fig7     noise sensitivity, D5, no cache
//!   fig8     noise sensitivity, D5, CacheSize=500, policy P
//!   fig9     noise sensitivity, D5, CacheSize=500, policy PIX
//!   fig10    P vs PIX over noise at Delta 3 and 5
//!   fig11    access locations, P vs PIX
//!   fig12    LIX page replacement worked example
//!   fig13    LRU/L/LIX/PIX vs Delta
//!   fig14    access locations, LRU/L/LIX
//!   fig15    LRU/L/LIX vs noise
//!   prefetch PT prefetching vs demand caching (extension)
//!   policies full policy shoot-out incl. LRU-K and 2Q (extension)
//!   design   automated broadcast-program designer (extension)
//!   updates  volatile data / invalidation vs stale reads (extension)
//!   index    (1,m) air indexing access/tuning tradeoff (extension)
//!   channels multi-channel striping sweep + 2-channel live parity
//!   live     real-time broadcast engine vs simulator (bdisk-broker)
//!   trace    short live run with the event journal tailed to stdout + CSV
//!   timeline wait-attribution waterfall: per-request phase spans with a
//!            bit-exact conservation check, timeline.csv + waterfall.csv
//!   faults   loss sweep + TCP chaos run under seeded fault injection
//!   coding   coded repair slots: rate x loss sweep + coded live parity
//!   drift    epoch hot-swap under workload drift, with broker restart
//!   pull     hybrid push/pull slot arbiter: skew x mode sweep + parity
//!   all      everything above, in paper order
//! ```
//!
//! `--quick` cuts request counts and seeds; the default is paper fidelity
//! (15 000 measured requests, 3 seeds per point). Every CSV records the
//! base seed in its header line, so `repro --seed N <exp>` reruns are
//! bit-identical.

mod channels;
mod coding;
mod common;
mod drift;
mod extensions;
mod faults;
mod figures;
mod live;
mod pull;
mod table1;
mod timeline;
mod worked_examples;

use common::Scale;
use live::LiveOptions;

fn main() {
    let (scale, live_opts, experiments) = parse_args();

    if experiments.is_empty() {
        eprintln!("usage: repro [--quick] [--out DIR] [--seed N] <table1|fig3|...|fig15|live|all>");
        eprintln!("run `repro all` to regenerate every table and figure");
        std::process::exit(2);
    }

    let start = std::time::Instant::now();
    for exp in &experiments {
        run_one(exp, scale, &live_opts);
    }
    eprintln!("\ncompleted in {:.1}s", start.elapsed().as_secs_f64());
}

/// Parses flags and experiment names; installs the invocation context.
fn parse_args() -> (Scale, LiveOptions, Vec<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = std::path::PathBuf::from("results");
    let mut base_seed = common::DEFAULT_BASE_SEED;
    let mut live_opts = LiveOptions::default();
    let mut experiments = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = flag_value(&mut iter, "--out").into(),
            "--seed" => {
                base_seed = parse_or_die(&flag_value(&mut iter, "--seed"), "--seed expects a u64")
            }
            "--transport" => {
                live_opts.transport = parse_or_die(
                    &flag_value(&mut iter, "--transport"),
                    "--transport expects bus or tcp",
                )
            }
            "--clients" => {
                live_opts.clients = parse_or_die(
                    &flag_value(&mut iter, "--clients"),
                    "--clients expects a positive integer",
                )
            }
            "--channels" => {
                live_opts.channels = parse_or_die(
                    &flag_value(&mut iter, "--channels"),
                    "--channels expects a positive integer",
                );
                if live_opts.channels == 0 {
                    eprintln!("--channels expects a positive integer");
                    std::process::exit(2);
                }
            }
            "--page-size" => {
                live_opts.page_size = parse_or_die(
                    &flag_value(&mut iter, "--page-size"),
                    "--page-size expects a byte count",
                )
            }
            "--metrics-addr" => {
                live_opts.metrics_addr = Some(flag_value(&mut iter, "--metrics-addr"))
            }
            "--serve-secs" => {
                live_opts.serve_secs = parse_or_die(
                    &flag_value(&mut iter, "--serve-secs"),
                    "--serve-secs expects a number of seconds",
                )
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            _ => experiments.push(arg),
        }
    }

    common::init_context(out, base_seed);
    let scale = if quick { Scale::Quick } else { Scale::Full };
    (scale, live_opts, experiments)
}

fn flag_value(iter: &mut impl Iterator<Item = String>, flag: &str) -> String {
    iter.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn parse_or_die<T: std::str::FromStr>(s: &str, msg: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{msg} (got '{s}')");
        std::process::exit(2);
    })
}

fn run_one(exp: &str, scale: Scale, live_opts: &LiveOptions) {
    match exp {
        "table1" => table1::run(scale),
        "fig3" => worked_examples::figure3(),
        "fig5" => figures::fig5(scale),
        "fig6" => figures::fig6(scale),
        "fig7" => figures::fig7(scale),
        "fig8" => figures::fig8(scale),
        "fig9" => figures::fig9(scale),
        "fig10" => figures::fig10(scale),
        "fig11" => figures::fig11(scale),
        "fig12" => worked_examples::figure12(),
        "fig13" => figures::fig13(scale),
        "fig14" => figures::fig14(scale),
        "fig15" => figures::fig15(scale),
        "prefetch" => extensions::prefetch(scale),
        "policies" => extensions::policies(scale),
        "design" => extensions::design(scale),
        "updates" => extensions::updates(scale),
        "index" => extensions::index(scale),
        "channels" => channels::run(scale, live_opts),
        "live" => live::run(scale, live_opts),
        "trace" => live::trace(scale, live_opts),
        "timeline" => timeline::run(scale, live_opts),
        "faults" => faults::run(scale, live_opts),
        "coding" => coding::run(scale, live_opts),
        "drift" => drift::run(scale, live_opts),
        "pull" => pull::run(scale, live_opts),
        "all" => {
            for e in [
                "table1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                "fig12", "fig13", "fig14", "fig15", "prefetch", "policies", "design", "updates",
                "index", "channels", "live", "timeline", "faults", "coding", "drift", "pull",
            ] {
                run_one(e, scale, live_opts);
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}
