//! Shared constants and helpers for the experiment harness.
//!
//! These are the paper's exact experimental settings (Table 4 and the
//! Figure 5 disk configurations).

use std::path::PathBuf;
use std::sync::OnceLock;

use bdisk_cache::PolicyKind;
use bdisk_sched::DiskLayout;
use bdisk_sim::{average_seeds, seeds_from_base, AveragedOutcome, SimConfig};

/// Disk configurations of Figure 5 (sizes in pages; ServerDBSize = 5000).
pub const DISK_CONFIGS: [(&str, &[usize]); 5] = [
    ("D1", &[500, 4500]),
    ("D2", &[900, 4100]),
    ("D3", &[2500, 2500]),
    ("D4", &[300, 1200, 3500]),
    ("D5", &[500, 2000, 2500]),
];

/// Δ values swept in the figures.
pub const DELTAS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Noise percentages of Experiments 2–5.
pub const NOISES: [f64; 6] = [0.0, 0.15, 0.30, 0.45, 0.60, 0.75];

/// Seeds averaged per sweep point (the default base seed with the runner's
/// fixed stride; kept for reference and backward-compatible defaults).
pub const SEEDS: [u64; 3] = [101, 202, 303];

/// Default base seed: reproduces the historical [`SEEDS`] sequence.
pub const DEFAULT_BASE_SEED: u64 = 101;

/// Invocation-wide settings shared by every experiment: where CSVs go and
/// which base seed the multi-seed sweeps derive from.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Output directory for CSVs (default `results/`, set by `--out`).
    pub out_dir: PathBuf,
    /// Base seed for derived sweep seeds (default 101, set by `--seed`).
    pub base_seed: u64,
}

static CONTEXT: OnceLock<RunContext> = OnceLock::new();

/// Installs the invocation context; call once from `main` before running
/// experiments. Later calls are ignored.
pub fn init_context(out_dir: PathBuf, base_seed: u64) {
    let _ = CONTEXT.set(RunContext { out_dir, base_seed });
}

/// The invocation context (defaults if `init_context` was never called).
pub fn context() -> &'static RunContext {
    CONTEXT.get_or_init(|| RunContext {
        out_dir: PathBuf::from("results"),
        base_seed: DEFAULT_BASE_SEED,
    })
}

/// Runtime scale for a harness invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-fidelity: 15 000 measured requests per point.
    Full,
    /// Reduced requests for smoke runs.
    Quick,
}

impl Scale {
    /// Measured requests per run.
    pub fn requests(self) -> u64 {
        match self {
            Scale::Full => 15_000,
            Scale::Quick => 3_000,
        }
    }

    /// Post-cache-fill warmup requests.
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Full => 5_000,
            Scale::Quick => 1_000,
        }
    }

    /// Seeds per point, derived from the invocation's base seed with the
    /// runner's fixed stride, so a whole sweep reruns bit-identically from
    /// the single base recorded in the CSV headers.
    pub fn seeds(self) -> Vec<u64> {
        let count = match self {
            Scale::Full => SEEDS.len(),
            Scale::Quick => 1,
        };
        seeds_from_base(context().base_seed, count)
    }
}

/// Looks up one of the named Figure 5 configurations.
pub fn disk_config(name: &str) -> &'static [usize] {
    DISK_CONFIGS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown disk configuration {name}"))
        .1
}

/// A layout for the named configuration at Δ.
pub fn layout(name: &str, delta: u64) -> DiskLayout {
    DiskLayout::with_delta(disk_config(name), delta).expect("paper configurations are valid")
}

/// Baseline config (Table 4): no cache, no noise, no offset.
pub fn base_config(scale: Scale) -> SimConfig {
    SimConfig {
        access_range: 1000,
        region_size: 50,
        theta: 0.95,
        think_time: 2.0,
        think_jitter: 0.0,
        cache_size: 1,
        offset: 0,
        noise: 0.0,
        policy: PolicyKind::Pix, // irrelevant at cache_size 1
        requests: scale.requests(),
        warmup_requests: scale.warmup(),
        alpha: 0.25,
        batch_size: 500,
        page_size: 64,
        channels: 1,
        switch_slots: 0.0,
        pull: false,
    }
}

/// Config for the caching experiments: CacheSize = Offset = 500.
pub fn caching_config(scale: Scale, policy: PolicyKind, noise: f64) -> SimConfig {
    SimConfig {
        cache_size: 500,
        offset: 500,
        noise,
        policy,
        ..base_config(scale)
    }
}

/// Runs one sweep point, seed-averaged.
pub fn run_point(cfg: &SimConfig, layout: &DiskLayout, scale: Scale) -> AveragedOutcome {
    average_seeds(cfg, layout, &scale.seeds()).expect("paper-scale run must succeed")
}

/// Prints a response-time table: one row per x value, one column per series.
pub fn print_table(title: &str, x_name: &str, xs: &[String], series: &[(String, Vec<f64>)]) {
    println!("\n=== {title} ===");
    print!("{x_name:>10}");
    for (name, _) in series {
        print!("{name:>12}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for (_, values) in series {
            print!("{:>12.1}", values[i]);
        }
        println!();
    }
}

/// Writes the same table as CSV under the invocation's output directory
/// (default `results/`, overridden by `--out`; created on demand). The
/// first line records the base seed so any run can be replayed exactly.
pub fn write_csv(file: &str, x_name: &str, xs: &[String], series: &[(String, Vec<f64>)]) {
    write_csv_with_comments(file, x_name, xs, series, &[]);
}

/// [`write_csv`] with extra `#`-comment header lines after the base seed —
/// experiment-specific replay keys (fault-schedule seed, plan epoch, ...)
/// that belong with the data they reproduce.
pub fn write_csv_with_comments(
    file: &str,
    x_name: &str,
    xs: &[String],
    series: &[(String, Vec<f64>)],
    comments: &[String],
) {
    let ctx = context();
    let dir = ctx.out_dir.as_path();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let mut out = String::new();
    out.push_str(&format!("# base_seed={}\n", ctx.base_seed));
    for comment in comments {
        out.push_str(&format!("# {comment}\n"));
    }
    out.push_str(x_name);
    for (name, _) in series {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(x);
        for (_, values) in series {
            out.push_str(&format!(",{:.4}", values[i]));
        }
        out.push('\n');
    }
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("  -> {}", path.display());
    }
}

/// Nearest-rank percentile of `samples` (`q` in (0, 1]); 0 when empty.
/// Sorts in place — callers pass scratch they no longer need ordered.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Worker threads for sweeps: all cores minus one, at least one.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}
