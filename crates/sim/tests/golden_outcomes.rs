//! Bit-exact pin of the simulator's outcomes.
//!
//! Every policy × Δ ∈ {0, 3, 7} × noise ∈ {0, 0.6} at a tenth of the
//! paper's D5 scale, plus one row each for the multi-channel switch, the
//! pull mirror and think jitter. Each row pins the raw bits of the mean,
//! hit rate, p50, p99, end time and every access fraction. A change to the
//! request loop, the cache policies, the plan arithmetic or the
//! measurement code that moves any of these by one ulp fails here.
//!
//! On a mismatch the test prints the freshly computed table in this file's
//! own syntax, so an intended change of results can be reviewed as a diff.

use bdisk_sched::DiskLayout;
use bdisk_sim::{simulate, PolicyKind, SimConfig, SimOutcome};

/// D5 at a tenth of the paper's scale: 500 pages on three disks.
const SIZES: [usize; 3] = [50, 200, 250];

struct Case {
    name: String,
    cfg: SimConfig,
    delta: u64,
    seed: u64,
}

fn base(policy: PolicyKind, noise: f64) -> SimConfig {
    SimConfig {
        access_range: 100,
        region_size: 5,
        cache_size: 50,
        offset: 50,
        noise,
        policy,
        requests: 2_000,
        warmup_requests: 500,
        ..SimConfig::default()
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for policy in PolicyKind::ALL {
        for delta in [0u64, 3, 7] {
            for noise in [0.0, 0.6] {
                out.push(Case {
                    name: format!("{}/d{delta}/n{noise}", policy.name()),
                    cfg: base(policy, noise),
                    delta,
                    seed: 1000 + out.len() as u64,
                });
            }
        }
    }
    out.push(Case {
        name: "LIX/d3/n0.3/2ch-switch3".into(),
        cfg: SimConfig {
            channels: 2,
            switch_slots: 3.0,
            ..base(PolicyKind::Lix, 0.3)
        },
        delta: 3,
        seed: 77,
    });
    out.push(Case {
        name: "PIX/d3/n0.3/pull".into(),
        cfg: SimConfig {
            pull: true,
            ..base(PolicyKind::Pix, 0.3)
        },
        delta: 3,
        seed: 78,
    });
    out.push(Case {
        name: "LRU/d3/n0.3/jitter".into(),
        cfg: SimConfig {
            think_jitter: 1.5,
            ..base(PolicyKind::Lru, 0.3)
        },
        delta: 3,
        seed: 79,
    });
    out
}

/// The pinned fields, as raw bits: mean, hit rate, p50, p99, end time,
/// then one access fraction per location (cache + three disks).
fn bits(o: &SimOutcome) -> Vec<u64> {
    let mut v = vec![
        o.mean_response_time.to_bits(),
        o.hit_rate.to_bits(),
        o.p50.to_bits(),
        o.p99.to_bits(),
        o.end_time.to_bits(),
    ];
    v.extend(o.access_fractions.iter().map(|f| f.to_bits()));
    v
}

#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 9])] = &[
    ("P/d0/n0", [0x404ebec8b4395814, 0x3fe9a9fbe76c8b44, 0x0000000000000000, 0x407f000000000000, 0x41050ee800000000, 0x3fe9a9fbe76c8b44, 0x3fc89374bc6a7efa, 0x0000000000000000, 0x3f789374bc6a7efa]),
    ("P/d0/n0.6", [0x404b7e978d4fdf3d, 0x3fe92b020c49ba5e, 0x0000000000000000, 0x407db00000000000, 0x410242b800000000, 0x3fe92b020c49ba5e, 0x3f8a9fbe76c8b439, 0x3fbe76c8b4395810, 0x3fb4dd2f1a9fbe77]),
    ("P/d3/n0", [0x4038799999999992, 0x3fe9f3b645a1cac1, 0x0000000000000000, 0x4069000000000000, 0x40fc481000000000, 0x3fe9f3b645a1cac1, 0x3fc7ae147ae147ae, 0x0000000000000000, 0x3f70624dd2f1a9fc]),
    ("P/d3/n0.6", [0x40576de353f7ced1, 0x3fe92b020c49ba5e, 0x0000000000000000, 0x4093a00000000000, 0x4110680800000000, 0x3fe92b020c49ba5e, 0x3f9cac083126e979, 0x3fb604189374bc6a, 0x3fb978d4fdf3b646]),
    ("P/d7/n0", [0x403d97ced9168737, 0x3fe922d0e5604189, 0x0000000000000000, 0x4067600000000000, 0x4102633000000000, 0x3fe922d0e5604189, 0x3fcae147ae147ae1, 0x0000000000000000, 0x3f726e978d4fdf3b]),
    ("P/d7/n0.6", [0x4062a810624dd2ed, 0x3fe9374bc6a7ef9e, 0x0000000000000000, 0x40a4c00000000000, 0x411b22e800000000, 0x3fe9374bc6a7ef9e, 0x3fa0a3d70a3d70a4, 0x3fb9374bc6a7ef9e, 0x3fb4bc6a7ef9db23]),
    ("PIX/d0/n0", [0x40501010624dd2ee, 0x3fe9ced916872b02, 0x0000000000000000, 0x407f100000000000, 0x4106097000000000, 0x3fe9ced916872b02, 0x3fc810624dd2f1aa, 0x0000000000000000, 0x3f76872b020c49ba]),
    ("PIX/d0/n0.6", [0x404b15810624dd40, 0x3fe93b645a1cac08, 0x0000000000000000, 0x407d200000000000, 0x4102729800000000, 0x3fe93b645a1cac08, 0x3f9374bc6a7ef9db, 0x3fb6e978d4fdf3b6, 0x3fba5e353f7ced91]),
    ("PIX/d3/n0", [0x403b374bc6a7efa6, 0x3fe970a3d70a3d71, 0x0000000000000000, 0x4069200000000000, 0x40fb3b8000000000, 0x3fe970a3d70a3d71, 0x3fc96872b020c49c, 0x0000000000000000, 0x3f7a9fbe76c8b439]),
    ("PIX/d3/n0.6", [0x40517ff7ced9169b, 0x3fe6c49ba5e353f8, 0x0000000000000000, 0x4090ac0000000000, 0x4108fc6000000000, 0x3fe6c49ba5e353f8, 0x3faced916872b021, 0x3fc820c49ba5e354, 0x3fa645a1cac08312]),
    ("PIX/d7/n0", [0x40369db22d0e5600, 0x3fe9eb851eb851ec, 0x0000000000000000, 0x4067600000000000, 0x41018c4800000000, 0x3fe9eb851eb851ec, 0x3fc7be76c8b43958, 0x0000000000000000, 0x3f726e978d4fdf3b]),
    ("PIX/d7/n0.6", [0x404f854fdf3b6457, 0x3fe64189374bc6a8, 0x0000000000000000, 0x4076400000000000, 0x410bd59000000000, 0x3fe64189374bc6a8, 0x3fa4395810624dd3, 0x3fd072b020c49ba6, 0x3f80624dd2f1a9fc]),
    ("LRU/d0/n0", [0x40534ddb22d0e564, 0x3fe716872b020c4a, 0x0000000000000000, 0x407f100000000000, 0x4108e65000000000, 0x3fe716872b020c4a, 0x3fc0f5c28f5c28f6, 0x0000000000000000, 0x3fc2b020c49ba5e3]),
    ("LRU/d0/n0.6", [0x40510fd70a3d70ac, 0x3fe70e5604189375, 0x0000000000000000, 0x407e200000000000, 0x41077e8800000000, 0x3fe70e5604189375, 0x3fa4bc6a7ef9db23, 0x3fb604189374bc6a, 0x3fc395810624dd2f]),
    ("LRU/d3/n0", [0x406221eb851eb84a, 0x3fe72b020c49ba5e, 0x0000000000000000, 0x4096200000000000, 0x4118522400000000, 0x3fe72b020c49ba5e, 0x3fc083126e978d50, 0x0000000000000000, 0x3fc2d0e560418937]),
    ("LRU/d3/n0.6", [0x40614ec49ba5e34c, 0x3fe68f5c28f5c28f, 0x0000000000000000, 0x4095600000000000, 0x4116535800000000, 0x3fe68f5c28f5c28f, 0x3f9f3b645a1cac08, 0x3fbe978d4fdf3b64, 0x3fc28f5c28f5c28f]),
    ("LRU/d7/n0", [0x40723d1a9fbe76c3, 0x3fe6dd2f1a9fbe77, 0x0000000000000000, 0x40a6440000000000, 0x4128678c00000000, 0x3fe6dd2f1a9fbe77, 0x3fc0e5604189374c, 0x0000000000000000, 0x3fc3a5e353f7ced9]),
    ("LRU/d7/n0.6", [0x406c88e978d4fe01, 0x3fe6ac083126e979, 0x0000000000000000, 0x40a57e0000000000, 0x4122703800000000, 0x3fe6ac083126e979, 0x3f9a9fbe76c8b439, 0x3fc147ae147ae148, 0x3fc0b4395810624e]),
    ("L/d0/n0", [0x40546fced9168727, 0x3fe6f1a9fbe76c8b, 0x0000000000000000, 0x407f000000000000, 0x410c338800000000, 0x3fe6f1a9fbe76c8b, 0x3fc428f5c28f5c29, 0x0000000000000000, 0x3fc010624dd2f1aa]),
    ("L/d0/n0.6", [0x4052cb9db22d0e62, 0x3fe683126e978d50, 0x0000000000000000, 0x407e800000000000, 0x4109187000000000, 0x3fe683126e978d50, 0x3f8eb851eb851eb8, 0x3fc645a1cac08312, 0x3fbb851eb851eb85]),
    ("L/d3/n0", [0x40545bfffffffffe, 0x3fe872b020c49ba6, 0x0000000000000000, 0x4095580000000000, 0x4110662000000000, 0x3fe872b020c49ba6, 0x3fc4bc6a7ef9db23, 0x0000000000000000, 0x3fb2f1a9fbe76c8b]),
    ("L/d3/n0.6", [0x405ded1eb851eb7f, 0x3fe722d0e5604189, 0x0000000000000000, 0x4095740000000000, 0x4113ba2800000000, 0x3fe722d0e5604189, 0x3f9cac083126e979, 0x3fc010624dd2f1aa, 0x3fbf9db22d0e5604]),
    ("L/d7/n0", [0x40686a24dd2f1a9e, 0x3fe8000000000000, 0x0000000000000000, 0x40a60c0000000000, 0x41218c6e00000000, 0x3fe8000000000000, 0x3fc2e147ae147ae1, 0x0000000000000000, 0x3fba3d70a3d70a3d]),
    ("L/d7/n0.6", [0x4069fe9374bc6a6f, 0x3fe74bc6a7ef9db2, 0x0000000000000000, 0x40a5480000000000, 0x412171ec00000000, 0x3fe74bc6a7ef9db2, 0x3f9810624dd2f1aa, 0x3fbfbe76c8b43958, 0x3fbfdf3b645a1cac]),
    ("LIX/d0/n0", [0x405140e560418939, 0x3fe86a7ef9db22d1, 0x0000000000000000, 0x407ef00000000000, 0x4107517800000000, 0x3fe86a7ef9db22d1, 0x3fc6666666666666, 0x0000000000000000, 0x3fafbe76c8b43958]),
    ("LIX/d0/n0.6", [0x4053213f7ced9168, 0x3fe65e353f7ced91, 0x0000000000000000, 0x407e500000000000, 0x410958e000000000, 0x3fe65e353f7ced91, 0x3fa2f1a9fbe76c8b, 0x3fbdd2f1a9fbe76d, 0x3fc2e147ae147ae1]),
    ("LIX/d3/n0", [0x403af374bc6a7f00, 0x3fea0c49ba5e353f, 0x0000000000000000, 0x4069600000000000, 0x40fe4fd000000000, 0x3fea0c49ba5e353f, 0x3fc6978d4fdf3b64, 0x0000000000000000, 0x3f8374bc6a7ef9db]),
    ("LIX/d3/n0.6", [0x4053fbbe76c8b439, 0x3fe4e5604189374c, 0x0000000000000000, 0x4090c00000000000, 0x410b93d800000000, 0x3fe4e5604189374c, 0x3fa9db22d0e56042, 0x3fd0ac083126e979, 0x3fa26e978d4fdf3b]),
    ("LIX/d7/n0", [0x40449ee978d4fdf5, 0x3fe916872b020c4a, 0x0000000000000000, 0x4089b00000000000, 0x410cb95000000000, 0x3fe916872b020c4a, 0x3fc9a9fbe76c8b44, 0x0000000000000000, 0x3f8fbe76c8b43958]),
    ("LIX/d7/n0.6", [0x405ea32b020c49b7, 0x3fe6c8b439581062, 0x0000000000000000, 0x40a35a0000000000, 0x41180a0400000000, 0x3fe6c8b439581062, 0x3fa2b020c49ba5e3, 0x3fc8d4fdf3b645a2, 0x3fad70a3d70a3d71]),
    ("LIX/d3/n0.3/2ch-switch3", [0x40438ee978d4fdf2, 0x3fe7810624dd2f1b, 0x0000000000000000, 0x4083500000000000, 0x41006ad000000000, 0x3fe7810624dd2f1b, 0x3fba1cac083126e9, 0x3fba7ef9db22d0e5, 0x3faeb851eb851eb8]),
    ("PIX/d3/n0.3/pull", [0x403090e560418934, 0x3fe8c8b439581062, 0x0000000000000000, 0x4068400000000000, 0x40e99f2000000000, 0x3fe8c8b439581062, 0x3fb0a3d70a3d70a4, 0x3fc189374bc6a7f0, 0x3f9810624dd2f1aa]),
    ("LRU/d3/n0.3/jitter", [0x40608c24c2f3046a, 0x3fe74395810624dd, 0x0000000000000000, 0x4095580000000000, 0x41156cc000000000, 0x3fe74395810624dd, 0x3fac6a7ef9db22d1, 0x3fb3f7ced916872b, 0x3fc1db22d0e56042]),
];

#[test]
fn simulator_outcomes_are_bit_identical_to_the_pinned_table() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let cases = cases();
    for (i, case) in cases.iter().enumerate() {
        let layout = DiskLayout::with_delta(&SIZES, case.delta).unwrap();
        let out = simulate(&case.cfg, &layout, case.seed).unwrap();
        assert_eq!(out.measured_requests, case.cfg.requests, "{}", case.name);
        let got = bits(&out);
        let row: Vec<String> = got.iter().map(|b| format!("0x{b:016x}")).collect();
        table.push_str(&format!("    (\"{}\", [{}]),\n", case.name, row.join(", ")));
        match GOLDEN.get(i) {
            Some((name, want)) if *name == case.name && want[..] == got[..] => {}
            _ => mismatches.push(case.name.clone()),
        }
    }
    assert!(
        mismatches.is_empty() && GOLDEN.len() == cases.len(),
        "outcomes moved for {mismatches:?}; the table as this build computes it:\n{table}"
    );
}
