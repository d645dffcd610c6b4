//! Figures 3 and 12: the paper's two worked examples, reproduced as
//! narrated program output.

use bdisk_cache::{CachePolicy, LixPolicy};
use bdisk_sched::{BroadcastProgram, DiskLayout, PageId};

/// Figure 3: deriving a server broadcast program (3 disks, rel freq 4:2:1).
pub fn figure3() {
    println!("\n=== Figure 3: Deriving a Server Broadcast Program ===");
    let layout = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).expect("figure 3 layout");
    let program = BroadcastProgram::generate(&layout).expect("figure 3 program");

    println!("database: 11 pages; disks of {:?} pages", layout.sizes());
    println!("rel_freq  = {:?}", layout.freqs());
    let max_chunks = 4;
    println!("max_chunks = lcm(4,2,1) = {max_chunks}");
    println!("num_chunks = [1, 2, 4]\n");

    let minor = program.period() / max_chunks;
    for m in 0..max_chunks {
        let slots = &program.slots()[m * minor..(m + 1) * minor];
        let rendered: Vec<String> = slots
            .iter()
            .map(|s| match s {
                bdisk_sched::Slot::Page(p) => ((b'A' + p.0 as u8) as char).to_string(),
                bdisk_sched::Slot::Empty => "-".into(),
                bdisk_sched::Slot::Repair(_) => "+".into(),
                bdisk_sched::Slot::EpochFence => "|".into(),
                bdisk_sched::Slot::Pull(p) => format!("<{}", p.0),
            })
            .collect();
        println!("minor cycle {}: {}", m + 1, rendered.join(" "));
    }

    println!(
        "\nmajor cycle = {} slots, {} unused",
        program.period(),
        program.empty_slots()
    );
    println!(
        "page A every {} slots, pages B/C every {} slots, others every {} slots",
        program.gap(PageId(0)).unwrap(),
        program.gap(PageId(1)).unwrap(),
        program.gap(PageId(3)).unwrap()
    );
    let fixed = (0..program.num_pages() as u32).all(|p| program.gap(PageId(p)).is_some());
    assert!(fixed, "figure 3 must have fixed gaps");
}

/// Figure 12: page replacement in LIX (two-disk broadcast).
pub fn figure12() {
    println!("\n=== Figure 12: Page Replacement in LIX ===");
    // Pages a..g (0..7) on disk 1, h..k (7..11) on disk 2, new page z = 11
    // arriving from disk 2.
    let page_disk: Vec<u16> = (0..12u16).map(|p| if p < 7 { 0 } else { 1 }).collect();
    let mut lix = LixPolicy::new(11, page_disk, vec![2.0, 1.0], 0.25);

    let name = |p: PageId| ((b'a' + p.0 as u8) as char).to_string();

    // Build the figure's chains: Disk1Q = a b c d e f g, Disk2Q = h i j k.
    for p in (0..7u32).rev() {
        lix.insert(PageId(p), f64::from(20 - p));
    }
    for p in (7..11u32).rev() {
        lix.insert(PageId(p), f64::from(40 - p));
    }
    // Heat k so its lix exceeds g's, then restore the chain order.
    lix.on_hit(PageId(10), 60.0);
    for p in 7..10u32 {
        lix.on_hit(PageId(p), 61.0);
    }

    let now = 70.0;
    let g = PageId(6);
    let k = PageId(10);
    println!(
        "bottom of Disk1Q: '{}' lix = {:.3}",
        name(g),
        lix.lix_value(g, now).unwrap()
    );
    println!(
        "bottom of Disk2Q: '{}' lix = {:.3}",
        name(k),
        lix.lix_value(k, now).unwrap()
    );

    let victim = lix.insert(PageId(11), now).expect("cache full");
    println!(
        "new page 'z' (disk 2) arrives -> victim = '{}' (lowest lix)",
        name(victim)
    );
    println!(
        "Disk1Q now {} pages, Disk2Q now {} pages (chains resize dynamically)",
        lix.chain_len(0),
        lix.chain_len(1)
    );
    assert_eq!(victim, g, "the figure's victim is g");
}
