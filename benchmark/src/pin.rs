//! Thread placement. The broker workloads run two threads on two cores;
//! left alone, the scheduler sometimes stacks the woken tuner thread on the
//! waker's core for minutes at a time, and `fanout_small` then runs as if
//! on one core (flush slots 2.5× slower, throughput −20 %) — a property of
//! the host, not of the code under test. Each of the two threads is
//! therefore pinned to a core of its own.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Which of the two cores a thread is pinned to.
#[derive(Clone, Copy)]
pub enum Core {
    Broker = 0,
    Peer = 1,
}

/// The first two CPUs this process may run on, if it has two.
fn cores() -> Option<[usize; 2]> {
    static CORES: OnceLock<Option<[usize; 2]>> = OnceLock::new();
    *CORES.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a valid, writable buffer of the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            return None;
        }
        let mut allowed = (0..1024).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1);
        Some([allowed.next()?, allowed.next()?])
    })
}

/// Pins the calling thread (and every thread it spawns afterwards, until
/// it is pinned again) to `core`. Does nothing on a one-CPU host.
pub fn pin(core: Core) {
    let Some(cores) = cores() else { return };
    let cpu = cores[core as usize];
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a valid buffer of the size passed; pid 0 names the
    // calling thread. A refusal leaves the thread where it was.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}
