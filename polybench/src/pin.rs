//! Keeps a client and the service worker it talks to on one CPU, and
//! keeps either from preempting the other when it wakes.
//!
//! A result-cache hit is served faster than the client can submit the
//! next ticket, so on two CPUs the worker falls asleep after every
//! ticket and each submit has to wake it across CPUs — an
//! inter-processor interrupt, on a virtual machine a trip through the
//! hypervisor. Whether the scheduler puts the two threads on one CPU or
//! two then decides the result: 4 µs per op or 12 µs, for a whole run.
//! On one CPU no wake-up crosses CPUs. There the default policy still
//! lets the worker, woken by a submit, preempt the client before it has
//! submitted the rest of its batch; how often it does differs from run
//! to run (3.9 to 4.8 µs per op over four runs). Under `SCHED_BATCH` a
//! woken thread waits until the running one blocks: the client submits
//! its 32 tickets, the worker serves all 32, and the figure is the
//! service's own code (3.90 to 3.94 µs over the same four seeds).

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `struct sched_param`; the priority is 0 under every policy that is
/// not real-time.
#[repr(C)]
struct SchedParam {
    priority: i32,
}

const SCHED_OTHER: i32 = 0;
const SCHED_BATCH: i32 = 3;

#[cfg(target_os = "linux")]
fn set_policy(policy: i32) -> bool {
    // SAFETY: pid 0 names the calling thread; the parameter block is a
    // live value of the layout the call reads.
    unsafe { sched_setscheduler(0, policy, &SchedParam { priority: 0 }) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_policy(_policy: i32) -> bool {
    false
}

/// While it lives, the calling thread — and every thread it spawns —
/// may run only on the CPU the caller was on, under `SCHED_BATCH`.
/// Dropping it gives the calling thread its former CPUs and the default
/// policy back (threads spawned meanwhile stay as they are).
#[derive(Debug)]
pub struct OneCpu {
    restore: Option<CpuSet>,
}

impl OneCpu {
    /// Pins the calling thread to the CPU it is running on and puts it
    /// under `SCHED_BATCH`. Where either cannot be done (not Linux, or
    /// the kernel refuses) it says so on standard error and goes on.
    pub fn pin() -> OneCpu {
        let restore = pin_current_thread();
        if restore.is_none() {
            eprintln!("polybench: cannot pin to one CPU; served timings may be bimodal");
        }
        if !set_policy(SCHED_BATCH) {
            eprintln!("polybench: cannot set SCHED_BATCH; served timings will be less steady");
        }
        OneCpu { restore }
    }
}

#[cfg(target_os = "linux")]
fn pin_current_thread() -> Option<CpuSet> {
    let mut old: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread; `old` is a live, writable
    // buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut old) } != 0 {
        return None;
    }
    // SAFETY: takes no arguments and only reads the thread's CPU number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut one: CpuSet = [0; 16];
    *one.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `one` is a live buffer of
    // exactly the size passed and holds one CPU the thread is allowed
    // on (it is running there).
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(old)
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread() -> Option<CpuSet> {
    None
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // A failure leaves the thread under SCHED_BATCH: harmless here.
        set_policy(SCHED_OTHER);
        #[cfg(target_os = "linux")]
        if let Some(old) = &self.restore {
            // SAFETY: pid 0 names the calling thread; `old` is the mask
            // the kernel itself reported for it, of the size passed. A
            // failure leaves the thread pinned, which is harmless here.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), old) };
        }
    }
}
