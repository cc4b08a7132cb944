//! Process counters: CPU time, page faults and context switches of all
//! threads (live and exited) via `getrusage`, and the resident-set
//! high-water mark via `/proc/self`; and CPU pinning.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it spawns later, to the CPU
/// it is running on now.
pub fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    let slot = usize::try_from(cpu)
        .ok()
        .and_then(|c| mask.get_mut(c / 64).map(|w| (w, c % 64)))
        .ok_or_else(|| format!("sched_getcpu returned {cpu}"))?;
    *slot.0 |= 1 << slot.1;
    // SAFETY: `mask` is a valid, readable `cpu_set_t` of the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

const RUSAGE_SELF: i32 = 0;
const MINFLT: usize = 4;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// A snapshot of the process counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit
        // Linux (the layout above), and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            minor_faults: ru.longs[MINFLT] as u64,
            ctx_switches: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
        }
    }

    pub fn since(self, start: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - start.cpu_s,
            minor_faults: self.minor_faults - start.minor_faults,
            ctx_switches: self.ctx_switches - start.ctx_switches,
        }
    }
}

/// Reset the resident-set high-water mark to the current RSS, so memory
/// freed after set-up does not count toward the timed phase's peak.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))
}

/// Resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
