//! Host facts recorded beside every result: memory high-water mark,
//! core count, and the filesystem under a directory (fsync cost and
//! scaling depend on the last two).

use std::path::Path;

/// Peak resident set of this process in KiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Resets this process's `VmHWM` to its current resident set, so a
/// later [`peak_rss_kib`] covers only what runs in between. Where the
/// kernel refuses, the peak stays the process's whole.
pub fn reset_peak_rss() {
    // Best effort: without the reset the figure only reads high.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Clock ticks per second in `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Seconds the hypervisor ran other guests while this guest's CPUs
/// wanted to run (`steal` in `/proc/stat`, summed over CPUs), and the
/// number of CPUs in that sum; `(0, 1)` where unknown.
pub fn host_steal_s() -> (f64, usize) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 1);
    };
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    let steal = stat.lines().next().and_then(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        // cpu user nice system idle iowait irq softirq steal ...
        (f.first() == Some(&"cpu")).then_some(())?;
        f.get(8)?.parse::<f64>().ok()
    });
    (steal.map_or(0.0, |ticks| ticks / USER_HZ), cpus.max(1))
}

/// A wall-clock interval timed with host steal taken out: a steal
/// second on one of `n` CPUs delays work spread over them by `1 / n`
/// seconds. Steal accrues only while a CPU wants to run, so on an
/// otherwise idle guest it is this process's lost time.
pub struct StealFreeClock {
    start: std::time::Instant,
    steal0: f64,
}

impl StealFreeClock {
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
            steal0: host_steal_s().0,
        }
    }

    /// (wall seconds minus steal per CPU, raw steal seconds).
    pub fn elapsed(&self) -> (f64, f64) {
        let (steal, cpus) = host_steal_s();
        let steal = (steal - self.steal0).max(0.0);
        let wall = self.start.elapsed().as_secs_f64();
        (wall - (steal / cpus as f64).min(wall), steal)
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(fstype, mount point)` of the mount holding `dir`: the longest
/// mount-point prefix of its canonical path in `/proc/mounts`.
pub fn filesystem_of(dir: &Path) -> (String, String) {
    let unknown = || ("unknown".to_string(), "?".to_string());
    let (Ok(path), Ok(mounts)) = (dir.canonicalize(), std::fs::read_to_string("/proc/mounts"))
    else {
        return unknown();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            let mount = mount.replace("\\040", " ");
            path.starts_with(&mount)
                .then(|| (fstype.to_string(), mount))
        })
        .max_by_key(|(_, mount)| mount.len())
        .unwrap_or_else(unknown)
}
