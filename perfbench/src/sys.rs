//! Process measurements and the environment record printed with every run.

use fpcore::hash::ContentHasher;
use std::path::Path;

/// CPU time (user + system, all threads, living and ended) this process has
/// used, in seconds. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `utime` and `stime` are fields 14 and 15 of the line, so 11 and 12
    // after the state field that follows the name.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What else the machine is doing: the load averages and the CPU time the
/// hypervisor stole, as a line for the run's record. Printed before and after
/// every run, so a run that shared the machine with other work shows it.
pub fn load() -> String {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let loadavg: Vec<&str> = loadavg.split_whitespace().take(3).collect();
    let (steal, total) = steal_ticks();
    format!(
        "loadavg {}, steal {steal} of {total} CPU ticks since boot",
        loadavg.join(" ")
    )
}

/// Stolen and total CPU ticks since boot, from the `cpu` line of
/// `/proc/stat` (`user nice system idle iowait irq softirq steal ...`).
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Worker threads the compiler's `par` helpers use at full width.
pub fn threads() -> usize {
    chassis::par::effective_threads(usize::MAX)
}

/// The machine and build the figures were taken on, as `(name, value)`
/// pairs.
pub fn environment() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    vec![
        ("nproc", nproc.to_string()),
        (
            "CHASSIS_THREADS",
            std::env::var("CHASSIS_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        ),
        ("par_threads", threads().to_string()),
        ("rustc", rustc),
        (
            "features",
            "chassis default features (parallel); profile release, thin LTO".to_owned(),
        ),
        ("source_digest", source_digest(Path::new("."))),
    ]
}

/// A digest of the compiler's sources and the benchmark's own, standing in
/// for the commit: the checkout the benchmark runs in is not a git
/// repository.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut h = ContentHasher::new();
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            h.str(&file.to_string_lossy());
            h.str(&String::from_utf8_lossy(&bytes));
        }
    }
    h.hex_digest()
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
