//! CPU time from `/proc` (std exposes no equivalent): of the whole
//! process, and of the engine's worker threads alone.

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every Linux architecture's user-space ABI).
const USER_HZ: f64 = 100.0;

/// Name prefixes of the worker threads `Engine` (`agora-worker-<i>`) and
/// `Deployment` (`agora-pool-<i>`) spawn.
const WORKER_PREFIXES: [&str; 2] = ["agora-worker-", "agora-pool-"];

/// User + system CPU seconds of one `/proc/.../stat` file, with the
/// thread or process name (`comm`).
fn stat_cpu_s(path: &str) -> Option<(String, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    // `pid (comm) state ...`: comm may hold spaces, so split at the
    // last ')'. utime and stime are fields 14 and 15, i.e. the 12th and
    // 13th after the comm.
    let (head, rest) = text.rsplit_once(')')?;
    let comm = head.split_once('(')?.1.to_string();
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((comm, (utime + stime) as f64 / USER_HZ))
}

/// User + system CPU seconds this process has used so far, exited
/// threads included; NaN where `/proc` is not available.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat").map_or(f64::NAN, |(_, s)| s)
}

/// User + system CPU seconds the live engine worker threads have used
/// so far; NaN where `/proc` is not available. The workers live as long
/// as the engine, so two readings around a phase give its worker CPU
/// time.
pub fn worker_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    tasks
        .filter_map(|t| {
            let path = t.ok()?.path().join("stat");
            stat_cpu_s(path.to_str()?)
        })
        .filter(|(comm, _)| WORKER_PREFIXES.iter().any(|p| comm.starts_with(p)))
        .map(|(_, s)| s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_are_found_by_name() {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("agora-worker-0".into())
                .spawn_scoped(s, || {
                    // Burn some CPU so the thread has ticks to report.
                    let t = std::time::Instant::now();
                    while t.elapsed().as_millis() < 60 {
                        std::hint::black_box(0u64);
                    }
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
                .expect("spawn");
            std::thread::sleep(std::time::Duration::from_millis(80));
            assert!(worker_cpu_s() > 0.0);
            assert!(process_cpu_s() >= worker_cpu_s());
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
}
