//! The two timed phases on the threaded system, and per-frame scoring.

use crate::traffic::{send, Planned, Pool};
use crate::workload::{Counters, System, Workload};
use agora_core::FrameResult;
use agora_fronthaul::MemFronthaul;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Lead time before the first paced frame is due, so the engine's
/// threads are up before traffic starts.
const PACED_LEAD: Duration = Duration::from_millis(5);

/// Frame plan of a paced phase: `warmup + frames` frames per cell, cell
/// `c` offset by `c / num_cells` of a period so cells interleave.
pub fn paced_plan(
    w: &Workload,
    pool: &Pool,
    next: &mut [u32],
    warmup: usize,
    frames: usize,
) -> Vec<Planned> {
    let mut plan = Vec::with_capacity((warmup + frames) * w.num_cells);
    for i in 0..warmup + frames {
        for (c, next) in next.iter_mut().enumerate() {
            let offset = w.period_ns * c as u64 / w.num_cells as u64;
            let due = PACED_LEAD + Duration::from_nanos(i as u64 * w.period_ns + offset);
            plan.push(Planned {
                cell: c,
                frame: *next,
                pool_idx: *next as usize % pool.cells[c].len(),
                due: Some(due),
                warmup: i < warmup,
            });
            *next += 1;
        }
    }
    plan
}

/// Frame plan of a saturation phase: the same per-cell frame sequence,
/// sent as fast as the link backlog allows.
pub fn saturation_plan(
    pool: &Pool,
    next: &mut [u32],
    warmup: usize,
    frames: usize,
) -> Vec<Planned> {
    let mut plan = Vec::new();
    for i in 0..warmup + frames {
        for (c, next) in next.iter_mut().enumerate() {
            plan.push(Planned {
                cell: c,
                frame: *next,
                pool_idx: *next as usize % pool.cells[c].len(),
                due: None,
                warmup: i < warmup,
            });
            *next += 1;
        }
    }
    plan
}

/// Everything one phase produced.
pub struct PhaseRun {
    pub plan: Vec<Planned>,
    pub results: Vec<Vec<FrameResult>>,
    pub wall_s: f64,
    /// CPU seconds (user + system) the worker threads, and the whole
    /// process, spent during the phase.
    pub worker_cpu_s: f64,
    pub process_cpu_s: f64,
    /// Counter deltas over the phase.
    pub counters: Counters,
    /// Per paced frame, how late the sender let it go (ns).
    pub lag_ns: Vec<u64>,
}

/// Runs one phase: a sender thread offers `plan` over an in-memory link
/// while this thread drives the system until every planned frame is
/// back. Milestones are relative to the phase start.
pub fn run_phase(
    sys: &System,
    pool: &Pool,
    plan: Vec<Planned>,
    cells: usize,
    window: usize,
) -> PhaseRun {
    let frames_per_cell = u32::try_from(plan.len() / cells).expect("frame count fits u32");
    let backlog = (window + 4) * pool.packets_per_frame() * cells;
    let (tx, rx) = MemFronthaul::pair((2 * backlog).next_power_of_two());
    let done = AtomicBool::new(false);
    let before = sys.counters();
    let (worker0, process0) = (crate::sys::worker_cpu_s(), crate::sys::process_cpu_s());
    let t0 = Instant::now();
    let (results, lag_ns) = std::thread::scope(|s| {
        let sender = s.spawn(|| send(&tx, &rx, pool, &plan, t0, backlog, &done));
        let results = sys.run(&rx, frames_per_cell, &done);
        (results, sender.join().expect("sender thread panicked"))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let worker_cpu_s = crate::sys::worker_cpu_s() - worker0;
    let process_cpu_s = crate::sys::process_cpu_s() - process0;
    let counters = sys.counters().since(&before);
    PhaseRun { plan, results, wall_s, worker_cpu_s, process_cpu_s, counters, lag_ns }
}

impl PhaseRun {
    /// Paced frames whose sender let them go later than `late_ns`.
    pub fn late_frames(&self, late_ns: u64) -> usize {
        self.lag_ns.iter().filter(|&&l| l > late_ns).count()
    }
}

/// How one planned frame went.
#[derive(Debug, Clone)]
pub struct Scored {
    pub plan: Planned,
    pub failed: bool,
    /// Completion (decode done, or the later of decode and IFFT done on
    /// a TDD frame), ns after the phase start. `None` for failures.
    pub done_ns: Option<u64>,
    pub first_packet_ns: u64,
    pub pilot_done_ns: u64,
    pub zf_done_ns: u64,
}

/// Scores a phase. A frame fails if it was dropped, never came back,
/// any uplink code block differs from the RRU ground truth, or (TDD) it
/// never reached IFFT completion. A delivered frame whose bits differ
/// from the single-threaded reference is a hard error, returned as
/// `Err`: that breaks the inline-vs-threaded invariant.
pub fn score(
    w: &Workload,
    pool: &Pool,
    reference: &[Vec<Vec<Vec<Vec<u8>>>>],
    run: &PhaseRun,
) -> Result<Vec<Scored>, String> {
    let mut by_id: HashMap<(usize, u32), &FrameResult> = HashMap::new();
    for (c, results) in run.results.iter().enumerate() {
        for r in results {
            by_id.insert((c, r.frame), r);
        }
    }
    let uplink = w.cell.schedule.uplink_indices();
    let mut out = Vec::with_capacity(run.plan.len());
    for p in &run.plan {
        let Some(r) = by_id.get(&(p.cell, p.frame)) else {
            out.push(Scored::failed(*p));
            continue;
        };
        if r.dropped {
            out.push(Scored::failed(*p));
            continue;
        }
        let want = &reference[p.cell][p.pool_idx];
        for &s in &uplink {
            if r.decoded[s] != want[s] {
                return Err(format!(
                    "cell {} frame {} (pool frame {}) symbol {s}: threaded decoded bits differ \
                     from the single-threaded reference",
                    p.cell, p.frame, p.pool_idx
                ));
            }
        }
        let truth = &pool.frame(p.cell, p.pool_idx).truth;
        let bits_ok = uplink.iter().all(|&s| r.decoded[s] == truth.info_bits[s]);
        let m = &r.milestones;
        let dl_ok = !w.has_downlink() || m.ifft_done_ns != 0;
        let ul_ok = !w.has_uplink() || m.decode_done_ns != 0;
        if !(bits_ok && dl_ok && ul_ok) {
            out.push(Scored::failed(*p));
            continue;
        }
        out.push(Scored {
            plan: *p,
            failed: false,
            done_ns: Some(m.decode_done_ns.max(m.ifft_done_ns)),
            first_packet_ns: m.first_packet_ns,
            pilot_done_ns: m.pilot_done_ns,
            zf_done_ns: m.zf_done_ns,
        });
    }
    Ok(out)
}

impl Scored {
    fn failed(plan: Planned) -> Scored {
        Scored {
            plan,
            failed: true,
            done_ns: None,
            first_packet_ns: 0,
            pilot_done_ns: 0,
            zf_done_ns: 0,
        }
    }

    /// Due time in ns after the phase start (paced frames only).
    pub fn due_ns(&self) -> Option<u64> {
        self.plan.due.map(|d| d.as_nanos() as u64)
    }

    /// Latency from due time to completion in ms; `+inf` for a failure.
    pub fn latency_ms(&self) -> f64 {
        match (self.done_ns, self.due_ns()) {
            (Some(done), Some(due)) => done.saturating_sub(due) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }
}

/// A phase run as several segments, merged: the scored frames, summed
/// wall and CPU time, summed counters and paced send lags.
#[derive(Default)]
pub struct Phase {
    pub scored: Vec<Scored>,
    pub wall_s: f64,
    pub worker_cpu_s: f64,
    pub process_cpu_s: f64,
    pub counters: Counters,
    pub lag_ns: Vec<u64>,
    /// Per segment: frames completed after its warm-up, and the time
    /// from the last warm-up completion to the last completion (ns).
    pub completions: Vec<(usize, u64)>,
}

impl Phase {
    pub fn add(&mut self, scored: Vec<Scored>, run: PhaseRun) {
        let warm = scored.iter().filter(|s| s.plan.warmup).count();
        let mut done: Vec<u64> = scored.iter().filter_map(|s| s.done_ns).collect();
        done.sort_unstable();
        if warm > 0 && done.len() > warm {
            self.completions.push((done.len() - warm, done[done.len() - 1] - done[warm - 1]));
        }
        self.scored.extend(scored);
        self.wall_s += run.wall_s;
        self.worker_cpu_s += run.worker_cpu_s;
        self.process_cpu_s += run.process_cpu_s;
        self.counters = self.counters.plus(&run.counters);
        self.lag_ns.extend(run.lag_ns);
    }

    /// Completed frames per second after the warm-ups, pooled over the
    /// segments. Completions come in bursts (a TDD frame's downlink half
    /// runs at low priority), so the rate is taken over whole segments,
    /// never over a few frames.
    pub fn throughput_fps(&self) -> Option<f64> {
        let (frames, ns) = self.completions.iter().fold((0, 0), |(f, t), &(n, d)| (f + n, t + d));
        (ns > 0).then(|| frames as f64 * 1e9 / ns as f64)
    }

    /// Per-segment rates behind [`Self::throughput_fps`] (diagnostics).
    pub fn segment_fps(&self) -> Vec<f64> {
        self.completions.iter().map(|&(n, d)| n as f64 * 1e9 / d.max(1) as f64).collect()
    }

    /// Frames offered, warm-ups included.
    pub fn frames(&self) -> usize {
        self.scored.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_pools_whole_segments() {
        // 30 frames in 3 s and 10 frames in 2 s: 40 frames over 5 s.
        let p = Phase {
            completions: vec![(30, 3_000_000_000), (10, 2_000_000_000)],
            ..Phase::default()
        };
        assert_eq!(p.throughput_fps(), Some(8.0));
        assert_eq!(p.segment_fps(), vec![10.0, 5.0]);
        assert_eq!(Phase::default().throughput_fps(), None);
    }
}
