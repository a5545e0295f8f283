//! The benchmark's workloads and the system under test they drive.

use agora_core::{Deployment, DeploymentConfig, Engine, EngineConfig, EngineStats, FrameResult};
use agora_fronthaul::MemFronthaul;
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use agora_queue::TaskType;
use std::sync::atomic::AtomicBool;

/// Workload names, in the order the docs list them.
pub const NAMES: [&str; 3] = ["ul64x16", "cells2_tiny", "tdd128x16"];

/// One cell workload: what traffic is offered, and to which system.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Every cell of the workload uses this configuration.
    pub cell: CellConfig,
    /// 1 drives a single [`Engine`]; more drive a [`Deployment`] whose
    /// cells share one link and one worker pool.
    pub num_cells: usize,
    /// Worker threads (the deployment's whole pool).
    pub workers: usize,
    /// `Some(c)` turns on the staged antenna-cluster ZF with `c` clusters.
    pub antenna_clusters: Option<usize>,
    /// Open-loop frame period per cell in the paced phase.
    pub period_ns: u64,
    /// Aggregate frames/s the saturation phase is sized with: its time
    /// budget times this rate gives its frame count. The rate is fixed,
    /// not measured, so a faster commit finishes the same frames sooner;
    /// it is not a rate limit.
    pub sizing_fps: f64,
    /// Distinct generated frames per cell, replayed under fresh ids.
    pub pool_frames: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match name {
            "ul64x16" => Workload {
                name: "ul64x16",
                cell: CellConfig::emulated_rru(64, 16, 3),
                num_cells: 1,
                workers: 1,
                antenna_clusters: None,
                period_ns: 175_000_000,
                sizing_fps: 10.0,
                pool_frames: 12,
            },
            "cells2_tiny" => Workload {
                name: "cells2_tiny",
                cell: CellConfig::tiny_test(2),
                num_cells: 2,
                workers: 2,
                antenna_clusters: None,
                period_ns: 2_000_000,
                sizing_fps: 3000.0,
                pool_frames: 64,
            },
            "tdd128x16" => {
                let mut cell = CellConfig::emulated_rru(128, 16, 0);
                cell.schedule = FrameSchedule::parse("PUUDDDDDD").expect("valid schedule");
                Workload {
                    name: "tdd128x16",
                    cell,
                    num_cells: 1,
                    workers: 1,
                    antenna_clusters: Some(4),
                    period_ns: 170_000_000,
                    sizing_fps: 10.0,
                    pool_frames: 12,
                }
            }
            _ => return None,
        })
    }

    /// Engine configuration for one cell, with the generator's noise
    /// power for LLR scaling.
    pub fn engine_config(&self, noise_power: f32) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.cell.clone(), self.workers);
        cfg.noise_power = noise_power;
        if let Some(c) = self.antenna_clusters {
            cfg.ablation.clustered_zf = true;
            cfg.antenna_clusters = c;
        }
        cfg
    }

    /// Frames that may be in flight per cell (the warm-up length).
    pub fn frame_window(&self) -> usize {
        self.engine_config(1.0).frame_window
    }

    pub fn has_downlink(&self) -> bool {
        !self.cell.schedule.downlink_indices().is_empty()
    }

    pub fn has_uplink(&self) -> bool {
        !self.cell.schedule.uplink_indices().is_empty()
    }

    /// Offered load of the paced phase, frames/s over all cells.
    pub fn offered_fps(&self) -> f64 {
        self.num_cells as f64 * 1e9 / self.period_ns as f64
    }
}

/// The threaded system under test.
pub enum System {
    Engine(Engine),
    Deployment(Box<Deployment>),
}

impl System {
    /// Constructs the engine or deployment: kernels, plans, frame
    /// windows, queues and worker threads. This is what `setup_s` times.
    pub fn build(w: &Workload, noise_power: f32) -> System {
        let cfg = w.engine_config(noise_power);
        if w.num_cells == 1 {
            System::Engine(Engine::new(cfg))
        } else {
            let cells = vec![cfg; w.num_cells];
            System::Deployment(Box::new(Deployment::new(DeploymentConfig::new(cells, w.workers))))
        }
    }

    /// Processes `frames_per_cell` frames per cell from `link`; the
    /// caller sets `producer_done` after its last send. Results are per
    /// cell, in frame order.
    pub fn run(
        &self,
        link: &MemFronthaul,
        frames_per_cell: u32,
        producer_done: &AtomicBool,
    ) -> Vec<Vec<FrameResult>> {
        match self {
            System::Engine(e) => vec![e.process_fronthaul(link, frames_per_cell, producer_done)],
            System::Deployment(d) => d.process_fronthaul(link, frames_per_cell, producer_done),
        }
    }

    /// Snapshot of the cumulative counters the benchmark reads.
    pub fn counters(&self) -> Counters {
        match self {
            System::Engine(e) => {
                let mut c = Counters::from_stats(e.stats());
                c.cell_busy_ns = vec![e.stats().total_busy_ns()];
                c
            }
            System::Deployment(d) => {
                let s = d.stats();
                let mut c = Counters::from_stats(&s.rollup());
                c.cell_busy_ns = (0..s.num_cells()).map(|i| s.cell(i).total_busy_ns()).collect();
                c.migrations = d.migrations();
                c
            }
        }
    }
}

/// Counter snapshot; phases report the difference of two snapshots.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Busy ns and task counts per [`TaskType::COMPUTE`] entry.
    pub busy_ns: [u64; 7],
    pub tasks: [u64; 7],
    pub steals: u64,
    pub parks: u64,
    pub wakes: u64,
    pub lane_overflows: u64,
    pub push_retries: u64,
    pub rx_batches: u64,
    pub rx_batch_packets: u64,
    pub rx_errors: u64,
    pub misrouted: u64,
    pub migrations: u64,
    pub cell_busy_ns: Vec<u64>,
}

impl Counters {
    fn from_stats(s: &EngineStats) -> Counters {
        let mut c = Counters::default();
        for (i, t) in TaskType::COMPUTE.iter().enumerate() {
            c.busy_ns[i] = s.busy_ns(*t);
            c.tasks[i] = s.tasks(*t);
        }
        c.steals = s.steals();
        c.parks = s.parks();
        c.wakes = s.wakes();
        c.lane_overflows = s.lane_overflows();
        c.push_retries = s.total_push_retries();
        c.rx_batches = s.rx_batches();
        c.rx_batch_packets = s.rx_batch_packets();
        c.rx_errors = s.rx_errors() + s.link_errors().1;
        c.misrouted = s.packets_misrouted();
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.combine(earlier, u64::saturating_sub)
    }

    /// `self + other`, field by field (summing two phase deltas).
    pub fn plus(&self, other: &Counters) -> Counters {
        self.combine(other, |a, b| a + b)
    }

    /// Applies `f` field by field; a missing per-cell entry reads 0.
    fn combine(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        let cells = self.cell_busy_ns.len().max(o.cell_busy_ns.len());
        let cell = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        Counters {
            busy_ns: std::array::from_fn(|i| f(self.busy_ns[i], o.busy_ns[i])),
            tasks: std::array::from_fn(|i| f(self.tasks[i], o.tasks[i])),
            steals: f(self.steals, o.steals),
            parks: f(self.parks, o.parks),
            wakes: f(self.wakes, o.wakes),
            lane_overflows: f(self.lane_overflows, o.lane_overflows),
            push_retries: f(self.push_retries, o.push_retries),
            rx_batches: f(self.rx_batches, o.rx_batches),
            rx_batch_packets: f(self.rx_batch_packets, o.rx_batch_packets),
            rx_errors: f(self.rx_errors, o.rx_errors),
            misrouted: f(self.misrouted, o.misrouted),
            migrations: f(self.migrations, o.migrations),
            cell_busy_ns: (0..cells)
                .map(|i| f(cell(&self.cell_busy_ns, i), cell(&o.cell_busy_ns, i)))
                .collect(),
        }
    }

    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_deltas_subtract_and_sum_field_by_field() {
        let mut a = Counters { steals: 5, cell_busy_ns: vec![10, 20], ..Counters::default() };
        a.busy_ns[3] = 7;
        let mut b = Counters { steals: 2, cell_busy_ns: vec![4, 5], ..Counters::default() };
        b.busy_ns[3] = 3;
        let d = a.since(&b);
        assert_eq!((d.steals, d.busy_ns[3], d.cell_busy_ns.clone()), (3, 4, vec![6, 15]));
        // Summing into an empty (default) total keeps every cell.
        let total = Counters::default().plus(&d).plus(&d);
        assert_eq!((total.steals, total.busy_ns[3], total.cell_busy_ns), (6, 8, vec![12, 30]));
    }
}
