//! RRU traffic: a seeded pool of generated frames, replayed under fresh
//! frame ids by an open-loop sender local to the benchmark.
//!
//! Generating a 64x16 frame costs tens of milliseconds, so a run
//! generates a small pool per cell once and replays it; ground truth
//! follows the pool index. The sender sleeps until each frame is due
//! rather than spinning (the library's `Pacer` spins, which would take
//! one of a small machine's CPUs away from the system under test).

use crate::workload::Workload;
use agora_fronthaul::{
    decode_ref, encode, FrameGroundTruth, Fronthaul, MemFronthaul, PacketBuf, RruConfig,
    RruEmulator,
};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One generated frame: its packets (stamped with the pool index as
/// frame id) and what the RRU sent.
pub struct PoolFrame {
    pub packets: Vec<Bytes>,
    pub truth: FrameGroundTruth,
}

/// Generated frames per cell.
pub struct Pool {
    pub cells: Vec<Vec<PoolFrame>>,
    pub noise_power: f32,
}

impl Pool {
    /// Generates `w.pool_frames` frames per cell from `seed`: the same
    /// seed gives the same packets and ground truth.
    pub fn generate(w: &Workload, seed: u64) -> Pool {
        let mut noise_power = 0.0;
        let cells = (0..w.num_cells)
            .map(|c| {
                let cfg = RruConfig {
                    seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c as u64 + 1),
                    cell_id: u8::try_from(c).expect("at most 256 cells"),
                    ..Default::default()
                };
                let mut rru = RruEmulator::new(w.cell.clone(), cfg);
                noise_power = rru.noise_power();
                (0..w.pool_frames)
                    .map(|i| {
                        let (packets, truth) = rru.generate_frame(i as u32);
                        PoolFrame { packets, truth }
                    })
                    .collect()
            })
            .collect();
        Pool { cells, noise_power }
    }

    pub fn packets_per_frame(&self) -> usize {
        self.cells[0][0].packets.len()
    }

    pub fn frame(&self, cell: usize, pool_idx: usize) -> &PoolFrame {
        &self.cells[cell][pool_idx]
    }
}

/// One frame the sender will offer.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub cell: usize,
    /// Fresh frame id on the wire.
    pub frame: u32,
    pub pool_idx: usize,
    /// When the frame is due, relative to the phase start; `None` sends
    /// as soon as the link backlog allows.
    pub due: Option<Duration>,
    /// First frames of a phase are warm-up and excluded from its figures.
    pub warmup: bool,
}

/// Copies `pkt` with its header's frame id replaced by `frame`.
fn restamp(pkt: &[u8], frame: u32) -> PacketBuf {
    let (mut hdr, payload) = decode_ref(pkt).expect("pool packets are well formed");
    hdr.frame = frame;
    PacketBuf::Heap(encode(&hdr, payload))
}

/// Sends `plan` in order over `tx`, then sets `done`. Paced frames wait
/// (sleeping) for their due time. Unpaced frames keep at most
/// `backlog_pkts` packets queued on the receiving side `rx`, so memory
/// stays bounded while the engine's frame window remains the only
/// limit on intake. Each frame is stamped before it is due, so stamping
/// never delays a send. Returns, per paced frame, how late its first
/// packet left (ns).
pub fn send(
    tx: &MemFronthaul,
    rx: &MemFronthaul,
    pool: &Pool,
    plan: &[Planned],
    t0: Instant,
    backlog_pkts: usize,
    done: &AtomicBool,
) -> Vec<u64> {
    let mut lag_ns = Vec::new();
    let mut out: VecDeque<PacketBuf> = VecDeque::with_capacity(pool.packets_per_frame());
    for p in plan {
        out.extend(pool.frame(p.cell, p.pool_idx).packets.iter().map(|b| restamp(b, p.frame)));
        match p.due {
            Some(due) => {
                let due_at = t0 + due;
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                lag_ns.push(due_at.elapsed().as_nanos() as u64);
            }
            None => {
                while rx.pending() + out.len() > backlog_pkts {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        while !out.is_empty() {
            if tx.send_batch(&mut out) == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
    done.store(true, Ordering::Release);
    lag_ns
}
