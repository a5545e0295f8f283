//! The traced single-threaded run.
//!
//! [`Replayer`] replays a frame through the public `Kernels` task
//! functions in `InlineProcessor::process_frame`'s order, plus one
//! fronthaul round trip (`send_batch` + `recv_batch`, then `decode_ref`)
//! and one queue round trip (`MpmcQueue`, `TaskLane`) per frame, with a
//! span around each call. Spans stay in memory and are written out when
//! the run ends; a layer's self time is its span's duration minus its
//! child spans.

use agora_core::buffers::FrameWindow;
use agora_core::kernels::WorkerScratch;
use agora_core::{EngineConfig, Kernels};
use agora_fronthaul::{decode_ref, Fronthaul, MemFronthaul, PacketBuf};
use agora_ldpc::{DecodeConfig, Decoder};
use agora_math::Cf32;
use agora_queue::{MpmcQueue, Msg, TaskLane, TaskType};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub frame: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work items the span covers (antennas, subcarriers, blocks,
    /// packets or messages, depending on the layer).
    pub units: u64,
}

/// In-memory span recorder (single-threaded). A disabled tracer
/// records nothing, so the same replay code runs untraced.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

/// Per-name totals: summed self time and units.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub self_ns: u64,
    pub units: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), enabled }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, frame: u32, units: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, frame, start_ns, end_ns: start_ns, parent, units });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let own = self.self_ns();
        let mut map: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = map.entry(s.name).or_default();
            t.self_ns += own;
            t.units += s.units;
        }
        map
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"frame\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"units\": {}}}",
                s.name, s.frame, s.start_ns, s.end_ns, s.units
            )?;
        }
        out.flush()
    }
}

/// Decoded bits per `[symbol][user]`, as `FrameResult::decoded` holds them.
pub type Bits = Vec<Vec<Vec<u8>>>;

/// Capacity of the queue round-trip rings; a frame's messages go through
/// in chunks of at most this many.
const RING: usize = 4096;

/// Single-threaded traced replay of frames through the public kernels.
pub struct Replayer {
    kernels: Kernels,
    window: FrameWindow,
    scratch: WorkerScratch,
    link: (MemFronthaul, MemFronthaul),
    mpmc: MpmcQueue<Msg>,
    lane: TaskLane<Msg>,
    decoder: Decoder,
    full_llr: Vec<f32>,
    /// LDPC iterations and blocks seen by the direct decoder calls.
    pub ldpc_iterations: u64,
    pub ldpc_blocks: u64,
}

impl Replayer {
    pub fn new(cfg: EngineConfig, max_packets: usize) -> Replayer {
        let kernels = Kernels::new(cfg);
        let window = FrameWindow::new(kernels.geom, 2);
        let scratch = kernels.scratch();
        let ldpc = kernels.cfg.cell.ldpc;
        let decoder = Decoder::new(ldpc.base_graph, ldpc.z);
        let full_llr = vec![0.0; decoder.codeword_len()];
        Replayer {
            kernels,
            window,
            scratch,
            link: MemFronthaul::pair(max_packets.next_power_of_two()),
            mpmc: MpmcQueue::new(RING),
            lane: TaskLane::new(RING),
            decoder,
            full_llr,
            ldpc_iterations: 0,
            ldpc_blocks: 0,
        }
    }

    /// Replays one frame (`packets` must all carry frame id `frame`) and
    /// returns its decoded bits.
    pub fn frame(&mut self, t: &mut Tracer, frame: u32, packets: &[Bytes]) -> Bits {
        let Replayer { kernels, window, scratch, link, .. } = self;
        let g = kernels.geom;
        let cell = &kernels.cfg.cell;
        let n = packets.len();

        // transport: one link round trip, then header parsing.
        let mut q: VecDeque<PacketBuf> =
            packets.iter().map(|p| PacketBuf::Heap(p.clone())).collect();
        let mut rx: Vec<PacketBuf> = Vec::with_capacity(n);
        let id = t.open("transport.link", frame, n as u64);
        while !q.is_empty() {
            link.0.send_batch(&mut q);
        }
        while rx.len() < n {
            let want = n - rx.len();
            link.1.recv_batch(&mut rx, want);
        }
        t.close(id);
        let id = t.open("transport.parse", frame, n as u64);
        let addr: Vec<(usize, usize)> = rx
            .iter()
            .map(|p| {
                let (h, _) = decode_ref(p).expect("replayed packets are well formed");
                assert_eq!(h.frame, frame, "packet from a different frame");
                (h.symbol as usize, h.antenna as usize)
            })
            .collect();
        t.close(id);

        let mut tasks: Vec<Msg> = Vec::new();
        let root = t.open("core.frame", frame, 1);
        let fb = window.slot(frame);
        let id = t.open("core.ingest", frame, n as u64);
        // SAFETY: this replayer owns the window and runs on one thread,
        // so nothing else can touch the slot's packet table.
        unsafe { fb.rx_pkts.clear_all() };
        for (pkt, (symbol, ant)) in rx.into_iter().zip(addr) {
            // SAFETY: exclusive single-threaded access, as above.
            unsafe { fb.rx_pkts.store(fb.pkt_index(&g, symbol, ant), pkt) };
        }
        t.close(id);

        let batched = kernels.cfg.ablation.batched_fft;
        let fft_symbol =
            |t: &mut Tracer, s: &mut WorkerScratch, tasks: &mut Vec<Msg>, symbol: usize| {
                let bf = kernels.cfg.batch.fft.max(1);
                let mut base = 0;
                while base < g.m {
                    let count = bf.min(g.m - base);
                    let id = t.open("fft.fft", frame, count as u64);
                    if batched && count > 1 {
                        kernels.fft_batch_task(fb, s, symbol, base, count);
                    } else {
                        for ant in base..base + count {
                            kernels.fft_task(fb, s, symbol, ant);
                        }
                    }
                    t.close(id);
                    tasks.push(Msg::task(
                        TaskType::Fft,
                        frame,
                        symbol as u32,
                        base as u32,
                        count as u32,
                    ));
                    base += count;
                }
            };

        for symbol in cell.schedule.pilot_indices() {
            fft_symbol(t, scratch, &mut tasks, symbol);
        }
        let id = t.open("core.csi", frame, 1);
        kernels.interpolate_csi(fb);
        t.close(id);
        // ZF spans carry one unit per group (on the monolithic task, or
        // on each group's first reduce shard) so units count groups.
        let groups = cell.num_zf_groups();
        if kernels.clustered_zf() {
            for cluster in 0..kernels.zf_clusters() {
                for group in 0..groups {
                    let id = t.open("mimo-math.gram_partial", frame, 0);
                    kernels.gram_partial_task(fb, scratch, group, cluster);
                    t.close(id);
                    tasks.push(Msg::task(TaskType::Zf, frame, 1 + cluster as u32, group as u32, 1));
                }
            }
            for group in 0..groups {
                for shard in 0..kernels.zf_reduce_shards() {
                    let id = t.open("mimo-math.zf_reduce", frame, u64::from(shard == 0));
                    kernels.zf_reduce_task(fb, scratch, group, shard);
                    t.close(id);
                    tasks.push(Msg::task(TaskType::Zf, frame, 0, group as u32, 1));
                }
            }
        } else {
            for group in 0..groups {
                let id = t.open("mimo-math.zf", frame, 1);
                kernels.zf_task(fb, scratch, group);
                t.close(id);
                tasks.push(Msg::task(TaskType::Zf, frame, 0, group as u32, 1));
            }
        }

        let mut decoded: Bits = vec![Vec::new(); cell.symbols_per_frame()];
        for symbol in cell.schedule.uplink_indices() {
            fft_symbol(t, scratch, &mut tasks, symbol);
            let id = t.open("phy.demod", frame, g.q as u64);
            kernels.demod_task(fb, scratch, frame, symbol, 0, g.q);
            t.close(id);
            tasks.push(Msg::task(TaskType::Demod, frame, symbol as u32, 0, g.q as u32));
            for user in 0..g.k {
                let id = t.open("ldpc.decode", frame, 1);
                kernels.decode_task(fb, scratch, symbol, user);
                t.close(id);
                tasks.push(Msg::task(TaskType::Decode, frame, symbol as u32, user as u32, 1));
                // SAFETY: the decode task above wrote this range; no other
                // thread exists.
                let bits = unsafe { fb.decoded.slice(fb.decoded_range(&g, symbol, user)) };
                decoded[symbol].push(bits.to_vec());
            }
        }

        let mut dl_time: Vec<Vec<Vec<Cf32>>> = vec![Vec::new(); cell.symbols_per_frame()];
        for symbol in cell.schedule.downlink_indices() {
            for user in 0..g.k {
                let id = t.open("ldpc.encode", frame, 1);
                kernels.encode_task(fb, frame, symbol, user);
                t.close(id);
                tasks.push(Msg::task(TaskType::Encode, frame, symbol as u32, user as u32, 1));
            }
            let id = t.open("phy.precode", frame, g.q as u64);
            kernels.precode_task(fb, scratch, symbol, 0, g.q);
            t.close(id);
            tasks.push(Msg::task(TaskType::Precode, frame, symbol as u32, 0, g.q as u32));
            let bi = kernels.cfg.batch.ifft.max(1);
            let mut base = 0;
            while base < g.m {
                let count = bi.min(g.m - base);
                let id = t.open("fft.ifft", frame, count as u64);
                if batched && count > 1 {
                    kernels.ifft_batch_task(fb, scratch, symbol, base, count);
                } else {
                    for ant in base..base + count {
                        kernels.ifft_task(fb, scratch, symbol, ant);
                    }
                }
                t.close(id);
                tasks.push(Msg::task(
                    TaskType::Ifft,
                    frame,
                    symbol as u32,
                    base as u32,
                    count as u32,
                ));
                base += count;
            }
            // The inline processor hands the samples back; so does the
            // replay, so both do the same work.
            for ant in 0..g.m {
                // SAFETY: written by the IFFT tasks above; single thread.
                let samples = unsafe { fb.dl_time.slice(fb.dl_time_range(&g, symbol, ant)) };
                dl_time[symbol].push(samples.to_vec());
            }
        }
        drop(dl_time);
        t.close(root);

        self.queue_round_trips(t, frame, &tasks);
        decoded
    }

    /// Moves the frame's task messages through an MPMC queue and through
    /// a task lane, one span each.
    fn queue_round_trips(&mut self, t: &mut Tracer, frame: u32, tasks: &[Msg]) {
        let mut out: Vec<Msg> = Vec::with_capacity(RING);
        let id = t.open("xqueue.mpmc", frame, tasks.len() as u64);
        for chunk in tasks.chunks(RING) {
            for &m in chunk {
                self.mpmc.push(m).expect("ring holds a whole chunk");
            }
            while self.mpmc.pop().is_some() {}
        }
        t.close(id);
        let id = t.open("xqueue.lane", frame, tasks.len() as u64);
        for chunk in tasks.chunks(RING) {
            let pushed = self.lane.push_batch(chunk);
            assert_eq!(pushed, chunk.len(), "lane holds a whole chunk");
            out.clear();
            while self.lane.pop_batch(&mut out, RING) > 0 {}
        }
        t.close(id);
    }

    /// Re-decodes every uplink block of the last replayed `frame` from
    /// the LLRs the demod kernel left in its slot with a direct decoder
    /// call, counting iterations exactly; the bits must match what the
    /// decode kernel produced.
    pub fn direct_decodes(&mut self, frame: u32, decoded: &Bits) {
        let k = &self.kernels;
        let g = k.geom;
        let fb = self.window.slot(frame);
        let rm = k.rate_match();
        let cfg = DecodeConfig {
            max_iters: k.cfg.cell.ldpc.max_iters,
            active_rows: Some(rm.active_rows()),
            ..Default::default()
        };
        for symbol in k.cfg.cell.schedule.uplink_indices() {
            for (user, want) in decoded[symbol].iter().enumerate() {
                // SAFETY: the demod kernel wrote this range earlier in the
                // frame; single thread.
                let llr = unsafe { fb.llr.slice(fb.llr_range(&g, symbol, user)) };
                rm.fill_llrs_into(&llr[..rm.tx_len()], &mut self.full_llr);
                let res = self.decoder.decode(&self.full_llr, &cfg);
                assert_eq!(&res.info_bits, want, "direct decoder disagrees with the decode kernel");
                self.ldpc_iterations += res.iterations as u64;
                self.ldpc_blocks += 1;
            }
        }
    }
}
