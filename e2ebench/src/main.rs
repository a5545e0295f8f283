//! End-to-end frame benchmark for the Agora engine.
//!
//! Drives the real threaded `Engine` / `Deployment` with pre-generated
//! RRU traffic over an in-memory fronthaul, checks every frame, and
//! prints one JSON result line last on stdout. See `README.md` in this
//! directory for workloads, metric definitions and how to run it.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ul64x16 --seed 1 --seconds 30 --trace 0
//! ```

mod json;
mod phases;
mod stats;
mod sys;
mod trace;
mod traffic;
mod workload;

use agora_core::InlineProcessor;
use agora_queue::TaskType;
use json::Json;
use phases::{paced_plan, run_phase, saturation_plan, score, Phase, Scored};
use stats::{median, min_samples, percentile};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Bits, Replayer, Tracer};
use traffic::Pool;
use workload::{System, Workload, NAMES};

/// Fresh-process constructions per run; `setup_s` is their median.
const SETUP_PROBES: usize = 21;
/// Share of `--seconds` given to the paced phase (but never fewer than
/// the frames p90 needs). The saturation phase gets what is left after
/// the fixed costs, the paced phase and the traced run, and at least
/// `MIN_SATURATION_SHARE`.
const PACED_SHARE: f64 = 0.5;
const MIN_SATURATION_SHARE: f64 = 0.2;
/// Both phases run as this many alternating segments, so each samples
/// the whole run rather than one stretch of a noisy machine's time.
const ROUNDS: usize = 3;
/// Wall time the traced replay aims for.
const TRACE_BUDGET_S: f64 = 3.0;
/// A paced frame leaving later than this share of its period is late;
/// a paced segment with more than `SENDER_BEHIND_SHARE` late frames is
/// one whose sender fell behind the offered rate. Its latencies would
/// carry the sender's lag, so it is run again, at most `PACED_RETRIES`
/// times per run; a run that runs out of retries fails.
const LATE_SHARE: f64 = 0.25;
const SENDER_BEHIND_SHARE: f64 = 0.01;
const PACED_RETRIES: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: construct the system once and print the time.
    setup_probe: bool,
}

fn usage() -> String {
    format!(
        "usage: agora-e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 38, trace: false, setup_probe: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            a.setup_probe = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = num(&val)?,
            "--seconds" => a.seconds = num(&val)?.max(1),
            "--trace" => a.trace = num(&val)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    if args.setup_probe {
        // The noise power only scales LLRs when tasks run; construction
        // never reads it.
        let t = Instant::now();
        let sys = System::build(&w, 1.0);
        let setup_s = t.elapsed().as_secs_f64();
        drop(sys);
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    match run(&args, &w) {
        Ok((line, true)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok((line, false)) => {
            println!("{line}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median first-construction time over fresh child processes.
fn measure_setup(w: &Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", "--workload", w.name])
            .output()
            .map_err(|e| format!("spawning setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let t = text
            .lines()
            .filter_map(|l| l.strip_prefix("setup_s "))
            .next_back()
            .and_then(|v| v.parse::<f64>().ok());
        match (out.status.success(), t) {
            (true, Some(t)) => times.push(t),
            _ => {
                return Err(format!(
                    "setup probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    Ok(median(&times).expect("at least one probe"))
}

/// Single-threaded reference bits per `[cell][pool frame]`, plus the
/// untraced inline frame times (ms).
fn inline_reference(w: &Workload, pool: &Pool) -> (Vec<Vec<Bits>>, Vec<f64>) {
    let mut ip = InlineProcessor::new(w.engine_config(pool.noise_power));
    let mut times = Vec::new();
    let refs = pool
        .cells
        .iter()
        .map(|frames| {
            frames
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let t = Instant::now();
                    let r = ip.process_frame(i as u32, &f.packets);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    r.decoded
                })
                .collect()
        })
        .collect();
    (refs, times)
}

/// Per-layer figures from the traced replay.
struct TraceFigures {
    tracer: Tracer,
    /// Replay frame times with tracing off and on (ms), one pair per
    /// replayed frame.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    ldpc_iterations: u64,
    ldpc_blocks: u64,
    /// Median untraced `InlineProcessor` frame time (ms).
    inline_ms: f64,
}

/// Replays pool frames single-threaded: each once untimed to warm the
/// caches, then once untraced and once traced, in alternating order so
/// neither pass always runs second. Every replay's bits must equal the
/// inline reference.
fn traced_run(
    w: &Workload,
    pool: &Pool,
    reference: &[Vec<Bits>],
    inline_ms: f64,
) -> Result<TraceFigures, String> {
    let mut rep = Replayer::new(w.engine_config(pool.noise_power), pool.packets_per_frame());
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    // Frames to replay (each three times), cycling through cells and pool.
    let replays = (TRACE_BUDGET_S * 1e3 / (3.0 * inline_ms)).ceil().max(2.0) as usize;
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for n in 0..replays {
        let (c, i) = (n % w.num_cells, (n / w.num_cells) % w.pool_frames);
        let (f, frame) = (pool.frame(c, i), i as u32);
        // An untimed warm-up pass, then the timed pair in alternating order.
        let pair = if n % 2 == 0 { [false, true] } else { [true, false] };
        for traced in std::iter::once(None).chain(pair.map(Some)) {
            let t = if traced == Some(true) { &mut tracer } else { &mut off };
            let start = Instant::now();
            let bits = rep.frame(t, frame, &f.packets);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match traced {
                Some(true) => traced_ms.push(ms),
                Some(false) => untraced_ms.push(ms),
                None => {}
            }
            if bits != reference[c][i] {
                return Err(format!(
                    "cell {c} pool frame {i}: single-threaded replay bits differ from the inline \
                     processor"
                ));
            }
        }
        rep.direct_decodes(frame, &reference[c][i]);
    }
    Ok(TraceFigures {
        tracer,
        untraced_ms,
        traced_ms,
        ldpc_iterations: rep.ldpc_iterations,
        ldpc_blocks: rep.ldpc_blocks,
        inline_ms,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// Why the threaded phases stopped early.
enum Stop {
    /// Threaded bits differ from the single-threaded reference.
    Mismatch(String),
    /// The sender fell behind in more paced segments than may be redone.
    SenderBehind,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one benchmark invocation; returns the result line and whether
/// every correctness check held.
fn run(args: &Args, w: &Workload) -> Result<(String, bool), String> {
    let wall = Instant::now();
    let pool = Pool::generate(w, args.seed);
    let setup_s = measure_setup(w)?;
    let (reference, inline_times) = inline_reference(w, &pool);
    let inline_ms = median(&inline_times).expect("pool is not empty");
    let fixed_s = wall.elapsed().as_secs_f64();

    let window = w.frame_window();
    let secs = args.seconds as f64;
    let paced_total = min_samples(90.0).max((PACED_SHARE * secs * w.offered_fps()) as usize);
    let paced_per_seg = paced_total.div_ceil(w.num_cells * ROUNDS);
    let paced_s = (ROUNDS * (window + paced_per_seg)) as f64 * w.period_ns as f64 / 1e9;
    let trace_s = if args.trace { TRACE_BUDGET_S } else { 0.0 };
    let sat_s = (secs - fixed_s - paced_s - trace_s).max(MIN_SATURATION_SHARE * secs);
    // Frames per cell and segment at the workload's sizing rate, less
    // the segment's warm-up.
    let sat_per_seg =
        ((sat_s * w.sizing_fps) as usize / (w.num_cells * ROUNDS)).saturating_sub(window).max(2);

    let sys = System::build(w, pool.noise_power);
    let mut next = vec![0u32; w.num_cells];
    let (mut paced, mut sat) = (Phase::default(), Phase::default());
    // Paced segments run again because their sender fell behind; their
    // frames still count as attempted (and failed, if they failed).
    let mut redone = Phase::default();
    let late_ns = (LATE_SHARE * w.period_ns as f64) as u64;
    let mut retries = 0;
    let mut segments = || -> Result<(), Stop> {
        for _ in 0..ROUNDS {
            loop {
                let plan = paced_plan(w, &pool, &mut next, window, paced_per_seg);
                let run = run_phase(&sys, &pool, plan, w.num_cells, window);
                let scored = score(w, &pool, &reference, &run).map_err(Stop::Mismatch)?;
                let late = run.late_frames(late_ns);
                if late as f64 <= SENDER_BEHIND_SHARE * run.lag_ns.len() as f64 {
                    paced.add(scored, run);
                    break;
                }
                let max_ms = run.lag_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6;
                eprintln!(
                    "e2ebench: sender fell behind: {late} of {} paced frames left more than \
                     {LATE_SHARE} of a period late (max lag {max_ms:.3} ms)",
                    run.lag_ns.len()
                );
                if retries == PACED_RETRIES {
                    return Err(Stop::SenderBehind);
                }
                retries += 1;
                redone.add(scored, run);
            }
            let plan = saturation_plan(&pool, &mut next, window, sat_per_seg);
            let run = run_phase(&sys, &pool, plan, w.num_cells, window);
            sat.add(score(w, &pool, &reference, &run).map_err(Stop::Mismatch)?, run);
        }
        Ok(())
    };
    let checked = segments();
    drop(sys);
    let offered: u64 = next.iter().map(|&n| u64::from(n)).sum();
    let traced = match checked.and_then(|()| {
        let traced = args.trace.then(|| traced_run(w, &pool, &reference, inline_ms));
        traced.transpose().map_err(Stop::Mismatch)
    }) {
        Ok(t) => t,
        Err(Stop::SenderBehind) => {
            // Not a fault of the system under test, but the paced figures
            // would carry the sender's lag: no result, and a failing exit.
            return Err(format!(
                "the sender fell behind the offered rate in {} paced segments",
                PACED_RETRIES + 1
            ));
        }
        Err(Stop::Mismatch(e)) => {
            // The inline-vs-threaded (or inline-vs-replay) invariant broke:
            // the run's figures mean nothing.
            eprintln!("e2ebench: HARD ERROR: {e}");
            let line = Json::obj()
                .with("correct", false)
                .with("attempted", offered)
                .with("failed", 0u64)
                .with("metrics", Json::obj())
                .render();
            return Ok((line, false));
        }
    };

    // ---- end-to-end ----
    let attempted = paced.frames() + sat.frames() + redone.frames();
    let failed =
        [&paced, &sat, &redone].iter().flat_map(|p| &p.scored).filter(|s| s.failed).count();
    let timed: Vec<&Scored> = paced.scored.iter().filter(|s| !s.plan.warmup).collect();
    let lat: Vec<f64> = timed.iter().map(|s| s.latency_ms()).collect();
    let p50 = percentile(&lat, 50.0).ok_or("too few paced frames for p50")?;
    let p90 = percentile(&lat, 90.0).ok_or("too few paced frames for p90")?;
    let fps = sat.throughput_fps().ok_or("saturation phase completed too few frames")?;
    let cpu_cores = paced.worker_cpu_s / paced.wall_s;
    let delivered = 1.0 - failed as f64 / attempted as f64;

    let lag_max_ms = paced.lag_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6;
    let rx_errors = paced.counters.rx_errors + sat.counters.rx_errors;
    let misrouted = paced.counters.misrouted + sat.counters.misrouted;
    let correct = rx_errors == 0 && misrouted == 0;

    let mut metrics = Json::obj();
    if !args.trace {
        metrics.push("setup_s", metric(setup_s, "s"));
        metrics.push("frames_per_s", metric(fps, "1/s"));
        metrics.push("latency_p50_ms", metric(p50, "ms"));
        metrics.push("latency_p90_ms", metric(p90, "ms"));
        metrics.push("cpu_cores", metric(cpu_cores, "cores"));
        metrics.push("delivered_share", metric(delivered, "share"));
    } else {
        per_layer(&mut metrics, w, &paced, &sat, traced.as_ref().expect("traced run"));
    }

    let trace_path = traced.as_ref().map(|t| {
        let path = format!("e2ebench/out/trace-{}.jsonl", w.name);
        if let Err(e) = t.tracer.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("e2ebench: WARNING: could not write spans to {path}: {e}");
        }
        path
    });

    // Stamped record of the run: the last line on stderr.
    let record = Json::obj()
        .with("commit", commit())
        .with("nproc", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0))
        .with("simd_tier", format!("{:?}", agora_math::SimdTier::cached()))
        .with("workload", w.name)
        .with("workers", w.workers)
        .with("cells", w.num_cells)
        .with("offered_fps", w.offered_fps())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with(
            "frames",
            Json::obj()
                .with("warmup_per_cell_per_phase", window)
                .with("rounds", ROUNDS)
                .with("paced", paced.frames())
                .with("saturation", sat.frames()),
        )
        .with(
            "samples",
            Json::obj()
                .with("latency", lat.len())
                .with("beyond_p50", stats::beyond(lat.len(), 50.0))
                .with("beyond_p90", stats::beyond(lat.len(), 90.0)),
        )
        .with("inline_frame_ms", inline_ms)
        .with(
            "saturation_segment_fps",
            Json::Arr(sat.segment_fps().into_iter().map(Json::Num).collect()),
        )
        .with("sender_lag_max_ms", lag_max_ms)
        .with("paced_retries", retries)
        .with("process_cores", paced.process_cpu_s / paced.wall_s)
        .with("fixed_s", fixed_s)
        .with("trace_file", trace_path.map_or(Json::Null, Json::from))
        .with("wall_s", wall.elapsed().as_secs_f64())
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics.clone());
    eprintln!("{}", record.render());

    let line = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .render();
    Ok((line, correct))
}

/// Commit id for the stamped record, or `unknown` outside a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Fills the per-layer metrics (`--trace 1`).
fn per_layer(m: &mut Json, w: &Workload, paced: &Phase, sat: &Phase, tr: &TraceFigures) {
    // core.engine: Fig 13(b) segments of paced frames (p50 per frame),
    // and the share of worker time spent outside kernels at saturation.
    let ok: Vec<&Scored> = paced.scored.iter().filter(|s| !s.plan.warmup && !s.failed).collect();
    let seg = |f: &dyn Fn(&Scored) -> u64| {
        let v: Vec<f64> = ok.iter().map(|s| f(s) as f64 / 1e6).collect();
        median(&v).unwrap_or(0.0)
    };
    let due = |s: &Scored| s.due_ns().unwrap_or(0);
    m.push(
        "core.engine.intake_ms",
        metric(seg(&|s| s.first_packet_ns.saturating_sub(due(s))), "ms"),
    );
    m.push(
        "core.engine.pilot_ms",
        metric(seg(&|s| s.pilot_done_ns.saturating_sub(s.first_packet_ns)), "ms"),
    );
    m.push(
        "core.engine.zf_ms",
        metric(seg(&|s| s.zf_done_ns.saturating_sub(s.pilot_done_ns)), "ms"),
    );
    m.push(
        "core.engine.data_ms",
        metric(seg(&|s| s.done_ns.unwrap_or(0).saturating_sub(s.zf_done_ns)), "ms"),
    );
    let budget_ns = w.workers as f64 * sat.wall_s * 1e9;
    m.push(
        "core.engine.outside_kernel_share",
        metric(1.0 - sat.counters.total_busy_ns() as f64 / budget_ns, "share"),
    );

    // core.kernels: per task type, over the saturation phase.
    let names = ["fft", "zf", "demod", "decode", "encode", "precode", "ifft"];
    let total_busy = sat.counters.total_busy_ns() as f64;
    for (i, (name, t)) in names.iter().zip(TaskType::COMPUTE).enumerate() {
        debug_assert_eq!(agora_core::stats::type_index(t), i);
        let busy = sat.counters.busy_ns[i] as f64;
        let tasks = sat.counters.tasks[i] as f64;
        m.push(
            &format!("core.kernels.{name}.busy_share"),
            metric(ratio(busy, total_busy), "share"),
        );
        m.push(&format!("core.kernels.{name}.us_per_task"), metric(ratio(busy / 1e3, tasks), "us"));
    }

    // xqueue: scheduler events per paced frame.
    let pc = &paced.counters;
    let frames = paced.frames() as f64;
    m.push("xqueue.steals_per_frame", metric(pc.steals as f64 / frames, "count"));
    m.push("xqueue.parks_per_frame", metric(pc.parks as f64 / frames, "count"));
    m.push("xqueue.wakes_per_frame", metric(pc.wakes as f64 / frames, "count"));
    m.push(
        "xqueue.lane_overflows",
        metric((pc.lane_overflows + sat.counters.lane_overflows) as f64, "count"),
    );
    m.push(
        "xqueue.push_retries",
        metric((pc.push_retries + sat.counters.push_retries) as f64, "count"),
    );

    // transport.
    m.push(
        "transport.rx_batch_mean",
        metric(ratio(pc.rx_batch_packets as f64, pc.rx_batches as f64), "packets"),
    );
    m.push("transport.rx_errors", metric((pc.rx_errors + sat.counters.rx_errors) as f64, "count"));
    let lag_max_ms = paced.lag_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6;
    m.push("transport.sender_lag_max_ms", metric(lag_max_ms, "ms"));

    // core.deploy.
    let cell_busy: Vec<f64> = pc
        .cell_busy_ns
        .iter()
        .zip(&sat.counters.cell_busy_ns)
        .map(|(a, b)| (a + b) as f64)
        .collect();
    let mean = cell_busy.iter().sum::<f64>() / cell_busy.len() as f64;
    let max = cell_busy.iter().copied().fold(0.0, f64::max);
    m.push(
        "core.deploy.migrations",
        metric((pc.migrations + sat.counters.migrations) as f64, "count"),
    );
    m.push(
        "core.deploy.misrouted",
        metric((pc.misrouted + sat.counters.misrouted) as f64, "count"),
    );
    m.push("core.deploy.cell_busy_skew", metric(ratio(max, mean), "ratio"));

    // Traced kernel layers (self time per unit).
    let totals = tr.tracer.totals();
    let per_unit = |names: &[&str], scale: f64| {
        let (ns, units) = names
            .iter()
            .filter_map(|n| totals.get(n))
            .fold((0u64, 0u64), |(a, b), t| (a + t.self_ns, b + t.units));
        ratio(ns as f64 / scale, units as f64)
    };
    m.push("fft.fft_us_per_antenna", metric(per_unit(&["fft.fft"], 1e3), "us"));
    m.push("fft.ifft_us_per_antenna", metric(per_unit(&["fft.ifft"], 1e3), "us"));
    m.push(
        "mimo-math.zf_us_per_group",
        metric(
            per_unit(&["mimo-math.zf", "mimo-math.gram_partial", "mimo-math.zf_reduce"], 1e3),
            "us",
        ),
    );
    m.push("phy.demod_ns_per_sc", metric(per_unit(&["phy.demod"], 1.0), "ns"));
    m.push("phy.precode_ns_per_sc", metric(per_unit(&["phy.precode"], 1.0), "ns"));
    m.push("ldpc.decode_us_per_block", metric(per_unit(&["ldpc.decode"], 1e3), "us"));
    m.push("ldpc.encode_us_per_block", metric(per_unit(&["ldpc.encode"], 1e3), "us"));
    m.push(
        "ldpc.iterations_per_block",
        metric(ratio(tr.ldpc_iterations as f64, tr.ldpc_blocks as f64), "count"),
    );
    m.push("transport.parse_ns_per_packet", metric(per_unit(&["transport.parse"], 1.0), "ns"));
    m.push("transport.link_ns_per_packet", metric(per_unit(&["transport.link"], 1.0), "ns"));
    m.push("xqueue.mpmc_ns_per_msg", metric(per_unit(&["xqueue.mpmc"], 1.0), "ns"));
    m.push("xqueue.lane_ns_per_msg", metric(per_unit(&["xqueue.lane"], 1.0), "ns"));
    m.push("core.inline.frame_ms", metric(tr.inline_ms, "ms"));
    // Median over frames of traced ÷ untraced time: the two passes of a
    // frame run back to back, so host speed drift cancels within a pair.
    let pairs: Vec<f64> =
        tr.traced_ms.iter().zip(&tr.untraced_ms).map(|(t, u)| ratio(*t, *u) - 1.0).collect();
    m.push("trace.overhead_share", metric(median(&pairs).unwrap_or(0.0), "share"));
}
