//! CI smoke: fixed-point decoder parity. Deterministic (fixed seeds),
//! fast (<1 s), exit code 1 on any violation — `scripts/ci.sh` runs it
//! after the test suite as a release-build cross-check of the decoding
//! plane's two invariants:
//!
//! 1. Both decoders are bit-exact between the detected SIMD tier and the
//!    forced-scalar tier (same info bits, success flag, iterations).
//! 2. The `i8` plane agrees with the `f32` decoder: clean codewords
//!    decode perfectly on both, and at operating SNR both land on the
//!    transmitted bits.

use agora_ldpc::{
    quantize_llrs, BaseGraphId, DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, Encoder,
    RateMatch, DEFAULT_LLR_SCALE,
};
use agora_math::SimdTier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The (base graph, Z) points the benches sweep, plus tail shapes that
/// exercise the scalar remainder of the Z-lane kernels.
const CASES: &[(BaseGraphId, usize)] = &[
    (BaseGraphId::Bg1, 384),
    (BaseGraphId::Bg1, 104),
    (BaseGraphId::Bg1, 64),
    (BaseGraphId::Bg2, 56),
    (BaseGraphId::Bg2, 36),
    (BaseGraphId::Bg1, 30),
];

fn awgn_llrs(tx: &[u8], snr_db: f32, rng: &mut StdRng) -> Vec<f32> {
    let sigma2 = 10.0f32.powf(-snr_db / 10.0);
    let sigma = sigma2.sqrt();
    tx.iter()
        .map(|&b| {
            let x = if b == 0 { 1.0f32 } else { -1.0 };
            let n: f32 = {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
            };
            2.0 * (x + sigma * n) / sigma2
        })
        .collect()
}

fn main() {
    let mut failures = 0usize;
    let tier = SimdTier::detect();
    println!("decoder parity smoke (detected tier: {tier:?})");

    for &(bg, z) in CASES {
        let enc = Encoder::new(bg, z);
        let rm = RateMatch::for_rate(bg, z, 1.0 / 3.0);
        let mut dec_f32 = Decoder::new(bg, z);
        let mut dec_f32_scalar = Decoder::with_tier(bg, z, SimdTier::Scalar);
        let mut dec_i8 = DecoderI8::new(bg, z);
        let mut dec_i8_scalar = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
        let mut rng = StdRng::seed_from_u64(0xA60A + z as u64);
        let mut full_f32 = vec![0.0f32; dec_f32.codeword_len()];
        let mut full_i8 = vec![0i8; dec_i8.codeword_len()];

        for word in 0..8 {
            let info: Vec<u8> = (0..enc.info_len()).map(|_| rng.gen::<bool>() as u8).collect();
            let tx = rm.extract(&enc.encode(&info));
            // Word 0 is noiseless; the rest sit at operating SNR where
            // both planes must still land on the transmitted bits.
            let llrs = if word == 0 {
                tx.iter().map(|&b| if b == 0 { 12.0f32 } else { -12.0 }).collect()
            } else {
                awgn_llrs(&tx, 5.0, &mut rng)
            };
            rm.fill_llrs_into(&llrs, &mut full_f32);
            let mut tx_i8 = vec![0i8; llrs.len()];
            quantize_llrs(&llrs, &mut tx_i8, DEFAULT_LLR_SCALE);
            rm.fill_llrs_into(&tx_i8, &mut full_i8);

            let cfg_f32 = DecodeConfig {
                max_iters: 8,
                active_rows: Some(rm.active_rows()),
                ..Default::default()
            };
            let cfg_i8 = DecodeConfigI8 {
                max_iters: 8,
                active_rows: Some(rm.active_rows()),
                ..Default::default()
            };
            let rf = dec_f32.decode(&full_f32, &cfg_f32);
            let rfs = dec_f32_scalar.decode(&full_f32, &cfg_f32);
            let ri = dec_i8.decode(&full_i8, &cfg_i8);
            let rs = dec_i8_scalar.decode(&full_i8, &cfg_i8);

            if rf.info_bits != rfs.info_bits
                || rf.success != rfs.success
                || rf.iterations != rfs.iterations
            {
                println!("FAIL {bg:?} Z={z} word {word}: f32 tiers diverge (detected vs scalar)");
                failures += 1;
            }
            if ri.info_bits != rs.info_bits
                || ri.success != rs.success
                || ri.iterations != rs.iterations
            {
                println!("FAIL {bg:?} Z={z} word {word}: i8 tiers diverge (detected vs scalar)");
                failures += 1;
            }
            if !rf.success || rf.info_bits != info {
                println!("FAIL {bg:?} Z={z} word {word}: f32 decoder missed the codeword");
                failures += 1;
            }
            if !ri.success || ri.info_bits != info {
                println!("FAIL {bg:?} Z={z} word {word}: i8 plane missed the codeword");
                failures += 1;
            }
        }
        println!("  {bg:?} Z={z:<4} ok (8 words, clean + 5 dB)");
    }

    if failures > 0 {
        println!("decoder parity smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("decoder parity smoke: OK");
}
