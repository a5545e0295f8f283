//! Offset min-sum LDPC decoders.
//!
//! The paper uses Intel FlexRAN's decoder, "an offset min-sum belief
//! propagation (BP) based decoding algorithm" [Chen & Fossorier 2002].
//! Two schedules are provided:
//!
//! * [`Decoder::decode`] — **layered** (row-serial): each base-row layer
//!   immediately updates the posterior LLRs, roughly halving the
//!   iterations needed versus flooding. This is the production schedule.
//! * [`Decoder::decode_flooding`] — classic two-phase flooding, kept as a
//!   baseline and cross-check.
//!
//! Cost scales as `O(E * Z * iterations)` — linear in both `Z` and the
//! iteration count, which is exactly the trend Figure 12(a) reports.
//!
//! The layered decoder runs all `Z` lanes of a base-graph circulant in
//! lockstep, like [`crate::decoder_i8`]: each entry's rotated slice of
//! the posterior is gathered into contiguous scratch, every per-lane
//! operation is an element-wise pass (8 `f32` lanes per AVX2
//! instruction, behind [`SimdTier`] dispatch), and the result is
//! scattered back. Every vector operation is the exact IEEE counterpart
//! of the per-lane scalar operation (strict ordered compares, sign-bit
//! XOR in place of multiplying by +-1, no fused multiply-add), and
//! within one row no two lanes touch the same bit, so the posterior is
//! bitwise identical on both tiers and to a lane-at-a-time loop.

use crate::base_graph::{BaseGraph, BaseGraphId};
use crate::lifted::{self, LiftedRows};
use agora_math::simd::SimdTier;

/// Sign bit of an `f32`.
const SIGN: u32 = 0x8000_0000;

/// `f32` lanes per AVX2 vector; per-lane arrays are padded to a multiple.
const LANES: usize = 8;

/// Decoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct DecodeConfig {
    /// Maximum BP iterations (the paper sweeps 5 and 10).
    pub max_iters: usize,
    /// Min-sum correction offset beta (0.5 is the classic choice).
    pub offset: f32,
    /// Stop as soon as the hard decision satisfies every parity check.
    pub early_termination: bool,
    /// Number of active base rows; `None` uses the full graph. Rate
    /// matching shrinks this when high-rate transmissions omit extension
    /// parity bits entirely.
    pub active_rows: Option<usize>,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        Self { max_iters: 5, offset: 0.5, early_termination: true, active_rows: None }
    }
}

/// Outcome of a decode attempt.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// Hard-decision information bits (one byte each, length `kb * Z`).
    pub info_bits: Vec<u8>,
    /// True iff the final hard decision satisfies all active checks.
    pub success: bool,
    /// BP iterations actually executed.
    pub iterations: usize,
}

/// Offset min-sum decoder for one `(base graph, Z)` pair.
///
/// Holds scratch buffers so repeated decodes do not allocate; create one
/// per worker thread.
#[derive(Debug, Clone)]
pub struct Decoder {
    bg: &'static BaseGraph,
    z: usize,
    tier: SimdTier,
    lifted: LiftedRows,
    /// Per-edge check-to-variable messages, indexed `[entry][stride]`
    /// (lanes padded to whole vectors, see [`LiftedRows::stride`]).
    msgs: Vec<f32>,
    /// Posterior LLRs, length `cols * z`.
    post: Vec<f32>,
    /// Variable-to-check scratch for the flooding schedule (same layout
    /// as `msgs`); kept here so repeated decodes never allocate.
    v2c: Vec<f32>,
    /// Per-row extrinsic scratch, `[row slot][stride]` (max row degree slots).
    t: Vec<f32>,
    /// Per-lane smallest |extrinsic| of the current row.
    min1: Vec<f32>,
    /// Per-lane second-smallest |extrinsic|.
    min2: Vec<f32>,
    /// Per-lane index (within the row) achieving `min1`.
    min_pos: Vec<u32>,
    /// Per-lane sign product: [`SIGN`] for an odd number of negatives.
    signs: Vec<u32>,
    /// Hard decisions of `post` (syndrome check scratch).
    hard: Vec<u8>,
    /// Per-lane parity of one row (syndrome check scratch).
    parity: Vec<u8>,
}

impl Decoder {
    /// Creates a decoder with preallocated scratch space, auto-detecting
    /// the SIMD tier.
    pub fn new(id: BaseGraphId, z: usize) -> Self {
        Self::with_tier(id, z, SimdTier::detect())
    }

    /// Creates a decoder pinned to a specific SIMD tier. Every tier
    /// produces bit-identical results.
    pub fn with_tier(id: BaseGraphId, z: usize, tier: SimdTier) -> Self {
        assert!(z >= 2, "lifting size must be at least 2");
        let bg = BaseGraph::get(id);
        let lifted = LiftedRows::new(bg, z, LANES);
        let stride = lifted.stride();
        Self {
            bg,
            z,
            tier,
            msgs: vec![0.0; lifted.msg_len()],
            post: vec![0.0; bg.cols() * z],
            v2c: vec![0.0; lifted.msg_len()],
            t: vec![0.0; lifted.max_degree() * stride],
            min1: vec![0.0; stride],
            min2: vec![0.0; stride],
            min_pos: vec![0; stride],
            signs: vec![0; stride],
            hard: vec![0; bg.cols() * z],
            parity: vec![0; z],
            lifted,
        }
    }

    /// Codeword length in bits.
    pub fn codeword_len(&self) -> usize {
        self.bg.cols() * self.z
    }

    /// Information length in bits.
    pub fn info_len(&self) -> usize {
        self.bg.info_cols() * self.z
    }

    /// Decodes from channel LLRs (positive = bit 0 more likely), length
    /// [`Self::codeword_len`]. Punctured/untransmitted bits must carry LLR
    /// 0. Layered schedule; see [`Self::decode_into`].
    ///
    /// # Panics
    /// Panics if `llr.len() != self.codeword_len()`.
    pub fn decode(&mut self, llr: &[f32], cfg: &DecodeConfig) -> DecodeResult {
        let mut info_bits = vec![0; self.info_len()];
        let (success, iterations) = self.decode_into(llr, cfg, &mut info_bits);
        DecodeResult { info_bits, success, iterations }
    }

    /// Allocation-free [`Self::decode`]: writes the hard-decision
    /// information bits into `info_out` and returns
    /// `(success, iterations)`.
    ///
    /// # Panics
    /// Panics if `llr.len() != self.codeword_len()` or
    /// `info_out.len() != self.info_len()`.
    pub fn decode_into(
        &mut self,
        llr: &[f32],
        cfg: &DecodeConfig,
        info_out: &mut [u8],
    ) -> (bool, usize) {
        assert_eq!(llr.len(), self.codeword_len(), "LLR length mismatch");
        assert_eq!(info_out.len(), self.info_len(), "info buffer length mismatch");
        let rows = cfg.active_rows.unwrap_or(self.bg.rows()).min(self.bg.rows());
        self.post.copy_from_slice(llr);
        self.msgs.fill(0.0);

        let mut iterations = 0;
        let mut converged = false;
        for _iter in 0..cfg.max_iters {
            iterations += 1;
            for r in 0..rows {
                self.process_row(r, cfg.offset);
            }
            if cfg.early_termination && self.syndrome_ok(rows) {
                converged = true;
                break;
            }
        }

        let success = converged || self.syndrome_ok(rows);
        for (b, &l) in info_out.iter_mut().zip(&self.post) {
            *b = (l < 0.0) as u8;
        }
        (success, iterations)
    }

    /// One layered update of base row `r`: gather rotated posteriors,
    /// compute extrinsics and the per-lane two minima, then scatter the
    /// new messages and posteriors back.
    fn process_row(&mut self, r: usize, offset: f32) {
        let (z, stride) = (self.z, self.lifted.stride());
        let row = self.lifted.row(r);
        self.min1.fill(f32::INFINITY);
        self.min2.fill(f32::INFINITY);
        self.min_pos.fill(u32::MAX);
        self.signs.fill(0);

        // Phase 1: t_k = post_rot - msg, track mins/signs per lane.
        for (k, e) in row.iter().enumerate() {
            let tk = &mut self.t[k * stride..(k + 1) * stride];
            lifted::gather(&self.post, e, z, tk);
            row_extrinsic(
                tk,
                &self.msgs[e.msg..e.msg + stride],
                &mut self.min1,
                &mut self.min2,
                &mut self.min_pos,
                &mut self.signs,
                k as u32,
                self.tier,
            );
        }

        // Offset correction of both minima, once per row. `max` maps a
        // NaN difference to 0 on every tier (the body vectorises).
        for (m1, m2) in self.min1.iter_mut().zip(self.min2.iter_mut()) {
            *m1 = (*m1 - offset).max(0.0);
            *m2 = (*m2 - offset).max(0.0);
        }

        // Phase 2: new messages + posterior update, rotated scatter back.
        for (k, e) in row.iter().enumerate() {
            let tk = &mut self.t[k * stride..(k + 1) * stride];
            row_update(
                tk,
                &mut self.msgs[e.msg..e.msg + stride],
                &self.min1,
                &self.min2,
                &self.min_pos,
                &self.signs,
                k as u32,
                self.tier,
            );
            lifted::scatter(tk, e, z, &mut self.post);
        }
    }

    /// Flooding-schedule decode: all check nodes compute from the previous
    /// iteration's variable messages, then all variables update. Needs
    /// roughly 2x the iterations of the layered schedule for the same BER.
    pub fn decode_flooding(&mut self, llr: &[f32], cfg: &DecodeConfig) -> DecodeResult {
        assert_eq!(llr.len(), self.codeword_len(), "LLR length mismatch");
        let z = self.z;
        let rows = cfg.active_rows.unwrap_or(self.bg.rows()).min(self.bg.rows());
        self.post.copy_from_slice(llr);
        self.msgs.fill(0.0);
        // Variable-to-check messages from the previous half-iteration —
        // reused decoder scratch, so the hot path never allocates.
        self.v2c.fill(0.0);

        let mut iterations = 0;
        for _iter in 0..cfg.max_iters {
            iterations += 1;
            // Variable phase: v2c = post - c2v (extrinsic), gathered in
            // lane order.
            for r in 0..rows {
                for e in self.lifted.row(r) {
                    let v2c = &mut self.v2c[e.msg..e.msg + z];
                    lifted::gather(&self.post, e, z, v2c);
                    for (v, &m) in v2c.iter_mut().zip(&self.msgs[e.msg..e.msg + z]) {
                        *v -= m;
                    }
                }
            }
            // Check phase + posterior rebuild.
            self.post.copy_from_slice(llr);
            for r in 0..rows {
                let row = self.lifted.row(r);
                for i in 0..z {
                    let mut min1 = f32::INFINITY;
                    let mut min2 = f32::INFINITY;
                    let mut min_pos = usize::MAX;
                    let mut sign_prod = 1.0f32;
                    for (k, e) in row.iter().enumerate() {
                        let t = self.v2c[e.msg + i];
                        let a = t.abs();
                        if a < min1 {
                            min2 = min1;
                            min1 = a;
                            min_pos = k;
                        } else if a < min2 {
                            min2 = a;
                        }
                        if t < 0.0 {
                            sign_prod = -sign_prod;
                        }
                    }
                    let m1 = (min1 - cfg.offset).max(0.0);
                    let m2 = (min2 - cfg.offset).max(0.0);
                    for (k, e) in row.iter().enumerate() {
                        let lane = i + e.shift;
                        let bit = e.col + if lane >= z { lane - z } else { lane };
                        let t = self.v2c[e.msg + i];
                        let mag = if k == min_pos { m2 } else { m1 };
                        let s = if t < 0.0 { -sign_prod } else { sign_prod };
                        let new_msg = s * mag;
                        self.msgs[e.msg + i] = new_msg;
                        self.post[bit] += new_msg;
                    }
                }
            }
            if cfg.early_termination && self.syndrome_ok(rows) {
                break;
            }
        }

        let success = self.syndrome_ok(rows);
        let info_bits = self.post[..self.info_len()].iter().map(|&l| (l < 0.0) as u8).collect();
        DecodeResult { info_bits, success, iterations }
    }

    /// True iff the hard decision of `post` satisfies the first `rows`
    /// base rows' checks.
    fn syndrome_ok(&mut self, rows: usize) -> bool {
        for (h, &l) in self.hard.iter_mut().zip(&self.post) {
            *h = (l < 0.0) as u8;
        }
        self.lifted.syndrome_ok(&self.hard, &mut self.parity, rows)
    }
}

/// Phase-1 lane pass: `t -= msg`, then fold `|t|` into the per-lane
/// two-minimum trackers and XOR the sign product.
#[allow(clippy::too_many_arguments)]
fn row_extrinsic(
    t: &mut [f32],
    msgs: &[f32],
    min1: &mut [f32],
    min2: &mut [f32],
    min_pos: &mut [u32],
    signs: &mut [u32],
    k: u32,
    tier: SimdTier,
) {
    let mut head = 0;
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        head = (t.len() / 8) * 8;
        // SAFETY: the tier is only Avx2 when the CPU supports it; every
        // slice is cut to the same multiple-of-8 length.
        unsafe {
            row_extrinsic_avx2(
                &mut t[..head],
                &msgs[..head],
                &mut min1[..head],
                &mut min2[..head],
                &mut min_pos[..head],
                &mut signs[..head],
                k,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for i in head..t.len() {
        let v = t[i] - msgs[i];
        t[i] = v;
        let a = v.abs();
        if a < min1[i] {
            min2[i] = min1[i];
            min1[i] = a;
            min_pos[i] = k;
        } else if a < min2[i] {
            min2[i] = a;
        }
        if v < 0.0 {
            signs[i] ^= SIGN;
        }
    }
}

/// Phase-2 lane pass: magnitude from the offset two minima (`min1`,
/// `min2` already corrected), sign from the row product excluding self,
/// posterior update `t += msg`.
#[allow(clippy::too_many_arguments)]
fn row_update(
    t: &mut [f32],
    msgs: &mut [f32],
    min1: &[f32],
    min2: &[f32],
    min_pos: &[u32],
    signs: &[u32],
    k: u32,
    tier: SimdTier,
) {
    let mut head = 0;
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        head = (t.len() / 8) * 8;
        // SAFETY: as in `row_extrinsic`.
        unsafe {
            row_update_avx2(
                &mut t[..head],
                &mut msgs[..head],
                &min1[..head],
                &min2[..head],
                &min_pos[..head],
                &signs[..head],
                k,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for i in head..t.len() {
        let mag = if min_pos[i] == k { min2[i] } else { min1[i] };
        let v = t[i];
        // Sign product excluding self = total product XOR own sign; the
        // magnitude is never negative, so XOR sets the sign exactly as
        // multiplying by +-1 would.
        let s = signs[i] ^ if v < 0.0 { SIGN } else { 0 };
        let msg = f32::from_bits(mag.to_bits() ^ s);
        msgs[i] = msg;
        t[i] = v + msg;
    }
}

/// AVX2 phase 1: 8 lanes per iteration. Exact vector counterparts of the
/// scalar ops in [`row_extrinsic`]: `vsubps`, abs by clearing the sign
/// bit, ordered strict `<` compares, and `vminps(a, m)`, which is
/// `a < m ? a : m` including NaN `a`.
///
/// # Safety
/// Caller must ensure AVX2 support; all slices must share a length that
/// is a multiple of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_extrinsic_avx2(
    t: &mut [f32],
    msgs: &[f32],
    min1: &mut [f32],
    min2: &mut [f32],
    min_pos: &mut [u32],
    signs: &mut [u32],
    k: u32,
) {
    use core::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let sign = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32));
    let kv = _mm256_set1_epi32(k as i32);
    for c in (0..t.len()).step_by(8) {
        let tv = _mm256_loadu_ps(t.as_ptr().add(c));
        let mv = _mm256_loadu_ps(msgs.as_ptr().add(c));
        let v = _mm256_sub_ps(tv, mv);
        _mm256_storeu_ps(t.as_mut_ptr().add(c), v);
        let a = _mm256_andnot_ps(sign, v);
        let m1 = _mm256_loadu_ps(min1.as_ptr().add(c));
        let m2 = _mm256_loadu_ps(min2.as_ptr().add(c));
        let mp = _mm256_loadu_si256(min_pos.as_ptr().add(c) as *const __m256i);
        let lt1 = _mm256_cmp_ps::<_CMP_LT_OQ>(a, m1);
        let new_m2 = _mm256_blendv_ps(_mm256_min_ps(a, m2), m1, lt1);
        let new_m1 = _mm256_min_ps(a, m1);
        let new_mp = _mm256_blendv_epi8(mp, kv, _mm256_castps_si256(lt1));
        _mm256_storeu_ps(min1.as_mut_ptr().add(c), new_m1);
        _mm256_storeu_ps(min2.as_mut_ptr().add(c), new_m2);
        _mm256_storeu_si256(min_pos.as_mut_ptr().add(c) as *mut __m256i, new_mp);
        let sv = _mm256_loadu_ps(signs.as_ptr().add(c) as *const f32);
        let neg = _mm256_and_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(v, zero), sign);
        _mm256_storeu_ps(signs.as_mut_ptr().add(c) as *mut f32, _mm256_xor_ps(sv, neg));
    }
}

/// AVX2 phase 2: 8 lanes per iteration, exact counterpart of the scalar
/// loop in [`row_update`] (magnitude select, sign-bit XOR, `vaddps`).
///
/// # Safety
/// Caller must ensure AVX2 support; all slices must share a length that
/// is a multiple of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_update_avx2(
    t: &mut [f32],
    msgs: &mut [f32],
    min1: &[f32],
    min2: &[f32],
    min_pos: &[u32],
    signs: &[u32],
    k: u32,
) {
    use core::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let sign = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32));
    let kv = _mm256_set1_epi32(k as i32);
    for c in (0..t.len()).step_by(8) {
        let m1 = _mm256_loadu_ps(min1.as_ptr().add(c));
        let m2 = _mm256_loadu_ps(min2.as_ptr().add(c));
        let mp = _mm256_loadu_si256(min_pos.as_ptr().add(c) as *const __m256i);
        let is_min = _mm256_castsi256_ps(_mm256_cmpeq_epi32(mp, kv));
        let mag = _mm256_blendv_ps(m1, m2, is_min);
        let v = _mm256_loadu_ps(t.as_ptr().add(c));
        let sv = _mm256_loadu_ps(signs.as_ptr().add(c) as *const f32);
        let own = _mm256_and_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(v, zero), sign);
        let msg = _mm256_xor_ps(mag, _mm256_xor_ps(sv, own));
        _mm256_storeu_ps(msgs.as_mut_ptr().add(c), msg);
        _mm256_storeu_ps(t.as_mut_ptr().add(c), _mm256_add_ps(v, msg));
    }
}

/// The lane-at-a-time layered loop the Z-lane decoder replaced, kept as
/// the oracle its bit-exactness is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    /// Decodes `llr` one lane at a time; returns the result and the final
    /// posterior.
    pub(super) fn decode(
        id: BaseGraphId,
        z: usize,
        llr: &[f32],
        cfg: &DecodeConfig,
    ) -> (DecodeResult, Vec<f32>) {
        let bg = BaseGraph::get(id);
        assert_eq!(llr.len(), bg.cols() * z, "LLR length mismatch");
        let rows = cfg.active_rows.unwrap_or(bg.rows()).min(bg.rows());
        let mut post = llr.to_vec();
        let mut msgs = vec![0.0f32; bg.entries().len() * z];
        let entry_offset = |r: usize| {
            let base = bg.entries().as_ptr() as usize;
            let row = bg.row_entries(r).as_ptr() as usize;
            (row - base) / core::mem::size_of::<crate::base_graph::BaseEntry>()
        };
        let syndrome_ok = |post: &[f32]| {
            for r in 0..rows {
                for i in 0..z {
                    let mut parity = 0u8;
                    for e in bg.row_entries(r) {
                        let shift = e.shift as usize % z;
                        let bit = e.col as usize * z + (i + shift) % z;
                        parity ^= (post[bit] < 0.0) as u8;
                    }
                    if parity != 0 {
                        return false;
                    }
                }
            }
            true
        };

        let mut iterations = 0;
        for _iter in 0..cfg.max_iters {
            iterations += 1;
            for r in 0..rows {
                let row = bg.row_entries(r);
                let entry_base = entry_offset(r);
                for i in 0..z {
                    let mut min1 = f32::INFINITY;
                    let mut min2 = f32::INFINITY;
                    let mut min_pos = usize::MAX;
                    let mut sign_prod = 1.0f32;
                    for (k, e) in row.iter().enumerate() {
                        let shift = e.shift as usize % z;
                        let bit = e.col as usize * z + (i + shift) % z;
                        let t = post[bit] - msgs[(entry_base + k) * z + i];
                        let a = t.abs();
                        if a < min1 {
                            min2 = min1;
                            min1 = a;
                            min_pos = k;
                        } else if a < min2 {
                            min2 = a;
                        }
                        if t < 0.0 {
                            sign_prod = -sign_prod;
                        }
                    }
                    let m1 = (min1 - cfg.offset).max(0.0);
                    let m2 = (min2 - cfg.offset).max(0.0);
                    for (k, e) in row.iter().enumerate() {
                        let shift = e.shift as usize % z;
                        let bit = e.col as usize * z + (i + shift) % z;
                        let midx = (entry_base + k) * z + i;
                        let t = post[bit] - msgs[midx];
                        let mag = if k == min_pos { m2 } else { m1 };
                        let s = if t < 0.0 { -sign_prod } else { sign_prod };
                        let new_msg = s * mag;
                        post[bit] = t + new_msg;
                        msgs[midx] = new_msg;
                    }
                }
            }
            if cfg.early_termination && syndrome_ok(&post) {
                break;
            }
        }

        let success = syndrome_ok(&post);
        let info_bits = post[..bg.info_cols() * z].iter().map(|&l| (l < 0.0) as u8).collect();
        (DecodeResult { info_bits, success, iterations }, post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 1) as u8
            })
            .collect()
    }

    /// Maps a codeword to noiseless BPSK LLRs, with the first 2Z bits
    /// punctured (LLR 0) as the standard requires.
    fn clean_llrs(cw: &[u8], z: usize, amp: f32) -> Vec<f32> {
        cw.iter()
            .enumerate()
            .map(|(i, &b)| {
                if i < 2 * z {
                    0.0
                } else if b == 0 {
                    amp
                } else {
                    -amp
                }
            })
            .collect()
    }

    fn noisy_llrs(cw: &[u8], z: usize, snr_db: f32, seed: u64) -> Vec<f32> {
        // BPSK over AWGN: y = x + n, LLR = 2y/sigma^2.
        let sigma2 = 10.0f32.powf(-snr_db / 10.0);
        let sigma = sigma2.sqrt();
        let mut state = seed | 1;
        let mut gauss = move || {
            // Box-Muller from two xorshift uniforms.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u1 = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u2 = (state >> 11) as f64 / (1u64 << 53) as f64;
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
        };
        cw.iter()
            .enumerate()
            .map(|(i, &b)| {
                if i < 2 * z {
                    return 0.0;
                }
                let x = if b == 0 { 1.0f32 } else { -1.0 };
                let y = x + sigma * gauss();
                2.0 * y / sigma2
            })
            .collect()
    }

    #[test]
    fn decodes_clean_codeword() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 3);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 8.0);
        let res = dec.decode(&llr, &DecodeConfig::default());
        assert!(res.success);
        assert_eq!(res.info_bits, info);
        // Early termination should kick in quickly on clean input.
        assert!(res.iterations <= 3, "took {} iterations", res.iterations);
    }

    #[test]
    fn decodes_noisy_codeword_at_moderate_snr() {
        let z = 16;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 11);
        let cw = enc.encode(&info);
        // Rate ~1/3 code: 4 dB BPSK is comfortably above the waterfall.
        let llr = noisy_llrs(&cw, z, 4.0, 12345);
        let res = dec.decode(&llr, &DecodeConfig { max_iters: 20, ..Default::default() });
        assert!(res.success, "decode failed at 4 dB");
        assert_eq!(res.info_bits, info);
    }

    #[test]
    fn flooding_matches_layered_on_clean_input() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg2, z);
        let mut dec = Decoder::new(BaseGraphId::Bg2, z);
        let info = random_bits(enc.info_len(), 21);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 8.0);
        let a = dec.decode(&llr, &DecodeConfig::default());
        let b = dec.decode_flooding(&llr, &DecodeConfig { max_iters: 10, ..Default::default() });
        assert!(a.success && b.success);
        assert_eq!(a.info_bits, info);
        assert_eq!(b.info_bits, info);
    }

    #[test]
    fn fails_gracefully_at_very_low_snr() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 31);
        let cw = enc.encode(&info);
        let llr = noisy_llrs(&cw, z, -15.0, 999);
        let res = dec.decode(&llr, &DecodeConfig::default());
        // At -15 dB the decode must not succeed-and-be-wrong silently:
        // either success with correct bits (vanishingly unlikely) or
        // reported failure.
        if res.success {
            assert_eq!(res.info_bits, info);
        }
        assert_eq!(res.iterations, 5);
    }

    #[test]
    fn early_termination_counts_iterations() {
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 41);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 10.0);
        let with_et = dec.decode(&llr, &DecodeConfig::default());
        let without = dec.decode(
            &llr,
            &DecodeConfig { early_termination: false, max_iters: 5, ..Default::default() },
        );
        assert!(with_et.iterations < without.iterations);
        assert_eq!(without.iterations, 5);
        assert!(without.success);
    }

    #[test]
    fn active_rows_restricts_graph() {
        // With only the core rows active, a clean codeword still passes
        // (its checks are a subset).
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info = random_bits(enc.info_len(), 51);
        let cw = enc.encode(&info);
        let llr = clean_llrs(&cw, z, 8.0);
        let res = dec.decode(&llr, &DecodeConfig { active_rows: Some(10), ..Default::default() });
        assert!(res.success);
    }

    #[test]
    fn matches_lane_at_a_time_reference_on_noisy_codewords() {
        // The Z-lane decoder must reproduce the per-lane loop bit for bit
        // across the waterfall, on every tier, including the early
        // termination decision and the iteration count.
        for (bg, z, blocks) in [(BaseGraphId::Bg1, 104, 6u64), (BaseGraphId::Bg2, 12, 24)] {
            let enc = Encoder::new(bg, z);
            let tiers = [SimdTier::Scalar, SimdTier::detect()];
            let mut decs = tiers.map(|tier| (tier, Decoder::with_tier(bg, z, tier)));
            for snr in [-3.0f32, 0.0, 1.0, 3.0, 6.0] {
                for seed in 0..blocks {
                    let info = random_bits(enc.info_len(), 1000 + seed);
                    let llr = noisy_llrs(&enc.encode(&info), z, snr, 77 + seed);
                    let cfg = DecodeConfig { max_iters: 8, ..Default::default() };
                    let (want, want_post) = reference::decode(bg, z, &llr, &cfg);
                    for (tier, dec) in decs.iter_mut() {
                        let got = dec.decode(&llr, &cfg);
                        let ctx = format!("{bg:?} Z={z} {snr} dB seed {seed} {tier:?}");
                        assert_eq!(got.info_bits, want.info_bits, "{ctx}");
                        assert_eq!(got.success, want.success, "{ctx}");
                        assert_eq!(got.iterations, want.iterations, "{ctx}");
                        assert!(
                            dec.post
                                .iter()
                                .zip(&want_post)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{ctx}: posterior bits differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decode_into_matches_decode_without_allocating_output() {
        let z = 12;
        let enc = Encoder::new(BaseGraphId::Bg2, z);
        let mut dec = Decoder::new(BaseGraphId::Bg2, z);
        let info = random_bits(enc.info_len(), 81);
        let llr = noisy_llrs(&enc.encode(&info), z, 3.0, 82);
        let cfg = DecodeConfig::default();
        let res = dec.decode(&llr, &cfg);
        let mut out = vec![7u8; dec.info_len()];
        let (success, iterations) = dec.decode_into(&llr, &cfg, &mut out);
        assert_eq!((success, iterations), (res.success, res.iterations));
        assert_eq!(out, res.info_bits);
    }

    #[test]
    fn flooding_scratch_is_reused_across_decodes() {
        // The v2c buffer must live in the decoder (no per-call allocation):
        // its pointer and capacity are stable across repeated decodes.
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg2, z);
        let mut dec = Decoder::new(BaseGraphId::Bg2, z);
        let info = random_bits(enc.info_len(), 71);
        let llr = clean_llrs(&enc.encode(&info), z, 8.0);
        let ptr_before = dec.v2c.as_ptr();
        let cap_before = dec.v2c.capacity();
        for _ in 0..4 {
            let res =
                dec.decode_flooding(&llr, &DecodeConfig { max_iters: 10, ..Default::default() });
            assert!(res.success);
        }
        assert_eq!(dec.v2c.as_ptr(), ptr_before, "flooding scratch was reallocated");
        assert_eq!(dec.v2c.capacity(), cap_before, "flooding scratch capacity changed");
    }

    #[test]
    fn repeated_decodes_are_independent() {
        // Scratch state must not leak between calls.
        let z = 8;
        let enc = Encoder::new(BaseGraphId::Bg1, z);
        let mut dec = Decoder::new(BaseGraphId::Bg1, z);
        let info_a = random_bits(enc.info_len(), 61);
        let info_b = random_bits(enc.info_len(), 62);
        let llr_a = clean_llrs(&enc.encode(&info_a), z, 8.0);
        let llr_b = clean_llrs(&enc.encode(&info_b), z, 8.0);
        let ra1 = dec.decode(&llr_a, &DecodeConfig::default());
        let rb = dec.decode(&llr_b, &DecodeConfig::default());
        let ra2 = dec.decode(&llr_a, &DecodeConfig::default());
        assert_eq!(ra1.info_bits, ra2.info_bits);
        assert_eq!(rb.info_bits, info_b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::encoder::Encoder;
    use proptest::prelude::*;

    /// Lifting sizes for the reference comparison: tiny, odd, the tiny
    /// test cell's 12, the 32-lane-ish 30, OTA 56 and the paper's 104 and
    /// 384, so both the 8-lane body and every tail length occur.
    const REF_ZS: [usize; 7] = [2, 7, 12, 30, 56, 104, 384];

    /// Random LLRs mixing ordinary values with +-0.0, huge magnitudes
    /// and +-infinity (which drive posteriors to NaN).
    fn wild_llrs(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = ((state >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0;
                match state % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => u * f32::MAX,
                    5 => u * 1e30,
                    _ => u * 20.0,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The Z-lane decoder, on the detected tier and forced scalar,
        /// matches the lane-at-a-time reference bit for bit: posterior
        /// `to_bits()`, info bits, success and iteration count.
        #[test]
        fn zlane_matches_reference_bit_for_bit(
            seed in any::<u64>(),
            bg1 in any::<bool>(),
            z_idx in 0usize..REF_ZS.len(),
            iters in 1usize..5,
            early in any::<bool>(),
        ) {
            let id = if bg1 { BaseGraphId::Bg1 } else { BaseGraphId::Bg2 };
            let z = REF_ZS[z_idx];
            let cfg = DecodeConfig { max_iters: iters, early_termination: early, ..Default::default() };
            let bg = BaseGraph::get(id);
            let llr = wild_llrs(bg.cols() * z, seed);
            let (want, want_post) = reference::decode(id, z, &llr, &cfg);
            for tier in [SimdTier::Scalar, SimdTier::detect()] {
                let mut dec = Decoder::with_tier(id, z, tier);
                let got = dec.decode(&llr, &cfg);
                prop_assert_eq!(&got.info_bits, &want.info_bits);
                prop_assert_eq!(got.success, want.success);
                prop_assert_eq!(got.iterations, want.iterations);
                let got_bits: Vec<u32> = dec.post.iter().map(|x| x.to_bits()).collect();
                let want_bits: Vec<u32> = want_post.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got_bits, want_bits);
            }
        }

        /// Any payload encodes to a valid codeword and decodes back
        /// through a clean channel — for arbitrary payload content and a
        /// spread of lifting sizes.
        #[test]
        fn encode_decode_roundtrip(
            seed in any::<u64>(),
            z_idx in 0usize..4,
        ) {
            let z = [4usize, 8, 12, 16][z_idx];
            let enc = Encoder::new(BaseGraphId::Bg2, z);
            let mut dec = Decoder::new(BaseGraphId::Bg2, z);
            let mut state = seed | 1;
            let info: Vec<u8> = (0..enc.info_len()).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 1) as u8
            }).collect();
            let cw = enc.encode(&info);
            prop_assert!(enc.check(&cw));
            let llr: Vec<f32> = cw.iter().enumerate().map(|(i, &b)| {
                if i < 2 * z { 0.0 } else if b == 0 { 6.0 } else { -6.0 }
            }).collect();
            let res = dec.decode(&llr, &DecodeConfig::default());
            prop_assert!(res.success);
            prop_assert_eq!(res.info_bits, info);
        }

        /// The decoder must never panic and never report success with
        /// wrong syndrome, for arbitrary LLR input.
        #[test]
        fn decoder_robust_to_arbitrary_llrs(
            llr_seed in any::<u64>(),
            scale in 0.1f32..20.0,
        ) {
            let z = 8;
            let mut dec = Decoder::new(BaseGraphId::Bg2, z);
            let mut state = llr_seed | 1;
            let llr: Vec<f32> = (0..dec.codeword_len()).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25) * scale
            }).collect();
            let res = dec.decode(&llr, &DecodeConfig::default());
            // If the decoder claims success, its output must genuinely be
            // a codeword.
            if res.success {
                let enc = Encoder::new(BaseGraphId::Bg2, z);
                let recoded = enc.encode(&res.info_bits);
                prop_assert!(enc.check(&recoded));
            }
        }
    }
}
