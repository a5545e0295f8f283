//! Lifted-row tables shared by the Z-lane layered decoders.
//!
//! For a base entry `(col, shift)` and lifting size `Z`, lane `i` of the
//! check touches bit `col * Z + (i + shift mod Z) mod Z`: the *rotated
//! slice* of that column's `Z`-block. [`LiftedRows`] resolves every entry
//! once, at decoder construction, to the offsets the hot loops need, so a
//! row update or syndrome check never divides: a rotation is two
//! contiguous runs, moved with [`gather`]/[`scatter`] or XORed in place.
//!
//! Per-lane arrays (messages, row scratch) use a *stride* of `Z` rounded
//! up to the decoder's SIMD width. The padding lanes are zeroed on every
//! gather and never scattered, so they cannot affect the posterior, and
//! the lane kernels run whole vectors with no scalar tail.

use crate::base_graph::BaseGraph;

/// One base-graph entry resolved for a lifting size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiftedEdge {
    /// First bit of the entry's column block (`col * Z`).
    pub col: usize,
    /// Effective cyclic shift (`shift mod Z`).
    pub shift: usize,
    /// First check-to-variable message slot of the entry (`entry * stride`).
    pub msg: usize,
}

/// Per-row lifted edge lists for one `(base graph, Z)` pair.
#[derive(Debug, Clone)]
pub(crate) struct LiftedRows {
    z: usize,
    stride: usize,
    edges: Vec<LiftedEdge>,
    /// `row_start[r]..row_start[r + 1]` indexes `edges` for base row `r`.
    row_start: Vec<usize>,
}

impl LiftedRows {
    /// Resolves every entry of `bg` for lifting size `z`, with per-lane
    /// arrays padded to a multiple of `lanes`.
    pub fn new(bg: &BaseGraph, z: usize, lanes: usize) -> Self {
        let stride = z.next_multiple_of(lanes);
        let mut edges = Vec::with_capacity(bg.entries().len());
        let mut row_start = Vec::with_capacity(bg.rows() + 1);
        row_start.push(0);
        // `row_entries` slices tile `entries` in order, so the running edge
        // count is the flat entry index.
        for r in 0..bg.rows() {
            for e in bg.row_entries(r) {
                let msg = edges.len() * stride;
                edges.push(LiftedEdge {
                    col: e.col as usize * z,
                    shift: e.shift as usize % z,
                    msg,
                });
            }
            row_start.push(edges.len());
        }
        Self { z, stride, edges, row_start }
    }

    /// Lifted edges of base row `r`, in entry order.
    pub fn row(&self, r: usize) -> &[LiftedEdge] {
        &self.edges[self.row_start[r]..self.row_start[r + 1]]
    }

    /// Largest base-row degree (sizes the per-row extrinsic scratch).
    pub fn max_degree(&self) -> usize {
        self.row_start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// Lanes per message/scratch row: `Z` rounded up to the SIMD width.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of message slots (`entries * stride`).
    pub fn msg_len(&self) -> usize {
        self.edges.len() * self.stride
    }

    /// True iff hard decisions `hard` (one byte per bit, 0 or 1) satisfy
    /// every check of the first `rows` base rows. Each row XORs its
    /// entries' rotated runs into `parity` (length `Z`), lane by lane.
    pub fn syndrome_ok(&self, hard: &[u8], parity: &mut [u8], rows: usize) -> bool {
        let z = self.z;
        for r in 0..rows {
            let row = self.row(r);
            let Some((first, rest)) = row.split_first() else { continue };
            gather(hard, first, z, parity);
            for e in rest {
                let (head, tail) = parity.split_at_mut(z - e.shift);
                for (p, &h) in head.iter_mut().zip(&hard[e.col + e.shift..e.col + z]) {
                    *p ^= h;
                }
                for (p, &h) in tail.iter_mut().zip(&hard[e.col..e.col + e.shift]) {
                    *p ^= h;
                }
            }
            if parity.iter().any(|&p| p != 0) {
                return false;
            }
        }
        true
    }
}

/// Rotated gather: `dst[i] = src[e.col + (i + e.shift) % Z]` for
/// `i < Z`; the padding lanes `dst[Z..]` are zeroed.
pub(crate) fn gather<T: Copy + Default>(src: &[T], e: &LiftedEdge, z: usize, dst: &mut [T]) {
    let (dst, pad) = dst.split_at_mut(z);
    pad.fill(T::default());
    dst[..z - e.shift].copy_from_slice(&src[e.col + e.shift..e.col + z]);
    dst[z - e.shift..].copy_from_slice(&src[e.col..e.col + e.shift]);
}

/// Inverse of [`gather`]: `dst[e.col + (i + e.shift) % Z] = src[i]` for
/// `i < Z`.
pub(crate) fn scatter<T: Copy>(src: &[T], e: &LiftedEdge, z: usize, dst: &mut [T]) {
    dst[e.col + e.shift..e.col + z].copy_from_slice(&src[..z - e.shift]);
    dst[e.col..e.col + e.shift].copy_from_slice(&src[z - e.shift..z]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_graph::BaseGraphId;

    #[test]
    fn table_matches_base_graph_arithmetic() {
        for id in [BaseGraphId::Bg1, BaseGraphId::Bg2] {
            let bg = BaseGraph::get(id);
            for z in [2usize, 7, 104, 384] {
                let lifted = LiftedRows::new(bg, z, 32);
                let stride = z.next_multiple_of(32);
                assert_eq!(lifted.stride(), stride);
                let mut flat = 0;
                for r in 0..bg.rows() {
                    let row = lifted.row(r);
                    assert_eq!(row.len(), bg.row_entries(r).len());
                    for (le, be) in row.iter().zip(bg.row_entries(r)) {
                        assert_eq!(le.col, be.col as usize * z);
                        assert_eq!(le.shift, be.shift as usize % z);
                        assert_eq!(le.msg, flat * stride);
                        flat += 1;
                    }
                }
                assert_eq!(lifted.msg_len(), bg.entries().len() * stride);
            }
        }
    }

    #[test]
    fn gather_scatter_rotate_and_invert() {
        let z = 7;
        let src: Vec<u32> = (0..3 * z as u32).collect();
        for shift in 0..z {
            let e = LiftedEdge { col: z, shift, msg: 0 };
            let mut lanes = vec![9u32; 8];
            gather(&src, &e, z, &mut lanes);
            for (i, &v) in lanes[..z].iter().enumerate() {
                assert_eq!(v as usize, z + (i + shift) % z);
            }
            assert_eq!(lanes[z], 0, "padding lane must be zeroed");
            let mut back = vec![0u32; 3 * z];
            scatter(&lanes, &e, z, &mut back);
            assert_eq!(&back[z..2 * z], &src[z..2 * z]);
        }
    }

    /// Lane-at-a-time syndrome with the per-edge modulo the table removes.
    fn syndrome_by_modulo(bg: &BaseGraph, z: usize, hard: &[u8], rows: usize) -> bool {
        (0..rows).all(|r| {
            (0..z).all(|i| {
                let parity = bg.row_entries(r).iter().fold(0u8, |p, e| {
                    p ^ hard[e.col as usize * z + (i + e.shift as usize % z) % z]
                });
                parity == 0
            })
        })
    }

    #[test]
    fn syndrome_matches_lane_at_a_time_check() {
        for (id, z) in [(BaseGraphId::Bg1, 7usize), (BaseGraphId::Bg2, 12), (BaseGraphId::Bg1, 104)]
        {
            let bg = BaseGraph::get(id);
            let lifted = LiftedRows::new(bg, z, 8);
            let enc = crate::encoder::Encoder::new(id, z);
            let mut state = 0x5EED_u64 + z as u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut parity = vec![0u8; z];
            for trial in 0..64 {
                let info: Vec<u8> = (0..enc.info_len()).map(|_| (next() & 1) as u8).collect();
                let mut hard = enc.encode(&info);
                // Flip up to two bits; with a restricted row set some flips
                // land only in inactive checks and still pass.
                for _ in 0..trial % 3 {
                    let bit = next() as usize % hard.len();
                    hard[bit] ^= 1;
                }
                let rows = if trial % 2 == 0 { bg.rows() } else { 4 + trial % 8 };
                assert_eq!(
                    lifted.syndrome_ok(&hard, &mut parity, rows),
                    syndrome_by_modulo(bg, z, &hard, rows),
                    "{id:?} Z={z} trial {trial}"
                );
            }
        }
    }
}
