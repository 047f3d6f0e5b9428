//! A linear layer executing directly from packed sub-byte storage.

use aptq_artifact::Fnv64;
use aptq_core::grid::{GridKind, GroupParams};
use aptq_core::pack::PackedTensor;
use aptq_lm::LinearOp;
use aptq_obs::Recorder;
use aptq_tensor::num::small_i32_f32;
use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A bias-free linear layer whose weights live in a [`PackedTensor`].
///
/// `forward` never materializes the fp32 weight matrix. It walks the
/// weight rows in order, decoding each row's codes a block of whole
/// bytes at a time (4-bit: 2 codes per byte, 2-bit: 4, 3-bit: 8 codes
/// per 3 bytes) with the code width a const generic and the grid
/// family dispatched once per call. One input row multiply-adds each
/// dequantized weight straight into the output; a batch dequantizes
/// each weight row once into a `d_out` scratch row and sweeps it over
/// every input row. Outputs are bit-identical to multiplying by the
/// dequantized matrix row by row.
///
/// # Example
///
/// ```
/// use aptq_core::engine::quantize_layer_rtn;
/// use aptq_core::grid::{GridConfig, QuantGrid};
/// use aptq_qmodel::QuantizedLinear;
/// use aptq_tensor::Matrix;
///
/// let w = Matrix::from_fn(8, 4, |i, j| (i as f32 - j as f32) * 0.1);
/// let res = quantize_layer_rtn(&w, QuantGrid::int(4, true), &GridConfig::default());
/// let qlin = QuantizedLinear::new(res.packed);
/// let x = Matrix::from_fn(3, 8, |i, j| (i + j) as f32 * 0.05);
/// let y = qlin.forward(&x);
/// // Identical to multiplying by the dequantized weights.
/// let want = x.matmul(&res.dequantized);
/// assert_eq!(y, want);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLinear {
    packed: PackedTensor,
}

impl QuantizedLinear {
    /// Wraps a packed tensor.
    pub fn new(packed: PackedTensor) -> Self {
        QuantizedLinear { packed }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.packed.d_in
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.packed.d_out
    }

    /// Storage bytes (codes + group metadata).
    pub fn storage_bytes(&self) -> usize {
        self.packed.storage_bytes()
    }

    /// Nominal code bits per weight.
    pub fn bits(&self) -> u8 {
        self.packed.grid.bits()
    }

    /// The underlying packed tensor.
    pub fn packed(&self) -> &PackedTensor {
        &self.packed
    }

    /// FNV-1a fingerprint over everything that determines this layer's
    /// forward: shape, group size, grid bit-width, packed code bytes and
    /// per-group dequantization parameters. Any single-bit corruption of
    /// the packed storage changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat_u64(self.packed.d_in as u64);
        h.eat_u64(self.packed.d_out as u64);
        h.eat_u64(self.packed.group_size as u64);
        h.eat_u64(u64::from(self.packed.grid.bits()));
        h.eat_bytes(&self.packed.data);
        for p in &self.packed.params {
            h.eat_word(u64::from(p.scale.to_bits()));
            h.eat_u64(p.zero as u64);
        }
        h.finish()
    }

    /// Fault-injection hook: XORs `mask` into one packed code byte
    /// (index taken modulo the code-stream length, so any index is
    /// safe). Returns `true` if a byte actually changed — `false` for an
    /// empty code stream or a zero mask. Never panics.
    pub fn corrupt_packed_byte(&mut self, byte_index: usize, mask: u8) -> bool {
        if self.packed.data.is_empty() || mask == 0 {
            return false;
        }
        let idx = byte_index % self.packed.data.len();
        self.packed.data[idx] ^= mask;
        true
    }

    /// Computes `y = x · Ŵ` straight from the packed codes.
    ///
    /// # Determinism
    ///
    /// Single-threaded scalar loops: bit-identical at any
    /// `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: one `t × d_out` output per call, plus one
    /// `d_out` weight row when `t > 1`; a one-row call allocates
    /// nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`, or if the packed tensor is
    /// inconsistent: a code stream shorter than `d_in · d_out` codes or
    /// a parameter table without one entry per group and column.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_op(x, None)
    }

    /// [`QuantizedLinear::forward`] recording work counters into `rec`
    /// under `qmodel/qlinear/…`: forward calls, groups and codes
    /// unpacked, multiply-accumulates, and `fallback_entries` — the
    /// count of groups that had to re-unpack the whole code stream.
    /// The kernel decodes every weight row from its own bit offset, so
    /// that path does not exist; the counter is materialized at 0 so
    /// telemetry consumers can assert its absence rather than infer it.
    ///
    /// # Determinism
    ///
    /// Single-threaded scalar loops: output *and counters* are
    /// bit-identical at any `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: same as [`QuantizedLinear::forward`] plus the
    /// recorder's counter-key interning.
    ///
    /// # Panics
    ///
    /// Same as [`QuantizedLinear::forward`].
    pub fn forward_recorded(&self, x: &Matrix, rec: &mut Recorder) -> Matrix {
        self.forward_op(x, Some(rec))
    }

    /// Accumulates `x · Ŵ` into `out`, which must arrive zeroed. The
    /// grid family and the code width are dispatched here, once per
    /// call, so the inner loops run one monomorphized dequantizer.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`, `out` is not `(x.rows(), d_out)`,
    /// the code stream is shorter than `d_in · d_out` codes, or the
    /// parameter table does not hold one entry per group and column.
    fn accumulate(&self, x: &Matrix, out: &mut Matrix, rec: Option<&mut Recorder>) {
        let p = &self.packed;
        assert_eq!(x.cols(), p.d_in, "QuantizedLinear: input width mismatch");
        assert_eq!(
            out.shape(),
            (x.rows(), p.d_out),
            "QuantizedLinear: output buffer shape mismatch"
        );
        let bits = usize::from(p.grid.bits());
        assert!(
            p.data.len() >= (p.d_in * p.d_out * bits).div_ceil(8),
            "QuantizedLinear: packed code stream too short"
        );
        assert_eq!(
            p.params.len(),
            p.n_groups() * p.d_out,
            "QuantizedLinear: group parameter table length mismatch"
        );
        // Each arm repeats `QuantGrid::dequantize`'s expression for its
        // family, so the dequantized weights are the same f32 values.
        match p.grid.kind() {
            GridKind::Int { .. } => {
                let deq =
                    |code: u8, g: GroupParams| small_i32_f32(i32::from(code) - g.zero) * g.scale;
                match bits {
                    1 => self.accumulate_width::<1>(x, out, deq),
                    2 => self.accumulate_width::<2>(x, out, deq),
                    3 => self.accumulate_width::<3>(x, out, deq),
                    4 => self.accumulate_width::<4>(x, out, deq),
                    5 => self.accumulate_width::<5>(x, out, deq),
                    6 => self.accumulate_width::<6>(x, out, deq),
                    7 => self.accumulate_width::<7>(x, out, deq),
                    8 => self.accumulate_width::<8>(x, out, deq),
                    // audit:allow(panic): QuantGrid keeps int widths in 1..=8
                    _ => unreachable!("integer grid width {bits} outside 1..=8"),
                }
            }
            GridKind::Binary => {
                self.accumulate_width::<1>(
                    x,
                    out,
                    |code, g| {
                        if code == 1 {
                            g.scale
                        } else {
                            -g.scale
                        }
                    },
                )
            }
            GridKind::Fp4 => {
                // The E2M1 magnitudes at unit scale, read once per call.
                let unit = GroupParams {
                    scale: 1.0,
                    zero: 0,
                };
                let levels = [0u8, 1, 2, 3, 4, 5, 6, 7].map(|c| p.grid.dequantize(c, unit));
                self.accumulate_width::<4>(x, out, move |code, g| {
                    let mag = levels[usize::from(code & 0b111)] * g.scale;
                    if code & 0b1000 != 0 {
                        -mag
                    } else {
                        mag
                    }
                });
            }
        }
        if let Some(r) = rec {
            let n_groups = p.n_groups();
            if n_groups > 0 {
                r.add("qmodel/qlinear/groups_unpacked", n_groups as u64);
                r.add("qmodel/qlinear/codes_unpacked", (p.d_in * p.d_out) as u64);
            }
            r.incr("qmodel/qlinear/forward_calls");
            r.add("qmodel/qlinear/macs", (x.rows() * p.d_in * p.d_out) as u64);
            r.add("qmodel/qlinear/fallback_entries", 0);
        }
    }

    /// The kernel for one code width. Every output element accumulates
    /// `x[r][i] · Ŵ[i][c]` over ascending input rows `i`, starting from
    /// `+0.0` and skipping exact-zero inputs — the order of the
    /// group-streamed reference kernel, so the sums are bit-identical.
    ///
    /// One input row (`t = 1`) decodes, dequantizes and multiply-adds
    /// one weight row at a time with no heap scratch. Larger batches
    /// dequantize each weight row once into a `d_out` scratch row and
    /// sweep it over all `t` input rows.
    fn accumulate_width<const BITS: usize>(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        deq: impl Fn(u8, GroupParams) -> f32 + Copy,
    ) {
        let (d_in, d_out) = (self.packed.d_in, self.packed.d_out);
        if d_in == 0 || d_out == 0 || x.rows() == 0 {
            return;
        }
        if x.rows() == 1 {
            let y = out.row_mut(0);
            self.for_each_row::<BITS, _>(x.row(0).iter(), |&xv, codes, params| {
                // audit:allow(fpeq): exact-zero sparsity skip; no tolerance intended
                if xv != 0.0 {
                    codes.zip_dequantized(params, y, deq, |yv, w| *yv += xv * w);
                }
            });
            return;
        }
        // One-shot `d_out` row — the documented budget for `t > 1`.
        let mut w_row = vec![0.0f32; d_out];
        self.for_each_row::<BITS, _>(0..d_in, |i, codes, params| {
            codes.zip_dequantized(params, &mut w_row, deq, |wv, w| *wv = w);
            let rows = out.as_mut_slice().chunks_exact_mut(d_out);
            for (y, x_row) in rows.zip(x.as_slice().chunks_exact(d_in)) {
                let xv = x_row[i];
                // audit:allow(fpeq): exact-zero sparsity skip; no tolerance intended
                if xv == 0.0 {
                    continue;
                }
                for (yv, &wv) in y.iter_mut().zip(&w_row) {
                    *yv += xv * wv;
                }
            }
        });
    }

    /// Walks the weight rows in ascending order, calling
    /// `f(item, codes, params)` with the next of `items` (one per input
    /// row), the row's codes and its group's parameters. Rows are
    /// byte-aligned when `d_out · BITS` is a multiple of 8; otherwise
    /// each row is decoded from its own bit offset.
    #[inline(always)]
    fn for_each_row<'a, const BITS: usize, T>(
        &'a self,
        mut items: impl Iterator<Item = T>,
        mut f: impl FnMut(T, Codes<'a, BITS>, &'a [GroupParams]),
    ) {
        let p = &self.packed;
        let (d_in, d_out, group) = (p.d_in, p.d_out, p.group_size);
        let groups = p.params.chunks_exact(d_out);
        if (d_out * BITS).is_multiple_of(8) {
            let row_bytes = d_out * BITS / 8;
            let rows = p.data[..d_in * row_bytes].chunks(group * row_bytes);
            for (params, rows) in groups.zip(rows) {
                for (bytes, item) in rows.chunks_exact(row_bytes).zip(items.by_ref()) {
                    f(item, Codes { bytes, shift: 0 }, params);
                }
            }
        } else {
            let starts = (0..d_in).step_by(group);
            for (params, start) in groups.zip(starts) {
                let rows = start..(start + group).min(d_in);
                for (i, item) in rows.zip(items.by_ref()) {
                    let bit = i * d_out * BITS;
                    let codes = Codes {
                        bytes: &p.data[bit / 8..],
                        shift: bit % 8,
                    };
                    f(item, codes, params);
                }
            }
        }
    }

    /// Whether the grid is one of the integer families (sanity queries
    /// for reports).
    pub fn is_integer_grid(&self) -> bool {
        matches!(self.packed.grid.kind(), GridKind::Int { .. })
    }
}

impl LinearOp for QuantizedLinear {
    fn d_in(&self) -> usize {
        QuantizedLinear::d_in(self)
    }

    fn d_out(&self) -> usize {
        QuantizedLinear::d_out(self)
    }

    /// Packed forward into the caller buffer.
    ///
    /// Row-independent by construction: each output row accumulates
    /// over ascending input rows in the same order whatever the batch
    /// size, so 1-row incremental decode is bit-identical to the
    /// full-sequence forward.
    ///
    /// # Determinism
    ///
    /// Single-threaded scalar loops: output and counters are
    /// bit-identical at any `APTQ_THREADS` value.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix, rec: Option<&mut Recorder>) {
        out.as_mut_slice().fill(0.0);
        self.accumulate(x, out, rec);
    }

    /// Allocating forward: the fresh output is already zero, so it is
    /// not cleared a second time.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value; see
    /// [`LinearOp::forward_into`].
    fn forward_op(&self, x: &Matrix, rec: Option<&mut Recorder>) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.packed.d_out);
        self.accumulate(x, &mut out, rec);
        out
    }
}

/// Codes decoded per stack buffer: a multiple of every width's block.
const CHUNK: usize = 256;

/// One weight row of a `BITS`-wide code stream — codes packed
/// little-endian in row-major order, as
/// [`aptq_core::pack::pack_codes`] writes them — decoded a block of
/// whole bytes at a time instead of bit by bit.
struct Codes<'a, const BITS: usize> {
    /// The stream from the byte holding the row's first code.
    bytes: &'a [u8],
    /// Bit offset of the row's first code inside `bytes[0]`: non-zero
    /// for some rows when `d_out · BITS % 8 ≠ 0`.
    shift: usize,
}

impl<const BITS: usize> Codes<'_, BITS> {
    /// Bytes per block: the fewest whole bytes holding whole codes.
    const BLOCK_BYTES: usize = BITS / gcd(BITS, 8);
    /// Codes per block: 4 bits pack 2 codes in 1 byte, 2 bits 4 codes
    /// in 1 byte, 3 bits 8 codes in 3 bytes.
    const BLOCK_CODES: usize = 8 / gcd(BITS, 8);
    const MASK: u64 = (1 << BITS) - 1;

    /// Calls `f(slot, w)` for each slot of `row` in ascending column
    /// order, where `w` is the column's weight dequantized by `deq`
    /// under its group parameters `params`. Codes are decoded into a
    /// [`CHUNK`]-code stack buffer first, so the dequantize loop runs
    /// over plain arrays.
    #[inline(always)]
    fn zip_dequantized(
        &self,
        params: &[GroupParams],
        row: &mut [f32],
        deq: impl Fn(u8, GroupParams) -> f32,
        mut f: impl FnMut(&mut f32, f32),
    ) {
        let mut buf = [0u8; CHUNK];
        let (mut row, mut params, mut bytes) = (row, params, self.bytes);
        loop {
            let n = row.len().min(CHUNK);
            let (slots, rest) = std::mem::take(&mut row).split_at_mut(n);
            let codes = &mut buf[..n];
            self.decode(bytes, codes);
            for ((slot, &g), &c) in slots.iter_mut().zip(params).zip(codes.iter()) {
                f(slot, deq(c, g));
            }
            if rest.is_empty() {
                return;
            }
            // CHUNK · BITS is a whole number of bytes, so the next
            // chunk starts at the same bit offset `shift`.
            row = rest;
            params = &params[n..];
            bytes = &bytes[n * BITS / 8..];
        }
    }

    /// Decodes `out.len()` codes starting `self.shift` bits into
    /// `bytes`, one block of whole bytes at a time.
    #[inline(always)]
    fn decode(&self, bytes: &[u8], out: &mut [u8]) {
        let full = out.len() / Self::BLOCK_CODES;
        let (body, tail) = out.split_at_mut(full * Self::BLOCK_CODES);
        let blocks = body.chunks_exact_mut(Self::BLOCK_CODES);
        if self.shift == 0 {
            for (codes, block) in blocks.zip(bytes.chunks_exact(Self::BLOCK_BYTES)) {
                codes.copy_from_slice(&Self::spread(le_word(block))[..Self::BLOCK_CODES]);
            }
        } else {
            // A misaligned block straddles one more byte.
            for (k, codes) in blocks.enumerate() {
                let at = k * Self::BLOCK_BYTES;
                let word = le_word(&bytes[at..=at + Self::BLOCK_BYTES]) >> self.shift;
                codes.copy_from_slice(&Self::spread(word)[..Self::BLOCK_CODES]);
            }
        }
        if !tail.is_empty() {
            let at = full * Self::BLOCK_BYTES;
            let end = (at + Self::BLOCK_BYTES + 1).min(bytes.len());
            let word = le_word(&bytes[at..end]) >> self.shift;
            tail.copy_from_slice(&Self::spread(word)[..tail.len()]);
        }
    }

    /// Moves the first block's codes in `word` (lowest bits first) to
    /// one byte each, halving the code run at each step: 4 + 4 codes to
    /// the two 32-bit lanes, 2 + 2 to 16-bit lanes, 1 + 1 to bytes.
    #[inline(always)]
    fn spread(word: u64) -> [u8; 8] {
        let mut t = word;
        if Self::BLOCK_CODES == 8 {
            let half = (1u64 << (4 * BITS)) - 1;
            t = (t & half) | ((t >> (4 * BITS)) & half) << 32;
        }
        if Self::BLOCK_CODES >= 4 {
            let pair = (1u64 << (2 * BITS)) - 1;
            let keep = pair | pair << 32;
            t = (t & keep) | (t & keep << (2 * BITS)) << (16 - 2 * BITS);
        }
        if Self::BLOCK_CODES >= 2 {
            let keep = Self::MASK * 0x0001_0001_0001_0001;
            t = (t & keep) | (t & keep << BITS) << (8 - BITS);
        }
        t.to_le_bytes()
    }
}

/// Little-endian value of up to 8 bytes.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

const fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_core::engine::{quantize_layer_obq, quantize_layer_rtn};
    use aptq_core::grid::{GridConfig, QuantGrid};
    use aptq_core::hessian::HessianAccumulator;
    use aptq_core::pack::unpack_codes_at_into;
    use aptq_tensor::init;

    /// The group-streamed reference kernel the production kernel
    /// replaced, kept as its oracle: unpack each group's codes bit by
    /// bit, dequantize them through [`QuantGrid::dequantize`] into a
    /// `group_size × d_out` scratch, then accumulate the partial
    /// product.
    fn oracle(q: &QuantizedLinear, x: &Matrix, mut rec: Option<&mut Recorder>) -> Matrix {
        let d_in = q.packed.d_in;
        let d_out = q.packed.d_out;
        assert_eq!(x.cols(), d_in, "QuantizedLinear: input width mismatch");
        let t = x.rows();
        let group = q.packed.group_size;
        let grid = q.packed.grid;
        let mut y = Matrix::zeros(t, d_out);
        let mut scratch = vec![0.0f32; group * d_out];
        let mut code_buf = vec![0u8; group * d_out];
        for g in 0..q.packed.n_groups() {
            let r0 = g * group;
            let r1 = (r0 + group).min(d_in);
            let rows = r1 - r0;
            let codes = &mut code_buf[..rows * d_out];
            unpack_codes_at_into(&q.packed.data, grid.bits(), r0 * d_out, codes);
            if let Some(r) = rec.as_deref_mut() {
                r.incr("qmodel/qlinear/groups_unpacked");
                r.add("qmodel/qlinear/codes_unpacked", (rows * d_out) as u64);
            }
            for (ri, chunk) in codes.chunks(d_out).enumerate() {
                for (c, &code) in chunk.iter().enumerate() {
                    let p = q.packed.params[g * d_out + c];
                    scratch[ri * d_out + c] = grid.dequantize(code, p);
                }
            }
            for row in 0..t {
                let x_row = &x.row(row)[r0..r1];
                let y_row = y.row_mut(row);
                for (ri, &xv) in x_row.iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
                    let w_row = &scratch[ri * d_out..(ri + 1) * d_out];
                    for (yv, &wv) in y_row.iter_mut().zip(w_row.iter()) {
                        *yv += xv * wv;
                    }
                }
            }
        }
        if let Some(r) = rec {
            r.incr("qmodel/qlinear/forward_calls");
            r.add("qmodel/qlinear/macs", (t * d_in * d_out) as u64);
            r.add("qmodel/qlinear/fallback_entries", 0);
        }
        y
    }

    #[test]
    fn kernel_matches_oracle_bit_for_bit() {
        // Every grid family and int width, aligned and misaligned rows
        // (odd d_out; d_out = 36 and 264 are misaligned only at odd
        // widths), rows spanning several decode blocks and, at d_out 264
        // and 300, two decode chunks, a d_in that is not a
        // multiple of the group size, and inputs with +0.0, −0.0 and
        // one non-finite entry. A second copy of each layer has an
        // infinite scale in group 0, column 0, so skipping exact-zero
        // inputs is observable: input row 0 is zero over all of group 0.
        let mut grids = vec![QuantGrid::binary(), QuantGrid::fp4()];
        for bits in 1..=8u8 {
            grids.push(QuantGrid::int(bits, true));
            grids.push(QuantGrid::int(bits, false));
        }
        let (d_in, group_size) = (13, 4);
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let counters = |r: &Recorder| -> Vec<(String, u64)> {
            r.counters().map(|(k, v)| (k.to_string(), v)).collect()
        };
        let mut seed = 0u64;
        for grid in grids {
            for d_out in [5usize, 8, 29, 36, 264, 300] {
                seed += 1;
                let mut rng = init::rng(seed);
                let w = init::normal(d_in, d_out, 0.5, &mut rng);
                let cfg = GridConfig {
                    group_size,
                    ..GridConfig::default()
                };
                let packed = quantize_layer_rtn(&w, grid, &cfg).packed;
                let mut poisoned = packed.clone();
                poisoned.params[0].scale = f32::INFINITY;
                for qlin in [QuantizedLinear::new(packed), QuantizedLinear::new(poisoned)] {
                    for t in [1usize, 3, 8] {
                        let mut x = init::normal(t, d_in, 1.0, &mut rng);
                        for r in 0..t {
                            x[(r, 1)] = 0.0;
                            x[(r, 2)] = -0.0;
                        }
                        x[(0, 0)] = -0.0;
                        x[(0, 3)] = 0.0;
                        let mut non_finite = x.clone();
                        non_finite[(t - 1, d_in - 2)] = if seed.is_multiple_of(2) {
                            f32::INFINITY
                        } else {
                            f32::NAN
                        };
                        for x in [x, non_finite] {
                            let case = format!("{grid:?} d_out={d_out} t={t}");
                            let mut want_rec = Recorder::new();
                            let want = oracle(&qlin, &x, Some(&mut want_rec));
                            let mut got_rec = Recorder::new();
                            let got = qlin.forward_recorded(&x, &mut got_rec);
                            assert_eq!(bits(&got), bits(&want), "{case}");
                            assert_eq!(counters(&got_rec), counters(&want_rec), "{case}");
                            // The caller-buffer path overwrites stale contents.
                            let mut out = Matrix::from_fn(t, d_out, |_, _| 7.0);
                            qlin.forward_into(&x, &mut out, None);
                            assert_eq!(bits(&out), bits(&want), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn short_parameter_table_panics_instead_of_skipping_rows() {
        // A deserialized PackedTensor bypasses `from_codes`' length
        // check; a table missing its last group must not silently stop
        // the row walk early.
        let mut rng = init::rng(21);
        let w = init::normal(12, 6, 0.5, &mut rng);
        let cfg = GridConfig {
            group_size: 4,
            ..GridConfig::default()
        };
        let mut packed = quantize_layer_rtn(&w, QuantGrid::int(4, true), &cfg).packed;
        packed.params.truncate(packed.params.len() - 6);
        let qlin = QuantizedLinear::new(packed);
        for t in [1usize, 3] {
            let x = init::normal(t, 12, 1.0, &mut rng);
            let res = std::panic::catch_unwind(|| qlin.forward(&x));
            let msg = res.expect_err("a short parameter table must panic");
            let msg = msg.downcast_ref::<String>().map(String::as_str);
            assert!(
                msg.is_some_and(|m| m.contains("group parameter table")),
                "t={t}: {msg:?}"
            );
        }
    }

    #[test]
    fn forward_matches_dequantized_matmul_exactly() {
        for bits in [2u8, 3, 4] {
            let mut rng = init::rng(bits as u64);
            let w = init::normal(24, 10, 0.5, &mut rng);
            let cfg = GridConfig {
                group_size: 8,
                ..GridConfig::default()
            };
            let res = quantize_layer_rtn(&w, QuantGrid::int(bits, true), &cfg);
            let qlin = QuantizedLinear::new(res.packed);
            let x = init::normal(5, 24, 1.0, &mut rng);
            let y = qlin.forward(&x);
            let want = x.matmul(&res.dequantized);
            for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-4, "bits={bits}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_matches_for_obq_quantized_layers() {
        let mut rng = init::rng(9);
        let x_cal = init::normal(40, 16, 1.0, &mut rng);
        let mut acc = HessianAccumulator::new(16);
        acc.update(&x_cal);
        let w = init::normal(16, 12, 0.4, &mut rng);
        let cfg = GridConfig {
            group_size: 8,
            ..GridConfig::default()
        };
        let res =
            quantize_layer_obq("t", &w, &acc.finish(), QuantGrid::int(4, true), &cfg).unwrap();
        let qlin = QuantizedLinear::new(res.packed);
        let x = init::normal(3, 16, 1.0, &mut rng);
        let y = qlin.forward(&x);
        let want = x.matmul(&res.dequantized);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn odd_group_boundaries_still_correct() {
        // d_out=5, bits=2 → group rows are not byte-aligned; exercises
        // the bit-offset unpacker.
        let mut rng = init::rng(11);
        let w = init::normal(12, 5, 0.5, &mut rng);
        let cfg = GridConfig {
            group_size: 4,
            ..GridConfig::default()
        };
        let res = quantize_layer_rtn(&w, QuantGrid::int(2, true), &cfg);
        let qlin = QuantizedLinear::new(res.packed);
        let x = init::normal(2, 12, 1.0, &mut rng);
        let y = qlin.forward(&x);
        let want = x.matmul(&res.dequantized);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn misaligned_groups_match_dequantized_matmul_and_never_fall_back() {
        // Odd d_out at every sub-byte width: group rows land at bit
        // offsets that straddle bytes ((r0·d_out·bits) % 8 ≠ 0 for most
        // groups). The forward must agree with the dequantized matmul,
        // touch each code exactly once, and never take a re-unpack
        // fallback (the counter exists so this stays asserted, not
        // assumed).
        for bits in [2u8, 3, 4] {
            let (d_in, d_out) = (20, 7);
            let mut rng = init::rng(100 + bits as u64);
            let w = init::normal(d_in, d_out, 0.5, &mut rng);
            let cfg = GridConfig {
                group_size: 4,
                ..GridConfig::default()
            };
            let res = quantize_layer_rtn(&w, QuantGrid::int(bits, true), &cfg);
            let qlin = QuantizedLinear::new(res.packed);
            let x = init::normal(3, d_in, 1.0, &mut rng);
            let mut rec = Recorder::new();
            let y = qlin.forward_recorded(&x, &mut rec);
            let want = x.matmul(&res.dequantized);
            for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-4, "bits={bits}: {a} vs {b}");
            }
            assert_eq!(rec.get("qmodel/qlinear/fallback_entries"), 0);
            assert_eq!(
                rec.get("qmodel/qlinear/codes_unpacked"),
                (d_in * d_out) as u64,
                "bits={bits}: each code must be unpacked exactly once"
            );
            assert_eq!(rec.get("qmodel/qlinear/groups_unpacked"), 5);
            assert_eq!(rec.get("qmodel/qlinear/forward_calls"), 1);
        }
    }

    #[test]
    fn metadata_accessors() {
        let w = Matrix::from_fn(8, 4, |i, j| (i * 4 + j) as f32 * 0.01);
        let res = quantize_layer_rtn(&w, QuantGrid::int(4, true), &GridConfig::default());
        let qlin = QuantizedLinear::new(res.packed);
        assert_eq!(qlin.d_in(), 8);
        assert_eq!(qlin.d_out(), 4);
        assert_eq!(qlin.bits(), 4);
        assert!(qlin.is_integer_grid());
        assert!(qlin.storage_bytes() > 0);
    }
}
