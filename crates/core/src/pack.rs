//! Bit-packing of quantization codes and the packed-tensor container.
//!
//! The deployment story of mixed 2/4-bit quantization is storage: packed
//! codes plus per-group parameters. [`PackedTensor`] is that storage
//! format; [`PackedTensor::dequantize`] reconstructs the dense matrix the
//! simulated-quantization evaluation uses.

use aptq_tensor::num::usize_f32;
use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::grid::{GroupParams, QuantGrid};

/// Packs sub-byte codes little-endian into a byte buffer.
///
/// # Panics
///
/// Panics if `bits` is 0, above 8, or any code exceeds the bit-width.
pub fn pack_codes(codes: &[u8], bits: u8) -> Vec<u8> {
    assert!((1..=8).contains(&bits), "bits must be in 1..=8");
    let mask = ((1u16 << bits) - 1) as u8;
    let mut buf = Vec::with_capacity((codes.len() * bits as usize).div_ceil(8));
    let mut acc: u16 = 0;
    let mut nbits = 0u8;
    for &c in codes {
        assert!(c <= mask, "code {c} exceeds {bits}-bit range");
        acc |= u16::from(c) << nbits;
        nbits += bits;
        while nbits >= 8 {
            buf.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        buf.push((acc & 0xFF) as u8);
    }
    buf
}

/// Unpacks `count` codes of width `bits` from a buffer produced by
/// [`pack_codes`].
///
/// # Panics
///
/// Panics if the buffer is too short for `count` codes.
pub fn unpack_codes(data: &[u8], bits: u8, count: usize) -> Vec<u8> {
    unpack_codes_at(data, bits, 0, count)
}

/// Unpacks `count` codes starting at code index `start` (i.e. bit
/// offset `start * bits`) from a buffer produced by [`pack_codes`].
///
/// This is the random-access variant: a range whose first code does
/// not land on a byte boundary is decoded directly from its bit offset
/// instead of re-unpacking the whole stream from the start.
///
/// # Panics
///
/// Panics if the buffer is too short for `start + count` codes.
pub fn unpack_codes_at(data: &[u8], bits: u8, start: usize, count: usize) -> Vec<u8> {
    let mut out = vec![0u8; count];
    unpack_codes_at_into(data, bits, start, &mut out);
    out
}

/// [`unpack_codes_at`] writing into a caller-provided buffer, so a
/// caller decoding many ranges reuses one buffer instead of allocating
/// per range. Decodes exactly `out.len()` codes starting at code index
/// `start`, one bit-serial step per code: the reference decoder. The
/// packed forward pass (`aptq_qmodel::QuantizedLinear`) decodes whole
/// bytes at a time instead, and is tested against this decoder.
///
/// # Panics
///
/// Panics if the buffer is too short for `start + out.len()` codes.
pub fn unpack_codes_at_into(data: &[u8], bits: u8, start: usize, out: &mut [u8]) {
    assert!((1..=8).contains(&bits), "bits must be in 1..=8");
    let count = out.len();
    let start_bit = start * bits as usize;
    let needed = (start_bit + count * bits as usize).div_ceil(8);
    assert!(
        data.len() >= needed,
        "buffer too short: {} < {needed}",
        data.len()
    );
    let mask = (1u16 << bits) - 1;
    let mut idx = start_bit / 8;
    let skip = (start_bit % 8) as u8;
    let mut acc: u32 = 0;
    let mut nbits = 0u8;
    if count > 0 && skip > 0 {
        // Prime the accumulator with the tail of the straddled byte.
        acc = u32::from(data[idx]) >> skip;
        nbits = 8 - skip;
        idx += 1;
    }
    for slot in out.iter_mut() {
        while nbits < bits {
            acc |= u32::from(data[idx]) << nbits;
            idx += 1;
            nbits += 8;
        }
        *slot = (acc as u16 & mask) as u8;
        acc >>= bits;
        nbits -= bits;
    }
}

/// A quantized weight matrix in storage form: packed codes + per-group
/// parameters + the grid that interprets them.
///
/// Codes are stored row-major over the `d_in × d_out` layout used by the
/// model's [`aptq_lm::linear::Linear`]; groups run along the input
/// (row) dimension, with one [`GroupParams`] per `(group, column)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedTensor {
    /// Input dimension (rows).
    pub d_in: usize,
    /// Output dimension (columns).
    pub d_out: usize,
    /// Group size along the input dimension.
    pub group_size: usize,
    /// The grid codes were produced with.
    pub grid: QuantGrid,
    /// Packed codes (row-major).
    pub data: Vec<u8>,
    /// `(n_groups × d_out)` parameters, group-major.
    pub params: Vec<GroupParams>,
}

impl PackedTensor {
    /// Packs a full code matrix (`d_in × d_out`, row-major).
    ///
    /// # Panics
    ///
    /// Panics if sizes are inconsistent.
    pub fn from_codes(
        codes: &[u8],
        d_in: usize,
        d_out: usize,
        group_size: usize,
        grid: QuantGrid,
        params: Vec<GroupParams>,
    ) -> Self {
        assert_eq!(codes.len(), d_in * d_out, "code count mismatch");
        let n_groups = d_in.div_ceil(group_size);
        assert_eq!(params.len(), n_groups * d_out, "params count mismatch");
        let data = pack_codes(codes, grid.bits());
        crate::invariants::pack_roundtrip(codes, &data, grid.bits(), "PackedTensor::from_codes");
        PackedTensor {
            d_in,
            d_out,
            group_size,
            grid,
            data,
            params,
        }
    }

    /// Number of groups along the input dimension.
    pub fn n_groups(&self) -> usize {
        self.d_in.div_ceil(self.group_size)
    }

    /// Storage size in bytes: packed codes + fp16-equivalent parameters
    /// (scale as 2 bytes, zero as 1 byte per group entry).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + self.params.len() * 3
    }

    /// Effective bits per weight including group metadata.
    pub fn effective_bits(&self) -> f32 {
        usize_f32(self.storage_bytes()) * 8.0 / usize_f32(self.d_in * self.d_out)
    }

    /// Reconstructs the dense dequantized matrix.
    pub fn dequantize(&self) -> Matrix {
        let codes = unpack_codes(&self.data, self.grid.bits(), self.d_in * self.d_out);
        let mut m = Matrix::zeros(self.d_in, self.d_out);
        for i in 0..self.d_in {
            let g = i / self.group_size;
            for j in 0..self.d_out {
                let p = self.params[g * self.d_out + j];
                m[(i, j)] = self.grid.dequantize(codes[i * self.d_out + j], p);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip_all_widths() {
        for bits in 1..=8u8 {
            let max = 1usize << bits;
            let codes: Vec<u8> = (0..57).map(|i| (i * 7 % max) as u8).collect();
            let packed = pack_codes(&codes, bits);
            let back = unpack_codes(&packed, bits, codes.len());
            assert_eq!(back, codes, "bits={bits}");
        }
    }

    #[test]
    fn unpack_at_matches_full_unpack_every_offset() {
        // Every (bits, start) combination — including starts whose bit
        // offset straddles a byte — must agree with the full unpack.
        for bits in 1..=8u8 {
            let max = 1usize << bits;
            let codes: Vec<u8> = (0..61).map(|i| (i * 5 % max) as u8).collect();
            let packed = pack_codes(&codes, bits);
            for start in 0..codes.len() {
                let rest = codes.len() - start;
                for count in [0, 1.min(rest), 3.min(rest), rest] {
                    let got = unpack_codes_at(&packed, bits, start, count);
                    assert_eq!(
                        got,
                        &codes[start..start + count],
                        "bits={bits} start={start} count={count}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer too short")]
    fn unpack_at_rejects_out_of_range() {
        let packed = pack_codes(&[1, 2, 3], 4);
        let _ = unpack_codes_at(&packed, 4, 3, 2);
    }

    #[test]
    fn packing_is_compact() {
        let codes = vec![3u8; 100];
        assert_eq!(pack_codes(&codes, 2).len(), 25);
        assert_eq!(pack_codes(&codes, 4).len(), 50);
        let codes = vec![1u8; 9];
        assert_eq!(pack_codes(&codes, 1).len(), 2); // 9 bits → 2 bytes
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pack_rejects_oversized_codes() {
        pack_codes(&[4], 2);
    }

    #[test]
    fn packed_tensor_roundtrip() {
        let grid = QuantGrid::int(4, true);
        let d_in = 8;
        let d_out = 3;
        let group_size = 4;
        // Build a weight matrix, quantize per (group, column).
        let w = Matrix::from_fn(d_in, d_out, |i, j| ((i * 3 + j) as f32 * 0.37).sin());
        let n_groups = d_in / group_size;
        let mut codes = vec![0u8; d_in * d_out];
        let mut params = vec![
            GroupParams {
                scale: 1.0,
                zero: 0
            };
            n_groups * d_out
        ];
        let mut expect = Matrix::zeros(d_in, d_out);
        for g in 0..n_groups {
            for j in 0..d_out {
                let col: Vec<f32> = (0..group_size)
                    .map(|r| w[(g * group_size + r, j)])
                    .collect();
                let p = grid.fit_params(&col);
                params[g * d_out + j] = p;
                for r in 0..group_size {
                    let (c, d) = grid.quantize(col[r], p);
                    codes[(g * group_size + r) * d_out + j] = c;
                    expect[(g * group_size + r, j)] = d;
                }
            }
        }
        let packed = PackedTensor::from_codes(&codes, d_in, d_out, group_size, grid, params);
        assert_eq!(packed.dequantize(), expect);
        assert_eq!(packed.n_groups(), 2);
    }

    #[test]
    fn effective_bits_accounts_for_metadata() {
        let grid = QuantGrid::int(4, true);
        let d_in = 64;
        let d_out = 64;
        let codes = vec![0u8; d_in * d_out];
        let params = vec![
            GroupParams {
                scale: 1.0,
                zero: 0
            };
            (d_in / 32) * d_out
        ];
        let packed = PackedTensor::from_codes(&codes, d_in, d_out, 32, grid, params);
        let eff = packed.effective_bits();
        assert!(eff > 4.0, "metadata adds overhead: {eff}");
        assert!(eff < 5.5, "overhead should be small: {eff}");
    }

    #[test]
    fn storage_shrinks_with_fewer_bits() {
        let d_in = 32;
        let d_out = 32;
        let params4 = vec![
            GroupParams {
                scale: 1.0,
                zero: 0
            };
            d_out
        ];
        let p4 = PackedTensor::from_codes(
            &vec![0u8; d_in * d_out],
            d_in,
            d_out,
            32,
            QuantGrid::int(4, true),
            params4.clone(),
        );
        let p2 = PackedTensor::from_codes(
            &vec![0u8; d_in * d_out],
            d_in,
            d_out,
            32,
            QuantGrid::int(2, true),
            params4,
        );
        assert!(p2.storage_bytes() < p4.storage_bytes());
    }

    #[test]
    fn serde_roundtrip() {
        let grid = QuantGrid::int(2, true);
        let packed = PackedTensor::from_codes(
            &[0, 1, 2, 3],
            2,
            2,
            2,
            grid,
            vec![
                GroupParams {
                    scale: 0.5,
                    zero: 1
                };
                2
            ],
        );
        let json = serde_json::to_string(&packed).unwrap();
        let back: PackedTensor = serde_json::from_str(&json).unwrap();
        assert_eq!(packed, back);
    }
}
