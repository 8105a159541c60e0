//! Wire encoding for quantized vectors (the payload of the quantized dense
//! allgather stage of `SSAR_Split_allgather` under `.quantized()`, §6).
//!
//! Layout (little-endian):
//!
//! ```text
//! [0]      magic 0xQ5 (0xA5)
//! [1]      bits
//! [2..6]   bucket_size (u32)
//! [6..14]  dim (u64)
//! scales   nbuckets × f32   (nbuckets = ceil(dim / bucket_size))
//! packed   ceil(dim·bits/8) bytes
//! ```

use bytes::{Buf, Bytes};
use sparcml_stream::{Scalar, StreamError};

use crate::pack::packed_len;
use crate::qsgd::QuantizedVec;

const MAGIC: u8 = 0xA5;
const HEADER_LEN: usize = 14;

impl QuantizedVec {
    /// Serializes into a fresh contiguous buffer. Allocation-conscious
    /// callers use [`QuantizedVec::encode_into`] to reuse a buffer.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// Serializes into `out` (cleared first, capacity reused). The scale
    /// table and the packed codes are each written as one contiguous slab.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(HEADER_LEN + self.scales.len() * 4 + self.packed.len());
        out.push(MAGIC);
        out.push(self.bits);
        out.extend_from_slice(&(self.bucket_size as u32).to_le_bytes());
        out.extend_from_slice(&(self.dim as u64).to_le_bytes());
        f32::write_slab_le(&self.scales, out);
        out.extend_from_slice(&self.packed);
    }

    /// Exact byte length [`QuantizedVec::encode`] will produce.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.scales.len() * 4 + self.packed.len()
    }

    /// Decodes a buffer produced by [`QuantizedVec::encode`], validating
    /// the payload length against the header before any allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, StreamError> {
        let mut buf = bytes;
        if buf.remaining() < HEADER_LEN {
            return Err(StreamError::Truncated {
                needed: HEADER_LEN,
                got: buf.remaining(),
            });
        }
        if buf.get_u8() != MAGIC {
            return Err(StreamError::Corrupt("bad quantized magic"));
        }
        let bits = buf.get_u8();
        if !matches!(bits, 2 | 4 | 8) {
            return Err(StreamError::Corrupt("unsupported code width"));
        }
        let bucket_size = buf.get_u32_le() as usize;
        if bucket_size == 0 {
            return Err(StreamError::Corrupt("zero bucket size"));
        }
        let dim = buf.get_u64_le();
        let dim = usize::try_from(dim).map_err(|_| StreamError::Corrupt("dimension overflow"))?;
        let nbuckets = dim.div_ceil(bucket_size);
        let body = packed_len(dim, bits);
        let expect = nbuckets
            .checked_mul(4)
            .and_then(|s| s.checked_add(body))
            .ok_or(StreamError::Corrupt("payload length overflow"))?;
        if buf.remaining() < expect {
            return Err(StreamError::Truncated {
                needed: HEADER_LEN + expect,
                got: bytes.len(),
            });
        }
        if buf.remaining() > expect {
            return Err(StreamError::Corrupt(
                "trailing bytes after quantized payload",
            ));
        }
        let (scale_slab, packed_slab) = buf.split_at(nbuckets * 4);
        Ok(QuantizedVec {
            dim,
            bits,
            bucket_size,
            scales: f32::read_slab_le(scale_slab),
            packed: packed_slab.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsgd::{quantize, QsgdConfig};
    use sparcml_stream::XorShift64;

    #[test]
    fn encode_decode_round_trip() {
        let cfg = QsgdConfig {
            bits: 4,
            bucket_size: 32,
            norm: crate::qsgd::NormKind::MaxAbs,
        };
        let values: Vec<f32> = (0..100).map(|i| (i as f32 * 0.3).sin()).collect();
        let q = quantize(&values, &cfg, &mut XorShift64::new(5));
        let bytes = q.encode();
        let back = QuantizedVec::decode(&bytes).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn decode_rejects_truncation() {
        let cfg = QsgdConfig::paper_default();
        let q = quantize(&vec![1.0f32; 64], &cfg, &mut XorShift64::new(5));
        let bytes = q.encode();
        for cut in [0usize, 5, 13, bytes.len() - 1] {
            assert!(QuantizedVec::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let cfg = QsgdConfig::paper_default();
        let q = quantize(&vec![0.5f32; 100], &cfg, &mut XorShift64::new(9));
        let mut buf = Vec::new();
        q.encode_into(&mut buf);
        assert_eq!(buf.as_slice(), q.encode().as_ref());
        assert_eq!(buf.len(), q.encoded_len());
        // Reuse keeps the contents identical.
        q.encode_into(&mut buf);
        assert_eq!(buf.len(), q.encoded_len());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let cfg = QsgdConfig::paper_default();
        let q = quantize(&[1.0f32; 16], &cfg, &mut XorShift64::new(5));
        let mut bytes = q.encode().to_vec();
        bytes.push(0);
        assert!(QuantizedVec::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_bad_magic_and_width() {
        let cfg = QsgdConfig::paper_default();
        let q = quantize(&[1.0f32; 8], &cfg, &mut XorShift64::new(5));
        let mut bytes = q.encode().to_vec();
        bytes[0] = 0;
        assert!(QuantizedVec::decode(&bytes).is_err());
        let mut bytes = q.encode().to_vec();
        bytes[1] = 3;
        assert!(QuantizedVec::decode(&bytes).is_err());
    }
}
