//! Pool of receive/send frame allocations of the socket transport
//! ([`crate::ReactorTransport`]).

use std::sync::{Arc, Mutex};

use bytes::Bytes;

/// Frame buffers retained for reuse; beyond this, returned buffers drop.
const MAX_POOLED_FRAMES: usize = 32;

/// Shared pool of receive/send frame allocations.
///
/// Read paths acquire exact-size buffers from it; write paths reclaim
/// each sent payload's allocation once the bytes are on the wire (the
/// transport is the sole owner of a sent frame in the steady state), so
/// one collective's send buffers become the next round's receive buffers
/// without touching the allocator.
#[derive(Clone, Debug, Default)]
pub(crate) struct FramePool(Arc<Mutex<Vec<Vec<u8>>>>);

impl FramePool {
    /// Hands out an initialized buffer of exactly `len` bytes, reusing a
    /// pooled allocation when one is available. Recycled buffers keep
    /// their (stale but initialized) contents — callers fully overwrite
    /// them with exact-size reads — so the hot receive path skips the
    /// whole-buffer memset a `resize` from empty would pay.
    pub(crate) fn acquire(&self, len: usize) -> Vec<u8> {
        let mut buf = self
            .0
            .lock()
            .expect("frame pool lock")
            .pop()
            .unwrap_or_default();
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0);
        }
        buf
    }

    /// Returns an allocation to the pool (dropped beyond the cap).
    pub(crate) fn reclaim_vec(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.0.lock().expect("frame pool lock");
        if free.len() < MAX_POOLED_FRAMES {
            free.push(buf);
        }
    }

    /// Reclaims a sent frame: zero-copy when the writer is the sole owner
    /// of the `Bytes` (the common case — the collective moved its pooled
    /// encode buffer onto the wire), a copy otherwise.
    pub(crate) fn reclaim(&self, payload: Bytes) {
        self.reclaim_vec(Vec::from(payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_pool_recycles_allocations() {
        let pool = FramePool::default();
        let buf = pool.acquire(1024);
        let ptr = buf.as_ptr();
        pool.reclaim(Bytes::from(buf));
        let again = pool.acquire(512);
        assert_eq!(again.as_ptr(), ptr, "allocation must be reused");
        assert_eq!(again.len(), 512);
    }
}
