//! CRC/epoch/step message framing.
//!
//! The resilient halo exchange (PR 1) frames every payload with a three-slot
//! `f64` header — `[epoch, step, crc]` — so a receiver can distinguish a good
//! message from a damaged, stale, duplicated or lost one without any extra
//! round trips. The framing logic started life inside `swlb-sim`'s engine;
//! it lives here now so every protocol in the workspace (halo exchange, the
//! `swlb-serve` control plane) shares one integrity scheme, built on the
//! workspace CRC-32 from [`swlb_obs::integrity`].

use swlb_obs::{crc32, Crc32};

/// Frame header length: `[epoch, step, crc]` prepended to the payload.
pub const FRAME_HEADER: usize = 3;

/// CRC-32 over everything in the frame except the checksum slot itself
/// (each value as its 8 little-endian bytes). The payload is fed in blocks of
/// up to 4 KiB through a stack buffer, so the checksum runs at its block
/// speed with no allocation.
pub fn frame_crc(frame: &[f64]) -> u32 {
    const BLOCK: usize = 512;
    let mut c = Crc32::new();
    c.update(&frame[0].to_le_bytes());
    c.update(&frame[1].to_le_bytes());
    let mut buf = [0u8; BLOCK * 8];
    for chunk in frame[FRAME_HEADER..].chunks(BLOCK) {
        for (dst, x) in buf.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        c.update(&buf[..chunk.len() * 8]);
    }
    c.finish()
}

/// Stamp `epoch`/`step` into the header and fill in the checksum slot.
/// The payload (`frame[FRAME_HEADER..]`) must already be in place.
pub fn seal_frame(frame: &mut [f64], epoch: u64, step: u64) {
    assert!(frame.len() >= FRAME_HEADER, "frame too short for its header");
    frame[0] = epoch as f64;
    frame[1] = step as f64;
    frame[2] = frame_crc(frame) as f64;
}

/// Verdict on a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCheck {
    /// Checksum good, epoch and step match: consume the payload.
    Valid,
    /// Pre-rollback epoch or an already-consumed step (a duplicate): discard
    /// silently and keep waiting.
    Stale,
    /// Checksum failure — the payload was damaged in flight.
    Corrupt,
    /// A step *ahead* of the expected one: the expected message was lost and
    /// can never arrive (per-channel FIFO), so waiting is pointless.
    Gap,
}

/// Classify a received frame against the receiver's current `epoch`/`step`.
pub fn check_frame(data: &[f64], epoch: u64, step: u64) -> FrameCheck {
    if data.len() < FRAME_HEADER {
        return FrameCheck::Corrupt;
    }
    if frame_crc(data) as f64 != data[2] {
        return FrameCheck::Corrupt;
    }
    let (e, s) = (data[0] as u64, data[1] as u64);
    if e != epoch || s < step {
        return FrameCheck::Stale;
    }
    if s > step {
        return FrameCheck::Gap;
    }
    FrameCheck::Valid
}

/// One-shot CRC-32 of a byte body — the integrity check the `swlb-serve`
/// control plane carries in its `x-swlb-crc32` header. Same polynomial as the
/// f64 frame checksum, shared through the workspace base crate.
pub fn body_crc(body: &[u8]) -> u32 {
    crc32(body)
}

/// Serialize an f64 frame as little-endian bytes — lets a sealed frame travel
/// over a byte transport (the fleet heartbeat rides in an HTTP body) and be
/// re-checked with [`check_frame`] on the other side.
pub fn frame_to_bytes(frame: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.len() * 8);
    for x in frame {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode the byte form produced by [`frame_to_bytes`]. `None` when the
/// length is not a whole number of f64 slots or is too short to hold the
/// `[epoch, step, crc]` header — a truncated transport read, treated exactly
/// like a corrupt frame by callers.
pub fn frame_from_bytes(bytes: &[u8]) -> Option<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) || bytes.len() / 8 < FRAME_HEADER {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(epoch: u64, step: u64, payload: &[f64]) -> Vec<f64> {
        let mut f = vec![0.0; FRAME_HEADER];
        f.extend_from_slice(payload);
        seal_frame(&mut f, epoch, step);
        f
    }

    #[test]
    fn sealed_frame_is_valid_at_matching_epoch_step() {
        let f = sealed(2, 40, &[1.5, -2.25, 0.0]);
        assert_eq!(check_frame(&f, 2, 40), FrameCheck::Valid);
    }

    #[test]
    fn stale_gap_and_corrupt_are_distinguished() {
        let f = sealed(2, 40, &[1.5, -2.25]);
        // Older epoch or already-consumed step → Stale.
        assert_eq!(check_frame(&f, 3, 40), FrameCheck::Stale);
        assert_eq!(check_frame(&f, 2, 41), FrameCheck::Stale);
        // A step from the future → the expected one was lost → Gap.
        assert_eq!(check_frame(&f, 2, 39), FrameCheck::Gap);
        // Damage anywhere → Corrupt.
        let mut d = f.clone();
        d[4] += 1e-9;
        assert_eq!(check_frame(&d, 2, 40), FrameCheck::Corrupt);
        let mut h = f;
        h[0] += 1.0; // header damage breaks the checksum too
        assert_eq!(check_frame(&h, 2, 40), FrameCheck::Corrupt);
        // Truncated below the header is Corrupt, not a panic.
        assert_eq!(check_frame(&[1.0, 2.0], 2, 40), FrameCheck::Corrupt);
    }

    #[test]
    fn frame_crc_equals_crc_of_the_frame_bytes_without_its_crc_slot() {
        // Payloads shorter than, equal to and spanning several feed blocks.
        for n in [0usize, 1, 511, 512, 513, 1300] {
            let payload: Vec<f64> = (0..n).map(|i| i as f64 * 0.37 - 11.0).collect();
            let f = sealed(5, 9, &payload);
            let mut bytes = Vec::new();
            for x in f[..2].iter().chain(&f[FRAME_HEADER..]) {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            assert_eq!(frame_crc(&f), crc32(&bytes), "payload of {n}");
        }
    }

    #[test]
    fn body_crc_matches_workspace_crc() {
        assert_eq!(body_crc(b"123456789"), 0xCBF43926);
        assert_eq!(body_crc(b""), 0);
    }

    #[test]
    fn byte_transport_preserves_frame_validity() {
        let f = sealed(7, 123, &[3.0, 8.0, 16.0]);
        let bytes = frame_to_bytes(&f);
        let back = frame_from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(check_frame(&back, 7, 123), FrameCheck::Valid);
        // A flipped transport byte shows up as Corrupt after decode.
        let mut bad = bytes.clone();
        bad[30] ^= 0x01;
        let damaged = frame_from_bytes(&bad).unwrap();
        assert_eq!(check_frame(&damaged, 7, 123), FrameCheck::Corrupt);
        // Ragged or header-short byte strings fail to decode at all.
        assert!(frame_from_bytes(&bytes[..bytes.len() - 3]).is_none());
        assert!(frame_from_bytes(&bytes[..16]).is_none());
    }
}
