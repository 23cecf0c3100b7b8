//! Zero-copy frame reassembly for the receive path.
//!
//! The old receive path paid, per frame, at least two `read` syscalls (one
//! byte to distinguish orderly EOF, then the rest of the header, then the
//! payload) plus one zeroed allocation and one copy.  [`FrameAssembler`]
//! inverts the loop: the socket reader issues **one large read per wakeup**
//! into a per-connection [`BytesMut`] slab, and the assembler slices every
//! complete frame out of the slab as a refcounted [`bytes::Bytes`] view
//! (`split_to(..).freeze()` — pointer bookkeeping, no copy, no zeroing).
//! A partial frame at the tail simply stays buffered and is completed by
//! the next read.  In steady state a burst of N frames costs 1 syscall and
//! 0 per-frame heap allocations.
//!
//! ## Buffer ownership and lifetime
//!
//! Every [`bytes::Bytes`] payload handed out shares the read slab's
//! allocation.
//! The slab is reclaimed for reuse once **all** frames sliced from it have
//! been dropped; until then, `reserve` before the next read allocates a
//! fresh slab of the old one's size, never a larger one (one allocation per
//! ~`read_chunk` bytes of traffic — still amortized over many frames, never
//! per-frame).  A consumer that retains a payload long-term (e.g. a stored
//! subscription trigger) therefore pins at most one read chunk (plus the
//! partial frame carried over into it), and a reader that keeps payloads
//! of every read does not grow the slab it reads into; see DESIGN.md
//! "Zero-copy receive" for the full lifetime rules.
//!
//! The assembler owns no socket: [`FrameAssembler::read_from`] takes one
//! read from whatever `std::io::Read` it is given (a socket, a byte slice
//! in tests), [`FrameAssembler::feed`] takes bytes the caller already has.

use std::io;

use bytes::{Buf, BytesMut};

use crate::frame::{decode_header, HEADER_LEN, MAX_PAYLOAD};
use crate::WireMsg;

/// Default size of one read into the slab.  Large enough to swallow a
/// burst of typical E2 indications (a few hundred bytes each) in one
/// syscall, small enough that a pinned chunk is cheap.
pub const DEFAULT_READ_CHUNK: usize = 64 * 1024;

/// Most bytes one read is offered, however much of a payload is pending:
/// the offered tail is zero-filled first, and a socket read returns no more
/// than its buffer holds anyway.
const MAX_READ: usize = 256 * 1024;

/// Errors the reassembly loop can surface.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// A frame header announced a payload larger than [`MAX_PAYLOAD`].
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds maximum")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A header that has been consumed from the slab while its payload is
/// still (partially) in flight.
#[derive(Debug, Clone, Copy)]
struct Pending {
    len: usize,
    stream: u16,
    ppid: u32,
}

/// Buffered frame reassembly over a reusable read slab.
///
/// Feed bytes in with [`FrameAssembler::read_from`] (one read of a socket)
/// or [`FrameAssembler::feed`] (bytes already in hand), then drain complete
/// frames with [`FrameAssembler::next_frame`].
#[derive(Debug)]
pub struct FrameAssembler {
    buf: BytesMut,
    pending: Option<Pending>,
    read_chunk: usize,
    frames: u64,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAssembler {
    /// An assembler with the default read chunk.
    pub fn new() -> Self {
        Self::with_chunk(DEFAULT_READ_CHUNK)
    }

    /// An assembler that reserves `read_chunk` bytes ahead of each read.
    pub fn with_chunk(read_chunk: usize) -> Self {
        FrameAssembler {
            buf: BytesMut::new(),
            pending: None,
            read_chunk: read_chunk.max(HEADER_LEN),
            frames: 0,
        }
    }

    /// Extracts the next complete frame, or `None` if more bytes are
    /// needed.  The payload is a refcounted view of the read slab — no
    /// copy, no zeroing.
    pub fn next_frame(&mut self) -> Result<Option<WireMsg>, FrameError> {
        if self.pending.is_none() {
            if self.buf.len() < HEADER_LEN {
                return Ok(None);
            }
            let mut hdr = [0u8; HEADER_LEN];
            hdr.copy_from_slice(&self.buf[..HEADER_LEN]);
            let (len, stream, ppid) = decode_header(&hdr);
            if len as usize > MAX_PAYLOAD {
                return Err(FrameError::Oversized(len));
            }
            self.buf.advance(HEADER_LEN);
            self.pending = Some(Pending { len: len as usize, stream, ppid });
        }
        let need = self.pending.as_ref().expect("just set").len;
        if self.buf.len() < need {
            return Ok(None);
        }
        let p = self.pending.take().expect("just checked");
        let payload = self.buf.split_to(p.len).freeze();
        self.frames += 1;
        Ok(Some(WireMsg { stream: p.stream, ppid: p.ppid, payload }))
    }

    /// Issues one `read` on `rd` into the slab and returns what it returned
    /// (0 at end of stream).  Capacity is reserved first for at least the
    /// remainder of a pending payload (so an oversized frame completes
    /// without regrowing the slab), otherwise for one read chunk.
    pub fn read_from(&mut self, rd: &mut impl io::Read) -> io::Result<usize> {
        let want = match &self.pending {
            Some(p) if p.len > self.buf.len() => (p.len - self.buf.len()).max(self.read_chunk),
            _ => self.read_chunk,
        };
        self.buf.reserve(want);
        let filled = self.buf.len();
        self.buf.resize(filled + want.min(MAX_READ), 0);
        let res = rd.read(&mut self.buf[filled..]);
        self.buf.truncate(filled + *res.as_ref().unwrap_or(&0));
        res
    }

    /// Appends bytes by copy, for callers that hold the bytes already.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// True when the stream is at a frame boundary: no partial header or
    /// payload is buffered.  EOF here is an orderly shutdown; EOF anywhere
    /// else is mid-frame truncation.
    pub fn is_clean(&self) -> bool {
        self.pending.is_none() && self.buf.is_empty()
    }

    /// Bytes currently buffered (partial frames awaiting completion).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Total frames sliced out since construction.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_header;

    fn frame_bytes(stream: u16, ppid: u32, payload: &[u8]) -> Vec<u8> {
        let mut v = encode_header(payload.len() as u32, stream, ppid).to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn single_frame_roundtrip() {
        let mut asm = FrameAssembler::new();
        assert!(asm.next_frame().unwrap().is_none());
        asm.feed(&frame_bytes(3, 70, b"hello"));
        let m = asm.next_frame().unwrap().unwrap();
        assert_eq!(m.stream, 3);
        assert_eq!(m.ppid, 70);
        assert_eq!(&m.payload[..], b"hello");
        assert!(asm.is_clean());
        assert_eq!(asm.frames(), 1);
    }

    #[test]
    fn coalesced_burst_drains_without_refeeding() {
        let mut asm = FrameAssembler::new();
        let mut burst = Vec::new();
        for i in 0..50u16 {
            burst.extend_from_slice(&frame_bytes(i, 70, &vec![i as u8; i as usize]));
        }
        asm.feed(&burst);
        for i in 0..50u16 {
            let m = asm.next_frame().unwrap().unwrap();
            assert_eq!(m.stream, i);
            assert_eq!(m.payload.len(), i as usize);
            assert!(m.payload.iter().all(|&b| b == i as u8));
        }
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.is_clean());
    }

    #[test]
    fn one_byte_chunks_reassemble() {
        let mut asm = FrameAssembler::new();
        let wire = frame_bytes(1, 70, b"byte-at-a-time");
        let mut got = Vec::new();
        for b in &wire {
            asm.feed(std::slice::from_ref(b));
            if let Some(m) = asm.next_frame().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload[..], b"byte-at-a-time");
    }

    #[test]
    fn mid_header_split() {
        let mut asm = FrameAssembler::new();
        let wire = frame_bytes(9, 70, b"split");
        asm.feed(&wire[..4]); // half the length field's neighbourhood
        assert!(asm.next_frame().unwrap().is_none());
        assert!(!asm.is_clean());
        asm.feed(&wire[4..]);
        let m = asm.next_frame().unwrap().unwrap();
        assert_eq!(m.stream, 9);
        assert_eq!(&m.payload[..], b"split");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut asm = FrameAssembler::new();
        let hdr = encode_header((MAX_PAYLOAD + 1) as u32, 0, 70);
        asm.feed(&hdr);
        assert_eq!(asm.next_frame().unwrap_err(), FrameError::Oversized((MAX_PAYLOAD + 1) as u32));
    }

    #[test]
    fn empty_payload_frames() {
        let mut asm = FrameAssembler::new();
        asm.feed(&frame_bytes(0, 70, b""));
        asm.feed(&frame_bytes(1, 70, b""));
        assert_eq!(asm.next_frame().unwrap().unwrap().payload.len(), 0);
        assert_eq!(asm.next_frame().unwrap().unwrap().stream, 1);
        assert!(asm.is_clean());
    }

    #[test]
    fn payload_views_share_the_slab() {
        // Two frames fed in one chunk: both payloads are views of one
        // allocation (same backing range), proven by pointer arithmetic.
        let mut asm = FrameAssembler::new();
        let mut burst = frame_bytes(0, 70, &[0xAA; 100]);
        burst.extend_from_slice(&frame_bytes(1, 70, &[0xBB; 100]));
        asm.feed(&burst);
        let a = asm.next_frame().unwrap().unwrap().payload;
        let b = asm.next_frame().unwrap().unwrap().payload;
        let a_end = a.as_ptr() as usize + a.len();
        let b_start = b.as_ptr() as usize;
        assert_eq!(b_start - a_end, HEADER_LEN, "contiguous views of one slab");
    }

    #[test]
    fn pending_large_payload_reserves_remainder() {
        /// Notes how much room each read was offered; yields nothing.
        struct Offered(Vec<usize>);
        impl io::Read for Offered {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
        let mut asm = FrameAssembler::with_chunk(64);
        let payload = vec![0x5A; 10_000];
        let wire = frame_bytes(0, 70, &payload);
        asm.feed(&wire[..HEADER_LEN + 10]);
        assert!(asm.next_frame().unwrap().is_none());
        // After the header is consumed a read is offered the payload
        // remainder, not just one chunk — and a failed read leaves what
        // was buffered as it was.
        let mut rd = Offered(Vec::new());
        assert!(asm.read_from(&mut rd).is_err());
        assert_eq!(rd.0, [10_000 - 10]);
        assert_eq!(asm.buffered(), 10);
        asm.feed(&wire[HEADER_LEN + 10..]);
        let m = asm.next_frame().unwrap().unwrap();
        assert_eq!(m.payload.len(), 10_000);
    }

    #[test]
    fn read_from_takes_a_burst_in_one_read() {
        let mut wire = Vec::new();
        for i in 0..32u16 {
            wire.extend_from_slice(&frame_bytes(i, 70, &[i as u8; 200]));
        }
        let mut rd = &wire[..];
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.read_from(&mut rd).unwrap(), wire.len());
        for i in 0..32u16 {
            assert_eq!(asm.next_frame().unwrap().unwrap().stream, i);
        }
        assert!(asm.is_clean());
        assert_eq!(asm.read_from(&mut rd).unwrap(), 0, "end of stream");
    }

    /// A reader that keeps one payload of every read alive while it reads
    /// on pins one old slab per read; the slab it reads into must stay the
    /// size of a read, not double with every read.
    #[test]
    fn kept_payloads_do_not_ratchet_the_slab_up() {
        const CHUNK: usize = 4096;
        const FRAME: usize = 1000;
        let wire: Vec<u8> =
            (0..100u8).flat_map(|i| frame_bytes(1, 70, &[i; FRAME - HEADER_LEN])).collect();
        let (mut rd, mut asm, mut kept) =
            (&wire[..], FrameAssembler::with_chunk(CHUNK), Vec::new());
        for read in 0..12 {
            assert_eq!(asm.read_from(&mut rd).unwrap(), CHUNK);
            let payloads: Vec<_> = std::iter::from_fn(|| asm.next_frame().unwrap()).collect();
            kept.push(payloads[0].payload.clone());
            let cap = asm.buf.capacity();
            assert!(cap < 2 * (CHUNK + FRAME), "read {read}: a slab of {cap} bytes");
        }
    }
}
