//! SCTP-like framed transport over TCP.
//!
//! The receive side runs on [`FrameAssembler`]: one large `read_buf` per
//! socket wakeup into a reusable slab, every complete frame sliced out as
//! a refcounted [`Bytes`] view — 1 syscall and 0 per-frame allocations for
//! an N-frame burst.

use std::io;

use tokio::io::{AsyncRead, AsyncReadExt, AsyncWriteExt, BufWriter};
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::TcpStream;

use crate::frame::{self, HEADER_LEN};
use crate::rx::{FrameAssembler, FrameError};
use crate::WireMsg;

/// A connected framed-TCP transport.
#[derive(Debug)]
pub struct TcpConn {
    tx: TcpSendHalf,
    rx: TcpRecvHalf,
    peer: String,
}

impl TcpConn {
    /// Wraps a connected `TcpStream`.
    pub fn new(stream: TcpStream) -> Self {
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_owned());
        let (rd, wr) = stream.into_split();
        TcpConn {
            tx: TcpSendHalf { wr: BufWriter::new(wr), hdr_scratch: Vec::new() },
            rx: TcpRecvHalf { rd: FramedReader::new(rd) },
            peer,
        }
    }

    /// Sends one message.
    pub async fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        self.tx.send(msg).await
    }

    /// Receives the next message; `None` on orderly shutdown.
    pub async fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.rx.recv().await
    }

    /// Splits into owned halves.
    pub fn split(self) -> (TcpSendHalf, TcpRecvHalf) {
        (self.tx, self.rx)
    }

    /// Peer address, for logs.
    pub fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// Payloads at least this large bypass the `BufWriter` staging copy and go
/// out as one vectored (header, payload) write instead.  `send_batch`
/// applies the same threshold to the whole batch: once the coalesced batch
/// exceeds it, the frames go to the kernel as one vectored write with no
/// staging copy at all.
const VECTORED_MIN: usize = 8 * 1024;

/// Maximum frames per vectored `writev` (2 `IoSlice`s per frame, safely
/// under Linux's `IOV_MAX` of 1024).
const VECTORED_MAX_FRAMES: usize = 64;

/// Owned send half.
#[derive(Debug)]
pub struct TcpSendHalf {
    wr: BufWriter<OwnedWriteHalf>,
    /// Reusable header storage for vectored batches (stable addresses for
    /// the `IoSlice`s while a `writev` is in flight).
    hdr_scratch: Vec<[u8; HEADER_LEN]>,
}

impl TcpSendHalf {
    /// Writes one frame without flushing.
    ///
    /// Small payloads are staged in the `BufWriter` as header-then-payload —
    /// no per-frame buffer allocation and no header+payload re-copy.  Large
    /// payloads skip staging entirely: the buffered bytes are flushed and
    /// the (header, payload) pair is handed to the kernel as a vectored
    /// write.
    async fn write_frame(&mut self, msg: &WireMsg) -> io::Result<()> {
        let header = frame::encode_header(msg.payload.len() as u32, msg.stream, msg.ppid);
        if msg.payload.len() < VECTORED_MIN {
            self.wr.write_all(&header).await?;
            return self.wr.write_all(&msg.payload).await;
        }
        self.wr.flush().await?;
        let sock = self.wr.get_mut();
        let mut hdr_sent = 0usize;
        let mut pay_sent = 0usize;
        while hdr_sent < HEADER_LEN || pay_sent < msg.payload.len() {
            // Short writes attribute to the header first, so the payload
            // slice only advances once the header is fully out.
            let n = if hdr_sent < HEADER_LEN {
                let bufs = [io::IoSlice::new(&header[hdr_sent..]), io::IoSlice::new(&msg.payload)];
                sock.write_vectored(&bufs).await?
            } else {
                sock.write(&msg.payload[pay_sent..]).await?
            };
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed mid-frame"));
            }
            let for_header = n.min(HEADER_LEN - hdr_sent);
            hdr_sent += for_header;
            pay_sent += n - for_header;
        }
        Ok(())
    }

    /// Sends one message (header + payload, flushed).
    pub async fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        self.write_frame(&msg).await?;
        // Flush per message: E2 traffic is latency sensitive and messages
        // are the unit of exchange; Nagle is already disabled.
        self.wr.flush().await
    }

    /// Sends a batch of messages with adaptive coalescing.
    ///
    /// Small batches (total under [`VECTORED_MIN`]) are staged through the
    /// `BufWriter` and flushed once — one syscall, one staging copy.
    /// Larger batches skip the staging copy entirely: headers are encoded
    /// into a reusable scratch vector and up to [`VECTORED_MAX_FRAMES`]
    /// frames at a time go to the kernel as a single vectored `writev` of
    /// (header, payload) pairs, reading the payload `Bytes` in place.
    pub async fn send_batch(&mut self, msgs: &[WireMsg]) -> io::Result<()> {
        let total: usize = msgs.iter().map(|m| HEADER_LEN + m.payload.len()).sum();
        if total < VECTORED_MIN {
            for msg in msgs {
                self.write_frame(msg).await?;
            }
            return self.wr.flush().await;
        }
        // Vectored path: drain anything already staged, then writev the
        // batch without copying payloads.
        self.wr.flush().await?;
        for group in msgs.chunks(VECTORED_MAX_FRAMES) {
            self.hdr_scratch.clear();
            for msg in group {
                self.hdr_scratch.push(frame::encode_header(
                    msg.payload.len() as u32,
                    msg.stream,
                    msg.ppid,
                ));
            }
            let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(group.len() * 2);
            for (msg, hdr) in group.iter().zip(&self.hdr_scratch) {
                slices.push(io::IoSlice::new(hdr));
                if !msg.payload.is_empty() {
                    slices.push(io::IoSlice::new(&msg.payload));
                }
            }
            write_all_vectored(self.wr.get_mut(), &mut slices).await?;
        }
        Ok(())
    }
}

/// Writes every byte of `slices`, handling short writes via
/// `IoSlice::advance_slices`.
async fn write_all_vectored(
    sock: &mut OwnedWriteHalf,
    slices: &mut [io::IoSlice<'_>],
) -> io::Result<()> {
    let mut remaining: usize = slices.iter().map(|s| s.len()).sum();
    let mut slices = slices;
    while remaining > 0 {
        let n = sock.write_vectored(slices).await?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed mid-batch"));
        }
        remaining -= n;
        if remaining == 0 {
            break;
        }
        io::IoSlice::advance_slices(&mut slices, n);
    }
    Ok(())
}

/// Framed reader over any async byte stream: the reassembly loop behind
/// [`TcpRecvHalf`], kept generic so tests and benchmarks can drive it over
/// an in-memory duplex.
#[derive(Debug)]
pub struct FramedReader<R> {
    rd: R,
    asm: FrameAssembler,
    /// Successful non-empty reads issued so far.
    reads: u64,
    /// Frames extracted since the last read, for the per-wakeup histogram.
    frames_since_read: u64,
}

impl<R: AsyncRead + Unpin> FramedReader<R> {
    /// Wraps a byte stream.
    pub fn new(rd: R) -> Self {
        FramedReader { rd, asm: FrameAssembler::new(), reads: 0, frames_since_read: 0 }
    }

    /// Receives the next message; `None` on orderly shutdown at a frame
    /// boundary, an error on mid-frame truncation or oversized frames.
    ///
    /// Buffered frames are returned without touching the socket; a read is
    /// only issued once the slab holds no complete frame.
    pub async fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        loop {
            match self.asm.next_frame() {
                Ok(Some(msg)) => {
                    self.frames_since_read += 1;
                    return Ok(Some(msg));
                }
                Ok(None) => {}
                Err(e @ FrameError::Oversized(_)) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            self.note_wakeup();
            let n = self.rd.read_buf(self.asm.read_slab()).await?;
            if n == 0 {
                return if self.asm.is_clean() {
                    Ok(None)
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "socket closed mid-frame"))
                };
            }
            self.reads += 1;
        }
    }

    /// Flushes the frames-per-wakeup accounting ahead of a blocking read
    /// (or at EOF): everything extracted since the previous read was
    /// delivered by that single syscall.
    fn note_wakeup(&mut self) {
        if self.frames_since_read > 0 {
            crate::obs().read_frames_per_wakeup.record(self.frames_since_read);
            self.frames_since_read = 0;
        }
    }

    /// Successful non-empty reads issued so far (regression tests assert a
    /// burst is consumed in a single read).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Frames extracted so far.
    pub fn frames(&self) -> u64 {
        self.asm.frames()
    }
}

/// Owned receive half.
#[derive(Debug)]
pub struct TcpRecvHalf {
    rd: FramedReader<OwnedReadHalf>,
}

impl TcpRecvHalf {
    /// Receives the next message; `None` on orderly shutdown at a frame
    /// boundary, an error on mid-frame truncation or oversized frames.
    pub async fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.rd.recv().await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn burst(n: u16, payload_len: usize) -> BytesMut {
        let mut buf = BytesMut::new();
        for i in 0..n {
            let payload = vec![i as u8; payload_len];
            frame::encode_frame_into(i, 70, &payload, &mut buf);
        }
        buf
    }

    /// Regression for the 1-byte-then-9-byte header read: a multi-frame
    /// burst written in one piece must be consumed in a SINGLE read —
    /// not 2+ syscalls per frame.
    #[tokio::test]
    async fn burst_consumed_in_single_read_over_duplex() {
        let (mut a, b) = tokio::io::duplex(1 << 20);
        let wire = burst(32, 200);
        a.write_all(&wire).await.unwrap();
        let mut rd = FramedReader::new(b);
        for i in 0..32u16 {
            let m = rd.recv().await.unwrap().unwrap();
            assert_eq!(m.stream, i);
            assert_eq!(m.payload.len(), 200);
        }
        assert_eq!(rd.reads(), 1, "whole burst in one read");
        assert_eq!(rd.frames(), 32);
    }

    #[tokio::test]
    async fn duplex_eof_mid_frame_is_an_error() {
        let (mut a, b) = tokio::io::duplex(1 << 16);
        let wire = burst(1, 500);
        a.write_all(&wire[..wire.len() - 100]).await.unwrap();
        drop(a); // truncate mid-payload
        let mut rd = FramedReader::new(b);
        let err = rd.recv().await.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[tokio::test]
    async fn duplex_eof_at_boundary_is_none() {
        let (mut a, b) = tokio::io::duplex(1 << 16);
        let wire = burst(3, 50);
        a.write_all(&wire).await.unwrap();
        drop(a);
        let mut rd = FramedReader::new(b);
        for _ in 0..3 {
            assert!(rd.recv().await.unwrap().is_some());
        }
        assert!(rd.recv().await.unwrap().is_none());
    }
}
