//! SCTP-like framed transport over TCP.
//!
//! The receive side runs on [`FrameAssembler`]: one large read per socket
//! wakeup into a reusable slab, every complete frame sliced out as a
//! refcounted [`bytes::Bytes`] view — 1 syscall and 0 per-frame
//! allocations for an N-frame burst.

use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::{self, HEADER_LEN};
use crate::rx::{FrameAssembler, FrameError};
use crate::WireMsg;

/// One socket, shared by the send half, the receive half and whoever shuts
/// it down: `&TcpStream` reads and writes, so a connection costs one file
/// descriptor however many threads hold it.
#[derive(Debug, Clone)]
pub(crate) struct Sock(Arc<TcpStream>);

impl Sock {
    /// Ends a blocked or future read with end-of-stream.
    pub(crate) fn shutdown_read(&self) {
        let _ = self.0.shutdown(Shutdown::Read);
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self.0).write(buf)
    }
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        (&*self.0).write_vectored(bufs)
    }
    fn flush(&mut self) -> io::Result<()> {
        (&*self.0).flush()
    }
}

/// A connected framed-TCP transport.
#[derive(Debug)]
pub struct TcpConn {
    tx: TcpSendHalf,
    rx: TcpRecvHalf,
    peer: String,
}

impl TcpConn {
    /// Wraps a connected `TcpStream` (Nagle off: messages are the unit of
    /// exchange and every send flushes).
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_owned());
        let sock = Sock(Arc::new(stream));
        Ok(TcpConn {
            tx: TcpSendHalf { wr: BufWriter::new(sock.clone()), hdr_scratch: Vec::new() },
            rx: TcpRecvHalf { rd: FramedReader::new(sock) },
            peer,
        })
    }

    /// Sends one message.
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        self.tx.send(msg)
    }

    /// Receives the next message; `None` on orderly shutdown.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.rx.recv()
    }

    /// Splits into owned halves.
    pub fn split(self) -> (TcpSendHalf, TcpRecvHalf) {
        (self.tx, self.rx)
    }

    /// Peer address, for logs.
    pub fn peer(&self) -> String {
        self.peer.clone()
    }

    pub(crate) fn recv_half(&mut self) -> &mut TcpRecvHalf {
        &mut self.rx
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

/// Owned send half.  Dropping it flushes and shuts the write direction
/// down, so the peer reads end-of-stream even while the receive half of
/// the same socket lives on.
#[derive(Debug)]
pub struct TcpSendHalf {
    wr: BufWriter<Sock>,
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
    fn write_frame(&mut self, msg: &WireMsg) -> io::Result<()> {
        let header = frame::encode_header(msg.payload.len() as u32, msg.stream, msg.ppid);
        if msg.payload.len() < VECTORED_MIN {
            self.wr.write_all(&header)?;
            return self.wr.write_all(&msg.payload);
        }
        self.wr.flush()?;
        let mut slices = [io::IoSlice::new(&header), io::IoSlice::new(&msg.payload)];
        write_all_vectored(self.wr.get_mut(), &mut slices)
    }

    /// Sends one message (header + payload, flushed).
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        self.write_frame(&msg)?;
        // Flush per message: E2 traffic is latency sensitive and messages
        // are the unit of exchange; Nagle is already disabled.
        self.wr.flush()
    }

    /// Sends a batch of messages with adaptive coalescing.
    ///
    /// Small batches (total under `VECTORED_MIN`) are staged through the
    /// `BufWriter` and flushed once — one syscall, one staging copy.
    /// Larger batches skip the staging copy entirely: headers are encoded
    /// into a reusable scratch vector and up to `VECTORED_MAX_FRAMES`
    /// frames at a time go to the kernel as a single vectored `writev` of
    /// (header, payload) pairs, reading the payload `Bytes` in place.
    pub fn send_batch(&mut self, msgs: &[WireMsg]) -> io::Result<()> {
        let total: usize = msgs.iter().map(|m| HEADER_LEN + m.payload.len()).sum();
        if total < VECTORED_MIN {
            for msg in msgs {
                self.write_frame(msg)?;
            }
            return self.wr.flush();
        }
        // Vectored path: drain anything already staged, then writev the
        // batch without copying payloads.
        self.wr.flush()?;
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
            write_all_vectored(self.wr.get_mut(), &mut slices)?;
        }
        Ok(())
    }
}

impl Drop for TcpSendHalf {
    fn drop(&mut self) {
        let _ = self.wr.flush();
        let _ = self.wr.get_ref().0.shutdown(Shutdown::Write);
    }
}

/// Writes every byte of `slices`, handling short writes via
/// `IoSlice::advance_slices`.
fn write_all_vectored(sock: &mut Sock, slices: &mut [io::IoSlice<'_>]) -> io::Result<()> {
    let mut remaining: usize = slices.iter().map(|s| s.len()).sum();
    let mut slices = slices;
    while remaining > 0 {
        let n = match sock.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed mid-write"))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        remaining -= n;
        if remaining == 0 {
            break;
        }
        io::IoSlice::advance_slices(&mut slices, n);
    }
    Ok(())
}

/// Framed reader over any byte stream: the reassembly loop behind
/// [`TcpRecvHalf`], kept generic so tests can drive it over a byte slice.
#[derive(Debug)]
pub struct FramedReader<R> {
    rd: R,
    asm: FrameAssembler,
    /// Successful non-empty reads issued so far.
    reads: u64,
    /// Frames extracted since the last read, for the per-wakeup histogram.
    frames_since_read: u64,
}

impl<R: Read> FramedReader<R> {
    /// Wraps a byte stream.
    pub fn new(rd: R) -> Self {
        FramedReader { rd, asm: FrameAssembler::new(), reads: 0, frames_since_read: 0 }
    }

    /// Receives the next message; `None` on orderly shutdown at a frame
    /// boundary, an error on mid-frame truncation or oversized frames.
    ///
    /// Buffered frames are returned without touching the socket; a read is
    /// only issued once the slab holds no complete frame.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.recv_with(|_| Ok(()))
    }

    /// [`recv`](Self::recv) with `before_read` run ahead of every read of
    /// the stream (the TCP half arms its deadline there).  An error from it
    /// or from the read leaves what is buffered intact.
    fn recv_with(
        &mut self,
        mut before_read: impl FnMut(&mut R) -> io::Result<()>,
    ) -> io::Result<Option<WireMsg>> {
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
            before_read(&mut self.rd)?;
            let n = match self.asm.read_from(&mut self.rd) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                res => res?,
            };
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
    rd: FramedReader<Sock>,
}

impl TcpRecvHalf {
    /// Receives the next message; `None` on orderly shutdown at a frame
    /// boundary, an error on mid-frame truncation or oversized frames.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.rd.recv()
    }

    /// [`recv`](Self::recv) that gives up with `ErrorKind::TimedOut` once
    /// `timeout` has passed without a complete message — however the peer
    /// spaces its bytes.  The half stays usable.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        let deadline = Instant::now() + timeout;
        let res = self.rd.recv_with(|sock| {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            sock.0.set_read_timeout(Some(left))
        });
        self.rd.rd.0.set_read_timeout(None)?;
        // A read that ran into the socket's timeout reports `WouldBlock`.
        res.map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
            _ => e,
        })
    }

    /// A handle on the socket, for shutting the read direction down from
    /// another thread.
    pub(crate) fn socket(&self) -> Sock {
        self.rd.rd.clone()
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
    #[test]
    fn burst_consumed_in_single_read() {
        let wire = burst(32, 200);
        let mut rd = FramedReader::new(&wire[..]);
        for i in 0..32u16 {
            let m = rd.recv().unwrap().unwrap();
            assert_eq!(m.stream, i);
            assert_eq!(m.payload.len(), 200);
        }
        assert_eq!(rd.reads(), 1, "whole burst in one read");
        assert_eq!(rd.frames(), 32);
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let wire = burst(1, 500);
        let mut rd = FramedReader::new(&wire[..wire.len() - 100]); // truncate mid-payload
        let err = rd.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn eof_at_boundary_is_none() {
        let wire = burst(3, 50);
        let mut rd = FramedReader::new(&wire[..]);
        for _ in 0..3 {
            assert!(rd.recv().unwrap().is_some());
        }
        assert!(rd.recv().unwrap().is_none());
    }
}
