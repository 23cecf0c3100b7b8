//! SCTP-like framed transport over TCP.
//!
//! The receive side runs on [`FrameAssembler`]: one large read per socket
//! wakeup into a reusable slab, every complete frame sliced out as a
//! refcounted [`bytes::Bytes`] view — 1 syscall and 0 per-frame
//! allocations for an N-frame burst.  The send side writes a batch of
//! frames as (header, payload) pairs in vectored writes, reading each
//! payload in place.
//!
//! A [`TcpConn`] blocks its caller, or, once its socket is made
//! non-blocking, answers `WouldBlock` and is driven by an event loop:
//! [`TcpConn::recv`] until it would block, [`TcpConn::write`] a batch
//! until it is out or the socket would block.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::frame::{self, HEADER_LEN};
use crate::rx::{FrameAssembler, FrameError};
use crate::WireMsg;

/// A connected framed-TCP transport.
#[derive(Debug)]
pub struct TcpConn {
    rd: FramedReader<TcpStream>,
    peer: String,
    /// Header storage of the batch being written (stable addresses for the
    /// `IoSlice`s of one `writev`).
    hdrs: Vec<[u8; HEADER_LEN]>,
}

impl TcpConn {
    /// Wraps a connected `TcpStream` (Nagle off: messages are the unit of
    /// exchange and every write goes out at once).
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_owned());
        Ok(TcpConn { rd: FramedReader::new(stream), peer, hdrs: Vec::new() })
    }

    /// The socket, for its options and its descriptor.
    pub fn socket(&self) -> &TcpStream {
        &self.rd.rd
    }

    /// Sends one message (blocks until it is with the kernel).
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        self.write(std::slice::from_ref(&msg), &mut 0).map(drop)
    }

    /// Writes `batch` on from its byte `*done`, advancing `*done`: `true`
    /// once all of it is written, `false` when a non-blocking socket would
    /// block first.  The batch goes to the kernel as one vectored write of
    /// (header, payload) pairs, so it holds at most 512 frames (Linux's
    /// `IOV_MAX` is 1024).
    pub fn write(&mut self, batch: &[WireMsg], done: &mut usize) -> io::Result<bool> {
        let m = crate::obs();
        let _t = m.write_ns.timer();
        self.hdrs.clear();
        let encode = |w: &WireMsg| frame::encode_header(w.payload.len() as u32, w.stream, w.ppid);
        self.hdrs.extend(batch.iter().map(encode));
        let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(2 * batch.len());
        for (msg, hdr) in batch.iter().zip(&self.hdrs) {
            slices.push(io::IoSlice::new(hdr));
            slices.push(io::IoSlice::new(&msg.payload));
        }
        let len: usize = slices.iter().map(|s| s.len()).sum();
        let mut slices = &mut slices[..];
        io::IoSlice::advance_slices(&mut slices, *done);
        while *done < len {
            match (&self.rd.rd).write_vectored(slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    *done += n;
                    io::IoSlice::advance_slices(&mut slices, n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        m.tx_frames.add(batch.len() as u64);
        m.tx_bytes.add(batch.iter().map(|w| w.payload.len() as u64).sum());
        Ok(true)
    }

    /// Receives the next message; `None` on orderly shutdown at a frame
    /// boundary, an error on mid-frame truncation or oversized frames, and
    /// `WouldBlock` from a non-blocking socket with nothing complete
    /// buffered.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.rd.recv()
    }

    /// [`recv`](Self::recv) that gives up with `ErrorKind::TimedOut` once
    /// `timeout` has passed without a complete message — however the peer
    /// spaces its bytes.  The connection stays usable.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        let deadline = Instant::now() + timeout;
        let res = self.rd.recv_with(|sock| {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            sock.set_read_timeout(Some(left))
        });
        self.rd.rd.set_read_timeout(None)?;
        // A read that ran into the socket's timeout reports `WouldBlock`.
        res.map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
            _ => e,
        })
    }

    /// Peer address, for logs.
    pub fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// Framed reader over any byte stream: the reassembly loop behind
/// [`TcpConn::recv`], kept generic so tests can drive it over a byte slice.
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
    /// Buffered frames are returned without touching the stream; a read is
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
                    let m = crate::obs();
                    m.rx_frames.inc();
                    m.rx_bytes.add(msg.payload.len() as u64);
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

    /// Flushes the frames-per-wakeup accounting ahead of a read (or at
    /// EOF): everything extracted since the previous read was delivered by
    /// that single syscall.
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use std::net::TcpListener;

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

    /// A batch larger than the socket buffers goes out over many
    /// non-blocking writes, resumed from where each stopped, and arrives
    /// whole and in order; an empty payload is a frame too.
    #[test]
    fn a_non_blocking_write_resumes_where_it_stopped() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = TcpConn::new(TcpStream::connect(l.local_addr().unwrap()).unwrap()).unwrap();
        let mut far = TcpConn::new(l.accept().unwrap().0).unwrap();
        conn.socket().set_nonblocking(true).unwrap();
        let batch: Vec<WireMsg> = (0..200u16)
            .map(|i| WireMsg::e2ap_on(i, Bytes::from(vec![i as u8; (i as usize % 3) * 80_000])))
            .collect();
        let mut done = 0;
        assert!(!conn.write(&batch, &mut done).unwrap(), "16 MB do not fit the socket buffers");
        let reader = std::thread::spawn(move || {
            (0..200).map(|_| far.recv().unwrap().unwrap()).collect::<Vec<_>>()
        });
        while !conn.write(&batch, &mut done).unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reader.join().unwrap(), batch);
    }
}
