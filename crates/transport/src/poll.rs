//! Readiness for an event loop: a level-triggered Linux `epoll` and a
//! waker, over `extern "C"` declarations against the libc `std` already
//! links.  The only `unsafe` of the crate is here.
//!
//! A loop registers its sockets with [`Poller::add`] under a token of its
//! choosing and blocks in [`Poller::wait`], which hands back the tokens
//! that are ready.  Another thread that has queued work for the loop calls
//! [`Waker::wake`]: it costs a write to an `eventfd` only while the loop
//! is [armed](Poller::arm), that is about to sleep.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Interest in reading.
pub const READ: u32 = 0x001;
/// Interest in writing.
pub const WRITE: u32 = 0x004;

/// `EPOLL_CLOEXEC` and `EFD_CLOEXEC`.
const CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;
const CTL_ADD: i32 = 1;
const CTL_DEL: i32 = 2;
const CTL_MOD: i32 = 3;

/// The waker's token; a loop's own tokens are below it.
const WAKE: u64 = u64::MAX;

/// `struct epoll_event`, which the x86 ABIs pack.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// A file descriptor a libc call returned, or its error.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned open by the kernel and nobody else
    // owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Interrupts a [`Poller::wait`] from any thread.
#[derive(Debug)]
pub struct Waker {
    fd: File,
    armed: AtomicBool,
}

impl Waker {
    /// Makes the loop's current or next wait return, if it is armed.  Call
    /// it after queueing the work the loop is to see.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.armed.swap(false, Ordering::SeqCst) {
            let _ = (&self.fd).write(&1u64.to_ne_bytes());
        }
    }
}

/// An `epoll` instance with a [`Waker`] registered in it.
pub struct Poller {
    ep: OwnedFd,
    waker: Arc<Waker>,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// A poller with nothing registered but its waker.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: a syscall on integer arguments; `owned` checks the result.
        let ep = owned(unsafe { epoll_create1(CLOEXEC) })?;
        // SAFETY: as above.
        let fd = File::from(owned(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) })?);
        let poller = Poller {
            ep,
            waker: Arc::new(Waker { fd, armed: AtomicBool::new(false) }),
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        };
        poller.ctl(CTL_ADD, poller.waker.fd.as_raw_fd(), WAKE, READ)?;
        Ok(poller)
    }

    /// The waker of this poller.
    pub fn waker(&self) -> Arc<Waker> {
        self.waker.clone()
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = EpollEvent { events: interest, data: token };
        // SAFETY: `event` outlives the call, which only reads it.
        match unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut event) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Watches `fd` for `interest` ([`READ`], [`WRITE`] or both), reporting
    /// it as `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(CTL_ADD, fd, token, interest)
    }

    /// Changes what `fd` is watched for.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd` (closing it does so too).
    pub fn remove(&self, fd: RawFd) {
        let _ = self.ctl(CTL_DEL, fd, 0, 0);
    }

    /// Lets [`Waker::wake`] interrupt the next [`wait`](Self::wait).  Arm,
    /// then look at the loop's queue, then wait: work queued after the
    /// look wakes the wait.
    pub fn arm(&self) {
        self.waker.armed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Blocks until a registered descriptor is ready, the armed waker is
    /// woken or `timeout` passes (`None`: no timeout), and appends the
    /// tokens of what is ready — for what it is watched for, or with an
    /// error or a hangup to report — to `ready`.
    pub fn wait(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) -> io::Result<()> {
        // Rounded up: a wait that ends before its deadline would spin.
        let ms = timeout.map_or(-1, |t| t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32);
        let (ep, cap) = (self.ep.as_raw_fd(), self.events.len() as i32);
        // SAFETY: the kernel writes at most `cap` events into the buffer.
        let n = unsafe { epoll_wait(ep, self.events.as_mut_ptr(), cap, ms) };
        self.waker.armed.store(false, Ordering::SeqCst);
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted { Ok(()) } else { Err(e) };
        }
        for &EpollEvent { data, .. } in &self.events[..n as usize] {
            match data {
                WAKE => drop((&self.waker.fd).read(&mut [0u8; 8])),
                token => ready.push(token),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn a_socket_is_reported_ready_under_its_token() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (near, _) = l.accept().unwrap();
        let mut p = Poller::new().unwrap();
        p.add(near.as_raw_fd(), 7, READ).unwrap();
        let mut ready = Vec::new();
        p.wait(Some(Duration::ZERO), &mut ready).unwrap();
        assert!(ready.is_empty(), "nothing to read yet: {ready:?}");
        far.write_all(b"x").unwrap();
        p.wait(Some(Duration::from_secs(5)), &mut ready).unwrap();
        assert_eq!(ready, [7]);
        p.modify(near.as_raw_fd(), 7, WRITE).unwrap();
        ready.clear();
        p.wait(Some(Duration::from_secs(5)), &mut ready).unwrap();
        assert_eq!(ready, [7], "writable");
        p.remove(near.as_raw_fd());
        ready.clear();
        p.wait(Some(Duration::ZERO), &mut ready).unwrap();
        assert!(ready.is_empty(), "forgotten: {ready:?}");
    }

    #[test]
    fn only_an_armed_waker_interrupts_the_wait() {
        let mut p = Poller::new().unwrap();
        let waker = p.waker();
        let mut ready = Vec::new();
        waker.wake();
        let t = Instant::now();
        p.wait(Some(Duration::from_millis(30)), &mut ready).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30), "unarmed: the wait ran out");
        p.arm();
        let wake = std::thread::spawn(move || waker.wake());
        let t = Instant::now();
        p.wait(Some(Duration::from_secs(5)), &mut ready).unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "woken");
        assert!(ready.is_empty(), "the waker is not reported");
        wake.join().unwrap();
    }
}
