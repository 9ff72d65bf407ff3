//! The `unsafe` floor of the reactor: raw readiness syscalls.
//!
//! Linux gets `epoll` (the only backend exercised by CI and the reference
//! container); every other Unix falls back to `poll(2)` with the same
//! [`Poller`] surface. Both bind the libc symbols `std` already links, so
//! nothing external is pulled in. All other file-descriptor I/O in the
//! workspace stays on safe `std` types — this module never reads or
//! writes sockets.

use std::io::{self, PipeReader, PipeWriter, Read as _, Write as _};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor accepts writes again.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a connection with queued output).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer hang-up, so a read observes the EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition; the owner should read to completion
    /// and close.
    pub error: bool,
}

/// Turns a wait timeout into the millisecond form both backends take:
/// `-1` blocks, `0` polls, and sub-millisecond waits round up so a short
/// deadline cannot busy-spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod backend {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;

    /// `struct epoll_event`; packed on x86_64 (the kernel ABI), naturally
    /// aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Level-triggered readiness over an `epoll` instance.
    pub struct Poller {
        epfd: i32,
        /// Kernel-filled event buffer: 1024 entries, initialised once, of
        /// which a wait reads back only the ones the kernel filled.
        buf: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for Poller {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Poller").field("epfd", &self.epfd).finish()
        }
    }

    impl Poller {
        /// Creates the epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            // A half-closed peer raises `EPOLLRDHUP` for good (level-
            // triggered), so it is asked for only with read interest: a
            // connection that has seen its EOF can then wait quietly for
            // replies it is still owed. Errors and full hang-ups are
            // reported regardless.
            let mut flags = 0;
            if interest.readable {
                flags |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                flags |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: flags,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` under `token`.
        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Re-arms `fd` with a new interest set.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Removes `fd` from the set (must precede closing the fd).
        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels demanded a non-null event even for
            // DEL; passing one is harmless everywhere.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks until readiness or `timeout` (`None` = forever), pushing
        /// events into `out` (cleared first). EINTR surfaces as zero
        /// events so the caller re-checks its shutdown/signal state.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let n = {
                // SAFETY: `buf` holds 1024 initialised entries; the kernel
                // writes at most `maxevents` of them.
                let rc = unsafe {
                    epoll_wait(self.epfd, self.buf.as_mut_ptr(), 1024, timeout_ms(timeout))
                };
                if rc < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                rc as usize
            };
            for ev in self.buf.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let flags = ev.events;
                let token = ev.data;
                out.push(Event {
                    token,
                    readable: flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: flags & EPOLLOUT != 0,
                    error: flags & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// `poll(2)`-backed fallback with the same surface as the epoll
    /// backend; registrations live in user space.
    pub struct Poller {
        regs: Vec<(RawFd, u64, Interest)>,
        buf: Vec<PollFd>,
    }

    impl std::fmt::Debug for Poller {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Poller")
                .field("registrations", &self.regs.len())
                .finish()
        }
    }

    impl Poller {
        /// Creates an empty registration set.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                regs: Vec::with_capacity(64),
                buf: Vec::with_capacity(64),
            })
        }

        /// Registers `fd` under `token`.
        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.regs.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::from(io::ErrorKind::AlreadyExists));
            }
            self.regs.push((fd, token, interest));
            Ok(())
        }

        /// Re-arms `fd` with a new interest set.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            match self.regs.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(reg) => {
                    reg.1 = token;
                    reg.2 = interest;
                    Ok(())
                }
                None => Err(io::Error::from(io::ErrorKind::NotFound)),
            }
        }

        /// Removes `fd` from the set.
        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.regs.len();
            self.regs.retain(|(f, _, _)| *f != fd);
            if self.regs.len() == before {
                return Err(io::Error::from(io::ErrorKind::NotFound));
            }
            Ok(())
        }

        /// Blocks until readiness or `timeout` (`None` = forever).
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            self.buf.clear();
            for (fd, _, interest) in &self.regs {
                let mut events = 0;
                if interest.readable {
                    events |= POLLIN;
                }
                if interest.writable {
                    events |= POLLOUT;
                }
                self.buf.push(PollFd {
                    fd: *fd,
                    events,
                    revents: 0,
                });
            }
            // SAFETY: `buf` holds exactly `regs.len()` initialised entries.
            let rc = unsafe {
                poll(
                    self.buf.as_mut_ptr(),
                    self.buf.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (slot, (_, token, _)) in self.buf.iter().zip(&self.regs) {
                if slot.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token: *token,
                    readable: slot.revents & (POLLIN | POLLHUP) != 0,
                    writable: slot.revents & POLLOUT != 0,
                    error: slot.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
compile_error!("wcc-reactor needs a Unix host (epoll on Linux, poll elsewhere)");

pub use backend::Poller;

extern "C" {
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "macos")]
const O_NONBLOCK: i32 = 0x4;
#[cfg(not(target_os = "macos"))]
const O_NONBLOCK: i32 = 0x800;

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: i32 = 8;

/// The soft limit on open file descriptors for this process, if the
/// kernel will say. Harnesses that open thousands of sockets (the 10k
/// stress bench) use this to decide between in-process serving and
/// splitting client and daemon across processes.
pub fn max_open_files() -> Option<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: getrlimit writes the two-word struct we hand it.
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
    if rc == 0 {
        Some(lim.rlim_cur)
    } else {
        None
    }
}

/// Puts a raw descriptor into non-blocking mode (`std`'s pipes expose no
/// `set_nonblocking`, unlike its sockets).
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with F_GETFL/F_SETFL takes no pointers.
    unsafe {
        let flags = fcntl(fd, F_GETFL);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Wakes a [`Poller::wait`] from another thread (or a signal handler's
/// sibling): a non-blocking self-pipe whose read end is registered like
/// any connection.
#[derive(Debug)]
pub struct Waker {
    rx: PipeReader,
    tx: PipeWriter,
}

/// The cross-thread half of a [`Waker`]: cheap to clone into whatever
/// needs to interrupt the loop (drop glue, signal forwarding, injected
/// work).
#[derive(Debug)]
pub struct WakeHandle {
    tx: PipeWriter,
}

impl Waker {
    /// Creates the pipe pair; both ends are non-blocking.
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = io::pipe()?;
        set_nonblocking(rx.as_raw_fd())?;
        set_nonblocking(tx.as_raw_fd())?;
        Ok(Waker { rx, tx })
    }

    /// Registers the read end under `token`.
    pub fn register(&self, poller: &mut Poller, token: u64) -> io::Result<()> {
        poller.add(self.rx.as_raw_fd(), token, Interest::READ)
    }

    /// A cloneable handle that wakes this waker's loop.
    ///
    /// # Errors
    ///
    /// Propagates the descriptor-duplication error.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            tx: self.tx.try_clone()?,
        })
    }

    /// Consumes pending wake bytes so level-triggered polling settles.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl WakeHandle {
    /// Interrupts the target loop's `wait`. A full pipe means a wake is
    /// already pending, so `WouldBlock` is success.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn socket_readiness_and_interest_rearming() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        poller
            .add(server.as_raw_fd(), 7, Interest::READ)
            .expect("add");

        // Idle connection with read interest: a short wait times out.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        // Peer bytes arrive: readable fires.
        (&client).write_all(b"ping").expect("send");
        let mut readable = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                readable = true;
                break;
            }
        }
        assert!(readable, "peer bytes never became readable");

        // Re-arm with write interest: an un-congested socket reports
        // writable immediately.
        poller
            .modify(server.as_raw_fd(), 7, Interest::READ_WRITE)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.delete(server.as_raw_fd()).expect("delete");
        drop(client);
    }

    #[test]
    fn waker_interrupts_wait_and_drains() {
        let mut poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("waker");
        waker.register(&mut poller, 3).expect("register");
        let handle = waker.handle().expect("handle");

        let t = std::thread::spawn(move || {
            handle.wake();
            handle.wake();
        });
        let mut events = Vec::new();
        let mut woke = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            if events.iter().any(|e| e.token == 3 && e.readable) {
                woke = true;
                break;
            }
        }
        t.join().expect("join");
        assert!(woke, "wake never interrupted wait");
        waker.drain();
        // Level-triggered: once drained, the token stops firing.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.iter().all(|e| e.token != 3));
    }
}
