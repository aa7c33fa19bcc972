//! The readiness reactor under the server: a thin poller over the
//! vendored `libc` shim plus a self-wakeup pipe.
//!
//! One event-loop thread (see [`crate::server`]) multiplexes every
//! connection through a [`Poller`]: `epoll` on Linux, POSIX `poll`
//! elsewhere on unix — both level-triggered, both driven through the
//! same three-call surface (`register`/`modify`/`deregister` plus
//! `wait`). Descriptors are identified by caller-chosen `u64` tokens;
//! the poller never owns a descriptor's lifetime.
//!
//! The [`WakePipe`] is the cross-thread doorbell: worker threads finish
//! scheduling jobs, push completions onto the server's queue, and ring
//! it — the reactor's blocked `wait` returns immediately. A ring writes
//! a byte only when the bell is not already armed, so however many
//! completions land between two reactor passes, the pipe carries one
//! byte and the reactor reads it with one `read`. This replaces both
//! the old 100 ms stop-flag poll on every connection read and the
//! throwaway self-connect that used to unblock the accept loop on
//! shutdown.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};

/// Readiness interest / readiness report for one registered descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Event {
    /// Caller-chosen registration token.
    pub token: u64,
    /// Readable (or a peer hangup, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition — the owner should tear the fd down.
    pub failed: bool,
}

/// Retries a libc call that fails with `EINTR`.
fn retry_intr<T>(mut call: impl FnMut() -> (T, bool)) -> io::Result<T> {
    loop {
        let (value, ok) = call();
        if ok {
            return Ok(value);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(target_os = "linux")]
mod backend {
    use super::*;

    /// Level-triggered `epoll` poller.
    pub struct Poller {
        epfd: RawFd,
        /// Registered descriptor count (kept for the fds gauge and the
        /// non-Linux backend's parity; epoll tracks the set itself).
        registered: usize,
    }

    impl Poller {
        /// Creates the epoll instance.
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                registered: 0,
            })
        }

        fn interest(readable: bool, writable: bool) -> u32 {
            let mut events = libc::EPOLLRDHUP;
            if readable {
                events |= libc::EPOLLIN;
            }
            if writable {
                events |= libc::EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: libc::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = libc::epoll_event { events, u64: token };
            let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }

        /// Adds `fd` under `token` with the given interest.
        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(
                libc::EPOLL_CTL_ADD,
                fd,
                Self::interest(readable, writable),
                token,
            )?;
            self.registered += 1;
            Ok(())
        }

        /// Changes a registered descriptor's interest.
        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(
                libc::EPOLL_CTL_MOD,
                fd,
                Self::interest(readable, writable),
                token,
            )
        }

        /// Removes `fd` from the interest set (call before closing it).
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)?;
            self.registered = self.registered.saturating_sub(1);
            Ok(())
        }

        /// Registered descriptor count.
        pub fn registered(&self) -> usize {
            self.registered
        }

        /// Blocks until readiness (or `timeout_ms`; -1 = forever) and
        /// fills `events`.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let mut raw = [libc::epoll_event { events: 0, u64: 0 }; 64];
            let n = retry_intr(|| {
                let n = unsafe {
                    libc::epoll_wait(
                        self.epfd,
                        raw.as_mut_ptr(),
                        raw.len() as libc::c_int,
                        timeout_ms,
                    )
                };
                (n, n >= 0)
            })?;
            for entry in &raw[..n as usize] {
                // Copy out of the (packed on x86) struct before testing
                // bits.
                let (mask, token) = (entry.events, entry.u64);
                events.push(Event {
                    token,
                    readable: mask & (libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLHUP) != 0,
                    writable: mask & libc::EPOLLOUT != 0,
                    failed: mask & libc::EPOLLERR != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use super::*;

    /// Portable POSIX `poll` poller: the interest set lives here and the
    /// `pollfd` array is rebuilt per wait. O(n) per call where epoll is
    /// O(ready) — fine as the non-Linux fallback.
    pub struct Poller {
        interest: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        /// Creates an empty interest set.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                interest: Vec::new(),
            })
        }

        /// Adds `fd` under `token` with the given interest.
        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.interest.push((fd, token, readable, writable));
            Ok(())
        }

        /// Changes a registered descriptor's interest.
        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            match self.interest.iter_mut().find(|(f, ..)| *f == fd) {
                Some(entry) => {
                    *entry = (fd, token, readable, writable);
                    Ok(())
                }
                None => Err(io::Error::from(io::ErrorKind::NotFound)),
            }
        }

        /// Removes `fd` from the interest set (call before closing it).
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.interest.retain(|(f, ..)| *f != fd);
            Ok(())
        }

        /// Registered descriptor count.
        pub fn registered(&self) -> usize {
            self.interest.len()
        }

        /// Blocks until readiness (or `timeout_ms`; -1 = forever) and
        /// fills `events`.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<libc::pollfd> = self
                .interest
                .iter()
                .map(|&(fd, _, readable, writable)| libc::pollfd {
                    fd,
                    events: if readable { libc::POLLIN } else { 0 }
                        | if writable { libc::POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            retry_intr(|| {
                let n =
                    unsafe { libc::poll(fds.as_mut_ptr(), fds.len() as libc::nfds_t, timeout_ms) };
                (n, n >= 0)
            })?;
            for (entry, &(_, token, ..)) in fds.iter().zip(&self.interest) {
                if entry.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: entry.revents & (libc::POLLIN | libc::POLLHUP) != 0,
                    writable: entry.revents & libc::POLLOUT != 0,
                    failed: entry.revents & (libc::POLLERR | libc::POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
compile_error!(
    "vcsched-service's readiness reactor needs a unix platform \
     (epoll on Linux, poll elsewhere)"
);

pub use backend::Poller;

/// A nonblocking self-pipe: any thread may [`WakePipe::wake`]; the
/// reactor registers [`WakePipe::read_fd`] and [`WakePipe::drain`]s on
/// readiness. Writes of one byte are atomic, and a full pipe simply
/// means a wakeup is already pending — `wake` never blocks.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
    /// Set by the first `wake` after a `drain`: later wakes see a byte
    /// already on its way and write nothing.
    armed: AtomicBool,
}

impl WakePipe {
    /// Opens the pipe, both ends nonblocking and close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [-1 as libc::c_int; 2];
        #[cfg(target_os = "linux")]
        {
            let rc = unsafe { libc::pipe2(fds.as_mut_ptr(), libc::O_CLOEXEC | libc::O_NONBLOCK) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            if unsafe { libc::pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            for &fd in &fds {
                let flags = unsafe { libc::fcntl(fd, libc::F_GETFL, 0) };
                unsafe {
                    libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK);
                    libc::fcntl(fd, libc::F_SETFD, libc::FD_CLOEXEC);
                }
            }
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
            armed: AtomicBool::new(false),
        })
    }

    /// The end the reactor registers for readability.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Rings the doorbell: writes one byte unless a ring since the last
    /// [`WakePipe::drain`] already did. Never blocks: `EAGAIN` (pipe
    /// already full) means a wakeup is pending, which is all a wake
    /// needs.
    pub fn wake(&self) {
        // Acquire pairs with `drain`'s Release store: a wake that finds
        // the bell disarmed writes after the read that emptied the pipe.
        // A completion pushed before a wake that finds it armed is
        // ordered against the reactor's take by the completion queue's
        // mutex, so the take after the next `drain` sees it.
        if self.armed.swap(true, Ordering::AcqRel) {
            return;
        }
        let byte = [1u8];
        // SAFETY: `write_fd` is this pipe's open write end until `drop`,
        // and `byte` is a live one-byte buffer.
        let _ = unsafe { libc::write(self.write_fd, byte.as_ptr() as *const libc::c_void, 1) };
    }

    /// Swallows the pending wakeup bytes with one `read` and disarms the
    /// bell (reactor side, on readiness). The reactor drains before it
    /// takes the completion queue, so a completion pushed after that
    /// take rings a disarmed bell and wakes the next `wait`. A byte the
    /// read leaves behind keeps the pipe readable, and level-triggered
    /// polling reports it again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: `read_fd` is this pipe's open read end until `drop`,
        // and `buf` is a live buffer of the length passed.
        let _ = unsafe {
            libc::read(
                self.read_fd,
                buf.as_mut_ptr() as *mut libc::c_void,
                buf.len(),
            )
        };
        self.armed.store(false, Ordering::Release);
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.read_fd);
            libc::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wake_pipe_crosses_threads_and_coalesces() {
        let pipe = std::sync::Arc::new(WakePipe::new().expect("pipe"));
        let mut poller = Poller::new().expect("poller");
        poller
            .register(pipe.read_fd(), 7, true, false)
            .expect("register");
        let waker = std::sync::Arc::clone(&pipe);
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                waker.wake();
            }
        });
        let mut events = Vec::new();
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        t.join().unwrap();
        pipe.drain();
        // Fully drained: an immediate wait times out with no events.
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "{events:?}");
    }

    /// Bytes waiting in the pipe, read without disarming the bell.
    fn pending_bytes(pipe: &WakePipe) -> usize {
        let mut buf = [0u8; 64];
        // SAFETY: `read_fd` is the pipe's open read end while `pipe`
        // lives, and `buf` is a live buffer of the length passed.
        let n = unsafe {
            libc::read(
                pipe.read_fd,
                buf.as_mut_ptr() as *mut libc::c_void,
                buf.len(),
            )
        };
        n.max(0) as usize
    }

    #[test]
    fn many_wakes_between_two_drains_leave_one_byte() {
        let pipe = WakePipe::new().expect("pipe");
        for _ in 0..1_000 {
            pipe.wake();
        }
        assert_eq!(pending_bytes(&pipe), 1);
        // Still armed: the byte was taken without a drain, so further
        // wakes write nothing.
        pipe.wake();
        assert_eq!(pending_bytes(&pipe), 0);
        pipe.drain();
        for _ in 0..10 {
            pipe.wake();
        }
        assert_eq!(pending_bytes(&pipe), 1);
    }

    #[test]
    fn a_wake_right_after_drain_ends_the_next_wait() {
        let pipe = WakePipe::new().expect("pipe");
        let mut poller = Poller::new().expect("poller");
        poller
            .register(pipe.read_fd(), 3, true, false)
            .expect("register");
        let mut events = Vec::new();
        for _ in 0..3 {
            pipe.wake();
            pipe.wake();
            poller.wait(&mut events, 5_000).expect("wait");
            assert!(events.iter().any(|e| e.token == 3 && e.readable));
            pipe.drain();
            poller.wait(&mut events, 0).expect("wait");
            assert!(events.is_empty(), "drained: {events:?}");
        }
        // The ring that follows a drain reaches the reactor.
        pipe.drain();
        pipe.wake();
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }

    #[test]
    fn poller_tracks_socket_read_and_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        poller
            .register(server.as_raw_fd(), 42, true, false)
            .expect("register");
        assert_eq!(poller.registered(), 1);

        // Nothing to read yet.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "{events:?}");

        client.write_all(b"hello").expect("send");
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        let mut buf = [0u8; 16];
        let mut srv = &server;
        assert_eq!(srv.read(&mut buf).expect("read"), 5);

        // Adding write interest on an idle socket reports writable.
        poller
            .modify(server.as_raw_fd(), 42, true, true)
            .expect("modify");
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        // Peer close surfaces as readable (EOF on read).
        drop(client);
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        poller.deregister(server.as_raw_fd()).expect("deregister");
        assert_eq!(poller.registered(), 0);
    }
}
