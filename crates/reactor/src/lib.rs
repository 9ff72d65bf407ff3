//! A vendored, std-only readiness reactor for the serving tier.
//!
//! The build environment has no registry access, so instead of `mio`/
//! `tokio` this crate binds the handful of kernel interfaces a readiness
//! event loop actually needs — `epoll` on Linux, `poll(2)` elsewhere on
//! Unix — directly against the libc symbols `std` already links. Socket
//! I/O itself stays on safe `std::net` types in non-blocking mode; the
//! `unsafe` surface is confined to [`sys`] (a dozen raw syscall wrappers)
//! so `wcc-net` can keep its `#![forbid(unsafe_code)]`.
//!
//! Pieces, bottom up:
//!
//! * [`Poller`] — level-triggered readiness: register file descriptors
//!   with a `u64` token and an interest set, then [`Poller::wait`] for
//!   events with an optional timeout (the event loop's only blocking
//!   point, which is why none of the serving code ever needs
//!   `thread::sleep`);
//! * [`Waker`] — a self-pipe that makes `wait` return from another
//!   thread (the shutdown request);
//! * [`RecvBuf`] / [`SendBuf`] — the per-connection state machine's two
//!   halves: a compacting receive buffer that frames are decoded from
//!   *in place* (zero-copy, pipelining-friendly) and a send buffer that
//!   absorbs partial writes until the socket drains;
//! * [`Signals`] — classic self-pipe signal handling (SIGTERM/SIGINT for
//!   the `wcc serve` daemon), plus [`send_signal`] so the
//!   bench harness can deliver kill/restart events to a child daemon.
//!
//! Everything observable is deterministic given the readiness sequence;
//! wall-clock deadlines go through [`wcc_types::WallClock`] like the rest
//! of the workspace.

#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]

mod buf;
mod signal;
mod sys;

pub use buf::{RecvBuf, SendBuf};
pub use signal::{send_signal, Signals, SIGHUP, SIGINT, SIGKILL, SIGTERM};
pub use sys::{max_open_files, Event, Interest, Poller, WakeHandle, Waker};
