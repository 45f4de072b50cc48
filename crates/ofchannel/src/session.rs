//! One OpenFlow session over an async TCP stream, shared by both
//! endpoints.
//!
//! After the handshake, [`open`] splits the stream into a writer task
//! draining a **bounded** per-connection frame queue and a [`Reader`]
//! decoding frames off the socket. The reader answers echo keepalive on its
//! own — so a busy owner cannot fail its own liveness probes — and forwards
//! every other message into the owner's event loop. The owner keeps the
//! [`Session`]: the frame queue, a dup of the socket for teardown, and the
//! time of the last inbound frame for liveness.
//!
//! Backpressure is two-layered: each queue is bounded by
//! [`ChannelConfig::send_queue_cap`], and all queues of an endpoint draw
//! from one [`SendBudget`] of in-flight frames. A peer that stops reading
//! fills its own queue (counted as `sends_blocked`); a slow *everything*
//! exhausts the budget (counted as `budget_exhausted`) instead of growing
//! memory without bound.

use std::io;
use std::net::Shutdown;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use ofproto::messages::{OfBody, OfMessage};
use ofproto::wire;
use tokio::sync::mpsc;

use crate::config::ChannelConfig;
use crate::counters::ChannelCounters;

/// Why a frame was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The bounded send queue (or the endpoint's send budget) is full; the
    /// frame was **not** queued. Callers shed load (drop the frame) or
    /// retry later.
    Backpressure,
    /// The writer is gone; the connection is dead.
    Closed,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Backpressure => f.write_str("send queue full (backpressure)"),
            SendError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for SendError {}

/// The endpoint-wide pool of in-flight frame permits.
pub(crate) struct SendBudget {
    permits: AtomicUsize,
}

impl SendBudget {
    pub(crate) fn new(permits: usize) -> Arc<SendBudget> {
        Arc::new(SendBudget {
            permits: AtomicUsize::new(permits.max(1)),
        })
    }

    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// What every session of one endpoint shares.
#[derive(Clone)]
pub(crate) struct Link {
    pub(crate) cfg: ChannelConfig,
    pub(crate) counters: Arc<ChannelCounters>,
    pub(crate) budget: Arc<SendBudget>,
}

/// A handle on a live session: the owner keeps one, and the reader a
/// clone for answering echo requests.
#[derive(Clone)]
pub(crate) struct Session {
    /// Encoded frames toward the writer task.
    tx: mpsc::Sender<Bytes>,
    link: Link,
    /// A dup of the socket, for teardown from outside the session's tasks.
    closer: Arc<std::net::TcpStream>,
    opened: Instant,
    /// Milliseconds from `opened` to the last inbound frame.
    last_rx: Arc<AtomicU64>,
}

impl Session {
    /// Encodes and queues one message for the writer task, within both the
    /// connection's queue bound and the endpoint's budget.
    pub(crate) fn send(&self, msg: &OfMessage) -> Result<(), SendError> {
        let (budget, counters) = (&self.link.budget, &self.link.counters);
        if !budget.try_acquire() {
            counters.record_budget_exhausted();
            return Err(SendError::Backpressure);
        }
        match self.tx.try_send(wire::encode(msg)) {
            Ok(()) => {
                counters.observe_queue_depth(self.tx.max_capacity() - self.tx.capacity());
                Ok(())
            }
            Err(mpsc::error::TrySendError::Full(_)) => {
                budget.release();
                counters.record_send_blocked();
                counters.observe_queue_depth(self.tx.max_capacity());
                Err(SendError::Backpressure)
            }
            Err(mpsc::error::TrySendError::Closed(_)) => {
                budget.release();
                Err(SendError::Closed)
            }
        }
    }

    /// How long the receive side has been silent.
    pub(crate) fn idle_for(&self) -> Duration {
        let last_rx = self.last_rx.load(Ordering::Relaxed);
        Duration::from_millis(self.age_ms().saturating_sub(last_rx))
    }

    fn age_ms(&self) -> u64 {
        self.opened.elapsed().as_millis() as u64
    }

    /// Tears the connection down. The reader observes the shutdown and
    /// ends the session; safe to call more than once.
    pub(crate) fn close(&self) {
        let _ = self.closer.shutdown(Shutdown::Both);
    }
}

/// The receive side of a session, run by the task that owns the socket.
pub(crate) struct Reader {
    read_half: tokio::net::OwnedReadHalf,
    buf: BytesMut,
    session: Session,
}

/// Starts a handshaken connection: spawns its writer task and returns the
/// owner's [`Session`] plus the [`Reader`] to run. `residue` is whatever
/// the handshake over-read past its last frame; the reader starts from it.
///
/// Must be called from within the runtime that serves the connection.
pub(crate) fn open(
    stream: tokio::net::TcpStream,
    residue: BytesMut,
    link: &Link,
) -> io::Result<(Session, Reader)> {
    let closer = Arc::new(stream.try_clone_std()?);
    let (read_half, mut write_half) = stream.into_split()?;
    let (tx, mut rx) = mpsc::channel::<Bytes>(link.cfg.send_queue_cap);

    let budget = Arc::clone(&link.budget);
    let counters = Arc::clone(&link.counters);
    tokio::spawn(async move {
        while let Some(frame) = rx.recv().await {
            let result = write_half.write_all(&frame).await;
            budget.release();
            match result {
                Ok(()) => counters.record_frame_out(frame.len()),
                Err(_) => {
                    // Make sure the reader notices too.
                    let _ = write_half.shutdown_now(Shutdown::Both);
                    break;
                }
            }
        }
        // Frames still queued when the writer stops hold permits.
        while rx.try_recv().is_ok() {
            budget.release();
        }
    });

    let session = Session {
        tx,
        link: link.clone(),
        closer,
        opened: Instant::now(),
        last_rx: Arc::default(),
    };
    let reader = Reader {
        read_half,
        buf: residue,
        session: session.clone(),
    };
    Ok((session, reader))
}

impl Reader {
    /// Reads frames until the socket dies or turns out garbage, answering
    /// echo requests itself and sending every other message into `events`
    /// wrapped by `inbound`. Returns `false` when the owner's loop is gone.
    pub(crate) async fn run<E>(
        mut self,
        events: &mpsc::Sender<E>,
        inbound: impl Fn(OfMessage) -> E,
    ) -> bool {
        let session = &self.session;
        let link = &session.link;
        let mut alive = true;
        let mut chunk = vec![0u8; link.cfg.read_chunk.max(wire::OFP_HEADER_LEN)];
        'conn: loop {
            match wire::decode_frames(&mut self.buf) {
                Ok(msgs) => {
                    if !msgs.is_empty() {
                        session.last_rx.store(session.age_ms(), Ordering::Relaxed);
                    }
                    for msg in msgs {
                        link.counters.record_frame_in(wire::wire_len(&msg));
                        match msg.body {
                            OfBody::EchoRequest(data) => {
                                let reply = OfMessage::new(msg.xid, OfBody::EchoReply(data));
                                let _ = session.send(&reply);
                            }
                            OfBody::EchoReply(_) => {}
                            _ => {
                                if events.send(inbound(msg)).await.is_err() {
                                    alive = false;
                                    break 'conn;
                                }
                            }
                        }
                    }
                }
                Err(_) => {
                    link.counters.record_decode_error();
                    break;
                }
            }
            match self.read_half.read(&mut chunk).await {
                Ok(0) | Err(_) => break,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        // Unblock a writer stuck mid-write and end the peer's read.
        session.close();
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::types::Xid;

    /// A connected loopback pair; the first end is opened as a session on
    /// a link with `cfg` and `budget` permits.
    async fn opened(
        cfg: ChannelConfig,
        budget: usize,
    ) -> (Session, Reader, Link, tokio::net::TcpStream) {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let client = tokio::net::TcpStream::connect(listener.local_addr().unwrap())
            .await
            .unwrap();
        let (server, _) = listener.accept().await.unwrap();
        let link = Link {
            cfg,
            counters: Arc::new(ChannelCounters::new()),
            budget: SendBudget::new(budget),
        };
        let (session, reader) = open(client, BytesMut::new(), &link).unwrap();
        (session, reader, link, server)
    }

    /// Sends 32 KiB frames toward a peer that never reads until one is
    /// refused; true when that happens.
    async fn flood_until_backpressure(session: &Session) -> bool {
        let msg = OfMessage::new(
            Xid(1),
            OfBody::EchoRequest(Bytes::from(vec![0u8; 32 * 1024])),
        );
        for _ in 0..4096 {
            if session.send(&msg) == Err(SendError::Backpressure) {
                return true;
            }
            tokio::time::sleep(Duration::from_micros(100)).await;
        }
        false
    }

    #[test]
    fn messages_cross_the_wire() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let (session, _reader, link, peer) = opened(ChannelConfig::default(), 8).await;
            let peer_link = Link {
                counters: Arc::new(ChannelCounters::new()),
                ..link.clone()
            };
            let (_peer_session, peer_reader) = open(peer, BytesMut::new(), &peer_link).unwrap();
            let (tx, mut rx) = mpsc::channel(16);
            let reading = tokio::spawn(async move { peer_reader.run(&tx, |msg| msg).await });

            let msg = OfMessage::new(Xid(7), OfBody::FeaturesRequest);
            session.send(&msg).unwrap();
            assert_eq!(rx.recv().await, Some(msg));
            assert_eq!(link.counters.snapshot().frames_out, 1);
            assert_eq!(peer_link.counters.snapshot().frames_in, 1);

            // Closing one end ends the other end's reader.
            session.close();
            assert!(reading.await.unwrap(), "the owner's loop is still alive");
        });
    }

    #[test]
    fn garbage_bytes_count_and_close() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let (_session, reader, link, mut peer) = opened(ChannelConfig::default(), 8).await;
            let (tx, _rx) = mpsc::channel::<OfMessage>(16);
            peer.write_all(&[0xde; 64]).await.unwrap();
            assert!(reader.run(&tx, |msg| msg).await);
            assert_eq!(link.counters.snapshot().decode_errors, 1);
            // The session is torn down: the peer reads EOF.
            assert_eq!(peer.read(&mut [0u8; 16]).await.unwrap(), 0);
        });
    }

    #[test]
    fn full_queue_reports_backpressure() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let cfg = ChannelConfig::default().with_send_queue_cap(4);
            let (session, _reader, link, _peer) = opened(cfg, usize::MAX).await;
            assert!(
                flood_until_backpressure(&session).await,
                "queue never filled"
            );
            let snap = link.counters.snapshot();
            assert!(snap.sends_blocked >= 1 && snap.send_queue_hwm >= 4);
            assert_eq!(snap.budget_exhausted, 0);
        });
    }

    /// A frame holds its permit until written, so a stalled writer spends
    /// a small budget before the roomy queue fills.
    #[test]
    fn exhausted_budget_rejects_before_the_queue() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let (session, _reader, link, _peer) = opened(ChannelConfig::default(), 2).await;
            assert!(
                flood_until_backpressure(&session).await,
                "budget never ran out"
            );
            let snap = link.counters.snapshot();
            assert!(snap.budget_exhausted >= 1);
            assert_eq!(snap.sends_blocked, 0);
        });
    }
}
