//! The OpenFlow 1.0 session handshake.
//!
//! Runs on the fresh stream before the session takes over:
//! `HELLO` exchange, then `FEATURES_REQUEST`/`FEATURES_REPLY`. The features
//! reply is the identity step — its `datapath_id` tells the controller
//! which switch (or, with [`crate::DEVICE_DPID_FLAG`], which data-plane
//! cache) it is talking to.
//!
//! Both sides tolerate reordering and keepalive probes mid-handshake, and
//! both return the bytes they over-read so the session's reader can pick up
//! exactly where the handshake stopped. Every read and write is bounded by
//! [`ChannelConfig::handshake_timeout`](crate::ChannelConfig), so a
//! handshake in progress never blocks a runtime worker.

use std::time::{Duration, Instant};

use bytes::BytesMut;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::Xid;
use ofproto::wire::{self, DecodeError};

use crate::config::ChannelConfig;

/// Why a handshake failed.
#[derive(Debug)]
pub enum HandshakeError {
    /// Socket error.
    Io(std::io::Error),
    /// The peer sent bytes that are not OpenFlow 1.0.
    Decode(DecodeError),
    /// The peer sent a valid but out-of-place message.
    Unexpected(&'static str),
    /// The peer went silent past the handshake budget.
    Timeout,
    /// The peer closed the stream mid-handshake.
    Eof,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
            HandshakeError::Decode(e) => write!(f, "handshake decode error: {e}"),
            HandshakeError::Unexpected(what) => {
                write!(f, "unexpected {what} during handshake")
            }
            HandshakeError::Timeout => f.write_str("handshake timed out"),
            HandshakeError::Eof => f.write_str("peer closed during handshake"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<std::io::Error> for HandshakeError {
    fn from(e: std::io::Error) -> HandshakeError {
        HandshakeError::Io(e)
    }
}

impl From<DecodeError> for HandshakeError {
    fn from(e: DecodeError) -> HandshakeError {
        HandshakeError::Decode(e)
    }
}

/// Controller side: sends `HELLO` + `FEATURES_REQUEST`, waits for the
/// peer's `FEATURES_REPLY`.
///
/// Returns the reply and any over-read bytes.
///
/// # Errors
///
/// Any [`HandshakeError`]; the stream should be discarded on failure.
pub async fn initiate(
    stream: &mut tokio::net::TcpStream,
    config: &ChannelConfig,
) -> Result<(FeaturesReply, BytesMut), HandshakeError> {
    let mut hs = Exchange::new(stream, config);
    hs.send(OfMessage::new(Xid(0), OfBody::Hello)).await?;
    hs.send(OfMessage::new(Xid(1), OfBody::FeaturesRequest))
        .await?;
    loop {
        match hs.next().await?.body {
            OfBody::Hello => {}
            OfBody::FeaturesReply(features) => return Ok((features, hs.buf)),
            _ => return Err(HandshakeError::Unexpected("message")),
        }
    }
}

/// Switch/device side: sends `HELLO`, answers the peer's
/// `FEATURES_REQUEST` with `features`.
///
/// Returns any over-read bytes.
///
/// # Errors
///
/// Any [`HandshakeError`]; the stream should be discarded on failure.
pub async fn accept(
    stream: &mut tokio::net::TcpStream,
    features: &FeaturesReply,
    config: &ChannelConfig,
) -> Result<BytesMut, HandshakeError> {
    let mut hs = Exchange::new(stream, config);
    hs.send(OfMessage::new(Xid(0), OfBody::Hello)).await?;
    let mut saw_hello = false;
    loop {
        let msg = hs.next().await?;
        match msg.body {
            OfBody::Hello => saw_hello = true,
            OfBody::FeaturesRequest if saw_hello => {
                let reply = OfBody::FeaturesReply(features.clone());
                hs.send(OfMessage::new(msg.xid, reply)).await?;
                return Ok(hs.buf);
            }
            OfBody::FeaturesRequest => {
                return Err(HandshakeError::Unexpected("features_request before hello"))
            }
            _ => return Err(HandshakeError::Unexpected("message")),
        }
    }
}

/// One side of a handshake in progress: its stream, the bytes read past
/// the last frame, and the deadline every read and write must meet.
struct Exchange<'a> {
    stream: &'a mut tokio::net::TcpStream,
    buf: BytesMut,
    deadline: Instant,
}

impl Exchange<'_> {
    fn new<'a>(stream: &'a mut tokio::net::TcpStream, config: &ChannelConfig) -> Exchange<'a> {
        Exchange {
            stream,
            buf: BytesMut::new(),
            deadline: Instant::now() + config.handshake_timeout,
        }
    }

    async fn send(&mut self, msg: OfMessage) -> Result<(), HandshakeError> {
        let frame = wire::encode(&msg);
        match tokio::time::timeout(remaining(self.deadline)?, self.stream.write_all(&frame)).await {
            Ok(result) => Ok(result?),
            Err(_) => Err(HandshakeError::Timeout),
        }
    }

    /// The next frame, answering keepalive probes on the way.
    async fn next(&mut self) -> Result<OfMessage, HandshakeError> {
        loop {
            let msg = read_frame(self.stream, &mut self.buf, self.deadline).await?;
            match msg.body {
                OfBody::EchoRequest(data) => {
                    self.send(OfMessage::new(msg.xid, OfBody::EchoReply(data)))
                        .await?;
                }
                _ => return Ok(msg),
            }
        }
    }
}

fn remaining(deadline: Instant) -> Result<Duration, HandshakeError> {
    let now = Instant::now();
    if now >= deadline {
        return Err(HandshakeError::Timeout);
    }
    Ok(deadline - now)
}

/// Reads exactly one frame, leaving any extra bytes in `buf`.
async fn read_frame(
    stream: &mut tokio::net::TcpStream,
    buf: &mut BytesMut,
    deadline: Instant,
) -> Result<OfMessage, HandshakeError> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(len) = wire::frame_len(&buf[..])? {
            if buf.len() >= len {
                let frame = buf.split_to(len);
                return Ok(wire::decode(&frame[..])?);
            }
        }
        match tokio::time::timeout(remaining(deadline)?, stream.read(&mut chunk)).await {
            Ok(Ok(0)) => return Err(HandshakeError::Eof),
            Ok(Ok(n)) => buf.extend_from_slice(&chunk[..n]),
            Ok(Err(e)) => return Err(HandshakeError::Io(e)),
            Err(_) => return Err(HandshakeError::Timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ofproto::types::{DatapathId, PortNo};

    fn features() -> FeaturesReply {
        FeaturesReply {
            datapath_id: DatapathId(42),
            n_buffers: 64,
            n_tables: 1,
            ports: vec![PortNo::Physical(1), PortNo::Physical(2)],
        }
    }

    fn quick() -> ChannelConfig {
        ChannelConfig {
            handshake_timeout: Duration::from_millis(100),
            ..ChannelConfig::default()
        }
    }

    fn block_on<F: std::future::Future>(future: F) -> F::Output {
        tokio::runtime::Runtime::new().unwrap().block_on(future)
    }

    /// A listener plus a client dialed into its backlog.
    async fn dial() -> (tokio::net::TcpListener, tokio::net::TcpStream) {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let client = tokio::net::TcpStream::connect(listener.local_addr().unwrap())
            .await
            .unwrap();
        (listener, client)
    }

    /// Keepalive probes mid-handshake are answered, and a frame the peer
    /// pipelines right behind its last handshake message comes back as
    /// residue instead of being lost.
    #[test]
    fn full_handshake_completes() {
        block_on(async {
            let (listener, mut client) = dial().await;
            let (mut switch, _) = listener.accept().await.unwrap();
            let probe = OfBody::EchoRequest(Bytes::from_static(b"ka"));
            let pipelined = OfMessage::new(Xid(9), OfBody::BarrierRequest);
            let mut frames = BytesMut::new();
            for body in [OfBody::Hello, probe, OfBody::FeaturesReply(features())] {
                frames.extend_from_slice(&wire::encode(&OfMessage::new(Xid(5), body)));
            }
            frames.extend_from_slice(&wire::encode(&pipelined));
            switch.write_all(&frames).await.unwrap();

            let cfg = ChannelConfig::default();
            let (reply, mut residue) = initiate(&mut client, &cfg).await.unwrap();
            assert_eq!(reply, features());
            assert_eq!(wire::decode_frames(&mut residue).unwrap(), vec![pipelined]);
            // HELLO, FEATURES_REQUEST, then the answer to the probe.
            let (mut buf, deadline) = (BytesMut::new(), Instant::now() + cfg.handshake_timeout);
            for _ in 0..2 {
                read_frame(&mut switch, &mut buf, deadline).await.unwrap();
            }
            let answer = read_frame(&mut switch, &mut buf, deadline).await.unwrap();
            assert_eq!(answer.body, OfBody::EchoReply(Bytes::from_static(b"ka")));
        });
    }

    #[test]
    fn async_handshake_completes() {
        block_on(async {
            let (listener, mut client) = dial().await;
            let server = tokio::spawn(async move {
                let (mut stream, _) = listener.accept().await.unwrap();
                accept(&mut stream, &features(), &ChannelConfig::default()).await
            });
            let (reply, residue) = initiate(&mut client, &ChannelConfig::default())
                .await
                .unwrap();
            assert_eq!(reply, features());
            assert!(residue.is_empty());
            assert!(server.await.unwrap().unwrap().is_empty());
        });
    }

    #[test]
    fn garbage_peer_fails_decode() {
        block_on(async {
            let (listener, mut client) = dial().await;
            // The peer stays open until the client is done, so no RST
            // races the garbage delivery.
            let (mut peer, _) = listener.accept().await.unwrap();
            peer.write_all(&[0xff; 32]).await.unwrap();
            match initiate(&mut client, &ChannelConfig::default()).await {
                Err(HandshakeError::Decode(_)) => {}
                other => panic!("expected decode error, got {other:?}"),
            }
        });
    }

    /// The switch side gives up on a controller that dials and then says
    /// nothing.
    #[test]
    fn silent_peer_times_out() {
        block_on(async {
            let (_listener, mut client) = dial().await;
            match accept(&mut client, &features(), &quick()).await {
                Err(HandshakeError::Timeout) => {}
                other => panic!("expected timeout, got {other:?}"),
            }
        });
    }

    #[test]
    fn async_silent_peer_times_out() {
        block_on(async {
            let (_listener, mut client) = dial().await;
            match initiate(&mut client, &quick()).await {
                Err(HandshakeError::Timeout) => {}
                other => panic!("expected timeout, got {other:?}"),
            }
        });
    }

    /// A deadline that is already past, or expires within the read, must
    /// surface as [`HandshakeError::Timeout`] promptly — never as an I/O
    /// error and never as a read that blocks forever.
    #[test]
    fn almost_expired_deadline_is_timeout_not_io() {
        block_on(async {
            let (_listener, mut client) = dial().await;
            let started = Instant::now();
            for pad_ns in [0u64, 100, 10_000, 500_000] {
                let deadline = Instant::now() + Duration::from_nanos(pad_ns);
                match read_frame(&mut client, &mut BytesMut::new(), deadline).await {
                    Err(HandshakeError::Timeout) => {}
                    other => panic!("pad {pad_ns}ns: expected timeout, got {other:?}"),
                }
            }
            // "Block forever" would hang well past this bound.
            assert!(started.elapsed() < Duration::from_secs(2));
        });
    }
}
