//! A scripted upstream and raw client connections for driving a real
//! `NetProxy` / `NetParent` over loopback: a plain `TcpListener` whose
//! test decides when each reply and each pushed frame is written.

#![allow(dead_code)] // each test file uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use wcc_proto::{
    encode, FrameReader, GetRequest, HttpMsg, HttpMsgRef, Reply, ReplyStatus, ReplyStatusRef,
    RequestId, WireError,
};
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

pub const SERVER: ServerId = ServerId::new(0);

pub fn url(doc: u32) -> Url {
    Url::new(SERVER, doc)
}

/// One framed connection, either side: raw writes, framed reads.
pub struct Wire {
    w: TcpStream,
    r: FrameReader<TcpStream>,
}

impl Wire {
    fn new(w: TcpStream) -> Wire {
        w.set_nodelay(true).expect("nodelay");
        w.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let r = FrameReader::new(w.try_clone().expect("clone"));
        Wire { w, r }
    }

    pub fn connect(addr: SocketAddr) -> Wire {
        Wire::new(TcpStream::connect(addr).expect("connect"))
    }

    pub fn send(&mut self, msg: &HttpMsg) {
        self.w.write_all(&encode(msg)).expect("write");
    }

    pub fn send_all(&mut self, msgs: &[HttpMsg]) {
        let bytes: Vec<u8> = msgs.iter().flat_map(encode).collect();
        self.w.write_all(&bytes).expect("write");
    }

    pub fn next(&mut self) -> HttpMsgRef<'_> {
        self.r.next_msg().expect("frame")
    }

    /// The next frame, which must be a `GET`.
    pub fn recv_get(&mut self) -> GetRequest {
        match self.next() {
            HttpMsgRef::Owned(HttpMsg::Get(get)) => get,
            other => panic!("expected a GET, got {other:?}"),
        }
    }

    /// The next frame, which must be a `200`: its request id and the
    /// `Last-Modified` it carries.
    pub fn recv_200(&mut self) -> (u64, SimTime) {
        match self.next() {
            HttpMsgRef::Reply(reply) => match reply.status {
                ReplyStatusRef::Ok { meta, .. } => (reply.req.get(), meta.last_modified()),
                ReplyStatusRef::NotModified => panic!("expected a 200, got a 304"),
            },
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// Answers `get` with a `200` of the version modified at `modified`.
    pub fn reply_200(&mut self, get: &GetRequest, modified: SimTime) {
        let meta = DocMeta::new(ByteSize::from_kib(8), modified);
        self.send(&HttpMsg::Reply(Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            status: ReplyStatus::Ok(Body::synthetic(meta, 100)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        }));
    }

    /// Every byte the peer sends until it closes, raw: for an answer that
    /// is not all frames, on a connection no frame was read from yet.
    pub fn read_to_end(&mut self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.w.read_to_end(&mut bytes).expect("read to EOF");
        bytes
    }

    /// The peer closed the connection (nothing but EOF is left).
    pub fn assert_closed(&mut self) {
        assert!(matches!(self.r.next_msg(), Err(WireError::Closed)));
    }

    /// Nothing is waiting to be read (loopback delivery is synchronous,
    /// so this is exact once the peer is known to be past the point where
    /// it would have written).
    pub fn assert_quiet(&mut self) {
        self.w.set_nonblocking(true).expect("nonblocking");
        let mut byte = [0u8; 1];
        let got = self.w.read(&mut byte);
        self.w.set_nonblocking(false).expect("blocking");
        assert_eq!(
            got.expect_err("unexpected bytes").kind(),
            std::io::ErrorKind::WouldBlock
        );
    }
}

/// A client `GET` (`req` is the client connection's own numbering).
pub fn get(req: u64, doc: u32, client: ClientId, now: SimTime) -> HttpMsg {
    HttpMsg::Get(GetRequest {
        req: RequestId::new(req),
        url: url(doc),
        client,
        ims: None,
        issued_at: now,
        cache_hits: 0,
    })
}

/// The upstream a node under test dials.
pub struct ScriptedUpstream {
    listener: TcpListener,
}

impl ScriptedUpstream {
    pub fn bind() -> ScriptedUpstream {
        ScriptedUpstream {
            listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
        }
    }

    /// What the node is pointed at.
    pub fn addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("addr")
    }

    /// The next connection the node dialled.
    pub fn accept(&self) -> Wire {
        Wire::new(self.listener.accept().expect("accept").0)
    }

    /// The node has dialled nothing that was not accepted.
    pub fn assert_no_dial(&self) {
        self.listener.set_nonblocking(true).expect("nonblocking");
        let pending = self.listener.accept();
        self.listener.set_nonblocking(false).expect("blocking");
        assert_eq!(
            pending.expect_err("an unexpected connection").kind(),
            std::io::ErrorKind::WouldBlock
        );
    }

    /// The one connection a node dials, at spawn or on a re-dial: misses
    /// come up it and pushes go down it. Its first frame, the `HELLO`, is
    /// consumed here.
    pub fn accept_node(&self) -> Wire {
        let mut node = self.accept();
        assert!(matches!(
            node.next(),
            HttpMsgRef::Owned(HttpMsg::Hello { .. })
        ));
        node
    }
}
