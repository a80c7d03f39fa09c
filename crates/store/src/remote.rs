//! The child-process [`ShardBackend`]: the same shard code as
//! [`LocalShard`], running in a spawned `shard_worker` process behind
//! the framed pipe protocol of the crate's `proto` module.
//!
//! A [`ProcessShard`] owns one worker child. Requests are serialized
//! over the child's stdin, responses read from its stdout, one
//! round trip per [`ShardBackend`] call — which is why the trait surface
//! is batched (bulk ingest, multi-id sketch fetch, whole-partial index
//! ships) rather than chatty. The worker side ([`serve`]) is a loop
//! around a [`LocalShard`], so a process shard cannot drift behaviorally
//! from an in-process one: every byte of sketch state that crosses the
//! pipe does so through the bit-exact [`monotone_coord::wire`] codec.
//!
//! **Failure is typed, never a hang.** The runtime ignores `SIGPIPE`, so
//! writes to a dead worker return `EPIPE` and reads at a closed pipe
//! return EOF; both mark the connection dead and surface as
//! [`Error::ShardUnavailable`] carrying the shard ordinal and cause.
//! Subsequent calls fail fast on the dead connection.
//!
//! [`LocalShard`]: crate::shard::LocalShard

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::wire::{Dec, Enc};
use monotone_core::{Error, Result};

use crate::banding::{BandConfig, BandIndex};
use crate::proto::{
    read_frame, write_frame, MAX_FRAME, MAX_HELLO_K, OP_BAND_PARTIAL, OP_ENABLE_LIVE, OP_EVICT,
    OP_HELLO, OP_INGEST_ALL, OP_LEN, OP_LIVE_CANDIDATES, OP_LIVE_PARTIAL, OP_LIVE_SIGNATURE,
    OP_SHUTDOWN, OP_SKETCHES, PROTO_VERSION, STATUS_ERR, STATUS_NOT_APPLICABLE, STATUS_OK,
};
use crate::shard::{LocalShard, ShardBackend};

/// Environment variable overriding [`worker_command`]'s binary
/// resolution with an explicit path to a `shard_worker` executable.
pub const WORKER_ENV: &str = "MONOTONE_SHARD_WORKER";

/// A live connection to one worker child.
#[derive(Debug)]
struct Conn {
    child: Child,
    tx: BufWriter<ChildStdin>,
    rx: BufReader<ChildStdout>,
}

impl Conn {
    fn roundtrip(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.tx, payload)?;
        self.tx.flush()?;
        read_frame(&mut self.rx)
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Debug)]
enum ConnState {
    Live(Box<Conn>),
    Dead(String),
}

/// A [`ShardBackend`] whose shard lives in a spawned worker process.
///
/// Spawn one with [`ProcessShard::spawn`] (any `Command`, typically from
/// [`worker_command`]) or let
/// [`SketchStore::with_process_shards`](crate::SketchStore::with_process_shards)
/// spawn a whole fleet. The connection is `Mutex`-serialized: one
/// request/response in flight at a time, so concurrent store callers
/// interleave at operation granularity exactly like they do on a
/// [`LocalShard`]'s mutex.
///
/// Dropping the shard shuts the worker down (a best-effort
/// `OP_SHUTDOWN` exchange, then kill-and-reap), so no zombies outlive
/// the store.
#[derive(Debug)]
pub struct ProcessShard {
    ordinal: usize,
    /// The seed-hash salt the worker samples under, which decoding its
    /// sketches re-derives their ranks with.
    salt: u64,
    conn: Mutex<ConnState>,
}

impl ProcessShard {
    /// Spawns `command` as a worker child (stdin/stdout piped, stderr
    /// inherited) and performs the version handshake, configuring the
    /// worker's shard with `k` retained entries under seed-hash salt
    /// `salt`. `ordinal` is the shard's position in its store, used only
    /// in error reports.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the spawn fails or the handshake
    /// does not complete (missing binary, stale binary speaking another
    /// protocol version, worker crash).
    pub fn spawn(
        mut command: Command,
        ordinal: usize,
        k: usize,
        salt: u64,
    ) -> Result<ProcessShard> {
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        let fail = |reason: String| Error::ShardUnavailable {
            shard: ordinal,
            reason,
        };
        let mut child = command
            .spawn()
            .map_err(|e| fail(format!("spawn failed: {e}")))?;
        let tx = BufWriter::new(child.stdin.take().expect("piped stdin"));
        let rx = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut conn = Conn { child, tx, rx };

        let mut hello = Enc::new();
        hello.put_u8(OP_HELLO);
        hello.put_u8(PROTO_VERSION);
        hello.put_len(k);
        hello.put_u64(salt);
        let ack = match conn.roundtrip(&hello.into_bytes()) {
            Ok(ack) => ack,
            Err(e) => {
                conn.reap();
                return Err(fail(format!("handshake i/o failed: {e}")));
            }
        };
        let accepted = matches!(ack.as_slice(), [STATUS_OK, version] if *version == PROTO_VERSION);
        if !accepted {
            let reason = match ack.first() {
                Some(&STATUS_ERR) | Some(&STATUS_NOT_APPLICABLE) => format!(
                    "worker rejected handshake: {}",
                    String::from_utf8_lossy(&ack[1..])
                ),
                _ => format!("bad handshake ack {ack:?}"),
            };
            conn.reap();
            return Err(fail(reason));
        }
        Ok(ProcessShard {
            ordinal,
            salt,
            conn: Mutex::new(ConnState::Live(Box::new(conn))),
        })
    }

    /// Kills the worker process immediately — fault injection for tests
    /// and a hard-stop for operators. Every subsequent operation on this
    /// shard fails fast with [`Error::ShardUnavailable`].
    pub fn kill(&self) {
        let mut guard = self.conn.lock().expect("unpoisoned shard connection");
        if let ConnState::Live(conn) = &mut *guard {
            conn.reap();
            *guard = ConnState::Dead("worker killed".to_owned());
        }
    }

    fn unavailable(&self, reason: String) -> Error {
        Error::ShardUnavailable {
            shard: self.ordinal,
            reason,
        }
    }

    /// One request/response exchange: sends `req`, checks the status
    /// byte, then runs `read` over the response body, which must consume
    /// it exactly. I/O failure kills and reaps the worker, marks the
    /// connection dead, and fails this and every later call; a body
    /// `read` cannot parse is a malformed response.
    fn call<T>(&self, req: Enc, read: impl FnOnce(&mut Dec<'_>) -> Result<T>) -> Result<T> {
        let mut guard = self.conn.lock().expect("unpoisoned shard connection");
        let outcome = match &mut *guard {
            ConnState::Dead(reason) => return Err(self.unavailable(reason.clone())),
            ConnState::Live(conn) => conn.roundtrip(&req.into_bytes()),
        };
        let resp = match outcome {
            Ok(resp) => resp,
            Err(e) => {
                let reason = format!("worker i/o failed: {e}");
                if let ConnState::Live(conn) = &mut *guard {
                    conn.reap();
                }
                *guard = ConnState::Dead(reason.clone());
                return Err(self.unavailable(reason));
            }
        };
        drop(guard);
        let Some((&status, body)) = resp.split_first() else {
            return Err(self.unavailable("empty response frame".to_owned()));
        };
        match status {
            STATUS_OK => {}
            STATUS_NOT_APPLICABLE => {
                return Err(Error::NotApplicable("live index not enabled on shard"))
            }
            STATUS_ERR => {
                let msg = String::from_utf8_lossy(body);
                return Err(self.unavailable(format!("worker error: {msg}")));
            }
            other => return Err(self.unavailable(format!("unknown response status {other}"))),
        }
        let mut dec = Dec::new(body);
        read(&mut dec)
            .and_then(|out| dec.finish().map(|()| out))
            .map_err(|e| self.unavailable(format!("malformed worker response: {e}")))
    }
}

impl Drop for ProcessShard {
    fn drop(&mut self) {
        if let Ok(ConnState::Live(conn)) = self.conn.get_mut() {
            // Best-effort graceful shutdown (the worker also exits
            // cleanly on pipe EOF), then reap unconditionally.
            let mut req = Enc::new();
            req.put_u8(OP_SHUTDOWN);
            let _ = conn.roundtrip(&req.into_bytes());
            conn.reap();
        }
    }
}

impl ShardBackend for ProcessShard {
    fn ingest_all(&self, instance: u64, items: &[(u64, f64)]) -> Result<()> {
        let mut req = Enc::with_capacity(24 + 16 * items.len());
        req.put_u8(OP_INGEST_ALL);
        req.put_u64(instance);
        req.put_len(items.len());
        for &(key, w) in items {
            req.put_u64(key);
            req.put_f64(w);
        }
        self.call(req, |_| Ok(()))
    }

    fn evict(&self, instance: u64) -> Result<bool> {
        let mut req = Enc::with_capacity(16);
        req.put_u8(OP_EVICT);
        req.put_u64(instance);
        self.call(req, |dec| Ok(dec.take_u8()? != 0))
    }

    fn len(&self) -> Result<usize> {
        let mut req = Enc::with_capacity(1);
        req.put_u8(OP_LEN);
        self.call(req, |dec| dec.take_len())
    }

    fn sketches(&self, ids: &[u64]) -> Result<Vec<Option<BottomKSample>>> {
        let mut req = Enc::with_capacity(16 + 8 * ids.len());
        req.put_u8(OP_SKETCHES);
        req.put_len(ids.len());
        for &id in ids {
            req.put_u64(id);
        }
        self.call(req, |dec| {
            ids.iter()
                .map(|_| match dec.take_u8()? {
                    0 => Ok(None),
                    1 => BottomKSample::decode(dec, self.salt).map(Some),
                    t => Err(Error::Encoding(format!("bad presence flag {t}"))),
                })
                .collect()
        })
    }

    fn band_partial(&self, cfg: &BandConfig) -> Result<BandIndex> {
        let mut req = Enc::with_capacity(32);
        req.put_u8(OP_BAND_PARTIAL);
        cfg.encode_into(&mut req);
        self.call(req, BandIndex::decode)
    }

    fn enable_live_index(&self, cfg: &BandConfig) -> Result<()> {
        let mut req = Enc::with_capacity(32);
        req.put_u8(OP_ENABLE_LIVE);
        cfg.encode_into(&mut req);
        self.call(req, |_| Ok(()))
    }

    fn live_partial(&self) -> Result<BandIndex> {
        let mut req = Enc::with_capacity(1);
        req.put_u8(OP_LIVE_PARTIAL);
        self.call(req, BandIndex::decode)
    }

    fn live_signature(&self, instance: u64) -> Result<Option<Vec<(u32, u64)>>> {
        let mut req = Enc::with_capacity(16);
        req.put_u8(OP_LIVE_SIGNATURE);
        req.put_u64(instance);
        self.call(req, |dec| match dec.take_u8()? {
            0 => Ok(None),
            1 => take_signature(dec).map(Some),
            t => Err(Error::Encoding(format!("bad presence flag {t}"))),
        })
    }

    fn live_candidates(&self, sig: &[(u32, u64)]) -> Result<Vec<u64>> {
        let mut req = Enc::with_capacity(16 + 12 * sig.len());
        req.put_u8(OP_LIVE_CANDIDATES);
        put_signature(&mut req, sig);
        self.call(req, |dec| take_list(dec, 8, Dec::take_u64))
    }
}

/// Decodes a count-prefixed list whose elements take at least
/// `elem_bytes` wire bytes each. The count comes from another process,
/// so no more is reserved than the remaining bytes can hold: a corrupt
/// count fails as a truncated payload, never as a huge allocation.
fn take_list<'a, T>(
    dec: &mut Dec<'a>,
    elem_bytes: usize,
    mut take: impl FnMut(&mut Dec<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = dec.take_len()?;
    let mut out = Vec::with_capacity(n.min(dec.remaining() / elem_bytes));
    for _ in 0..n {
        out.push(take(dec)?);
    }
    Ok(out)
}

/// Appends a band signature: its length, then each `(band, hash)`.
fn put_signature(out: &mut Enc, sig: &[(u32, u64)]) {
    out.put_len(sig.len());
    for &(band, hash) in sig {
        out.put_u32(band);
        out.put_u64(hash);
    }
}

/// Reads a signature written by [`put_signature`].
fn take_signature(dec: &mut Dec<'_>) -> Result<Vec<(u32, u64)>> {
    take_list(dec, 12, |dec| Ok((dec.take_u32()?, dec.take_u64()?)))
}

/// Serves the shard protocol over an arbitrary byte stream: the worker
/// half of [`ProcessShard`]. Blocks until the peer closes the stream
/// (clean EOF returns `Ok`), an `OP_SHUTDOWN` arrives, or I/O fails.
///
/// The first frame must be the hello handshake; it configures the
/// [`LocalShard`] all later operations run against. Malformed *requests*
/// are answered with error frames and the loop continues — only
/// transport failure ends the session.
///
/// # Errors
///
/// Propagates transport I/O errors (other than clean EOF).
pub fn serve(rx: impl Read, tx: impl Write) -> io::Result<()> {
    let mut rx = BufReader::new(rx);
    let mut tx = BufWriter::new(tx);

    let hello = read_frame(&mut rx)?;
    let shard = match parse_hello(&hello) {
        Ok((k, salt)) => {
            let mut ack = Enc::with_capacity(2);
            ack.put_u8(STATUS_OK);
            ack.put_u8(PROTO_VERSION);
            write_frame(&mut tx, &ack.into_bytes())?;
            tx.flush()?;
            LocalShard::new(k, salt)
        }
        Err(e) => {
            let mut nack = Enc::new();
            nack.put_u8(STATUS_ERR);
            nack.put_bytes(e.to_string().as_bytes());
            write_frame(&mut tx, &nack.into_bytes())?;
            tx.flush()?;
            return Ok(());
        }
    };

    loop {
        let frame = match read_frame(&mut rx) {
            Ok(frame) => frame,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let shutdown = frame.first() == Some(&OP_SHUTDOWN);
        let resp = dispatch(&shard, &frame);
        debug_assert!(resp.len() <= MAX_FRAME as usize);
        write_frame(&mut tx, &resp)?;
        tx.flush()?;
        if shutdown {
            return Ok(());
        }
    }
}

/// [`serve`] over this process's stdin/stdout — the body of the
/// `shard_worker` binary.
///
/// # Errors
///
/// Propagates transport I/O errors (other than clean EOF).
pub fn serve_stdio() -> io::Result<()> {
    serve(io::stdin().lock(), io::stdout().lock())
}

fn parse_hello(frame: &[u8]) -> Result<(usize, u64)> {
    let mut dec = Dec::new(frame);
    let op = dec.take_u8()?;
    if op != OP_HELLO {
        return Err(Error::Encoding(format!("expected hello, got opcode {op}")));
    }
    let version = dec.take_u8()?;
    if version != PROTO_VERSION {
        return Err(Error::Encoding(format!(
            "protocol version mismatch: router speaks {version}, worker speaks {PROTO_VERSION}"
        )));
    }
    let k = dec.take_len()?;
    if !(1..=MAX_HELLO_K).contains(&k) {
        return Err(Error::Encoding(format!(
            "k = {k} is outside 1..={MAX_HELLO_K}"
        )));
    }
    let salt = dec.take_u64()?;
    dec.finish()?;
    Ok((k, salt))
}

/// Executes one request frame against `shard`, returning the response
/// payload (status byte included). Requests that fail to decode or that
/// the shard rejects become error frames, never a dead worker.
fn dispatch(shard: &LocalShard, frame: &[u8]) -> Vec<u8> {
    match try_dispatch(shard, frame) {
        Ok(resp) => resp,
        Err(e) => {
            let mut out = Enc::new();
            out.put_u8(match e {
                Error::NotApplicable(_) => STATUS_NOT_APPLICABLE,
                _ => STATUS_ERR,
            });
            out.put_bytes(e.to_string().as_bytes());
            out.into_bytes()
        }
    }
}

fn try_dispatch(shard: &LocalShard, frame: &[u8]) -> Result<Vec<u8>> {
    let mut dec = Dec::new(frame);
    let op = dec.take_u8()?;
    let mut out = Enc::new();
    out.put_u8(STATUS_OK);
    match op {
        OP_INGEST_ALL => {
            let instance = dec.take_u64()?;
            let items = take_list(&mut dec, 16, |dec| Ok((dec.take_u64()?, dec.take_f64()?)))?;
            dec.finish()?;
            shard.ingest_all(instance, &items)?;
        }
        OP_EVICT => {
            let instance = dec.take_u64()?;
            dec.finish()?;
            out.put_u8(shard.evict(instance)? as u8);
        }
        OP_LEN => {
            dec.finish()?;
            out.put_len(shard.len()?);
        }
        OP_SKETCHES => {
            let ids = take_list(&mut dec, 8, Dec::take_u64)?;
            dec.finish()?;
            for sketch in shard.sketches(&ids)? {
                match sketch {
                    Some(s) => {
                        out.put_u8(1);
                        s.encode_into(&mut out);
                    }
                    None => out.put_u8(0),
                }
            }
        }
        OP_BAND_PARTIAL => {
            let cfg = BandConfig::decode(&mut dec)?;
            dec.finish()?;
            shard.band_partial(&cfg)?.encode_into(&mut out);
        }
        OP_ENABLE_LIVE => {
            let cfg = BandConfig::decode(&mut dec)?;
            dec.finish()?;
            shard.enable_live_index(&cfg)?;
        }
        OP_LIVE_PARTIAL => {
            dec.finish()?;
            shard.live_partial()?.encode_into(&mut out);
        }
        OP_LIVE_SIGNATURE => {
            let instance = dec.take_u64()?;
            dec.finish()?;
            match shard.live_signature(instance)? {
                None => out.put_u8(0),
                Some(sig) => {
                    out.put_u8(1);
                    put_signature(&mut out, &sig);
                }
            }
        }
        OP_LIVE_CANDIDATES => {
            let sig = take_signature(&mut dec)?;
            dec.finish()?;
            let candidates = shard.live_candidates(&sig)?;
            out.put_len(candidates.len());
            for id in candidates {
                out.put_u64(id);
            }
        }
        OP_SHUTDOWN => {
            dec.finish()?;
        }
        other => return Err(Error::Encoding(format!("unknown opcode {other}"))),
    }
    Ok(out.into_bytes())
}

/// Resolves a `Command` that launches the `shard_worker` binary, in
/// order of preference:
///
/// 1. the [`WORKER_ENV`] (`MONOTONE_SHARD_WORKER`) environment variable,
///    taken verbatim;
/// 2. a `shard_worker` sibling of the current executable (hopping out of
///    cargo's `deps/` directory when running under `cargo test`);
/// 3. `{$CARGO_TARGET_DIR|target}/{debug,release}/shard_worker`
///    relative to the working directory.
///
/// A stale binary from an older build is safe to resolve: the protocol
/// handshake rejects version mismatches loudly.
///
/// # Errors
///
/// [`Error::ShardUnavailable`] when no candidate exists — build one with
/// `cargo build -p monotone-store` or point [`WORKER_ENV`] at it.
pub fn worker_command() -> Result<Command> {
    if let Some(path) = std::env::var_os(WORKER_ENV) {
        return Ok(Command::new(path));
    }
    let name = format!("shard_worker{}", std::env::consts::EXE_SUFFIX);
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            let mut dir = dir.to_path_buf();
            if dir.ends_with("deps") {
                dir.pop();
            }
            candidates.push(dir.join(&name));
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    candidates.push(target.join("debug").join(&name));
    candidates.push(target.join("release").join(&name));
    for candidate in &candidates {
        if candidate.is_file() {
            return Ok(Command::new(candidate));
        }
    }
    Err(Error::ShardUnavailable {
        shard: 0,
        reason: format!(
            "no shard_worker binary at any of {candidates:?}; \
             build one with `cargo build -p monotone-store` or set {WORKER_ENV}"
        ),
    })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// Runs `serve` on a thread over a socketpair and returns the
    /// client half plus the join handle.
    fn spawn_server() -> (UnixStream, std::thread::JoinHandle<io::Result<()>>) {
        let (client, server) = UnixStream::pair().expect("socketpair");
        let handle = std::thread::spawn(move || {
            let rx = server.try_clone().expect("clone server socket");
            serve(rx, server)
        });
        (client, handle)
    }

    fn roundtrip(sock: &mut UnixStream, payload: &[u8]) -> Vec<u8> {
        write_frame(sock, payload).expect("write frame");
        sock.flush().expect("flush");
        read_frame(sock).expect("read frame")
    }

    fn hello(k: usize, salt: u64) -> Vec<u8> {
        let mut req = Enc::new();
        req.put_u8(OP_HELLO);
        req.put_u8(PROTO_VERSION);
        req.put_len(k);
        req.put_u64(salt);
        req.into_bytes()
    }

    #[test]
    fn serve_handshakes_ingests_and_answers() {
        let (mut sock, handle) = spawn_server();
        assert_eq!(
            roundtrip(&mut sock, &hello(8, 42)),
            [STATUS_OK, PROTO_VERSION]
        );

        // Ingest a batch of observations, then fetch the sketch back and
        // compare with a local shard fed the same items one by one.
        let local = LocalShard::new(8, 42);
        let mut req = Enc::new();
        req.put_u8(OP_INGEST_ALL);
        req.put_u64(3);
        req.put_len(30);
        for key in 0..30u64 {
            let w = 1.0 + (key % 5) as f64;
            local.ingest(3, key, w).unwrap();
            req.put_u64(key);
            req.put_f64(w);
        }
        assert_eq!(roundtrip(&mut sock, &req.into_bytes()), [STATUS_OK]);
        let mut req = Enc::new();
        req.put_u8(OP_SKETCHES);
        req.put_len(2);
        req.put_u64(3);
        req.put_u64(99);
        let resp = roundtrip(&mut sock, &req.into_bytes());
        let mut dec = Dec::new(&resp);
        assert_eq!(dec.take_u8().unwrap(), STATUS_OK);
        assert_eq!(dec.take_u8().unwrap(), 1);
        let remote_sketch = BottomKSample::decode(&mut dec, 42).unwrap();
        assert_eq!(dec.take_u8().unwrap(), 0, "id 99 is absent");
        dec.finish().unwrap();
        assert_eq!(
            remote_sketch,
            local.sketches(&[3]).unwrap()[0].clone().unwrap()
        );

        // Clean shutdown: ok response, then the serve loop returns.
        let mut req = Enc::new();
        req.put_u8(OP_SHUTDOWN);
        assert_eq!(roundtrip(&mut sock, &req.into_bytes()), [STATUS_OK]);
        handle.join().expect("serve thread").expect("serve result");
    }

    #[test]
    fn serve_rejects_version_mismatch() {
        let (mut sock, handle) = spawn_server();
        let mut req = Enc::new();
        req.put_u8(OP_HELLO);
        req.put_u8(PROTO_VERSION.wrapping_add(1));
        req.put_len(8);
        req.put_u64(1);
        let resp = roundtrip(&mut sock, &req.into_bytes());
        assert_eq!(resp.first(), Some(&STATUS_ERR));
        assert!(String::from_utf8_lossy(&resp[1..]).contains("version mismatch"));
        handle.join().expect("serve thread").expect("serve result");
    }

    #[test]
    fn serve_answers_malformed_requests_with_errors_and_lives_on() {
        let (mut sock, handle) = spawn_server();
        assert_eq!(
            roundtrip(&mut sock, &hello(8, 7)),
            [STATUS_OK, PROTO_VERSION]
        );

        // Unknown opcode, truncated body, and a live op before
        // enablement: each answered, none fatal.
        assert_eq!(roundtrip(&mut sock, &[0xAB]).first(), Some(&STATUS_ERR));
        assert_eq!(
            roundtrip(&mut sock, &[OP_INGEST_ALL, 1, 2]).first(),
            Some(&STATUS_ERR)
        );
        let mut req = Enc::new();
        req.put_u8(OP_LIVE_PARTIAL);
        assert_eq!(
            roundtrip(&mut sock, &req.into_bytes()).first(),
            Some(&STATUS_NOT_APPLICABLE)
        );

        // The session still works after all that.
        let mut req = Enc::new();
        req.put_u8(OP_LEN);
        let resp = roundtrip(&mut sock, &req.into_bytes());
        let mut dec = Dec::new(&resp);
        assert_eq!(dec.take_u8().unwrap(), STATUS_OK);
        assert_eq!(dec.take_len().unwrap(), 0);
        drop(sock); // EOF ends the session cleanly
        handle.join().expect("serve thread").expect("serve result");
    }

    /// A count the frame cannot hold is a decode error, never a
    /// reservation: this 21-byte frame (length prefix, opcode, instance,
    /// count 2^40) must be answered without sizing an allocation by the
    /// count, which would abort the worker.
    #[test]
    fn serve_rejects_an_item_count_the_frame_cannot_hold() {
        let (mut sock, handle) = spawn_server();
        assert_eq!(
            roundtrip(&mut sock, &hello(8, 7)),
            [STATUS_OK, PROTO_VERSION]
        );
        let mut req = Enc::new();
        req.put_u8(OP_INGEST_ALL);
        req.put_u64(3);
        req.put_len(1 << 40);
        let req = req.into_bytes();
        assert_eq!(4 + req.len(), 21);
        assert_eq!(roundtrip(&mut sock, &req).first(), Some(&STATUS_ERR));

        // The worker still answers, and the bad batch created nothing.
        let resp = roundtrip(&mut sock, &[OP_LEN]);
        let mut dec = Dec::new(&resp);
        assert_eq!(dec.take_u8().unwrap(), STATUS_OK);
        assert_eq!(dec.take_len().unwrap(), 0);
        drop(sock);
        handle.join().expect("serve thread").expect("serve result");
    }

    /// A band config's sizes come from the router: 2^40 bands must be
    /// an error frame before anything is sized by them — the worker holds
    /// an instance, so even its signature would be — and the worker
    /// keeps serving.
    #[test]
    fn serve_rejects_an_oversized_band_config_and_lives_on() {
        let (mut sock, handle) = spawn_server();
        assert_eq!(
            roundtrip(&mut sock, &hello(8, 7)),
            [STATUS_OK, PROTO_VERSION]
        );
        let mut req = Enc::new();
        req.put_u8(OP_INGEST_ALL);
        req.put_u64(3);
        req.put_len(1);
        req.put_u64(5);
        req.put_f64(1.0);
        assert_eq!(roundtrip(&mut sock, &req.into_bytes()), [STATUS_OK]);
        let mut req = Enc::new();
        req.put_u8(OP_ENABLE_LIVE);
        req.put_len(1 << 40);
        req.put_len(1);
        req.put_u64(9);
        assert_eq!(
            roundtrip(&mut sock, &req.into_bytes()).first(),
            Some(&STATUS_ERR)
        );

        let resp = roundtrip(&mut sock, &[OP_LEN]);
        let mut dec = Dec::new(&resp);
        assert_eq!(dec.take_u8().unwrap(), STATUS_OK);
        assert_eq!(dec.take_len().unwrap(), 1);
        drop(sock);
        handle.join().expect("serve thread").expect("serve result");
    }

    /// The hello's `k` sizes every sketch the worker allocates, so a
    /// `k` no store uses is refused at the handshake.
    #[test]
    fn serve_refuses_a_hello_with_an_oversized_k() {
        let (mut sock, handle) = spawn_server();
        let resp = roundtrip(&mut sock, &hello(1 << 40, 7));
        assert_eq!(resp.first(), Some(&STATUS_ERR));
        assert!(String::from_utf8_lossy(&resp[1..]).contains("k = 1099511627776"));
        handle.join().expect("serve thread").expect("serve result");
    }

    /// A served session with residents and a live index, so that every
    /// valid request below reaches the shard code it names.
    fn open_session(cfg: &BandConfig) -> (UnixStream, std::thread::JoinHandle<io::Result<()>>) {
        let (mut sock, handle) = spawn_server();
        assert_eq!(
            roundtrip(&mut sock, &hello(8, 7)),
            [STATUS_OK, PROTO_VERSION]
        );
        for id in 0..6u64 {
            let mut req = Enc::new();
            req.put_u8(OP_INGEST_ALL);
            req.put_u64(id);
            req.put_len(12);
            for key in id * 4..id * 4 + 12 {
                req.put_u64(key);
                req.put_f64(1.0 + (key % 3) as f64);
            }
            assert_eq!(roundtrip(&mut sock, &req.into_bytes()), [STATUS_OK]);
        }
        let mut req = Enc::new();
        req.put_u8(OP_ENABLE_LIVE);
        cfg.encode_into(&mut req);
        assert_eq!(roundtrip(&mut sock, &req.into_bytes()), [STATUS_OK]);
        (sock, handle)
    }

    /// Pinned fuzzing of the worker loop: every truncation and every
    /// single-bit flip of one valid request per opcode is answered with
    /// a known status, and the session keeps serving (`OP_LEN` still
    /// answers) unless the frame asked to shut down.
    #[test]
    fn serve_survives_every_truncation_and_bit_flip_of_each_request() {
        let cfg = BandConfig::new(4, 2, 11);
        let (mut sock, mut handle) = open_session(&cfg);

        let request = |op: u8, body: &dyn Fn(&mut Enc)| {
            let mut req = Enc::new();
            req.put_u8(op);
            body(&mut req);
            req.into_bytes()
        };
        let signature = roundtrip(&mut sock, &request(OP_LIVE_SIGNATURE, &|r| r.put_u64(1)));
        assert_eq!(signature[..2], [STATUS_OK, 1], "instance 1 is live");
        let mut candidates = vec![OP_LIVE_CANDIDATES];
        candidates.extend_from_slice(&signature[2..]);
        let frames = [
            request(OP_INGEST_ALL, &|r| {
                r.put_u64(3);
                r.put_len(2);
                for key in [40u64, 41] {
                    r.put_u64(key);
                    r.put_f64(2.5);
                }
            }),
            request(OP_EVICT, &|r| r.put_u64(2)),
            request(OP_LEN, &|_| {}),
            request(OP_SKETCHES, &|r| {
                r.put_len(3);
                for id in [1u64, 4, 99] {
                    r.put_u64(id);
                }
            }),
            request(OP_BAND_PARTIAL, &|r| cfg.encode_into(r)),
            request(OP_ENABLE_LIVE, &|r| cfg.encode_into(r)),
            request(OP_LIVE_PARTIAL, &|_| {}),
            request(OP_LIVE_SIGNATURE, &|r| r.put_u64(1)),
            candidates,
            request(OP_SHUTDOWN, &|_| {}),
        ];

        for frame in &frames {
            let truncations = (0..frame.len()).map(|n| frame[..n].to_vec());
            let flips = (0..frame.len() * 8).map(|bit| {
                let mut v = frame.clone();
                v[bit / 8] ^= 1 << (bit % 8);
                v
            });
            for variant in truncations.chain(flips) {
                let resp = roundtrip(&mut sock, &variant);
                assert!(
                    matches!(
                        resp.first(),
                        Some(&(STATUS_OK | STATUS_ERR | STATUS_NOT_APPLICABLE))
                    ),
                    "request {variant:?} got reply {resp:?}"
                );
                if variant.first() == Some(&OP_SHUTDOWN) {
                    handle.join().expect("serve thread").expect("serve result");
                    (sock, handle) = open_session(&cfg);
                } else {
                    let resp = roundtrip(&mut sock, &[OP_LEN]);
                    assert_eq!(resp.first(), Some(&STATUS_OK), "after {variant:?}");
                }
            }
        }
        assert_eq!(roundtrip(&mut sock, frames.last().unwrap()), [STATUS_OK]);
        handle.join().expect("serve thread").expect("serve result");
    }

    /// A length prefix above `MAX_FRAME`, before the hello or inside a
    /// session, ends the session with `InvalidData` before anything is
    /// sized by it.
    #[test]
    fn serve_ends_the_session_on_an_oversized_length_prefix() {
        for len in [MAX_FRAME + 1, u32::MAX] {
            for handshake in [false, true] {
                let (mut sock, handle) = if handshake {
                    open_session(&BandConfig::new(4, 2, 11))
                } else {
                    spawn_server()
                };
                sock.write_all(&len.to_le_bytes()).expect("write prefix");
                let err = handle.join().expect("serve thread").unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
            }
        }
    }

    #[test]
    fn worker_command_honors_the_env_override() {
        // Can't mutate the environment safely in a threaded test run,
        // so only exercise the non-env fallback path's error shape by
        // pointing resolution at nothing: when no candidate exists the
        // error must name the override variable.
        match worker_command() {
            Ok(_) => {} // a built workspace legitimately resolves one
            Err(Error::ShardUnavailable { reason, .. }) => {
                assert!(reason.contains(WORKER_ENV));
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
