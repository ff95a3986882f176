//! Fault-tolerance integration tests: request deadlines, panic isolation,
//! Busy-storm client retries, idle-connection reaping, short-write
//! tolerance on the socket, and serve-WAL replay after a simulated crash.
//!
//! These run against real servers on localhost TCP; the fault-injection
//! points come from `mc_store::failpoints` (active here via this crate's
//! dev-dependency feature, inert in release builds).

use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_serve::wal::wal_path;
use mc_serve::{Client, ClientConfig, ClientError, ErrorCode, ServeConfig, ServeWal, Server};
use mc_store::failpoints::{self, FailAction};
use mc_store::FsyncPolicy;
use meancache::{MeanCacheConfig, ShardedCache};

const SEED: u64 = 7;

fn cache(shards: usize) -> ShardedCache {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    ShardedCache::new(
        encoder,
        MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(shards),
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mc_serve_resilience_{tag}_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A lookup that out-waits its deadline before the batcher runs it must
/// come back as a retryable `DeadlineExceeded` failure frame — promptly
/// (within 2× the deadline), and without killing the connection.
#[test]
fn expired_deadline_fails_retryably_within_twice_the_deadline() {
    let deadline = Duration::from_millis(150);
    let config = ServeConfig {
        request_deadline: deadline,
        // The slow batcher holds a lone lookup past its deadline before
        // executing it, but still well inside the 2× reply budget.
        batch_delay: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let started = Instant::now();
    let result = client.lookup("a lookup doomed to out-wait its deadline", &[]);
    let elapsed = started.elapsed();
    match result {
        Err(ClientError::Rejected {
            code: ErrorCode::DeadlineExceeded,
            retryable: true,
            ..
        }) => {}
        other => panic!("expected retryable DeadlineExceeded, got {other:?}"),
    }
    assert!(
        elapsed < deadline * 2,
        "failure frame took {elapsed:?}, over the 2x deadline budget"
    );
    // The failure frame is per-request: the same connection keeps working.
    client
        .ping()
        .expect("connection must survive the failure frame");
    let stats = client.stats().unwrap();
    assert!(stats.deadline_expired >= 1, "metric must count the expiry");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// A panic inside per-batch cache work resolves the victim's ticket with a
/// retryable `Panicked` frame, is counted, and leaves the batcher thread
/// alive for subsequent traffic.
#[test]
fn batch_work_panic_is_fenced_to_an_error_frame() {
    let handle = Server::start(cache(2), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let fuse = "panic fuse probe zzqx";
    failpoints::set_scoped(
        "serve.batch.work",
        fuse,
        FailAction::ErrorOnNth {
            n: 1,
            kind: std::io::ErrorKind::Other,
        },
    );
    let result = client.lookup(fuse, &[]);
    failpoints::clear("serve.batch.work");
    match result {
        Err(ClientError::Rejected {
            code: ErrorCode::Panicked,
            retryable: true,
            ..
        }) => {}
        other => panic!("expected retryable Panicked frame, got {other:?}"),
    }
    // The batcher survived: the very same connection serves the retry.
    let outcome = client.lookup(fuse, &[]).expect("retry after the panic");
    assert!(outcome.is_miss(), "nothing was ever inserted");
    let stats = client.stats().unwrap();
    assert_eq!(stats.panics_caught, 1, "metric must count the caught panic");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// Busy storm: a one-slot queue hammered by a pipelining flooder sheds
/// constantly, yet a retrying client lands 100% of its calls.
#[test]
fn retrying_client_survives_a_busy_storm() {
    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let flood_stop = stop.clone();
    let flooder = std::thread::spawn(move || {
        let probes: Vec<(String, Vec<String>)> = (0..32)
            .map(|i| (format!("storm flood probe {i}"), Vec::new()))
            .collect();
        let mut busy_seen = 0u64;
        let mut client = Client::connect(addr).expect("flooder connect");
        while !flood_stop.load(Ordering::Relaxed) {
            match client.lookup_pipelined(&probes) {
                Ok(_) => {}
                Err(ClientError::Overloaded) => {
                    busy_seen += 1;
                    // The aborted window leaves unread frames behind;
                    // resync on a fresh connection.
                    if client.reconnect().is_err() {
                        break;
                    }
                }
                Err(_) => {
                    if client.reconnect().is_err() {
                        break;
                    }
                }
            }
        }
        busy_seen
    });

    let mut client = Client::connect_with_config(addr, ClientConfig::resilient()).unwrap();
    for i in 0..10 {
        client
            .insert(
                &format!("storm durable entry {i}"),
                &format!("kept {i}"),
                &[],
            )
            .unwrap_or_else(|e| panic!("insert {i} must eventually land: {e}"));
    }
    for i in 0..10 {
        let outcome = client
            .lookup(&format!("storm durable entry {i}"), &[])
            .unwrap_or_else(|e| panic!("lookup {i} must eventually land: {e}"));
        assert!(outcome.is_hit(), "lookup {i} must hit");
    }
    stop.store(true, Ordering::Relaxed);
    let busy_seen = flooder.join().expect("flooder panicked");
    assert!(busy_seen > 0, "the storm must actually have shed windows");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// Connections silent for longer than the idle timeout are reaped by the
/// event loop (observed as EOF on the socket) and counted.
#[test]
fn idle_connections_are_reaped_after_the_timeout() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(1), &config, "127.0.0.1:0").unwrap();

    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    let read = idle.read(&mut buf).expect("reaper must close, not hang");
    assert_eq!(read, 0, "expected EOF from the idle reaper");

    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.idle_reaped >= 1, "metric must count the reaped conn");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// Injected short writes on the server's socket path: the flush loop must
/// keep writing until every frame is fully delivered.
#[test]
fn short_socket_writes_still_deliver_complete_frames() {
    let handle = Server::start(cache(2), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    // Scope the failpoint to this server's address so concurrent tests in
    // this binary are unaffected.
    failpoints::set_scoped(
        "serve.conn.write",
        &addr.to_string(),
        FailAction::ShortWrite { max: 7 },
    );
    let mut client = Client::connect(addr).unwrap();
    for i in 0..8 {
        client
            .insert(
                &format!("short write entry {i}"),
                &format!("a response long enough to span several dribbled writes {i}"),
                &[],
            )
            .unwrap();
    }
    let probes: Vec<(String, Vec<String>)> = (0..8)
        .map(|i| (format!("short write entry {i}"), Vec::new()))
        .collect();
    let outcomes = client.lookup_pipelined(&probes).unwrap();
    assert!(outcomes.iter().all(|o| o.is_hit()), "all frames intact");
    failpoints::clear("serve.conn.write");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// A WAL left behind by a crash (no graceful save, no snapshot) is
/// replayed on the next start: acknowledged inserts come back, and the
/// replay is visible in the stats plane.
#[test]
fn crashed_wal_is_replayed_on_restart() {
    let dir = temp_dir("wal_replay");
    let persist = dir.join("cache.log");

    // Simulate the aftermath of a crash: WAL records exist, but no
    // snapshot was ever written (the process died before any Save).
    {
        let (mut wal, ops, _) = ServeWal::open(wal_path(&persist), FsyncPolicy::Always).unwrap();
        assert!(ops.is_empty());
        wal.append_insert("crashed insert one", "survivor one", &[])
            .unwrap();
        wal.append_insert("crashed insert two", "survivor two", &[])
            .unwrap();
    }

    let config = ServeConfig {
        persist_path: Some(persist),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for (query, response) in [
        ("crashed insert one", "survivor one"),
        ("crashed insert two", "survivor two"),
    ] {
        let outcome = client.lookup(query, &[]).unwrap();
        let hit = outcome.hit().expect("replayed insert must hit");
        assert_eq!(hit.response, response);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.wal_replayed, 2, "both WAL ops counted as replayed");
    client.shutdown_server().unwrap();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL op the restarted cache refuses — here a tenant insert naming an
/// empty tenant, which the tenancy layer rejects — is skipped and counted
/// in Stats JSON and `/metrics`; the ops around it still replay.
#[test]
fn refused_wal_op_is_counted_and_the_rest_still_replay() {
    let dir = temp_dir("wal_refused");
    let persist = dir.join("cache.log");
    {
        let (mut wal, _, _) = ServeWal::open(wal_path(&persist), FsyncPolicy::Always).unwrap();
        wal.append_insert("replayed before the refusal", "one", &[])
            .unwrap();
        wal.append_insert_for("", "refused insert", "lost", &[])
            .unwrap();
        wal.append_insert("replayed after the refusal", "two", &[])
            .unwrap();
    }

    let config = ServeConfig {
        persist_path: Some(persist),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for query in ["replayed before the refusal", "replayed after the refusal"] {
        assert!(client.lookup(query, &[]).unwrap().is_hit(), "{query}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.wal_replayed, 3);
    assert_eq!(stats.wal_replay_errors, 1);
    assert_eq!(stats.entries, 2);
    let metrics = client.metrics_text().unwrap();
    assert!(
        metrics.contains("\nserve_wal_replay_errors_total 1\n"),
        "{metrics}"
    );
    client.shutdown_server().unwrap();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
