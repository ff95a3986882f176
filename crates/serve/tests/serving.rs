//! Integration tests for the serving subsystem: batcher equivalence,
//! bounded-queue shedding, graceful-shutdown draining, and client/server
//! round-trips over localhost TCP.

use std::sync::Arc;
use std::time::Duration;

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_serve::{
    Client, ClientError, ErrorCode, ServeConfig, ServePipeline, ServeReply, ServeRequest, Server,
    SubmitError,
};
use meancache::{MeanCacheConfig, SemanticCache, ShardedCache};

const SEED: u64 = 7;

fn cache(shards: usize) -> ShardedCache {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    ShardedCache::new(
        encoder,
        MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_index(mc_store::IndexKind::flat_sq8())
            .with_shards(shards),
    )
    .unwrap()
}

/// `(query, response, context)` rows to insert before probing.
type InsertRow = (String, String, Vec<String>);
/// `(query, context)` probes, in submission order.
type Probe = (String, Vec<String>);

/// A mixed workload: exact repeats (hits), paraphrase-ish variants, novel
/// queries (misses), and contextual follow-ups in matching and mismatched
/// conversations.
fn workload() -> (Vec<InsertRow>, Vec<Probe>) {
    let inserts: Vec<InsertRow> = (0..40)
        .map(|i| {
            (
                format!("distinct serving subject number {i}"),
                format!("cached response {i}"),
                Vec::new(),
            )
        })
        .chain(std::iter::once((
            "change the color to red".to_string(),
            "Pass color='red'.".to_string(),
            vec!["distinct serving subject number 3".to_string()],
        )))
        .collect();
    let probes: Vec<(String, Vec<String>)> = (0..40)
        .map(|i| (format!("distinct serving subject number {i}"), Vec::new()))
        .chain((0..10).map(|i| (format!("novel uncached probe {i} qzx"), Vec::new())))
        .chain([
            (
                "change the color to red".to_string(),
                vec!["distinct serving subject number 3".to_string()],
            ),
            (
                "change the color to red".to_string(),
                vec!["a wholly different conversation".to_string()],
            ),
        ])
        .collect();
    (inserts, probes)
}

/// The acceptance-criteria equivalence proof: responses produced by the
/// micro-batched pipeline are identical — entry ids, scores, response
/// bytes, contextual flags — to sequential `lookup` calls in submission
/// order on an identical cache.
#[test]
fn batched_responses_equal_sequential_lookups_in_submission_order() {
    let (inserts, probes) = workload();

    // Reference: plain sequential lookups on an identically-built cache.
    let mut reference = cache(4);
    for (q, r, ctx) in &inserts {
        reference.insert(q, r, ctx).unwrap();
    }
    let expected: Vec<_> = probes
        .iter()
        .map(|(q, ctx)| reference.lookup(q, ctx))
        .collect();

    // Pipeline under maximal batching pressure: batch up to the whole
    // workload, and a slow batcher so submissions pile up behind the first
    // batch and share the next ones.
    let mut under_test = cache(4);
    for (q, r, ctx) in &inserts {
        under_test.insert(q, r, ctx).unwrap();
    }
    let pipeline = ServePipeline::start(
        under_test,
        &ServeConfig {
            max_batch: probes.len(),
            batch_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let tickets: Vec<_> = probes
        .iter()
        .map(|(q, ctx)| {
            pipeline
                .submit(ServeRequest::Lookup {
                    query: q.clone(),
                    context: ctx.clone(),
                })
                .unwrap()
        })
        .collect();
    let got: Vec<_> = tickets
        .iter()
        .map(|t| match t.wait() {
            ServeReply::Outcome(outcome) => outcome,
            other => panic!("expected an outcome, got {other:?}"),
        })
        .collect();
    assert_eq!(expected, got, "batched and sequential decisions diverged");
    // The batcher actually batched (otherwise this test proves nothing).
    let stats = match pipeline.submit(ServeRequest::Stats).unwrap().wait() {
        ServeReply::Stats(snapshot) => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(
        stats.avg_batch > 1.5,
        "expected real batches, got avg {:.2}",
        stats.avg_batch
    );
    pipeline.shutdown();
}

/// Bounded admission queue: a slow consumer (artificial batch delay) lets a
/// fast producer hit the cap, and the overflow is shed with `Overloaded` —
/// not buffered, not blocked.
#[test]
fn bounded_queue_sheds_under_a_slow_consumer() {
    let pipeline = ServePipeline::start(
        cache(2),
        &ServeConfig {
            max_batch: 1,
            queue_capacity: 8,
            batch_delay: Duration::from_millis(30),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..64 {
        match pipeline.submit(ServeRequest::Lookup {
            query: format!("probe {i}"),
            context: Vec::new(),
        }) {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::Overloaded) => shed += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    assert!(shed > 0, "a 30ms/op consumer must shed a burst of 64");
    assert!(
        accepted.len() >= 8,
        "the queue capacity itself must be admitted"
    );
    // Everything admitted still resolves (shedding loses only the shed).
    for ticket in &accepted {
        assert!(matches!(ticket.wait(), ServeReply::Outcome(_)));
    }
    assert_eq!(pipeline.metrics().shed_count(), shed as u64);
    pipeline.shutdown();
}

/// Graceful shutdown drains: every ticket admitted before `shutdown` is
/// resolved, and submissions after it fail with `ShutDown`.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let pipeline = Arc::new(
        ServePipeline::start(
            cache(2),
            &ServeConfig {
                max_batch: 4,
                queue_capacity: 1024,
                batch_delay: Duration::from_millis(2), // keep a backlog alive
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );
    let tickets: Vec<_> = (0..100)
        .map(|i| {
            pipeline
                .submit(ServeRequest::Lookup {
                    query: format!("drain probe {i}"),
                    context: Vec::new(),
                })
                .unwrap()
        })
        .collect();
    // Shut down while the backlog is (almost certainly) non-empty.
    pipeline.shutdown();
    for (i, ticket) in tickets.iter().enumerate() {
        assert!(
            matches!(ticket.wait(), ServeReply::Outcome(_)),
            "ticket {i} must resolve across shutdown"
        );
    }
    assert!(matches!(
        pipeline.submit(ServeRequest::Stats),
        Err(SubmitError::ShutDown)
    ));
}

/// Full client/server round-trip over localhost TCP: inserts, hits, misses,
/// contextual decisions, control plane, pipelining, graceful shutdown.
#[test]
fn client_server_round_trip_over_localhost() {
    let (inserts, probes) = workload();
    let mut reference = cache(4);
    for (q, r, ctx) in &inserts {
        reference.insert(q, r, ctx).unwrap();
    }
    let expected: Vec<_> = probes
        .iter()
        .map(|(q, ctx)| reference.lookup(q, ctx))
        .collect();

    let handle = Server::start(cache(4), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    for (q, r, ctx) in &inserts {
        client.insert(q, r, ctx).unwrap();
    }
    // Sequential lookups match the local reference decision-for-decision.
    for ((q, ctx), want) in probes.iter().zip(&expected) {
        let got = client.lookup(q, ctx).unwrap();
        assert_eq!(&got, want, "probe {q:?} diverged over TCP");
    }
    // Pipelined lookups return the same outcomes in submission order.
    let got = client.lookup_pipelined(&probes).unwrap();
    assert_eq!(got, expected, "pipelined outcomes diverged");

    // Control plane: stats reflect the traffic; threshold + flush apply.
    let stats = client.stats().unwrap();
    assert_eq!(stats.entries, inserts.len());
    assert_eq!(stats.inserts, inserts.len() as u64);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.queue_capacity, ServeConfig::default().queue_capacity);
    assert_eq!(
        stats.served_hits + stats.served_misses,
        2 * probes.len() as u64
    );
    client.set_threshold(0.95).unwrap();
    // A bad request comes back as a classified, non-retryable failure
    // frame — and the connection survives it (the flush below reuses it).
    assert!(matches!(
        client.set_threshold(2.0),
        Err(ClientError::Rejected {
            code: ErrorCode::BadRequest,
            retryable: false,
            ..
        })
    ));
    let flushed = client.flush().unwrap();
    assert_eq!(flushed, inserts.len() as u64);
    let outcome = client.lookup(&inserts[0].0, &[]).unwrap();
    assert!(outcome.is_miss(), "flushed cache must miss");
    let stats = client.stats().unwrap();
    assert_eq!(stats.entries, 0);
    assert!((stats.threshold - 0.95).abs() < 1e-6);

    // Graceful shutdown via the wire; the server handle drains and joins.
    client.shutdown_server().unwrap();
    handle.wait();
}

/// A second connection beyond `max_connections` is refused with `Busy`
/// instead of degrading the admitted one.
#[test]
fn connection_budget_refuses_with_busy() {
    let handle = Server::start(
        cache(2),
        &ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();
    let mut first = Client::connect(addr).unwrap();
    first.ping().unwrap();
    // The second connection is told Busy on its first call.
    let mut second = Client::connect(addr).unwrap();
    match second.ping() {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The first connection is unaffected.
    first.ping().unwrap();
    drop(second);
    handle.shutdown();
}

/// Server-side shutdown resolves all in-flight wire requests before the
/// process lets go (drain guarantee end to end).
#[test]
fn server_shutdown_answers_in_flight_wire_requests() {
    let handle = Server::start(
        cache(2),
        &ServeConfig {
            max_batch: 2,
            batch_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .insert("warm entry for shutdown", "resp", &[])
        .unwrap();
    let probes: Vec<(String, Vec<String>)> = (0..50)
        .map(|i| (format!("in flight probe {i}"), Vec::new()))
        .collect();
    // Issue a pipelined window, then shut the server down from the handle
    // while responses are still streaming back.
    let issuer = std::thread::spawn(move || client.lookup_pipelined(&probes).map(|o| o.len()));
    std::thread::sleep(Duration::from_millis(5));
    handle.shutdown();
    // Either every response arrived (fully drained before teardown) — the
    // common case — or the connection died *after* the drain, in which case
    // the client sees a transport error, never a wrong answer.
    match issuer.join().unwrap() {
        Ok(n) => assert_eq!(n, 50),
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected client error: {other}"),
    }
}

/// The `SetRouting` control command reshards the served cache in place,
/// totally ordered with the lookups around it: everything cached before the
/// switch is still served after it, and the stats plane reports the new
/// mode.
#[test]
fn set_routing_reshards_in_place_without_losing_entries() {
    use meancache::RoutingMode;
    let pipeline = ServePipeline::start(cache(4), &ServeConfig::default()).unwrap();
    for i in 0..20 {
        let reply = pipeline
            .submit(ServeRequest::Insert {
                query: format!("routing switch subject {i}"),
                response: format!("resp {i}"),
                context: Vec::new(),
            })
            .unwrap()
            .wait();
        assert!(matches!(reply, ServeReply::Inserted(_)));
    }
    assert_eq!(
        pipeline
            .submit(ServeRequest::SetRouting(RoutingMode::ScatterGather))
            .unwrap()
            .wait(),
        ServeReply::Ack
    );
    for i in 0..20 {
        let reply = pipeline
            .submit(ServeRequest::Lookup {
                query: format!("routing switch subject {i}"),
                context: Vec::new(),
            })
            .unwrap()
            .wait();
        match reply {
            ServeReply::Outcome(outcome) => {
                assert!(outcome.is_hit(), "subject {i} must survive the reshard");
                assert_eq!(outcome.hit().unwrap().response, format!("resp {i}"));
            }
            other => panic!("expected an outcome, got {other:?}"),
        }
    }
    let stats = match pipeline.submit(ServeRequest::Stats).unwrap().wait() {
        ServeReply::Stats(snapshot) => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(stats.routing, "scatter-gather");
    assert_eq!(stats.entries, 20);
    // Switching to the mode already in effect is an Ack without a reshard.
    assert_eq!(
        pipeline
            .submit(ServeRequest::SetRouting(RoutingMode::ScatterGather))
            .unwrap()
            .wait(),
        ServeReply::Ack
    );
    pipeline.shutdown();
}

/// The `Save` control command persists to the configured path (and fails
/// loudly without one); a pipeline built from the restored cache serves the
/// same contents.
#[test]
fn save_command_persists_and_restores_through_the_pipeline() {
    let dir = std::env::temp_dir().join(format!(
        "mc_serve_save_test_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.log");

    // Without a persist path, Save fails loudly.
    let unpersisted = ServePipeline::start(cache(2), &ServeConfig::default()).unwrap();
    assert!(matches!(
        unpersisted.submit(ServeRequest::Save).unwrap().wait(),
        ServeReply::Failed { .. }
    ));
    unpersisted.shutdown();

    let config = ServeConfig {
        persist_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let pipeline = ServePipeline::start(cache(3), &config).unwrap();
    for i in 0..12 {
        pipeline
            .submit(ServeRequest::Insert {
                query: format!("persisted serving subject {i}"),
                response: format!("resp {i}"),
                context: Vec::new(),
            })
            .unwrap()
            .wait();
    }
    assert_eq!(
        pipeline.submit(ServeRequest::Save).unwrap().wait(),
        ServeReply::Saved(12)
    );
    pipeline.shutdown();

    // A fresh pipeline on the restored cache answers from the save.
    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    let restored = meancache::persist::load_sharded_cache_with_config(encoder, &path).unwrap();
    assert_eq!(restored.len(), 12);
    let pipeline = ServePipeline::start(restored, &ServeConfig::default()).unwrap();
    let reply = pipeline
        .submit(ServeRequest::Lookup {
            query: "persisted serving subject 7".into(),
            context: Vec::new(),
        })
        .unwrap()
        .wait();
    match reply {
        ServeReply::Outcome(outcome) => {
            assert_eq!(outcome.hit().unwrap().response, "resp 7");
        }
        other => panic!("expected an outcome, got {other:?}"),
    }
    pipeline.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Graceful shutdown with a persist path saves automatically: the whole
/// serve lifecycle (insert over TCP → shutdown → restart) keeps contents.
#[test]
fn shutdown_saves_automatically_when_persistence_is_configured() {
    let dir = std::env::temp_dir().join(format!(
        "mc_serve_autosave_test_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.log");
    let config = ServeConfig {
        persist_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.insert("autosaved entry", "resp", &[]).unwrap();
    drop(client);
    handle.shutdown();

    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    let restored = meancache::persist::load_sharded_cache_with_config(encoder, &path).unwrap();
    assert_eq!(restored.len(), 1);
    assert!(restored.probe("autosaved entry", &[]).is_hit());
    std::fs::remove_dir_all(&dir).ok();
}

/// Both readiness backends serve an identical round trip: what CI smokes
/// with `--poller epoll` and `--poller poll` is also pinned here.
#[test]
fn poll_fallback_backend_serves_round_trips() {
    for kind in [mc_serve::PollerKind::Epoll, mc_serve::PollerKind::Poll] {
        let handle =
            Server::start_with_poller(cache(2), &ServeConfig::default(), "127.0.0.1:0", kind)
                .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        client
            .insert("poller backend subject", "resp", &[])
            .unwrap();
        let outcome = client.lookup("poller backend subject", &[]).unwrap();
        assert!(outcome.is_hit(), "{kind:?}: lookup must hit");
        assert!(client.lookup("never inserted qzx", &[]).unwrap().is_miss());
        drop(client);
        handle.shutdown();
    }
}

/// The `/metrics`-style text dump travels the wire and reflects traffic.
#[test]
fn metrics_text_round_trips_over_the_wire() {
    let handle = Server::start(cache(2), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.insert("metrics subject", "resp", &[]).unwrap();
    assert!(client.lookup("metrics subject", &[]).unwrap().is_hit());
    let text = client.metrics_text().unwrap();
    assert!(text.contains("serve_entries 1"), "metrics text:\n{text}");
    assert!(text.contains("serve_served_hits_total 1"));
    assert!(text.contains("serve_latency_us_count"));
    assert!(text.contains("serve_latency_us{quantile=\"0.99\"}"));
    // The default config enables the embedding memo; the insert + lookup
    // encoded the same text twice, so the second encode was a memo hit.
    assert!(text.contains("serve_memo_hits_total 1"));
    drop(client);
    handle.shutdown();
}

/// The flight-recorder dump travels the wire as JSON: with sampling at 1
/// every request is traced, each trace deserializes, and its stage
/// timestamps are monotone.
#[test]
fn trace_dump_round_trips_over_the_wire() {
    let config = ServeConfig {
        trace_sample: 1,
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.insert("traced wire subject", "resp", &[]).unwrap();
    assert!(client.lookup("traced wire subject", &[]).unwrap().is_hit());
    assert!(client.lookup("never inserted qzx", &[]).unwrap().is_miss());

    let json = client.trace_dump().unwrap();
    let dump: mc_metrics::trace::TraceDump = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("dump must be valid JSON ({e}):\n{json}"));
    assert_eq!(dump.sample_every, 1);
    assert!(
        dump.traces.len() >= 3,
        "all three requests must be recorded, got {}",
        dump.traces.len()
    );
    for t in &dump.traces {
        assert!(t.is_monotone(), "stages must be monotone: {t:?}");
        assert!(t.total_us > 0, "a served request takes nonzero time");
    }
    // Lookups carry the memo verdict; the repeat encode of the inserted
    // text must have been a memo hit.
    assert!(
        dump.traces.iter().any(|t| t.memo_hit == Some(true)),
        "repeat lookup must be a memo hit: {json}"
    );
    drop(client);
    handle.shutdown();
}

/// A frame split across many small writes (length prefix included) is
/// reassembled by the event loop exactly as if it arrived whole.
#[test]
fn server_reassembles_requests_split_across_tcp_writes() {
    use std::io::Write as _;
    let handle = Server::start(cache(2), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .insert("fragmented frame subject", "resp", &[])
        .unwrap();
    drop(client);

    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    let payload = mc_serve::Request::Lookup {
        query: "fragmented frame subject".into(),
        context: Vec::new(),
    }
    .encode();
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    // Dribble the frame one byte at a time, with pauses, so the server's
    // reads genuinely observe partial prefixes and partial payloads.
    for chunk in wire.chunks(1) {
        raw.write_all(chunk).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut reader = std::io::BufReader::new(raw);
    let response = mc_serve::protocol::read_frame(&mut reader)
        .unwrap()
        .expect("server must answer the reassembled frame");
    let response = mc_serve::Response::decode(&response).unwrap();
    assert!(
        response.into_outcome().expect("lookup outcome").is_hit(),
        "reassembled lookup must hit"
    );
    handle.shutdown();
}

/// The event loop's work scales with *active* sockets, not open ones: with
/// 1k idle connections parked, a burst of round trips on one connection
/// costs O(burst) readiness events — idle connections contribute nothing.
#[test]
fn idle_connections_cost_no_events_while_one_connection_works() {
    let config = ServeConfig {
        max_connections: 1100,
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut active = Client::connect(handle.addr()).unwrap();
    active.ping().unwrap();

    // Park 1000 idle connections. Each costs a handful of events to accept
    // and then must cost nothing while idle.
    let idle: Vec<Client> = (0..1000)
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    // Let the accept backlog fully drain, then settle.
    let mut pinger = Client::connect(handle.addr()).unwrap();
    pinger.ping().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let before = handle.io_event_count();
    for _ in 0..100 {
        active.ping().unwrap();
    }
    let events = handle.io_event_count() - before;
    // 100 blocking round trips ≈ 100 readable events on the active socket
    // plus a bounded number of waker/writable events. With 1000 idle
    // connections in the table, an O(open-connections) loop would instead
    // show tens of thousands of events here.
    assert!(
        events <= 1000,
        "100 round trips cost {events} events with 1k idle connections parked \
         — the loop is doing work proportional to open sockets, not active ones"
    );
    // And the idle sockets are all still live connections, not casualties.
    drop(idle);
    drop(active);
    drop(pinger);
    handle.shutdown();
}
