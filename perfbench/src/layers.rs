//! The traced run: per-layer metrics.
//!
//! The middle phase runs twice against a real server, untraced and then
//! with `trace_sample = 1`, which gives the tracing overhead and the
//! server's own stage data (queue wait, write flush, batching counters).
//! Then the same generated inputs are replayed in process through each
//! layer's public functions — protocol codec, embedding memo, encoder,
//! index, cache, WAL, persistence — with spans taken around those calls
//! from this file. Spans are kept in memory and dumped as one JSON file.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mc_embedder::{EmbeddingMemo, QueryEncoder};
use mc_serve::protocol::{encode_lookup, write_frame, Request, Response};
use mc_serve::wal::{wal_path, ServeWal, WalOp};
use mc_serve::ServeConfig;
use mc_store::{FsyncPolicy, VectorIndex};
use mc_tensor::quant::QuantizedVec;
use mc_tensor::vector;
use meancache::persist::{load_sharded_cache_with_report, save_sharded_cache_with_config};
use meancache::{SemanticCache, ShardedCache};

use crate::gen::{OpKind, Workload, MODEL_SEED};
use crate::plan::SeqOp;
use crate::run::{Bench, Phase, PhaseOpts};
use crate::util::{self, jstr, mean, quantile};

const NONE: u32 = u32::MAX;

/// One timed interval: layer name, start and end (ns from the origin), the
/// span that caused it, and the request it belongs to.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    req: u64,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        end - span.start
    }

    /// Runs `f` inside a span.
    fn time<R>(&mut self, name: &'static str, parent: u32, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    fn record(&mut self, name: &'static str, parent: u32, req: u64, start: u64, end: u64) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) per span name: duration minus the children's.
    fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child[span.parent as usize] += span.end - span.start;
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(child) {
            let own = (span.end - span.start).saturating_sub(covered) as f64;
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NONE {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                format!(
                    "[{}, {}, {}, {}, {}]",
                    jstr(s.name),
                    s.start,
                    s.end,
                    parent,
                    s.req
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Layer of a span name (the module prefix).
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-call time of a kernel, median of five timed loops.
fn time_kernel(iters: usize, mut f: impl FnMut() -> f32) -> f64 {
    let mut runs = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..iters {
            acc += f();
        }
        black_box(acc);
        runs.push(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    util::median(&runs)
}

/// Replay results the metrics are computed from.
#[derive(Default)]
struct Replay {
    lookups: usize,
    inserts: usize,
    queries_searched: usize,
    rows_scanned: f64,
    bytes_scanned: f64,
    memo_hits: usize,
    memo_misses: usize,
    request_bytes: usize,
    response_bytes: usize,
    evictions: usize,
}

/// Replays the middle phase's ops through the layers in batches of
/// `batch` lookups (runs of lookups break at inserts, as on the server).
fn replay_layers(
    spans: &mut Spans,
    template: &ShardedCache,
    ops: &[SeqOp],
    batch: usize,
) -> (Replay, ShardedCache) {
    let mut cache = template.clone();
    let memo = Arc::new(EmbeddingMemo::new(ServeConfig::default().memo_capacity, 0));
    cache.set_embedding_memo(Some(Arc::clone(&memo)));
    let encoder: QueryEncoder = cache.encoder().clone();
    let (top_k, threshold) = (cache.config().top_k, cache.config().threshold);
    let initial = cache.len();
    let mut r = Replay::default();
    let mut frame = Vec::with_capacity(1024);
    let mut i = 0;
    while i < ops.len() {
        let op = &ops[i];
        if op.spec.kind != OpKind::Lookup {
            if op.spec.kind == OpKind::Insert {
                let req = i as u64;
                let root = spans.open("request.insert", NONE, req);
                let payload = spans.time("protocol.encode", root, req, || {
                    let payload = Request::Insert {
                        query: op.spec.query.clone(),
                        response: op.spec.response.clone(),
                        context: op.spec.context.clone(),
                    }
                    .encode();
                    frame.clear();
                    write_frame(&mut frame, &payload).expect("frame fits");
                    payload
                });
                spans.time("protocol.decode", root, req, || {
                    black_box(Request::decode(&payload).expect("valid insert"));
                });
                spans.time("cache.insert", root, req, || {
                    cache
                        .insert(&op.spec.query, &op.spec.response, &op.spec.context)
                        .expect("replay insert")
                });
                spans.close(root);
                r.inserts += 1;
            }
            i += 1;
            continue;
        }
        let end = (i..ops.len())
            .take(batch)
            .take_while(|&j| ops[j].spec.kind == OpKind::Lookup)
            .last()
            .map_or(i + 1, |j| j + 1);
        let group = &ops[i..end];
        let root = spans.open("request.batch", NONE, i as u64);
        // Protocol: request encode and decode.
        let mut payloads = Vec::with_capacity(group.len());
        for (k, op) in group.iter().enumerate() {
            let req = (i + k) as u64;
            let payload = spans.time("protocol.encode", root, req, || {
                let mut payload = Vec::with_capacity(16 + op.spec.query.len());
                encode_lookup(&mut payload, &op.spec.query, &op.spec.context);
                frame.clear();
                write_frame(&mut frame, &payload).expect("frame fits");
                payload
            });
            r.request_bytes += payload.len() + 4;
            spans.time("protocol.decode", root, req, || {
                black_box(Request::decode(&payload).expect("valid lookup"));
            });
            payloads.push(payload);
        }
        // Memo and encoder: the embeddings the probe needs (query and the
        // most recent context turn).
        let mut embeddings = Vec::with_capacity(group.len());
        for (k, op) in group.iter().enumerate() {
            let req = (i + k) as u64;
            let texts = std::iter::once(op.spec.query.as_str())
                .chain(op.spec.context.last().map(String::as_str));
            for (t, text) in texts.enumerate() {
                let lookup = spans.open("memo.get_or_encode", root, req);
                let mut ran = false;
                let embedding = memo.get_or_encode(text, |text| {
                    ran = true;
                    let id = spans.open("encoder.encode", lookup, req);
                    let v = encoder.encode(text);
                    spans.close(id);
                    v
                });
                spans.close(lookup);
                if ran {
                    r.memo_misses += 1;
                } else {
                    r.memo_hits += 1;
                }
                if t == 0 {
                    embeddings.push(embedding);
                }
            }
        }
        // Index: each query against its shard.
        let mut by_shard: HashMap<usize, Vec<usize>> = HashMap::new();
        for (k, op) in group.iter().enumerate() {
            by_shard
                .entry(cache.shard_of(&op.spec.query, &op.spec.context))
                .or_default()
                .push(k);
        }
        let search = spans.open("index.search_batch", root, i as u64);
        for (shard, members) in &by_shard {
            let refs: Vec<&[f32]> = members.iter().map(|&k| embeddings[k].as_slice()).collect();
            let (rows, bytes) = cache.with_shard(*shard, |mc| {
                let index = mc.index();
                black_box(index.search_batch(&refs, top_k, threshold).expect("search"));
                (index.len(), index.storage_bytes())
            });
            r.rows_scanned += (rows * refs.len()) as f64;
            r.bytes_scanned += (bytes * refs.len()) as f64;
            r.queries_searched += refs.len();
        }
        spans.close(search);
        // Cache: the real batched probe (its embeds are memo hits now),
        // then the ordered commits.
        let probes: Vec<(&str, &[String])> = group
            .iter()
            .map(|op| (op.spec.query.as_str(), op.spec.context.as_slice()))
            .collect();
        let outcomes = spans.time("cache.probe_batch", root, i as u64, || {
            cache.probe_batch(&probes)
        });
        for (k, outcome) in outcomes.iter().enumerate() {
            let req = (i + k) as u64;
            spans.time("cache.commit", root, req, || cache.commit(outcome));
            let response = spans.time("protocol.encode", root, req, || {
                let payload = Response::from_outcome(outcome).encode();
                frame.clear();
                write_frame(&mut frame, &payload).expect("frame fits");
                payload
            });
            r.response_bytes += response.len() + 4;
            spans.time("protocol.decode", root, req, || {
                black_box(Response::decode(&response).expect("valid response"));
            });
        }
        spans.close(root);
        r.lookups += group.len();
        i = end;
    }
    r.evictions = (initial + r.inserts).saturating_sub(cache.len());
    (r, cache)
}

/// WAL and persistence layers (`durable-restart` only): appends and fsyncs
/// of the phase's inserts, a save of the replayed cache, and a restore plus
/// WAL replay of the crash image.
fn persist_layers(
    spans: &mut Spans,
    bench: &Bench,
    ops: &[SeqOp],
    replayed: &ShardedCache,
    image: &Path,
    metrics: &mut Vec<(String, f64, &'static str)>,
) {
    let dir = bench.run_dir.join("layers");
    std::fs::create_dir_all(&dir).expect("layer scratch directory");
    let log = dir.join("append.wal");
    let (mut wal, _, _) = ServeWal::open(&log, FsyncPolicy::Never).expect("open scratch WAL");
    let mut user_bytes = 0usize;
    let mut appended = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if op.spec.kind != OpKind::Insert {
            continue;
        }
        let req = i as u64;
        spans.time("wal.append", NONE, req, || {
            wal.append_insert(&op.spec.query, &op.spec.response, &op.spec.context)
                .expect("append")
        });
        spans.time("wal.fsync", NONE, req, || wal.sync().expect("fsync"));
        user_bytes += op.spec.query.len() + op.spec.response.len();
        appended += 1;
    }
    drop(wal);
    let wal_bytes = std::fs::metadata(&log).map_or(0, |m| m.len()) as f64;
    let saved = dir.join("save");
    std::fs::create_dir_all(&saved).expect("save directory");
    spans.time("persist.save", NONE, 0, || {
        save_sharded_cache_with_config(replayed, &saved.join("cache.log")).expect("save")
    });
    let save_bytes = util::dir_bytes(&saved) as f64;
    let restored_dir = dir.join("restore");
    util::copy_dir(image, &restored_dir).expect("copy crash image");
    let path = restored_dir.join("cache.log");
    let encoder = QueryEncoder::new(bench.spec.profile.clone(), MODEL_SEED).expect("valid profile");
    let (mut restored, _) = spans.time("persist.restore", NONE, 0, || {
        load_sharded_cache_with_report(encoder, &path).expect("restore crash image")
    });
    let replay = spans.open("persist.wal_replay", NONE, 0);
    let (_wal, wal_ops, _) = ServeWal::open(wal_path(&path), FsyncPolicy::Never).expect("open WAL");
    for op in &wal_ops {
        if let WalOp::Insert {
            query,
            response,
            context,
            ..
        } = op
        {
            spans.time("cache.insert", replay, 0, || {
                restored
                    .insert(query, response, context)
                    .expect("replay insert")
            });
        }
    }
    spans.close(replay);
    let fsync = util::sorted(spans.durations("wal.fsync"));
    let per_insert = appended.max(1) as f64;
    metrics.extend([
        (
            "wal.append_us".to_string(),
            mean(&spans.durations("wal.append")) / 1e3,
            "us",
        ),
        (
            "wal.fsync_p50_us".to_string(),
            quantile(&fsync, 0.5) / 1e3,
            "us",
        ),
        (
            "wal.fsync_p99_us".to_string(),
            quantile(&fsync, util::tail_q(fsync.len())) / 1e3,
            "us",
        ),
        (
            "wal.bytes_per_insert".to_string(),
            wal_bytes / per_insert,
            "B",
        ),
        (
            "persist.save_s".to_string(),
            spans.total("persist.save") / 1e9,
            "s",
        ),
        (
            "persist.restore_s".to_string(),
            spans.total("persist.restore") / 1e9,
            "s",
        ),
        (
            "persist.wal_replay_s".to_string(),
            spans.total("persist.wal_replay") / 1e9,
            "s",
        ),
        (
            "persist.wal_records_replayed".to_string(),
            wal_ops.len() as f64,
            "count",
        ),
        (
            "persist.write_amp".to_string(),
            (wal_bytes + save_bytes) / user_bytes.max(1) as f64,
            "ratio",
        ),
        (
            "persist.disk_mb".to_string(),
            util::dir_bytes(image) as f64 / (1 << 20) as f64,
            "MB",
        ),
    ]);
}

/// Stage durations (µs) from the server's flight-recorder traces.
fn stage_gaps(phase: &Phase, from: &str, to: &str) -> Vec<f64> {
    let Some(dump) = &phase.dump else {
        return Vec::new();
    };
    util::sorted(
        dump.traces
            .iter()
            .filter(|t| t.kind == "lookup")
            .filter_map(|t| Some(t.stage_us(to)?.saturating_sub(t.stage_us(from)?) as f64))
            .collect(),
    )
}

/// The traced pair and the in-process layer replay; returns the per-layer
/// metrics and appends the pair's phase summaries to `phases`.
pub fn layer_metrics(
    bench: &mut Bench,
    out_dir: &Path,
    phases: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let mut spans = Spans::new();
    let rate = bench.spec.rates()[1];
    let seconds = bench.seconds * 0.2;
    let durable = bench.workload == Workload::DurableRestart;
    let run_dir = bench.run_dir;
    let dir = |name: &str| durable.then(|| run_dir.join(name));
    let image = run_dir.join("crash-image-traced");

    // The same slots twice, each on a fresh server: untraced, then traced.
    bench.restart_sequence();
    let server = bench.start_server(dir("serve-untraced").as_deref(), false);
    let opts = PhaseOpts {
        traced: false,
        save_mid: durable,
    };
    let untraced = bench.phase(&server, "mid-untraced", rate, seconds, &opts);
    server.shutdown();
    bench.check_decisions(&untraced);
    bench.restart_sequence();
    let persist = dir("serve-traced");
    let server = bench.start_server(persist.as_deref(), true);
    let opts = PhaseOpts {
        traced: true,
        ..opts
    };
    let traced = bench.phase(&server, "mid-traced", rate, seconds, &opts);
    let pair_end = bench.cursor();
    if let Some(dir) = &persist {
        if let Err(e) = util::copy_dir(dir, &image) {
            bench.failures.push(format!("crash image copy failed: {e}"));
        }
    }
    server.shutdown();
    bench.check_decisions(&traced);
    phases.extend([untraced.summary(), traced.summary()]);

    // Client-side spans of the traced phase: lateness and the round trip.
    for (w, wire) in traced.wires.iter().enumerate() {
        let (send, recv) = (traced.timeline.send_ns[w], traced.timeline.recv_ns[w]);
        if recv == u64::MAX {
            continue;
        }
        let root = spans.record("load.request", NONE, w as u64, wire.due_ns, recv);
        spans.record("load.sched_lag", root, w as u64, wire.due_ns, send);
        spans.record("server.round_trip", root, w as u64, send, recv);
    }

    let Some(stats) = traced.stats.clone() else {
        bench
            .failures
            .push("traced phase: no stats from the server".into());
        return Vec::new();
    };
    let batch = (stats.avg_batch.round() as usize).clamp(1, 64);
    let ops = bench.seq.ops[..bench.seq.first_op(pair_end)].to_vec();
    let (r, replayed) = replay_layers(&mut spans, &bench.template, &ops, batch);

    let encoder_profile = bench.spec.profile.clone();
    let dim = encoder_profile.output_dim;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();

    // protocol
    let lookups = r.lookups.max(1) as f64;
    let request_spans = |name: &str| -> f64 {
        spans
            .spans
            .iter()
            .filter(|s| s.name == name && spans.spans[s.parent as usize].name == "request.batch")
            .map(|s| (s.end - s.start) as f64)
            .sum::<f64>()
    };
    let encode_ns = request_spans("protocol.encode") / lookups;
    let decode_ns = request_spans("protocol.decode") / lookups;
    metrics.extend([
        ("protocol.encode_ns".to_string(), encode_ns, "ns"),
        ("protocol.decode_ns".to_string(), decode_ns, "ns"),
        (
            "protocol.bytes_per_lookup".to_string(),
            (r.request_bytes + r.response_bytes) as f64 / lookups,
            "B",
        ),
    ]);

    // server and pipeline (the server's own flight-recorder traces)
    let served_lookups = stats.served_hits + stats.served_misses + stats.singleflight;
    let per_lookup = |n: u64| n as f64 / served_lookups.max(1) as f64;
    let flush = stage_gaps(&traced, "committed", "written");
    let queue = stage_gaps(&traced, "enqueued", "dequeued");
    metrics.extend([
        (
            "server.io_events_per_req".to_string(),
            traced.io_events as f64 / traced.wires.len().max(1) as f64,
            "count",
        ),
        (
            "server.write_flush_p50_us".to_string(),
            quantile(&flush, 0.5),
            "us",
        ),
        (
            "pipeline.queue_wait_p50_us".to_string(),
            quantile(&queue, 0.5),
            "us",
        ),
        (
            "pipeline.queue_wait_p99_us".to_string(),
            quantile(&queue, 0.99),
            "us",
        ),
        (
            "pipeline.batch_size_mean".to_string(),
            stats.avg_batch,
            "count",
        ),
        (
            "pipeline.coalesced_frac".to_string(),
            per_lookup(stats.coalesced),
            "ratio",
        ),
        (
            "pipeline.singleflight_frac".to_string(),
            per_lookup(stats.singleflight),
            "ratio",
        ),
        ("pipeline.shed".to_string(), stats.shed as f64, "count"),
        (
            "pipeline.deadline_expired".to_string(),
            stats.deadline_expired as f64,
            "count",
        ),
    ]);

    // memo and encoder
    let memo_calls = (r.memo_hits + r.memo_misses).max(1) as f64;
    let memo_hit_ns = {
        let mut child = vec![false; spans.spans.len()];
        for s in &spans.spans {
            if s.name == "encoder.encode" {
                child[s.parent as usize] = true;
            }
        }
        let hits: Vec<f64> = spans
            .spans
            .iter()
            .enumerate()
            .filter(|(k, s)| s.name == "memo.get_or_encode" && !child[*k])
            .map(|(_, s)| (s.end - s.start) as f64)
            .collect();
        mean(&hits)
    };
    let encodes = util::sorted(spans.durations("encoder.encode"));
    metrics.extend([
        (
            "memo.hit_frac".to_string(),
            r.memo_hits as f64 / memo_calls,
            "ratio",
        ),
        ("memo.hit_ns".to_string(), memo_hit_ns, "ns"),
        (
            "encoder.encode_p50_us".to_string(),
            quantile(&encodes, 0.5) / 1e3,
            "us",
        ),
        (
            "encoder.encode_p99_us".to_string(),
            quantile(&encodes, util::tail_q(encodes.len())) / 1e3,
            "us",
        ),
        (
            "encoder.calls_per_lookup".to_string(),
            r.memo_misses as f64 / lookups,
            "count",
        ),
        (
            "encoder.flops_per_call".to_string(),
            encoder_profile.encode_flops() as f64,
            "flop",
        ),
    ]);

    // index
    let searched = r.queries_searched.max(1) as f64;
    let search_ns = spans.total("index.search_batch");
    metrics.extend([
        (
            "index.search_us_per_query".to_string(),
            search_ns / searched / 1e3,
            "us",
        ),
        (
            "index.rows_scanned_per_query".to_string(),
            r.rows_scanned / searched,
            "count",
        ),
        (
            "index.bytes_scanned_per_query".to_string(),
            r.bytes_scanned / searched,
            "B",
        ),
    ]);

    // kernel, at the workload's embedding width
    let a: Vec<f32> = (0..dim)
        .map(|k| ((k * 7 % 13) as f32 - 6.0) / 13.0)
        .collect();
    let b: Vec<f32> = (0..dim)
        .map(|k| ((k * 5 % 11) as f32 - 5.0) / 11.0)
        .collect();
    let q = QuantizedVec::quantize(&b);
    let qsum: f32 = a.iter().sum();
    let iters = 30_000_000 / dim.max(1);
    metrics.extend([
        (
            "kernel.dot_f32_ns".to_string(),
            time_kernel(iters, || vector::dot(black_box(&a), black_box(&b))),
            "ns",
        ),
        (
            "kernel.dot_u8_asym_ns".to_string(),
            time_kernel(iters, || {
                vector::dot_u8_asym(black_box(&a), black_box(&q.codes), q.scale, q.min, qsum)
            }),
            "ns",
        ),
        ("kernel.dot_f32_bytes".to_string(), (8 * dim) as f64, "B"),
        (
            "kernel.dot_u8_asym_bytes".to_string(),
            (5 * dim) as f64,
            "B",
        ),
    ]);

    // cache: probe self time = batched probe minus the search it repeats
    // and its (memo-hit) embeds
    let probe_ns = spans.total("cache.probe_batch");
    let probe_self = probe_ns - search_ns - memo_hit_ns * memo_calls;
    metrics.extend([
        (
            "cache.probe_self_us".to_string(),
            probe_self / lookups / 1e3,
            "us",
        ),
        (
            "cache.commit_us".to_string(),
            mean(&spans.durations("cache.commit")) / 1e3,
            "us",
        ),
        (
            "cache.insert_us".to_string(),
            mean(&spans.durations("cache.insert")) / 1e3,
            "us",
        ),
        ("cache.evictions".to_string(), r.evictions as f64, "count"),
    ]);

    // wal and persist
    if durable {
        persist_layers(&mut spans, bench, &ops, &replayed, &image, &mut metrics);
        // The mid-run `Save` as the client saw it: queueing plus the save.
        let ack = traced.save_ms.first().copied().unwrap_or(0.0);
        metrics.push(("persist.save_ack_ms".to_string(), ack, "ms"));
    } else {
        // No persistence on this workload: the layers do no work.
        for (name, unit) in [
            ("wal.append_us", "us"),
            ("wal.fsync_p50_us", "us"),
            ("wal.fsync_p99_us", "us"),
            ("wal.bytes_per_insert", "B"),
            ("persist.save_s", "s"),
            ("persist.restore_s", "s"),
            ("persist.wal_replay_s", "s"),
            ("persist.wal_records_replayed", "count"),
            ("persist.write_amp", "ratio"),
            ("persist.disk_mb", "MB"),
            ("persist.save_ack_ms", "ms"),
        ] {
            metrics.push((name.to_string(), 0.0, unit));
        }
    }

    // Reconciliation: the share of the traced end-to-end mean lookup
    // latency that the layer measurements do not account for.
    let e2e_ms = mean(
        &traced
            .lookup_series
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect::<Vec<_>>(),
    );
    let mean_us = |v: &[f64]| mean(v);
    let accounted_ms = (encode_ns + decode_ns) / 1e6
        + mean_us(&queue) / 1e3
        + mean_us(&flush) / 1e3
        + (spans.total("memo.get_or_encode") + search_ns + probe_self) / lookups / 1e6
        + spans.total("cache.commit") / lookups / 1e6
        + mean(&traced.lag_ms);
    metrics.extend([
        (
            "trace.unaccounted_frac".to_string(),
            1.0 - accounted_ms / e2e_ms.max(1e-9),
            "ratio",
        ),
        (
            "trace.overhead_ms".to_string(),
            traced.lookup_p50() - untraced.lookup_p50(),
            "ms",
        ),
    ]);

    // Self-time share per layer over the in-process replay.
    let mut by_layer: Vec<(String, f64)> = Vec::new();
    for (name, ns) in spans.self_times() {
        let layer = layer_of(name);
        if matches!(layer, "load" | "server" | "request") {
            continue;
        }
        match by_layer.iter_mut().find(|(l, _)| l == layer) {
            Some((_, t)) => *t += ns,
            None => by_layer.push((layer.to_string(), ns)),
        }
    }
    // `cache.probe_batch` repeats the search and (memo-hit) embeds timed
    // under `index` and `memo`; only its remainder is the cache's own.
    if let Some((_, t)) = by_layer.iter_mut().find(|(l, _)| l == "cache") {
        *t -= probe_ns - probe_self;
    }
    let total_self: f64 = by_layer.iter().map(|(_, t)| t).sum();
    for layer in [
        "protocol", "memo", "encoder", "index", "cache", "wal", "persist",
    ] {
        let share = by_layer
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, t)| t / total_self.max(1.0));
        metrics.push((format!("selftime.{layer}_frac"), share, "ratio"));
    }

    // The span dump, with the server's own stage histograms and traces
    // beside it as a cross-check (log2 buckets: too coarse to compare
    // within 10%).
    let dump_path = out_dir.join(format!(
        "spans-{}-s{}.json",
        bench.workload.name(),
        bench.seed
    ));
    let self_times: Vec<String> = spans
        .self_times()
        .iter()
        .map(|(name, ns)| format!("{}: {}", jstr(name), ns / 1e3))
        .collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"columns\": [\"name\", \"start_ns\", \"end_ns\", \
         \"parent\", \"request\"], \"self_time_us\": {{{}}}, \"server_stats\": {}, \
         \"server_traces\": {}, \"spans\": {}}}\n",
        jstr(bench.workload.name()),
        bench.seed,
        self_times.join(", "),
        traced
            .stats
            .as_ref()
            .and_then(|s| serde_json::to_string(s).ok())
            .unwrap_or_else(|| "null".into()),
        traced
            .dump
            .as_ref()
            .and_then(|d| serde_json::to_string(d).ok())
            .unwrap_or_else(|| "null".into()),
        spans.to_json()
    );
    if let Err(e) = std::fs::write(&dump_path, body) {
        bench.failures.push(format!("cannot write span dump: {e}"));
    }
    eprintln!("perfbench: spans written to {}", dump_path.display());
    metrics
}
