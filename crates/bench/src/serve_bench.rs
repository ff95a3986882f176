//! Closed-loop client/server benchmark for the `mc-serve` front-end:
//! real localhost TCP, `connections` pipelining clients, measured with
//! micro-batching disabled (`max_batch = 1`), enabled, and enabled with the
//! embedding memo-cache + singleflight on top — the last-over-first ratio
//! is the serving layer's total win on this machine.
//!
//! Each client keeps `window` lookups in flight (pipelined frames), so the
//! server's admission queue actually holds concurrent work to group. The
//! per-request latency recorded is the *effective* one — window round-trip
//! divided by window size — which is the number a throughput-oriented
//! caller experiences; single-request latency is the `exp_concurrent`
//! harness's job.

use std::sync::Barrier;
use std::time::Instant;

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_metrics::Table;
use mc_serve::{Client, ServeConfig, Server};
use meancache::{MeanCacheConfig, SemanticCache, ShardedCache};

use crate::concurrent::corpus;
use crate::experiments::percentile;
use crate::setup::EXPERIMENT_SEED;

/// Number of distinct texts in the service mix's hot head.
const HOT_SET: usize = 32;

/// Service-shaped probe mix. A cache service fronting many users sees
/// Zipf-like traffic — a hot head of queries asked over and over (the
/// premise of semantic caching), a warm uniform tail, and novel misses:
///
/// * 50% **hot** — exact repeats drawn from [`HOT_SET`] cached texts; this
///   is the concurrent-duplicate mass that request coalescing collapses.
/// * 25% **warm** — exact repeats drawn uniformly from the whole cache.
/// * 25% **novel** — never-cached queries that must miss (full scan path).
///
/// Deterministic, so every measured configuration replays identical
/// traffic. (`exp_concurrent` keeps its flat 50/50 mix: it measures lock
/// contention per operation, where duplicate collapsing would just hide
/// the per-op cost being measured.)
fn service_mix(cached: &[String], count: usize) -> Vec<(String, Vec<String>)> {
    (0..count)
        .map(|i| match i % 4 {
            0 | 2 => (
                cached[(i * 7919) % HOT_SET.min(cached.len())].clone(),
                Vec::new(),
            ),
            1 => (cached[(i * 104_729) % cached.len()].clone(), Vec::new()),
            _ => (
                format!("entirely novel probe number {i} about something uncached"),
                Vec::new(),
            ),
        })
        .collect()
}

/// Sizing of one serve-bench run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchOpts {
    /// Cached entries at measurement time.
    pub entries: usize,
    /// Shard count of the served cache.
    pub shards: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Pipelined lookups each client keeps in flight.
    pub window: usize,
    /// Total lookups each client issues per measured configuration.
    pub ops_per_conn: usize,
}

impl Default for ServeBenchOpts {
    fn default() -> Self {
        Self {
            entries: 10_000,
            shards: 16,
            connections: 8,
            window: 32,
            ops_per_conn: 2_000,
        }
    }
}

/// One measured server configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchRow {
    /// `ServeConfig::max_batch` of this configuration (1 = no batching).
    pub max_batch: usize,
    /// Whether the embedding memo-cache and cross-batch singleflight were
    /// enabled for this row (`false` = every lookup re-encodes).
    #[serde(default)]
    pub memo: bool,
    /// Requests completed across all clients.
    pub total_requests: usize,
    /// Aggregate throughput over the slowest client's wall-clock.
    pub requests_per_sec: f64,
    /// Median effective per-request latency in µs (window RTT / window).
    pub p50_us: f64,
    /// 99th-percentile effective per-request latency in µs.
    pub p99_us: f64,
    /// Mean batch size the server actually formed.
    pub avg_batch: f64,
    /// Duplicate lookups answered by one coalesced probe (singleflight);
    /// structurally zero in the batch-1 row.
    pub coalesced: u64,
    /// Requests the server shed (`Busy`). The queue is sized well above the
    /// fleet's in-flight total (`connections × window`), so this should be
    /// zero — a nonzero value means the row under-measured and should be
    /// re-run with a larger queue.
    pub shed: u64,
    /// Pipeline-served hits.
    pub served_hits: u64,
    /// Pipeline-served misses.
    pub served_misses: u64,
    /// Encoder calls the embedding memo-cache absorbed (zero with the memo
    /// disabled).
    #[serde(default)]
    pub memo_hits: u64,
    /// Identical in-flight lookups attached to a pending ticket instead of
    /// re-entering the queue (zero with singleflight disabled).
    #[serde(default)]
    pub singleflight: u64,
}

/// Machine-readable output of [`run_serve_with`], persisted as
/// `BENCH_serve.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchReport {
    /// Run sizing.
    pub opts: ServeBenchOpts,
    /// Index backend name of the served cache.
    pub backend: String,
    /// `rayon::current_num_threads()` on the measuring machine.
    pub available_parallelism: usize,
    /// One row per measured configuration: batch-1 first, then
    /// micro-batched with the memo off, then micro-batched with the
    /// embedding memo-cache + singleflight on.
    pub rows: Vec<ServeBenchRow>,
    /// Throughput of the last (batched + memo) row over the first
    /// (batch-1) row — the acceptance headline.
    pub batched_speedup: f64,
}

/// Builds the served cache once; each measured configuration gets a clone,
/// so contents are identical across rows.
fn template_cache(opts: &ServeBenchOpts) -> ShardedCache {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), EXPERIMENT_SEED).expect("tiny profile");
    let config = MeanCacheConfig::default()
        .with_threshold(0.8)
        .with_index(mc_store::IndexKind::flat_sq8())
        .with_shards(opts.shards);
    let mut cache = ShardedCache::new(encoder, config).expect("valid config");
    for text in corpus(opts.entries) {
        cache.insert(&text, "cached response", &[]).expect("insert");
    }
    cache
}

/// Measures one server configuration against the closed-loop client fleet.
/// Returns the row plus the pooled effective latencies it was built from.
fn measure_config(
    cache: ShardedCache,
    opts: &ServeBenchOpts,
    probes: &[(String, Vec<String>)],
    max_batch: usize,
    memo: bool,
) -> ServeBenchRow {
    let serve_config = ServeConfig {
        max_batch,
        queue_capacity: 4096,
        max_connections: opts.connections + 2,
        // The memo rows use the serving defaults (sharded LRU + cross-batch
        // singleflight); the memo-off rows re-encode every lookup, which is
        // what PR-4-era servers did.
        memo_capacity: if memo {
            ServeConfig::default().memo_capacity
        } else {
            0
        },
        singleflight: memo,
        ..ServeConfig::default()
    };
    let handle = Server::start(cache, &serve_config, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    let window = opts.window.max(1);
    let windows_per_conn = opts.ops_per_conn.div_ceil(window);
    let barrier = Barrier::new(opts.connections);
    let per_client: Vec<(f64, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connect");
                    client.ping().expect("admitted");
                    // Pre-cut this client's windows so the timed loop only
                    // does I/O. Clients stride from different offsets so
                    // they do not march in lock-step over the same shard.
                    let windows: Vec<Vec<(String, Vec<String>)>> = (0..windows_per_conn)
                        .map(|w| {
                            (0..window)
                                .map(|k| {
                                    probes[(conn * 2741 + w * window + k) % probes.len()].clone()
                                })
                                .collect()
                        })
                        .collect();
                    barrier.wait();
                    let run_started = Instant::now();
                    let mut latencies = Vec::with_capacity(windows_per_conn * window);
                    for batch in &windows {
                        let started = Instant::now();
                        let outcomes = client.lookup_pipelined(batch).expect("pipelined lookups");
                        let effective_us =
                            started.elapsed().as_secs_f64() * 1e6 / outcomes.len() as f64;
                        latencies.extend(std::iter::repeat_n(effective_us, outcomes.len()));
                    }
                    (run_started.elapsed().as_secs_f64(), latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client panicked"))
            .collect()
    });

    // Server-side counters, then a graceful teardown.
    let mut control = Client::connect(addr).expect("control connect");
    let stats = control.stats().expect("stats");
    drop(control);
    handle.shutdown();

    let wall_s = per_client
        .iter()
        .map(|(wall, _)| *wall)
        .fold(0.0f64, f64::max);
    let mut pooled: Vec<f64> = per_client
        .into_iter()
        .flat_map(|(_, latencies)| latencies)
        .collect();
    pooled.sort_by(f64::total_cmp);
    let total_requests = pooled.len();
    ServeBenchRow {
        max_batch,
        memo,
        total_requests,
        requests_per_sec: total_requests as f64 / wall_s.max(f64::EPSILON),
        p50_us: percentile(&pooled, 0.50),
        p99_us: percentile(&pooled, 0.99),
        avg_batch: stats.avg_batch,
        coalesced: stats.coalesced,
        shed: stats.shed,
        served_hits: stats.served_hits,
        served_misses: stats.served_misses,
        memo_hits: stats.memo_hits,
        singleflight: stats.singleflight,
    }
}

/// Runs the serve benchmark: the same cache contents and client fleet
/// against `max_batch = 1`, the micro-batched configuration, and the
/// micro-batched configuration with the embedding memo-cache +
/// singleflight enabled, emitting the comparison table and (optionally)
/// `BENCH_serve.json`.
pub fn run_serve_with(
    opts: &ServeBenchOpts,
    batched_max: usize,
    json_path: Option<&std::path::Path>,
) -> ServeBenchReport {
    let template = template_cache(opts);
    let backend = template.config().index.name().to_string();
    let probes = service_mix(&corpus(opts.entries), 2048);

    let mut rows = Vec::new();
    for (max_batch, memo) in [(1, false), (batched_max, false), (batched_max, true)] {
        rows.push(measure_config(
            template.clone(),
            opts,
            &probes,
            max_batch,
            memo,
        ));
    }
    let batched_speedup = rows.last().expect("three rows").requests_per_sec
        / rows[0].requests_per_sec.max(f64::EPSILON);

    let mut table = Table::new(
        format!(
            "Serving over TCP - {} entries x {} shards ({backend}), {} conns x window {}",
            opts.entries, opts.shards, opts.connections, opts.window
        ),
        &[
            "max_batch",
            "memo",
            "reqs/sec",
            "p50 eff/req",
            "p99 eff/req",
            "avg batch",
            "coalesced",
            "memo hits",
            "shed",
        ],
    );
    for row in &rows {
        table.add_row(&[
            row.max_batch.to_string(),
            if row.memo { "on" } else { "off" }.to_string(),
            format!("{:.0}", row.requests_per_sec),
            format!("{:.1}us", row.p50_us),
            format!("{:.1}us", row.p99_us),
            format!("{:.1}", row.avg_batch),
            row.coalesced.to_string(),
            row.memo_hits.to_string(),
            row.shed.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "batched+memo throughput {:.2}x the batch-size-1 configuration \
         ({} core(s) available)",
        batched_speedup,
        rayon::current_num_threads()
    );

    let report = ServeBenchReport {
        opts: opts.clone(),
        backend,
        available_parallelism: rayon::current_num_threads(),
        rows,
        batched_speedup,
    };
    if let Some(path) = json_path {
        let json = serde_json::to_string(&report).expect("report serialises");
        std::fs::write(path, json).expect("BENCH_serve.json is writable");
        println!("wrote {}", path.display());
    }
    report
}

/// The full benchmark at the acceptance configuration: 10k-entry flat-sq8
/// sharded cache, batch-1 vs batch-128 (the batched cap sits below the
/// fleet's in-flight total of `connections × window = 256`, so a busy
/// batcher fills its batches), emitting `BENCH_serve.json`.
pub fn run_serve() {
    run_serve_with(
        &ServeBenchOpts::default(),
        128,
        Some(std::path::Path::new("BENCH_serve.json")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_serve_bench_produces_consistent_report() {
        let opts = ServeBenchOpts {
            entries: 300,
            shards: 4,
            connections: 2,
            window: 4,
            ops_per_conn: 64,
        };
        let report = run_serve_with(&opts, 16, None);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].max_batch, 1);
        assert_eq!(report.rows[1].max_batch, 16);
        assert_eq!(report.rows[2].max_batch, 16);
        assert!(!report.rows[0].memo && !report.rows[1].memo && report.rows[2].memo);
        for row in &report.rows {
            assert_eq!(row.total_requests, 2 * 64);
            assert!(row.requests_per_sec > 0.0);
            assert!(row.p99_us >= row.p50_us);
            // Singleflight-attached lookups ride a pending ticket instead
            // of being served by the pipeline, so they complete the books.
            assert_eq!(
                row.served_hits + row.served_misses + row.singleflight,
                row.total_requests as u64
            );
        }
        // Batch-1 really means no grouping; the batched rows group.
        assert!((report.rows[0].avg_batch - 1.0).abs() < 1e-9);
        assert!(report.rows[1].avg_batch >= 1.0);
        // Memo-off rows never touch the memo; the memo row absorbs repeats
        // (the mix is 75% exact repeats, so hits are guaranteed).
        assert_eq!(report.rows[0].memo_hits, 0);
        assert_eq!(report.rows[1].memo_hits, 0);
        assert!(report.rows[2].memo_hits > 0);
        assert!(report.batched_speedup > 0.0);
        // Rows written before the memo existed must still parse: strip the
        // new fields and deserialise through the serde defaults.
        let legacy = serde_json::to_string(&report.rows[0])
            .expect("row serialises")
            .replace("\"memo\":false,", "")
            .replace(",\"memo_hits\":0", "")
            .replace(",\"singleflight\":0", "");
        let parsed: ServeBenchRow = serde_json::from_str(&legacy).expect("legacy parse");
        assert!(!parsed.memo, "stripped field defaults to false");
        // The committed baseline's rows still carry the retired
        // `batch_wait_us` key; the gate must keep reading them.
        let retired = serde_json::to_string(&report.rows[1])
            .expect("row serialises")
            .replacen('{', "{\"batch_wait_us\":200,", 1);
        let parsed: ServeBenchRow = serde_json::from_str(&retired).expect("retired key ignored");
        assert_eq!(parsed.max_batch, 16);
    }
}
