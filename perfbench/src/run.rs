//! Orchestration of one benchmark run: set-up, the fixed-rate phases, the
//! rate ladder, the `durable-restart` crash-image restarts, the checks, and
//! the result line.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mc_embedder::{EmbeddingMemo, QueryEncoder};
use mc_metrics::trace::TraceDump;
use mc_serve::{Client, ServeConfig, ServeStatsSnapshot, Server, ServerHandle};
use meancache::persist::load_sharded_cache_with_report;
use meancache::{SemanticCache, ShardedCache};

use crate::gen::{Class, Entry, Generator, OpKind, OpSpec, Spec, Workload, MODEL_SEED};
use crate::load::{self, Served, Timeline, Wire};
use crate::plan::{Expected, Label, Sequence};
use crate::util::{self, jstr, num, quantile, tail_q};
use crate::Args;

/// Lookup latency limit (ms) on the tail percentile; defines `max_rate_rps`.
pub const LIMIT_MS: f64 = 10.0;
/// Leading share of each phase excluded from latency statistics.
const WARMUP: f64 = 0.1;
/// Quantile of the gated latencies: the lookups and inserts that nothing
/// else on the host delayed. The median follows the host's other guests
/// (see `README.md`), so it is a per-layer figure.
pub const FLOOR_Q: f64 = 0.05;
/// Largest share of checked decisions that may be left unverified (see
/// [`Bench::check_decisions`]) before the run fails.
const UNVERIFIED_MAX: f64 = 0.01;
/// Shares of `--seconds` the low, mid and high phases take. The mid phase
/// gives the gated latencies, so it is the longest.
const PHASE_SHARES: [f64; 3] = [0.25, 0.5, 0.25];
/// Groups the timed cold starts of a run are split into.
const SETUP_GROUPS: usize = 4;
/// Generator lateness p99 (ms) beyond which a fixed phase is invalid.
const LAG_BOUND_MS: f64 = 100.0;
/// Ratio between neighbouring rungs of the rate ladder.
const RUNG: f64 = 1.05;
/// Ladder rung attempts per run.
const LADDER_TESTS: usize = 14;
/// Gallop stride in rungs (1.05^8 ≈ 1.5×): a rung never lands so far past
/// the knee that its backlog takes long to drain.
const STRIDE: i32 = 8;

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub failures: Vec<String>,
    pub env_line: String,
}

impl Outcome {
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = if self.correct {
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        jstr(name),
                        num(*value),
                        jstr(unit)
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The phase tail: p99 of the whole post-warm-up series, or the highest
/// percentile with at least ten samples beyond it.
fn tail(series: &[f64]) -> f64 {
    quantile(&util::sorted(series.to_vec()), tail_q(series.len()))
}

/// One phase at one fixed rate, measured.
pub struct Phase {
    pub name: String,
    pub rate: f64,
    pub seconds: f64,
    /// Sequence index of each wire (`None` for the mid-run `Save`).
    pub op_index: Vec<Option<usize>>,
    pub wires: Vec<Wire>,
    pub timeline: Timeline,
    pub failed: usize,
    /// Post-warm-up lookup latencies (ms) in schedule order; failures
    /// count as infinite.
    pub lookup_series: Vec<f64>,
    /// Post-warm-up insert latencies in schedule order.
    pub insert_series: Vec<f64>,
    /// Post-warm-up generator lateness (ms, ascending).
    pub lag_ms: Vec<f64>,
    /// Requests still unanswered when the schedule ended.
    pub outstanding_end: usize,
    /// Acknowledgement latency of each `Save`.
    pub save_ms: Vec<f64>,
    pub stats: Option<ServeStatsSnapshot>,
    pub dump: Option<TraceDump>,
    pub io_events: u64,
    /// CPU steal over the phase (see [`util::steal_frac`]): how much of the
    /// machine other guests took, which no change to this program moves.
    pub steal_frac: f64,
}

impl Phase {
    pub fn lookup_p50(&self) -> f64 {
        util::median(&self.lookup_series)
    }

    pub fn lookup_floor(&self) -> f64 {
        quantile(&util::sorted(self.lookup_series.clone()), FLOOR_Q)
    }

    pub fn lookup_tail(&self) -> f64 {
        tail(&self.lookup_series)
    }

    pub fn insert_tail(&self) -> f64 {
        tail(&self.insert_series)
    }

    pub fn insert_p50(&self) -> f64 {
        util::median(&self.insert_series)
    }

    pub fn insert_floor(&self) -> f64 {
        quantile(&util::sorted(self.insert_series.clone()), FLOOR_Q)
    }

    pub fn lag_tail(&self) -> f64 {
        quantile(&self.lag_ms, tail_q(self.lag_ms.len()))
    }

    /// The generator kept to its schedule within its bound.
    pub fn valid(&self) -> bool {
        self.lag_tail() <= LAG_BOUND_MS
    }

    /// Sustained at this rate: tail under the limit, nothing refused or
    /// failed, and no backlog left when the schedule ended.
    pub fn sustained(&self) -> bool {
        let backlog_cap = (self.rate * LIMIT_MS / 1000.0).max(16.0);
        self.valid()
            && self.failed == 0
            && self.lookup_tail() <= LIMIT_MS
            && (self.outstanding_end as f64) <= backlog_cap
    }

    pub fn summary(&self) -> String {
        let saves: Vec<String> = self.save_ms.iter().map(|&ms| num(ms)).collect();
        format!(
            "{{\"phase\": {}, \"rate\": {}, \"seconds\": {}, \"attempted\": {}, \"succeeded\": {}, \
             \"failed\": {}, \"lookups\": {}, \"lookup_p5_ms\": {}, \"lookup_p50_ms\": {}, \
             \"lookup_tail_ms\": {}, \"tail_q\": {}, \"inserts\": {}, \"insert_p5_ms\": {}, \
             \"insert_p50_ms\": {}, \"insert_tail_ms\": {}, \"sched_lag_p99_ms\": {}, \
             \"outstanding_end\": {}, \"save_ms\": [{}], \"steal_frac\": {}, \"valid\": {}, \
             \"sustained\": {}}}",
            jstr(&self.name),
            num(self.rate),
            num(self.seconds),
            self.wires.len(),
            self.wires.len() - self.failed,
            self.failed,
            self.lookup_series.len(),
            num(self.lookup_floor()),
            num(self.lookup_p50()),
            num(self.lookup_tail()),
            num(tail_q(self.lookup_series.len())),
            self.insert_series.len(),
            num(self.insert_floor()),
            num(self.insert_p50()),
            num(self.insert_tail()),
            num(self.lag_tail()),
            self.outstanding_end,
            saves.join(", "),
            num(self.steal_frac),
            self.valid(),
            self.sustained()
        )
    }
}

/// Options of one phase.
#[derive(Default)]
pub struct PhaseOpts {
    /// Fetch the server's `Stats` and flight-recorder traces afterwards.
    pub traced: bool,
    /// Send one `Save` halfway through the schedule.
    pub save_mid: bool,
}

/// Shared state of one run.
pub struct Bench<'a> {
    pub workload: Workload,
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub run_dir: &'a Path,
    /// The populate set, for timed set-ups.
    populate: Vec<Entry>,
    pub template: ShardedCache,
    pub seq: Sequence,
    pub failures: Vec<String>,
    /// First slot of the next phase: phases on one server take consecutive
    /// runs of slots; a fresh server starts again at 0.
    cursor: usize,
    /// Served decisions compared with the replays.
    pub checked: usize,
    /// Served lookups neither replay explains, once they have split (see
    /// [`Bench::check_decisions`]).
    pub unverified: usize,
    /// A second replay of what this server was sent, that skips the commit
    /// of every in-flight duplicate lookup. `None` until the first check,
    /// and on caches that never evict (commits cannot change decisions).
    check: Option<SkipReplay>,
    /// The two replays have disagreed on this server: from here on, which
    /// duplicates the server joined decides what it serves.
    split: bool,
    /// A request failed, so the server's state no longer follows the
    /// replay; later phases are not compared or counted for quality.
    state_diverged: bool,
    quality: Quality,
    /// Class of each entry id an acknowledged insert reported.
    acked_class: HashMap<u64, Class>,
}

/// The second replay of [`Bench::check_decisions`], and every entry id that
/// existed on the server so far: a hit on any other id is wrong whatever
/// the server joined.
struct SkipReplay {
    cache: ShardedCache,
    ids: HashSet<u64>,
}

/// Served lookups against the ground truth.
#[derive(Default)]
struct Quality {
    hits: usize,
    true_hits: usize,
    should_hit: usize,
    excluded: usize,
}

pub fn serve_config(spec: &Spec, persist: Option<PathBuf>, traced: bool) -> ServeConfig {
    ServeConfig {
        queue_capacity: 4096,
        max_connections: 8,
        persist_path: persist,
        fsync: spec.fsync,
        trace_sample: u64::from(traced),
        ..ServeConfig::default()
    }
}

/// Builds and populates the workload's cache.
pub fn build_cache(spec: &Spec, populate: &[Entry]) -> (ShardedCache, Vec<(u64, Class)>) {
    let encoder = QueryEncoder::new(spec.profile.clone(), MODEL_SEED).expect("valid profile");
    let mut cache = ShardedCache::new(encoder, spec.cache_config()).expect("valid config");
    let ids = populate
        .iter()
        .map(|e| {
            let id = cache
                .insert(&e.query, &e.response, &e.context)
                .expect("populate insert");
            (id, e.class)
        })
        .collect();
    (cache, ids)
}

/// Looks `entry` up over the wire; `true` when it is served its own answer.
fn first_hit(addr: std::net::SocketAddr, query: &str, context: &[String], response: &str) -> bool {
    let Ok(mut client) = Client::connect(addr) else {
        return false;
    };
    matches!(client.lookup(query, context), Ok(outcome)
        if outcome.hit().is_some_and(|hit| hit.response == response))
}

impl<'a> Bench<'a> {
    /// Generates the inputs and builds the template cache.
    pub fn new(args: &Args, run_dir: &'a Path) -> Self {
        let workload = args.workload;
        let spec = workload.spec();
        let (generator, populate) = Generator::new(workload, args.seed);
        let (template, populated) = build_cache(&spec, &populate);
        let seq = Sequence::new(generator, args.seed, &template, &populated);
        Self {
            workload,
            spec,
            seed: args.seed,
            seconds: args.seconds,
            run_dir,
            populate,
            template,
            seq,
            failures: Vec::new(),
            cursor: 0,
            checked: 0,
            unverified: 0,
            check: None,
            split: false,
            state_diverged: false,
            quality: Quality::default(),
            acked_class: HashMap::new(),
        }
    }

    /// Times `rounds` cold starts into `times`: build and populate the
    /// cache, start a server, and look up the first populated entry over
    /// TCP until it is a correct hit.
    pub fn time_setups(&mut self, rounds: usize, times: &mut Vec<f64>) {
        for _ in 0..rounds {
            let started = Instant::now();
            let (cache, _) = build_cache(&self.spec, &self.populate);
            let config = serve_config(&self.spec, None, false);
            let handle = Server::start(cache, &config, "127.0.0.1:0").expect("bind localhost");
            let first = &self.populate[0];
            let ok = first_hit(handle.addr(), &first.query, &first.context, &first.response);
            times.push(started.elapsed().as_secs_f64());
            handle.shutdown();
            if !ok {
                self.failures.push(format!(
                    "set-up {}: first lookup was not a correct hit",
                    times.len()
                ));
            }
        }
    }

    /// Durations of the low, mid and high phases.
    pub fn phase_seconds(&self) -> [f64; 3] {
        PHASE_SHARES.map(|share| share * self.seconds)
    }

    /// Generates the slots of phases at `rates` run back to back from slot
    /// 0, and stops the replay after them unless read-through fills need it
    /// to continue. Returns the end slot.
    pub fn prepare(&mut self, rates: &[f64]) -> usize {
        let mut end = 0;
        for (&rate, seconds) in rates.iter().zip(self.phase_seconds()) {
            end = self.seq.span(end, rate, seconds);
        }
        if self.workload != Workload::ChatHot {
            self.seq.stop_replay();
        }
        end
    }

    /// First slot of the next phase.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Forgets the previous server: the next phase starts the sequence
    /// again from slot 0 on a fresh one.
    pub fn restart_sequence(&mut self) {
        self.cursor = 0;
        self.check = None;
        self.split = false;
        self.state_diverged = false;
    }

    /// Starts a server on a clone of the template; `persist` is its
    /// directory when the workload persists.
    pub fn start_server(&self, persist: Option<&Path>, traced: bool) -> ServerHandle {
        let path = persist.map(|dir| {
            std::fs::create_dir_all(dir).expect("persist directory");
            dir.join("cache.log")
        });
        let config = serve_config(&self.spec, path, traced);
        Server::start(self.template.clone(), &config, "127.0.0.1:0").expect("bind localhost")
    }

    /// Sends the slots from [`Bench::cursor`] that arrive within `seconds`
    /// at `rate` to `server`, measures them, and advances the cursor.
    pub fn phase(
        &mut self,
        server: &ServerHandle,
        name: &str,
        rate: f64,
        seconds: f64,
        opts: &PhaseOpts,
    ) -> Phase {
        let start = self.cursor;
        let end = self.seq.span(start, rate, seconds);
        self.cursor = end;
        let origin_ns = 1_000_000u64;
        let mut wires = Vec::new();
        let mut op_index = Vec::new();
        let mut save_at = opts
            .save_mid
            .then(|| origin_ns + (seconds * (1.0 + WARMUP) / 2.0 * 1e9) as u64);
        for i in self.seq.first_op(start)..self.seq.first_op(end) {
            let op = &self.seq.ops[i];
            let due_ns = origin_ns + (self.seq.offset_s(start, op.slot, rate) * 1e9) as u64;
            if let Some(at) = save_at.filter(|&at| due_ns >= at) {
                wires.push(Wire {
                    kind: OpKind::Save,
                    payload: load::encode(&OpSpec::save()),
                    due_ns: at,
                });
                op_index.push(None);
                save_at = None;
            }
            wires.push(Wire {
                kind: op.spec.kind,
                payload: load::encode(&op.spec),
                due_ns,
            });
            op_index.push(Some(i));
        }
        let io_before = server.io_event_count();
        let ticks = util::cpu_ticks();
        let timeline = load::drive(server.addr(), &wires).unwrap_or_else(|e| {
            self.failures.push(format!("{name}: transport failure {e}"));
            Timeline {
                send_ns: vec![0; wires.len()],
                recv_ns: vec![u64::MAX; wires.len()],
                served: vec![Served::Lost; wires.len()],
            }
        });
        let io_events = server.io_event_count() - io_before;
        let steal_frac = util::steal_frac(ticks, util::cpu_ticks());
        let (mut stats, mut dump) = (None, None);
        if opts.traced {
            if let Ok(mut control) = Client::connect(server.addr()) {
                stats = control.stats().ok();
                dump = control
                    .trace_dump()
                    .ok()
                    .and_then(|json| serde_json::from_str(&json).ok());
            }
        }
        let mut phase = self.measure(
            name, rate, seconds, wires, op_index, timeline, stats, dump, io_events,
        );
        phase.steal_frac = steal_frac;
        eprintln!("perfbench: {}", phase.summary());
        phase
    }

    #[allow(clippy::too_many_arguments)]
    fn measure(
        &mut self,
        name: &str,
        rate: f64,
        seconds: f64,
        wires: Vec<Wire>,
        op_index: Vec<Option<usize>>,
        timeline: Timeline,
        stats: Option<ServeStatsSnapshot>,
        dump: Option<TraceDump>,
        io_events: u64,
    ) -> Phase {
        let warm_ns = 1_000_000 + (seconds * WARMUP * 1e9) as u64;
        let last_due = wires.last().map_or(0, |w| w.due_ns);
        let (mut lookup_ms, mut insert_ms, mut lag_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut failed, mut outstanding_end, mut save_ms) = (0, 0, Vec::new());
        for (i, wire) in wires.iter().enumerate() {
            let served = timeline.served[i];
            let recv = timeline.recv_ns[i];
            if recv > last_due {
                outstanding_end += 1;
            }
            let latency = if served.is_failure() {
                failed += 1;
                f64::INFINITY
            } else {
                recv.saturating_sub(wire.due_ns) as f64 / 1e6
            };
            if wire.due_ns < warm_ns {
                continue;
            }
            lag_ms.push(timeline.send_ns[i].saturating_sub(wire.due_ns) as f64 / 1e6);
            match wire.kind {
                OpKind::Lookup => lookup_ms.push(latency),
                OpKind::Insert => insert_ms.push(latency),
                OpKind::Save => save_ms.push(latency),
            }
        }
        Phase {
            name: name.to_string(),
            rate,
            seconds,
            op_index,
            wires,
            timeline,
            failed,
            lookup_series: lookup_ms,
            insert_series: insert_ms,
            lag_ms: util::sorted(lag_ms),
            outstanding_end,
            save_ms,
            stats,
            dump,
            io_events,
            steal_frac: 0.0,
        }
    }

    /// Compares every served decision with the sequential replay.
    ///
    /// A lookup sent while an identical lookup was still unanswered may
    /// join that lookup's ticket (cross-batch singleflight): it is served
    /// the same outcome and skips its own commit (`ServePipeline::submit_for`).
    /// Whether it joined depends on timing the client cannot see, so on a
    /// cache that evicts a second replay runs beside the first and skips
    /// every such duplicate's commit. A served lookup must match the first
    /// replay, the second, or the lookup it may have joined. While the two
    /// replays agree, any server's choice of joins gives their decisions
    /// too, so every check keeps full strength. Once they split, a miss or a
    /// hit on an entry that existed, that neither explains, is counted as
    /// unverified, and the run fails when more than [`UNVERIFIED_MAX`] of
    /// the checked decisions are. Anything else fails at once: a hit on an
    /// id never inserted before it, and any inserted id that differs (ids
    /// come from a counter that commits never touch).
    pub fn check_decisions(&mut self, phase: &Phase) {
        if phase.failed > 0 {
            // Refused requests change what later requests see; only what
            // ran before them can be compared.
            self.state_diverged = true;
        }
        if self.state_diverged {
            return;
        }
        let evicts = self.spec.capacity < self.template.len() + self.seq.ops.len();
        if self.check.is_none() && evicts {
            let mut cache = self.template.clone();
            cache.set_embedding_memo(Some(Arc::new(EmbeddingMemo::new(8192, 0))));
            let ids = cache.entry_ids().into_iter().collect();
            self.check = Some(SkipReplay { cache, ids });
        }
        let ops = &self.seq.ops;
        let timeline = &phase.timeline;
        let mut last: HashMap<(&str, &[String]), usize> = HashMap::new();
        let (mut mismatches, mut unverified, mut checked) = (0, 0, 0);
        let mut first = None;
        for (w, index) in phase.op_index.iter().enumerate() {
            let Some(i) = *index else { continue };
            let op = &ops[i];
            let Some(expected) = op.expected else {
                continue;
            };
            let (query, context) = (op.spec.query.as_str(), op.spec.context.as_slice());
            checked += 1;
            let ok = match op.spec.kind {
                OpKind::Lookup => {
                    let joinable = last
                        .insert((query, context), w)
                        .filter(|&earlier| timeline.recv_ns[earlier] > timeline.send_ns[w]);
                    let skipping = self.check.as_mut().map(|SkipReplay { cache, .. }| {
                        let outcome = if joinable.is_some() {
                            cache.probe(query, context)
                        } else {
                            cache.lookup(query, context)
                        };
                        match outcome.hit() {
                            Some(hit) => Expected::Hit(hit.entry_id),
                            None => Expected::Miss,
                        }
                    });
                    if skipping.is_some_and(|d| d != expected) {
                        self.split = true;
                    }
                    let served = match timeline.served[w] {
                        Served::Hit(id) => Expected::Hit(id),
                        _ => Expected::Miss,
                    };
                    served == expected
                        || skipping == Some(served)
                        || joinable.is_some_and(|e| timeline.served[e] == timeline.served[w])
                }
                _ => {
                    if let Some(SkipReplay { cache, ids }) = &mut self.check {
                        let id = cache
                            .insert(query, &op.spec.response, context)
                            .expect("replay insert");
                        ids.insert(id);
                    }
                    matches!((expected, timeline.served[w]),
                        (Expected::Inserted(a), Served::Inserted(b)) if a == b)
                }
            };
            if ok {
                continue;
            }
            let existed = |id| self.check.as_ref().is_some_and(|c| c.ids.contains(&id));
            let possible = match timeline.served[w] {
                Served::Hit(id) => existed(id),
                served => served == Served::Miss,
            };
            if self.split && possible {
                unverified += 1;
            } else {
                mismatches += 1;
                first.get_or_insert(w);
            }
        }
        if let Some(w) = first {
            let op = &ops[phase.op_index[w].expect("data op")];
            self.failures.push(format!(
                "{}: {mismatches} served decisions differ from the sequential replay \
                 (first: {:?} {:?} expected {:?}, served {:?})",
                phase.name, op.spec.kind, op.spec.query, op.expected, timeline.served[w]
            ));
        }
        self.checked += checked;
        self.unverified += unverified;
    }

    /// Checks a fixed phase's decisions and, while the server still follows
    /// the replay, counts its lookups toward precision and recall. (Ladder
    /// phases are only checked: which rungs run depends on timing, and the
    /// figures must repeat exactly for a seed.)
    pub fn account(&mut self, phase: &Phase) {
        self.check_decisions(phase);
        if self.state_diverged {
            return;
        }
        let served = || {
            phase
                .op_index
                .iter()
                .zip(&phase.timeline.served)
                .filter_map(|(index, served)| Some((&self.seq.ops[(*index)?], *served)))
        };
        let acked: Vec<(u64, Class)> = served()
            .filter_map(|(op, served)| match served {
                Served::Inserted(id) => Some((id, op.spec.class)),
                _ => None,
            })
            .collect();
        self.acked_class.extend(acked);
        let mut q = Quality::default();
        for (op, served) in served() {
            match op.label {
                None => continue,
                Some(Label::Excluded) => q.excluded += 1,
                Some(label) => {
                    q.should_hit += usize::from(label == Label::ShouldHit);
                    if let Served::Hit(id) = served {
                        q.hits += 1;
                        let class = self.seq.entry_class.get(&id).or(self.acked_class.get(&id));
                        q.true_hits += usize::from(class == Some(&op.spec.class));
                    }
                }
            }
        }
        self.quality.hits += q.hits;
        self.quality.true_hits += q.true_hits;
        self.quality.should_hit += q.should_hit;
        self.quality.excluded += q.excluded;
    }

    /// Precision and recall of the served hits counted so far, and the
    /// number of probes excluded as in flight.
    pub fn quality(&self) -> (f64, f64, usize) {
        let q = &self.quality;
        (
            q.true_hits as f64 / q.hits.max(1) as f64,
            q.true_hits as f64 / q.should_hit.max(1) as f64,
            q.excluded,
        )
    }

    /// Finds the highest ladder rung (rates `knee × RUNG^k`) the server
    /// sustains. It gallops from rung 0 in strides of [`STRIDE`] rungs
    /// until the verdict flips, then tries every rung between the last two
    /// and fits one threshold to all verdicts in that bracket, so a single
    /// unlucky rung cannot move the answer by more than itself.
    pub fn ladder(&mut self, server: &ServerHandle) -> (f64, Vec<String>) {
        let base = self.spec.knee_rps;
        let rate = |k: i32| base * RUNG.powi(k);
        let mut log = Vec::new();
        let mut verdicts = vec![(0, self.try_rung(server, rate(0), &mut log))];
        let up = verdicts[0].1;
        let step = if up { STRIDE } else { -STRIDE };
        let mut k: i32 = 0;
        while log.len() < LADDER_TESTS - (STRIDE as usize - 1) && k.abs() < 80 {
            k += step;
            let sustained = self.try_rung(server, rate(k), &mut log);
            verdicts.push((k, sustained));
            if sustained != up {
                break;
            }
        }
        let (&(a, va), &(b, vb)) = (
            verdicts.iter().rev().nth(1).expect("two verdicts"),
            verdicts.last().expect("two verdicts"),
        );
        if va == vb {
            // Out of attempts before the verdict flipped.
            return (rate(if up { b } else { b - step }), log);
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let mut bracket = vec![(a, va), (b, vb)];
        for k in lo + 1..hi {
            bracket.push((k, self.try_rung(server, rate(k), &mut log)));
        }
        // The first failing rung t minimises the verdicts it contradicts:
        // failures below it and passes at or above it.
        let best = (lo..=hi)
            .min_by_key(|&t| {
                let wrong = bracket
                    .iter()
                    .filter(|&&(k, sustained)| (k < t) != sustained)
                    .count();
                (wrong, std::cmp::Reverse(t))
            })
            .expect("non-empty bracket");
        (rate(best - 1), log)
    }

    fn try_rung(&mut self, server: &ServerHandle, rate: f64, log: &mut Vec<String>) -> bool {
        let seconds = self.seconds * 0.4 / LADDER_TESTS as f64;
        let phase = self.phase(
            server,
            &format!("ladder@{rate:.0}"),
            rate,
            seconds,
            &PhaseOpts::default(),
        );
        self.check_decisions(&phase);
        log.push(phase.summary());
        phase.sustained()
    }

    /// Restarts a server from a copy of the crash image and times restore,
    /// WAL replay, bind and the first hit on the last acknowledged insert.
    /// Returns the time and the running server's handle.
    pub fn restart(&mut self, image: &Path, round: usize, last: &OpSpec) -> (f64, ServerHandle) {
        let dir = self.run_dir.join(format!("restart-{round}"));
        util::copy_dir(image, &dir).expect("copy crash image");
        let path = dir.join("cache.log");
        let started = Instant::now();
        let encoder =
            QueryEncoder::new(self.spec.profile.clone(), MODEL_SEED).expect("valid profile");
        let (cache, recovery) =
            load_sharded_cache_with_report(encoder, &path).expect("crash image restores");
        let config = ServeConfig {
            restored: recovery,
            ..serve_config(&self.spec, Some(path), false)
        };
        let handle = Server::start(cache, &config, "127.0.0.1:0").expect("restart binds");
        let ok = first_hit(handle.addr(), &last.query, &last.context, &last.response);
        let elapsed = started.elapsed().as_secs_f64();
        if !ok {
            self.failures.push(format!(
                "restart {round}: last acknowledged insert not served"
            ));
        }
        (elapsed, handle)
    }

    /// After a restart: every acknowledged insert is served its own answer,
    /// and the entry count is the template's plus the acknowledged inserts.
    pub fn verify_restart(&mut self, handle: &ServerHandle, acked: &[OpSpec]) -> u64 {
        let mut client = Client::connect(handle.addr()).expect("connect to restarted server");
        let probes: Vec<(String, Vec<String>)> = acked
            .iter()
            .map(|op| (op.query.clone(), op.context.clone()))
            .collect();
        let mut missing = 0;
        for (chunk, ops) in probes.chunks(64).zip(acked.chunks(64)) {
            let outcomes = client
                .lookup_pipelined(chunk)
                .expect("verification lookups");
            for (outcome, op) in outcomes.iter().zip(ops) {
                if outcome.hit().is_none_or(|hit| hit.response != op.response) {
                    missing += 1;
                }
            }
        }
        if missing > 0 {
            self.failures.push(format!(
                "restart: {missing} of {} acknowledged inserts missing",
                acked.len()
            ));
        }
        let stats = client.stats().expect("stats after restart");
        let expected = self.template.len() + acked.len();
        if stats.entries != expected {
            self.failures.push(format!(
                "restart: {} entries after restart, expected {} ({} populated + {} acknowledged inserts)",
                stats.entries,
                expected,
                self.template.len(),
                acked.len()
            ));
        }
        stats.wal_replayed
    }

    /// Inserts the phases acknowledged, in order.
    pub fn acked_inserts(&self, phases: &[&Phase]) -> Vec<OpSpec> {
        phases
            .iter()
            .flat_map(|phase| phase.op_index.iter().zip(&phase.timeline.served))
            .filter_map(|(index, served)| {
                let op = &self.seq.ops[(*index)?];
                (op.spec.kind == OpKind::Insert && matches!(served, Served::Inserted(_)))
                    .then(|| op.spec.clone())
            })
            .collect()
    }

    pub fn env_line(&self, trace: bool, phases: &[String]) -> String {
        let spec = &self.spec;
        format!(
            "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {}, \"encoder\": {}, \"dims\": {}, \"index\": {}, \"entries\": {}, \
             \"shards\": {}, \"capacity\": {}, \"threshold\": {}, \"fsync\": {}, \
             \"persist_fs\": {}, \"git_revision\": {}, \"rates\": [{}, {}, {}], \
             \"latency_limit_ms\": {}, \"decisions_checked\": {}, \"decisions_unverified\": {}}}, \
             \"phases\": [{}]}}",
            jstr(self.workload.name()),
            self.seed,
            num(self.seconds),
            u8::from(trace),
            util::nproc(),
            jstr(&format!("{:?}", spec.profile.kind)),
            spec.profile.output_dim,
            jstr(spec.cache_config().index.name()),
            self.template.len(),
            spec.shards,
            spec.capacity,
            num(f64::from(spec.threshold)),
            jstr(&spec.fsync.to_string()),
            jstr(&if spec.persist {
                util::fs_type(self.run_dir)
            } else {
                "none".to_string()
            }),
            jstr(&util::git_revision()),
            num(spec.rates()[0]),
            num(spec.rates()[1]),
            num(spec.rates()[2]),
            num(LIMIT_MS),
            self.checked,
            self.unverified,
            phases.join(", ")
        )
    }
}

/// Runs the benchmark and gathers the outcome.
pub fn run(args: &Args, out_dir: &Path, run_dir: &Path) -> Outcome {
    let mut bench = Bench::new(args, run_dir);
    let seconds = bench.phase_seconds();
    let rates = bench.spec.rates();
    // The replay reaches through the three fixed phases.
    bench.prepare(&rates);
    let durable = args.workload == Workload::DurableRestart;
    let persist = durable.then(|| run_dir.join("serve"));
    let image = run_dir.join("crash-image");
    // Cold starts are timed in groups before and after each phase, so they
    // sample the shared host over the whole run, not over one second of it.
    // `durable-restart` times restarts instead, and traced runs need none.
    let per_group = if durable || args.trace {
        0
    } else {
        bench.spec.setups / SETUP_GROUPS
    };
    let mut setups = Vec::new();
    bench.time_setups(per_group, &mut setups);

    // One server for every phase, so each phase continues the sequence
    // where the last one stopped.
    let server = bench.start_server(persist.as_deref(), false);
    let low = bench.phase(&server, "low", rates[0], seconds[0], &PhaseOpts::default());
    bench.account(&low);
    bench.time_setups(per_group, &mut setups);
    let mid_opts = PhaseOpts {
        save_mid: durable,
        ..PhaseOpts::default()
    };
    let mid = bench.phase(&server, "mid", rates[1], seconds[1], &mid_opts);
    bench.account(&mid);
    bench.time_setups(per_group, &mut setups);
    if let Some(dir) = &persist {
        // Every request is answered, so every acknowledged insert is
        // fsynced: this copy is a crash image.
        if let Err(e) = util::copy_dir(dir, &image) {
            bench.failures.push(format!("crash image copy failed: {e}"));
        }
    }
    let high = bench.phase(&server, "high", rates[2], seconds[2], &PhaseOpts::default());
    bench.account(&high);
    bench.time_setups(per_group, &mut setups);
    // The ladder and the tails are per-layer figures: their run-to-run
    // spread on a shared host exceeds any bound an end-to-end metric may
    // have, so only the traced run spends time on them.
    let (max_rate, ladder_log) = if args.trace {
        bench.ladder(&server)
    } else {
        (0.0, Vec::new())
    };
    server.shutdown();

    if durable {
        let acked = bench.acked_inserts(&[&low, &mid]);
        let last = acked.last().cloned().expect("acknowledged inserts");
        for round in 0..bench.spec.setups {
            let (elapsed, handle) = bench.restart(&image, round, &last);
            setups.push(elapsed);
            if round == 0 {
                bench.verify_restart(&handle, &acked);
            }
            handle.shutdown();
        }
    }

    let times: Vec<String> = setups.iter().map(|&t| num(t)).collect();
    eprintln!("perfbench: set-up times (s): {}", times.join(" "));
    let mut phases = vec![low.summary(), mid.summary(), high.summary()];
    phases.extend(ladder_log);
    for phase in [&low, &mid, &high] {
        if !phase.valid() {
            bench.failures.push(format!(
                "{}: generator lateness p99 {:.2} ms exceeds the {LAG_BOUND_MS} ms bound; run invalid",
                phase.name,
                phase.lag_tail()
            ));
        }
    }
    let (precision, recall, excluded) = bench.quality();
    eprintln!("perfbench: probes excluded as in flight: {excluded}");
    let attempted: usize = [&low, &mid, &high].iter().map(|p| p.wires.len()).sum();
    let failed: usize = [&low, &mid, &high].iter().map(|p| p.failed).sum();
    if args.trace {
        let mut metrics = vec![
            ("load.lookup_p50_ms".to_string(), mid.lookup_p50(), "ms"),
            ("load.lookup_p99_ms".to_string(), mid.lookup_tail(), "ms"),
            (
                "load.lookup_p99_ms.low".to_string(),
                low.lookup_tail(),
                "ms",
            ),
            (
                "load.lookup_p99_ms.high".to_string(),
                high.lookup_tail(),
                "ms",
            ),
            ("load.insert_p50_ms".to_string(), mid.insert_p50(), "ms"),
            ("load.insert_p99_ms".to_string(), mid.insert_tail(), "ms"),
            ("load.max_rate_rps".to_string(), max_rate, "1/s"),
            ("load.sched_lag_p99_ms".to_string(), mid.lag_tail(), "ms"),
        ];
        metrics.extend(crate::layers::layer_metrics(
            &mut bench,
            out_dir,
            &mut phases,
        ));
        return finish(&bench, out_dir, true, phases, metrics, attempted, failed);
    }
    let metrics = vec![
        ("setup_s".to_string(), util::median(&setups), "s"),
        ("lookup_p5_ms".to_string(), mid.lookup_floor(), "ms"),
        ("insert_p5_ms".to_string(), mid.insert_floor(), "ms"),
        ("precision".to_string(), precision, "ratio"),
        ("recall".to_string(), recall, "ratio"),
        (
            "success_frac".to_string(),
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb".to_string(), util::peak_rss_mb(), "MB"),
    ];
    finish(&bench, out_dir, false, phases, metrics, attempted, failed)
}

/// Writes the detailed report and assembles the outcome.
pub fn finish(
    bench: &Bench,
    out_dir: &Path,
    trace: bool,
    phases: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
) -> Outcome {
    let mut failures = bench.failures.clone();
    if bench.unverified as f64 > UNVERIFIED_MAX * bench.checked as f64 {
        failures.push(format!(
            "{} of {} served decisions neither replay explains (more than {})",
            bench.unverified, bench.checked, UNVERIFIED_MAX
        ));
    }
    let env_line = bench.env_line(trace, &phases);
    let report = out_dir.join(format!(
        "report-{}-s{}-t{}.json",
        bench.workload.name(),
        bench.seed,
        u8::from(trace)
    ));
    let _ = std::fs::write(&report, format!("{env_line}\n"));
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name:<34} {value:>14.6} {unit}");
    }
    Outcome {
        correct: failures.is_empty(),
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
        failures,
        env_line,
    }
}
