//! The request sequence of a run, with its expected decisions and
//! fill-aware ground truth.
//!
//! A sequence is a list of arrival *slots*. Each slot carries one generated
//! request and, on `chat-hot`, the read-through fills that earlier misses
//! triggered. Slots are placed in time when a phase picks its rate; phases
//! take consecutive runs of slots at fixed rates, so the request order never
//! depends on how the server performs. An in-process [`ShardedCache`]
//! replays the sequence in order: its decisions are what the server must
//! serve, its misses decide which fills exist, and its contents label each
//! probe.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use mc_embedder::EmbeddingMemo;
use mc_llm::LatencyModel;
use meancache::{SemanticCache, ShardedCache};

use crate::gen::{Class, Generator, OpKind, OpSpec, Rng};

/// Output tokens of a simulated LLM answer: the 50-token responses of the
/// paper's Figure 5.
const RESPONSE_TOKENS: usize = 50;

/// Seconds between a miss and its read-through fill: the simulated LLM
/// call, at the expected latency of `mc_llm`'s default model (calibrated to
/// Figure 5) for a [`RESPONSE_TOKENS`]-token answer.
pub fn fill_lag_s() -> f64 {
    LatencyModel::default().expected_latency_s(RESPONSE_TOKENS)
}

/// A probe whose only equivalent entry was inserted less than this long
/// (seconds) before it is excluded from precision and recall: the insert
/// counts as still in flight until the latency limit has passed.
pub const INFLIGHT_S: f64 = crate::run::LIMIT_MS / 1000.0;

/// What the server must answer, per the sequential replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    Hit(u64),
    Miss,
    Inserted(u64),
}

/// Ground-truth label of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    ShouldHit,
    ShouldMiss,
    /// An equivalent fill was still in flight when the probe was due.
    Excluded,
}

#[derive(Clone, Debug)]
pub struct SeqOp {
    pub spec: OpSpec,
    pub slot: usize,
    /// `None` past the replayed prefix.
    pub expected: Option<Expected>,
    /// `None` for anything but lookups.
    pub label: Option<Label>,
}

/// An entry the sequence put in the cache: its id while the replay runs,
/// and when it was inserted, in units of the mean gap (`None` for populated
/// entries).
type Placed = (Option<u64>, Option<f64>);

pub struct Sequence {
    generator: Generator,
    gaps: Rng,
    /// Arrival time of each slot, in units of the mean gap.
    arrivals: Vec<f64>,
    pub ops: Vec<SeqOp>,
    /// `ops[slot_end[k - 1]..slot_end[k]]` belong to slot `k`.
    slot_end: Vec<usize>,
    /// The sequential replay that predicts the server.
    replay: Option<ShardedCache>,
    /// Slots the replay covers (all of them when fills depend on it).
    replay_slots: usize,
    /// Entries per class, for the labels.
    placed: HashMap<Class, Vec<Placed>>,
    /// Read-through fills not yet sent, by due arrival (mean-gap units).
    pending: VecDeque<(f64, OpSpec)>,
    /// `(query, context)` of every pending fill: a miss on one of them
    /// waits for that fill instead of calling the LLM again.
    filling: HashSet<(String, Vec<String>)>,
    fills: usize,
    /// Class of every entry id the replay knows (populate and inserts).
    pub entry_class: HashMap<u64, Class>,
}

impl Sequence {
    /// `populated` holds the template's entry ids and classes.
    pub fn new(
        generator: Generator,
        seed: u64,
        template: &ShardedCache,
        populated: &[(u64, Class)],
    ) -> Self {
        let mut cache = template.clone();
        cache.set_embedding_memo(Some(Arc::new(EmbeddingMemo::new(8192, 0))));
        let mut placed: HashMap<Class, Vec<Placed>> = HashMap::new();
        for &(id, class) in populated {
            placed.entry(class).or_default().push((Some(id), None));
        }
        Self {
            generator,
            gaps: Rng::new(seed.wrapping_mul(7919).wrapping_add(3)),
            arrivals: Vec::new(),
            ops: Vec::new(),
            slot_end: Vec::new(),
            replay: Some(cache),
            replay_slots: usize::MAX,
            placed,
            pending: VecDeque::new(),
            filling: HashSet::new(),
            fills: 0,
            entry_class: populated.iter().copied().collect(),
        }
    }

    fn slots(&self) -> usize {
        self.slot_end.len()
    }

    /// Index of the first op of slot `slot`.
    pub fn first_op(&self, slot: usize) -> usize {
        if slot == 0 {
            0
        } else {
            self.slot_end[slot - 1]
        }
    }

    /// Arrival of slot `slot` in seconds after slot `start`'s phase began,
    /// at `rate` slots per second.
    pub fn offset_s(&self, start: usize, slot: usize, rate: f64) -> f64 {
        let origin = if start == 0 {
            0.0
        } else {
            self.arrivals[start - 1]
        };
        (self.arrivals[slot] - origin) / rate
    }

    /// End (exclusive) of the slots from `start` that arrive within
    /// `seconds` at `rate`.
    pub fn span(&mut self, start: usize, rate: f64, seconds: f64) -> usize {
        let origin = if start == 0 {
            0.0
        } else {
            self.arrivals[start - 1]
        };
        let horizon = origin + rate * seconds;
        while self.arrivals.last().is_none_or(|&a| a < horizon) {
            self.extend_one(rate);
        }
        start + self.arrivals[start..].partition_point(|&a| a < horizon)
    }

    /// Stops predicting after the slots generated so far. Only for
    /// sequences without read-through fills, on a cache that never evicts:
    /// labels then go on counting every insert as present.
    pub fn stop_replay(&mut self) {
        self.replay_slots = self.slots();
    }

    /// Adds one slot, generated at `rate` slots per second.
    fn extend_one(&mut self, rate: f64) {
        let slot = self.slot_end.len();
        let arrival = self.arrivals.last().copied().unwrap_or(0.0) + self.gaps.exp();
        self.arrivals.push(arrival);
        if slot == self.replay_slots {
            // Fills need the replay's decisions, so only sequences without
            // read-through stop replaying.
            assert!(self.pending.is_empty(), "read-through needs a full replay");
            self.replay = None;
        }
        while self.pending.front().is_some_and(|(due, _)| *due <= arrival) {
            let (_, fill) = self.pending.pop_front().expect("checked non-empty");
            self.filling
                .remove(&(fill.query.clone(), fill.context.clone()));
            self.push(slot, fill, rate);
        }
        let op = self.generator.next_op();
        self.push(slot, op, rate);
        self.slot_end.push(self.ops.len());
    }

    fn push(&mut self, slot: usize, spec: OpSpec, rate: f64) {
        let arrival = self.arrivals[slot];
        let mut expected = None;
        let mut label = None;
        match spec.kind {
            OpKind::Lookup => {
                label = Some(self.label(spec.class, arrival, rate));
                if let Some(cache) = &mut self.replay {
                    let outcome = cache.lookup(&spec.query, &spec.context);
                    expected = Some(match outcome.hit() {
                        Some(hit) => Expected::Hit(hit.entry_id),
                        None => Expected::Miss,
                    });
                    let key = (spec.query.clone(), spec.context.clone());
                    if outcome.is_miss() && spec.fill_on_miss && !self.filling.contains(&key) {
                        let due = arrival + fill_lag_s() * rate;
                        let at = self.pending.partition_point(|(d, _)| *d <= due);
                        self.pending.insert(at, (due, spec.fill(self.fills)));
                        self.filling.insert(key);
                        self.fills += 1;
                    }
                }
            }
            OpKind::Insert => {
                let id = self.replay.as_mut().map(|cache| {
                    cache
                        .insert(&spec.query, &spec.response, &spec.context)
                        .expect("replay insert")
                });
                if let Some(id) = id {
                    self.entry_class.insert(id, spec.class);
                    expected = Some(Expected::Inserted(id));
                }
                self.placed
                    .entry(spec.class)
                    .or_default()
                    .push((id, Some(arrival)));
            }
            OpKind::Save => {}
        }
        self.ops.push(SeqOp {
            spec,
            slot,
            expected,
            label,
        });
    }

    /// Labels a lookup due at `arrival` (mean-gap units, at `rate`).
    fn label(&mut self, class: Class, arrival: f64, rate: f64) -> Label {
        let Some(entries) = self.placed.get_mut(&class) else {
            return Label::ShouldMiss;
        };
        if let Some(cache) = &self.replay {
            // Evicted entries never come back, so drop them for good.
            entries.retain(|(id, _)| id.is_none_or(|id| cache.entry(id).is_some()));
        }
        let mut recent = false;
        for &(_, at) in entries.iter() {
            if at.is_none_or(|at| at + INFLIGHT_S * rate <= arrival) {
                return Label::ShouldHit;
            }
            recent = true;
        }
        if recent {
            Label::Excluded
        } else {
            Label::ShouldMiss
        }
    }
}
