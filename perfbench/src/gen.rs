//! Workload definitions and the deterministic request generator.
//!
//! Every input the server sees comes from here and is a pure function of the
//! `--seed` argument: the populate set, the request stream, and the Poisson
//! arrival gaps. Encoder weights are fixed by [`MODEL_SEED`] because they are
//! part of the program under test, not of its input.

use std::collections::HashSet;

use mc_embedder::ModelProfile;
use mc_store::{FsyncPolicy, IndexKind};
use mc_workloads::contextual::{paper_contextual_workload, ProbeKind};
use mc_workloads::tenancy::TenancyConfig;
use mc_workloads::TopicBank;
use meancache::MeanCacheConfig;

/// Seed of the encoder weights (fixed: the model is part of the program).
pub const MODEL_SEED: u64 = 7;

/// Seed of the probe distribution: the topic bank, the paper workload built
/// from it, and the order that gives probes their popularity. It is fixed,
/// so every seed samples the same distribution: precision and recall rest
/// on a few hundred distinct probes, and which ones a seed drew moved them
/// by more than their bounds between seeds. The seed draws the requests
/// from it, and sets the filler and novel texts and the arrival times.
const BANK_SEED: u64 = 11;

/// The three workloads the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ChatHot,
    ColdMpnet,
    DurableRestart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "chat-hot" => Some(Self::ChatHot),
            "cold-mpnet" => Some(Self::ColdMpnet),
            "durable-restart" => Some(Self::DurableRestart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ChatHot => "chat-hot",
            Self::ColdMpnet => "cold-mpnet",
            Self::DurableRestart => "durable-restart",
        }
    }

    /// Fixed sizing and offered rates of the workload.
    pub fn spec(self) -> Spec {
        match self {
            Self::ChatHot => Spec {
                profile: ModelProfile::tiny(),
                threshold: 0.85,
                shards: 4,
                // The size of the paper's cached set, so fills evict.
                capacity: 200,
                entries: 0,
                fsync: FsyncPolicy::Never,
                persist: false,
                knee_rps: 47_600.0,
                setups: 100,
            },
            Self::ColdMpnet => Spec {
                profile: ModelProfile::mpnet(),
                threshold: 0.55,
                shards: 1,
                capacity: 100_000,
                entries: 1_500,
                fsync: FsyncPolicy::Never,
                persist: false,
                knee_rps: 430.0,
                setups: 8,
            },
            Self::DurableRestart => Spec {
                profile: ModelProfile::mpnet(),
                threshold: 0.55,
                shards: 1,
                capacity: 100_000,
                entries: 1_000,
                fsync: FsyncPolicy::Always,
                persist: true,
                knee_rps: 650.0,
                setups: 5,
            },
        }
    }
}

/// Fixed sizing of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub profile: ModelProfile,
    pub threshold: f32,
    pub shards: usize,
    /// Total cache capacity in entries (below the fill total on `chat-hot`,
    /// so eviction runs).
    pub capacity: usize,
    /// Populated entries (0 = the contextual workload's populate set).
    pub entries: usize,
    pub fsync: FsyncPolicy,
    pub persist: bool,
    /// The knee: the ladder's `load.max_rate_rps`, median over seeds,
    /// measured once on the reference host (see `README.md`). The fixed
    /// rates are fixed shares of it, so that later changes are measured at
    /// the same offered load.
    pub knee_rps: f64,
    /// Set-ups (or restarts) timed per run; `setup_s` is their median.
    pub setups: usize,
}

/// The low, middle and high fixed rates as shares of the knee.
pub const RATE_SHARES: [f64; 3] = [0.1, 0.2, 0.5];

impl Spec {
    /// Low, middle and high fixed request rates (generator slots per second).
    pub fn rates(&self) -> [f64; 3] {
        RATE_SHARES.map(|share| share * self.knee_rps)
    }

    /// The cache's own config. `fsync` is the serve WAL's policy only, as
    /// with `serve --fsync`; the cache's entry-log policy keeps its default.
    pub fn cache_config(&self) -> MeanCacheConfig {
        let config = MeanCacheConfig::default()
            .with_threshold(self.threshold)
            .with_index(IndexKind::flat_sq8())
            .with_shards(self.shards);
        MeanCacheConfig {
            capacity: self.capacity,
            ..config
        }
    }
}

/// Ground-truth equivalence class of a query: two queries are equivalent
/// when serving one's cached answer to the other is correct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// A standalone query about one topic family.
    Topic(usize),
    /// A follow-up intent asked within the conversation rooted at a topic.
    Follow(usize, usize),
    /// A query equivalent to nothing else (novel texts, fillers).
    Unique(u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Lookup,
    Insert,
    Save,
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct OpSpec {
    pub kind: OpKind,
    pub query: String,
    pub context: Vec<String>,
    pub response: String,
    pub class: Class,
    /// Whether a miss on this lookup triggers a read-through insert.
    pub fill_on_miss: bool,
}

impl OpSpec {
    fn lookup(query: String, context: Vec<String>, class: Class, fill_on_miss: bool) -> Self {
        Self {
            kind: OpKind::Lookup,
            query,
            context,
            response: String::new(),
            class,
            fill_on_miss,
        }
    }

    fn insert(query: String, response: String, class: Class) -> Self {
        Self {
            kind: OpKind::Insert,
            query,
            context: Vec::new(),
            response,
            class,
            fill_on_miss: false,
        }
    }

    /// The read-through fill a miss on this lookup triggers.
    pub fn fill(&self, seq: usize) -> Self {
        Self {
            kind: OpKind::Insert,
            query: self.query.clone(),
            context: self.context.clone(),
            response: format!("answer {seq} for {:?}", self.class),
            class: self.class,
            fill_on_miss: false,
        }
    }

    pub fn save() -> Self {
        Self {
            kind: OpKind::Save,
            query: String::new(),
            context: Vec::new(),
            response: String::new(),
            class: Class::Unique(u64::MAX),
            fill_on_miss: false,
        }
    }
}

/// One populated entry.
#[derive(Clone, Debug)]
pub struct Entry {
    pub query: String,
    pub response: String,
    pub context: Vec<String>,
    pub class: Class,
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with mean 1 (Poisson inter-arrival gap).
    pub fn exp(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

const SYLLABLES: &[&str] = &[
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "sa", "du", "fi", "go", "ha", "ju", "ke",
    "ly", "mo", "nu", "po", "qi", "re", "si", "tu", "wa", "xe", "yo", "zu", "bri", "cla", "dro",
    "ste",
];

/// Texts no topic family shares: random pseudo-word sentences, each distinct
/// from every other text this source produced.
struct NovelSource {
    rng: Rng,
    seen: HashSet<String>,
}

impl NovelSource {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            seen: HashSet::new(),
        }
    }

    fn word(&mut self) -> String {
        let n = 2 + self.rng.below(2);
        (0..n)
            .map(|_| SYLLABLES[self.rng.below(SYLLABLES.len())])
            .collect()
    }

    fn next(&mut self) -> String {
        loop {
            let n = 5 + self.rng.below(4);
            let text = (0..n).map(|_| self.word()).collect::<Vec<_>>().join(" ");
            if self.seen.insert(text.clone()) {
                return text;
            }
        }
    }
}

/// Polite wrappers that turn one paraphrase into several distinct texts of
/// the same meaning (so `cold-mpnet` probes never repeat).
const WRAPPERS: &[(&str, &str)] = &[
    ("", ""),
    ("please tell me ", ""),
    ("quick question: ", ""),
    ("", " thanks"),
    ("hey, ", ""),
    ("i was wondering ", ""),
];

/// The first topic of each sibling group: one per group, so equivalence
/// follows topic identity and not the near-duplicate wording siblings
/// share. The same topics every seed, because recall varies more between
/// topics than a run's paraphrase sample can average out.
fn group_representatives(bank: &TopicBank) -> Vec<usize> {
    bank.groups()
        .iter()
        .filter_map(|g| g.first().copied())
        .collect()
}

/// The populate set and request stream of one workload and seed.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    novel: NovelSource,
    /// `chat-hot`: the probe pool, with Zipf popularity over a fixed
    /// order.
    hot: Option<(Vec<OpSpec>, Zipf)>,
    /// `cold-mpnet` / `durable-restart`: distinct paraphrase probes.
    paraphrases: Vec<(String, usize)>,
    next_paraphrase: usize,
    /// `durable-restart`: inserted texts (repeat candidates).
    inserted: Vec<(String, Class)>,
    slot: u64,
}

impl Generator {
    /// Builds the generator and the populate set.
    pub fn new(workload: Workload, seed: u64) -> (Self, Vec<Entry>) {
        let spec = workload.spec();
        let bank = TopicBank::generate(BANK_SEED);
        let rng = Rng::new(seed.wrapping_mul(31).wrapping_add(1));
        let mut novel = NovelSource::new(seed.wrapping_mul(131).wrapping_add(17));
        let mut populate = Vec::new();
        let mut hot = None;
        let mut paraphrases = Vec::new();
        match workload {
            Workload::ChatHot => {
                let ctx = paper_contextual_workload(&bank, BANK_SEED);
                // Follow-up intent of each cached conversation root, and of
                // each follow-up text, so context-mismatched probes get the
                // same class as a later correct fill of the same intent.
                let mut intent_of_root = std::collections::HashMap::new();
                let mut intent_of_text = std::collections::HashMap::new();
                for item in &ctx.populate {
                    let (class, context) = match (item.parent, item.followup_id) {
                        (Some(parent), Some(intent)) => {
                            intent_of_root.insert(item.topic_id, intent);
                            intent_of_text.insert(item.text.clone(), intent);
                            (
                                Class::Follow(intent, item.topic_id),
                                vec![ctx.populate[parent].text.clone()],
                            )
                        }
                        _ => (Class::Topic(item.topic_id), Vec::new()),
                    };
                    populate.push(Entry {
                        query: item.text.clone(),
                        response: format!("cached answer for {class:?}"),
                        context,
                        class,
                    });
                }
                for probe in &ctx.probes {
                    if probe.kind == ProbeKind::DuplicateContextual {
                        if let Some(&intent) = intent_of_root.get(&probe.topic_id) {
                            intent_of_text.insert(probe.text.clone(), intent);
                        }
                    }
                }
                // Traffic is the paper's probe set as it stands (75
                // duplicate standalone, 75 duplicate contextual, 50 novel
                // standalone, 50 context-mismatched), each probe with a
                // Zipf popularity over a fixed order. Repeated draws are the
                // exact repeats.
                let pool = ctx
                    .probes
                    .iter()
                    .enumerate()
                    .map(|(i, probe)| {
                        let class = match probe.kind {
                            ProbeKind::DuplicateStandalone | ProbeKind::NovelStandalone => {
                                Class::Topic(probe.topic_id)
                            }
                            ProbeKind::DuplicateContextual | ProbeKind::ContextMismatch => {
                                match intent_of_text.get(&probe.text) {
                                    Some(&intent) => Class::Follow(intent, probe.topic_id),
                                    None => Class::Unique(1 << 40 | i as u64),
                                }
                            }
                        };
                        OpSpec::lookup(probe.text.clone(), probe.context.clone(), class, true)
                    })
                    .collect();
                hot = Some(pool);
            }
            Workload::ColdMpnet | Workload::DurableRestart => {
                let reps = group_representatives(&bank);
                for &t in &reps {
                    let topic = bank.topic(t);
                    populate.push(Entry {
                        query: topic.canonical().to_string(),
                        response: format!("cached answer for topic {t}"),
                        context: Vec::new(),
                        class: Class::Topic(t),
                    });
                    for v in 1..topic.variant_count() {
                        for (pre, post) in WRAPPERS {
                            paraphrases.push((format!("{pre}{}{post}", topic.paraphrase(v)), t));
                        }
                    }
                }
                let mut filler = 0u64;
                while populate.len() < spec.entries {
                    populate.push(Entry {
                        query: novel.next(),
                        response: format!("filler answer {filler}"),
                        context: Vec::new(),
                        class: Class::Unique(2 << 40 | filler),
                    });
                    filler += 1;
                }
                let mut order = Rng::new(BANK_SEED);
                for i in (1..paraphrases.len()).rev() {
                    let j = order.below(i + 1);
                    paraphrases.swap(i, j);
                }
            }
        }
        let hot = hot.map(|mut pool: Vec<OpSpec>| {
            let mut order = Rng::new(BANK_SEED);
            for i in (1..pool.len()).rev() {
                let j = order.below(i + 1);
                pool.swap(i, j);
            }
            let zipf = Zipf::new(pool.len(), TenancyConfig::default().zipf_s);
            (pool, zipf)
        });
        let generator = Self {
            workload,
            rng,
            novel,
            hot,
            paraphrases,
            next_paraphrase: 0,
            inserted: Vec::new(),
            slot: 0,
        };
        (generator, populate)
    }

    fn novel_lookup(&mut self) -> OpSpec {
        let class = Class::Unique(3 << 40 | self.slot);
        OpSpec::lookup(self.novel.next(), Vec::new(), class, false)
    }

    fn paraphrase_lookup(&mut self) -> OpSpec {
        // Distinct texts until the pool runs out, then wrap around.
        let (text, topic) = self.paraphrases[self.next_paraphrase % self.paraphrases.len()].clone();
        self.next_paraphrase += 1;
        OpSpec::lookup(text, Vec::new(), Class::Topic(topic), false)
    }

    /// The request of the next arrival slot.
    pub fn next_op(&mut self) -> OpSpec {
        self.slot += 1;
        match self.workload {
            Workload::ChatHot => {
                let (pool, zipf) = self.hot.as_ref().expect("chat-hot has a pool");
                pool[zipf.sample(&mut self.rng)].clone()
            }
            Workload::ColdMpnet => {
                // Read-mostly: one background insert per ten slots, of a text
                // nobody probes; 30% of probes are paraphrases (paper §IV-B).
                let u = self.rng.unit();
                if u < 0.1 {
                    let class = Class::Unique(4 << 40 | self.slot);
                    OpSpec::insert(
                        self.novel.next(),
                        format!("background answer {}", self.slot),
                        class,
                    )
                } else if u < 0.37 {
                    self.paraphrase_lookup()
                } else {
                    self.novel_lookup()
                }
            }
            Workload::DurableRestart => {
                if self.slot % 2 == 1 {
                    let text = self.novel.next();
                    let class = Class::Unique(5 << 40 | self.slot);
                    self.inserted.push((text.clone(), class));
                    return OpSpec::insert(text, format!("durable answer {}", self.slot), class);
                }
                let u = self.rng.unit();
                // Repeat an insert at least `REPEAT_GAP` slots old, so its
                // fill is outside the in-flight window.
                let old = self.inserted.len().saturating_sub(REPEAT_GAP);
                if u < 0.5 && old > 0 {
                    let (text, class) = self.inserted[self.rng.below(old)].clone();
                    OpSpec::lookup(text, Vec::new(), class, false)
                } else if u < 0.75 {
                    self.paraphrase_lookup()
                } else {
                    self.novel_lookup()
                }
            }
        }
    }
}

/// Slots an insert must be older than to be repeated by `durable-restart`.
pub const REPEAT_GAP: usize = 16;
