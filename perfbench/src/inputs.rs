//! Input generation: Adult-scale tables, Anatomy publication, mined
//! Top-(K+, K−) knowledge, single-record delta tapes and query batches.
//! All of it is the benchmark's own work and stays outside every timed
//! region.

use std::process::Command;

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_microdata::dataset::Dataset;
use pm_microdata::value::Value;
use privacy_maxent::{Knowledge, TableDelta};

/// Records per table: the paper's Adult scale (2,842 buckets of five).
pub const RECORDS: usize = 14_210;

/// Queries per batch, in process and on the wire.
pub const BATCH: usize = 256;

/// SplitMix64: small, seedable, and the same on every platform.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Generator seeds of the Adult tables. The tables are fixed, as the
/// paper's Adult data is: a table's component structure — above all the
/// size of the welded component at arity 2 — varies several-fold between
/// generator seeds, so per-run tables would make every timing a property
/// of the draw. The run's seed drives everything else: delta tapes, rule
/// order, operation order and queries.
pub const TABLE_SEEDS: [u64; 2] = [1, 4];

/// The synthetic Adult microdata of `seed`.
pub fn dataset(seed: u64) -> Dataset {
    AdultGenerator::new(AdultGeneratorConfig {
        records: RECORDS,
        seed,
    })
    .generate()
}

fn anatomy() -> AnatomyBucketizer {
    AnatomyBucketizer::new(AnatomyConfig {
        ell: 5,
        exempt_top: 1,
    })
}

/// Anatomy publication of `data` (5-diversity, buckets of five).
pub fn publish(data: &Dataset) -> PublishedTable {
    anatomy()
        .publish(data)
        .expect("Anatomy publishes the Adult-scale table")
}

/// Mined knowledge of one arity, strongest first.
pub struct Mined {
    pub positive: Vec<Knowledge>,
    pub negative: Vec<Knowledge>,
}

impl Mined {
    /// The Top-(k, k) set, positives first (as `MinedRules::top_k`).
    pub fn top(&self, k: usize) -> Vec<Knowledge> {
        self.positive
            .iter()
            .take(k)
            .chain(self.negative.iter().take(k))
            .cloned()
            .collect()
    }

    /// Rules ranked `from..to` of both polarities, interleaved.
    pub fn ranks(&self, from: usize, to: usize) -> Vec<Knowledge> {
        let mut out = Vec::new();
        for i in from..to {
            out.extend(self.positive.get(i).cloned());
            out.extend(self.negative.get(i).cloned());
        }
        out
    }
}

/// Mines the arity-`arity` rules of `dataset(seed)` in a child process and
/// returns the strongest `k` of each polarity.
///
/// Mining an Adult table at arity 4 holds ~100 MiB of candidate rules; in a
/// child it leaves the benchmark's peak resident memory to the program
/// under test.
pub fn mine(seed: u64, arity: usize, k: usize) -> Mined {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = Command::new(exe)
        .args([
            "mine",
            &seed.to_string(),
            &arity.to_string(),
            &k.to_string(),
        ])
        .output()
        .expect("the mining child starts");
    assert!(
        out.status.success(),
        "mining child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("mined rules are ASCII");
    let mut mined = Mined {
        positive: Vec::new(),
        negative: Vec::new(),
    };
    for line in text.lines() {
        let mut f = line.split(' ');
        let polarity = f.next().expect("polarity field");
        let sa: Value = f.next().and_then(|v| v.parse().ok()).expect("SA field");
        let bits = f
            .next()
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .expect("probability field");
        let antecedent = f
            .map(|pv| {
                let (p, v) = pv.split_once(':').expect("position:value");
                (p.parse().expect("position"), v.parse().expect("value"))
            })
            .collect();
        let item = Knowledge::Conditional {
            antecedent,
            sa,
            probability: f64::from_bits(bits),
        };
        if polarity == "+" {
            &mut mined.positive
        } else {
            &mut mined.negative
        }
        .push(item);
    }
    mined
}

/// Body of the mining child: prints the strongest `k` rules of each
/// polarity, one per line, probabilities as exact bit patterns.
pub fn mine_child(seed: u64, arity: usize, k: usize) {
    let data = dataset(seed);
    let rules = RuleMiner::new(MinerConfig {
        min_support: 3,
        arities: vec![arity],
    })
    .mine(&data);
    let mut out = String::new();
    for (polarity, list) in [("+", &rules.positive), ("-", &rules.negative)] {
        for rule in list.iter().take(k) {
            let Knowledge::Conditional {
                antecedent,
                sa,
                probability,
            } = Knowledge::from_rule(rule, data.schema()).expect("mined rules are valid knowledge")
            else {
                unreachable!("rules become conditional knowledge")
            };
            out.push_str(&format!("{polarity} {sa} {:x}", probability.to_bits()));
            for (p, v) in antecedent {
                out.push_str(&format!(" {p}:{v}"));
            }
            out.push('\n');
        }
    }
    print!("{out}");
}

/// Single-record table deltas in forward/undo pairs, drawn from the true
/// records of the microdata behind a fixed publication. Pair `i` rotates
/// insert (a copy of a record into another bucket), retract and move; the
/// undo restores the published contents, so every delta is valid whatever
/// ran before it.
///
/// Inserts and retracts take only records that no knowledge item's
/// antecedent matches; moves take any record. The microdata after each
/// delta then still satisfies every knowledge item exactly and fits the
/// bucket counts, so the constraint system stays feasible: a refresh that
/// fails on this tape is the engine's failure, not the tape's.
pub struct DeltaTape {
    /// `(bucket, QI tuple, SA value)` of every record.
    records: Vec<(usize, Vec<Value>, Value)>,
    /// Indices into `records` of the records no antecedent matches.
    free: Vec<usize>,
    buckets: usize,
    rng: Rng,
    pairs: usize,
    undo: Option<(TableDelta, &'static str)>,
}

impl DeltaTape {
    /// `matched[q]` says whether QI symbol `q` of `table` matches some
    /// knowledge item's antecedent.
    pub fn new(data: &Dataset, table: &PublishedTable, matched: &[bool], seed: u64) -> Self {
        let schema = data.schema();
        let sa_attr = schema.sensitive().expect("the Adult schema has an SA");
        let partition = anatomy()
            .partition(data)
            .expect("Anatomy partitions the Adult table");
        let mut records = Vec::with_capacity(data.len());
        let mut free = Vec::new();
        for (b, rows) in partition.iter().enumerate() {
            for &row in rows {
                let r = data.record(row);
                let qi: Vec<Value> = schema.qi_attrs().iter().map(|&a| r.get(a)).collect();
                let q = table
                    .interner()
                    .lookup(&qi)
                    .expect("every record's tuple is published");
                if !matched[q] {
                    free.push(records.len());
                }
                records.push((b, qi, r.get(sa_attr)));
            }
        }
        Self {
            records,
            free,
            buckets: partition.len(),
            rng: Rng::new(seed ^ 0xde17a),
            pairs: 0,
            undo: None,
        }
    }

    /// The next delta and its kind (`insert`, `retract` or `move`).
    pub fn next_delta(&mut self) -> (TableDelta, &'static str) {
        if let Some(undo) = self.undo.take() {
            return undo;
        }
        let kind = self.pairs % 3;
        self.pairs += 1;
        let pick = if kind == 2 {
            self.rng.below(self.records.len())
        } else {
            self.free[self.rng.below(self.free.len())]
        };
        let (b, qi, s) = self.records[pick].clone();
        let other = (b + 1 + self.rng.below(self.buckets - 1)) % self.buckets;
        let (forward, undo) = match kind {
            0 => (
                (TableDelta::new().insert(qi.clone(), s, other), "insert"),
                (TableDelta::new().retract(qi, s, other), "retract"),
            ),
            1 => (
                (TableDelta::new().retract(qi.clone(), s, b), "retract"),
                (TableDelta::new().insert(qi, s, b), "insert"),
            ),
            _ => (
                (
                    TableDelta::new().move_record(qi.clone(), s, b, other),
                    "move",
                ),
                (TableDelta::new().move_record(qi, s, other, b), "move"),
            ),
        };
        self.undo = Some(undo);
        forward
    }
}

/// Shuffles `items` in an order drawn from `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed ^ 0x5_4ff1e);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Refills `buf` with `BATCH` uniform `(q, s)` queries over the table's
/// domains.
pub fn fill_queries(rng: &mut Rng, buf: &mut Vec<(usize, Value)>, distinct_qi: usize, sa: usize) {
    buf.clear();
    for _ in 0..BATCH {
        buf.push((rng.below(distinct_qi), rng.below(sa) as Value));
    }
}
