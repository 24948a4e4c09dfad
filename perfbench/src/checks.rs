//! Output checks computed apart from the engine: every expected value is
//! derived from the published bucket counts or from the knowledge items
//! themselves, never from a stored copy of earlier output.

use pm_anonymize::published::PublishedTable;
use pm_microdata::qi::QiId;
use pm_microdata::value::Value;
use privacy_maxent::engine::Estimate;
use privacy_maxent::Knowledge;

/// Largest invariant error accepted, in records (`|N·Σ P − n|`): the
/// engine's default residual gate (`EngineConfig::residual_limit`), the
/// accuracy it promises for every estimate it returns. Estimates here stay
/// below 1e-4 records.
pub const INVARIANT_TOL_RECORDS: f64 = 1e-2;

/// Largest knowledge error accepted, in records: `|P(s | Qv) − c|·n(Qv)`,
/// the count-space residual of the item's constraint, held to the same
/// gate.
pub const KNOWLEDGE_TOL_RECORDS: f64 = 1e-2;

/// Largest relative difference from the Theorem 5 closed form accepted for
/// a knowledge-free baseline term (floating-point rounding only).
pub const BASELINE_TOL_REL: f64 = 1e-12;

/// What the checks read from an estimate; a trait so the checks' own tests
/// can perturb a real estimate.
pub trait View {
    fn p_qsb(&self, q: QiId, s: Value, b: usize) -> f64;
    fn conditional(&self, q: QiId, s: Value) -> f64;
}

impl View for Estimate {
    fn p_qsb(&self, q: QiId, s: Value, b: usize) -> f64 {
        Estimate::p_qsb(self, q, s, b)
    }

    fn conditional(&self, q: QiId, s: Value) -> f64 {
        Estimate::conditional(self, q, s)
    }
}

/// A knowledge item with the QI symbols its antecedent matches.
#[derive(Debug, Clone)]
pub struct CheckedItem {
    pub sa: Value,
    pub probability: f64,
    pub qs: Vec<QiId>,
}

impl CheckedItem {
    /// Matches `item`'s antecedent against every tuple of the interner.
    pub fn new(item: &Knowledge, table: &PublishedTable) -> Self {
        let Knowledge::Conditional {
            antecedent,
            sa,
            probability,
        } = item
        else {
            panic!("the benchmark uses distribution knowledge only")
        };
        let interner = table.interner();
        let qs = (0..interner.distinct())
            .filter(|&q| {
                let tuple = interner.tuple(q);
                antecedent.iter().all(|&(p, v)| tuple[p] == v)
            })
            .collect();
        Self {
            sa: *sa,
            probability: *probability,
            qs,
        }
    }
}

/// Which QI symbols some item's antecedent matches, indexed by symbol.
pub fn matched<'a>(
    items: impl IntoIterator<Item = &'a CheckedItem>,
    table: &PublishedTable,
) -> Vec<bool> {
    let mut mask = vec![false; table.interner().distinct()];
    for item in items {
        for &q in &item.qs {
            mask[q] = true;
        }
    }
    mask
}

/// The D′ invariants: for every bucket `b`, `Σ_s P(q,s,b) = n(q,b)/N` for
/// each of its QI symbols and `Σ_q P(q,s,b) = n(s,b)/N` for each of its SA
/// values. Returns the worst error in records.
pub fn invariants(table: &PublishedTable, est: &dyn View) -> Result<f64, String> {
    let n = table.total_records() as f64;
    let mut worst = 0.0f64;
    for b in 0..table.num_buckets() {
        let bucket = table.bucket(b);
        let mut sa_sums = vec![0.0; bucket.sa_counts().len()];
        for &(q, nq) in bucket.qi_counts() {
            let mut row = 0.0;
            for (j, &(s, _)) in bucket.sa_counts().iter().enumerate() {
                let p = est.p_qsb(q, s, b);
                row += p;
                sa_sums[j] += p;
            }
            let err = (row * n - nq as f64).abs();
            worst = worst.max(err);
            if err.is_nan() || err > INVARIANT_TOL_RECORDS {
                return Err(format!(
                    "QI-invariant of q={q} in bucket {b} off by {err:e} records"
                ));
            }
        }
        for (j, &(s, ns)) in bucket.sa_counts().iter().enumerate() {
            let err = (sa_sums[j] * n - ns as f64).abs();
            worst = worst.max(err);
            if err.is_nan() || err > INVARIANT_TOL_RECORDS {
                return Err(format!(
                    "SA-invariant of s={s} in bucket {b} off by {err:e} records"
                ));
            }
        }
    }
    Ok(worst)
}

/// Every knowledge item's `P(s | Qv)`, recomputed from the estimate's
/// terms, matches its probability. Returns the worst error in records and
/// the worst in probability.
pub fn knowledge(
    table: &PublishedTable,
    est: &dyn View,
    items: &[&CheckedItem],
) -> Result<(f64, f64), String> {
    let n = table.total_records() as f64;
    let mut buckets_of: Vec<Vec<usize>> = vec![Vec::new(); table.interner().distinct()];
    for b in 0..table.num_buckets() {
        for &(q, _) in table.bucket(b).qi_counts() {
            buckets_of[q].push(b);
        }
    }
    let (mut worst, mut worst_p) = (0.0f64, 0.0f64);
    for (i, item) in items.iter().enumerate() {
        let mut joint = 0.0;
        let mut marginal = 0.0;
        for &q in &item.qs {
            marginal += table.interner().count(q) as f64 / n;
            for &b in &buckets_of[q] {
                joint += est.p_qsb(q, item.sa, b);
            }
        }
        if marginal == 0.0 {
            continue; // Every record the antecedent matched was retracted.
        }
        let err_p = (joint / marginal - item.probability).abs();
        let err = err_p * marginal * n;
        worst = worst.max(err);
        worst_p = worst_p.max(err_p);
        if err.is_nan() || err > KNOWLEDGE_TOL_RECORDS {
            return Err(format!(
                "knowledge item {i}: P(s={} | Qv) = {} but the item pins {} ({err:e} records)",
                item.sa,
                joint / marginal,
                item.probability
            ));
        }
    }
    Ok((worst, worst_p))
}

/// The knowledge-free baseline equals Theorem 5's closed form
/// `n(q,b)·n(s,b) / (N·n_b)` on every admissible term.
pub fn baseline(table: &PublishedTable, est: &dyn View) -> Result<(), String> {
    let n = table.total_records() as f64;
    for b in 0..table.num_buckets() {
        let bucket = table.bucket(b);
        let nb = bucket.size() as f64;
        for &(q, nq) in bucket.qi_counts() {
            for &(s, ns) in bucket.sa_counts() {
                let want = nq as f64 * ns as f64 / (n * nb);
                let got = est.p_qsb(q, s, b);
                let err = (got - want).abs();
                if err.is_nan() || err > BASELINE_TOL_REL * want {
                    return Err(format!(
                        "baseline P({q},{s},{b}) = {got}, closed form {want}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every conditional `P(s | q)` lies in `[0, 1]`, and each QI symbol with
/// records has a row summing to 1 — within the invariant tolerance, in
/// records: `|Σ_s P(s | q) − 1|·n(q)`.
pub fn conditionals(table: &PublishedTable, est: &dyn View) -> Result<(), String> {
    let interner = table.interner();
    for q in 0..interner.distinct() {
        let mut sum = 0.0;
        for s in 0..table.sa_cardinality() {
            let p = est.conditional(q, s as Value);
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("P(s={s} | q={q}) = {p} lies outside [0, 1]"));
            }
            sum += p;
        }
        let n = interner.count(q) as f64;
        let err = (sum - 1.0).abs() * n;
        if n > 0.0 && (err.is_nan() || err > INVARIANT_TOL_RECORDS) {
            return Err(format!("conditionals of q={q} sum to {sum}"));
        }
    }
    Ok(())
}

/// Worst errors the checks have seen: invariants and knowledge in
/// records, knowledge in probability.
#[derive(Debug, Default, Clone, Copy)]
pub struct Worst {
    pub invariant_records: f64,
    pub knowledge_records: f64,
    pub knowledge_probability: f64,
}

impl Worst {
    pub fn max(self, o: Worst) -> Worst {
        Worst {
            invariant_records: self.invariant_records.max(o.invariant_records),
            knowledge_records: self.knowledge_records.max(o.knowledge_records),
            knowledge_probability: self.knowledge_probability.max(o.knowledge_probability),
        }
    }
}

/// Invariants, knowledge and conditionals of one refreshed estimate.
pub fn refreshed(
    table: &PublishedTable,
    est: &Estimate,
    items: &[&CheckedItem],
) -> Result<Worst, String> {
    let invariant_records = invariants(table, est)?;
    let (knowledge_records, knowledge_probability) = knowledge(table, est, items)?;
    conditionals(table, est)?;
    Ok(Worst {
        invariant_records,
        knowledge_records,
        knowledge_probability,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::inputs;
    use privacy_maxent::{Analyst, CompiledTable, EngineConfig};

    /// An estimate with one term shifted by `delta`.
    struct Perturbed<'a> {
        inner: &'a Estimate,
        term: (QiId, Value, usize),
        delta: f64,
    }

    impl View for Perturbed<'_> {
        fn p_qsb(&self, q: QiId, s: Value, b: usize) -> f64 {
            let p = self.inner.p_qsb(q, s, b);
            if (q, s, b) == self.term {
                p + self.delta
            } else {
                p
            }
        }

        fn conditional(&self, q: QiId, s: Value) -> f64 {
            let p = self.inner.conditional(q, s);
            if (q, s) == (self.term.0, self.term.1) {
                p + self.delta
            } else {
                p
            }
        }
    }

    fn session() -> (Arc<CompiledTable>, Analyst, Vec<CheckedItem>) {
        let data = inputs::dataset(7);
        let table = inputs::publish(&data);
        let rules = pm_assoc::miner::RuleMiner::new(pm_assoc::miner::MinerConfig {
            min_support: 3,
            arities: vec![4],
        })
        .mine(&data);
        let items: Vec<Knowledge> = rules
            .top_k(40, 40)
            .iter()
            .map(|r| Knowledge::from_rule(r, data.schema()).unwrap())
            .collect();
        let artifact = Arc::new(
            CompiledTable::build(table, EngineConfig::builder().threads(1).build()).unwrap(),
        );
        let mut a = Analyst::open(Arc::clone(&artifact));
        a.add_knowledge_batch(&items).unwrap();
        a.refresh().unwrap();
        let checked = items
            .iter()
            .map(|k| CheckedItem::new(k, artifact.table()))
            .collect();
        (artifact, a, checked)
    }

    #[test]
    fn tolerances_are_the_engines_residual_gate() {
        let gate = EngineConfig::default().residual_limit;
        assert_eq!(INVARIANT_TOL_RECORDS, gate);
        assert_eq!(KNOWLEDGE_TOL_RECORDS, gate);
    }

    #[test]
    fn checks_pass_on_real_estimates_and_fail_on_perturbed_ones() {
        let (artifact, a, items) = session();
        let table = artifact.table();
        let refs: Vec<&CheckedItem> = items.iter().collect();
        let est = a.estimate();
        refreshed(table, est, &refs).unwrap();
        baseline(table, &*artifact.baseline_estimate()).unwrap();

        // A term of the first knowledge item's first matched tuple.
        let item = &items[0];
        let q = item.qs[0];
        let b = (0..table.num_buckets())
            .find(|&b| table.bucket(b).qi_counts().iter().any(|&(x, _)| x == q))
            .unwrap();
        let n = table.total_records() as f64;
        let term = (q, item.sa, b);
        let over = Perturbed {
            inner: est,
            term,
            delta: 2.0 * INVARIANT_TOL_RECORDS.max(KNOWLEDGE_TOL_RECORDS) / n,
        };
        assert!(
            invariants(table, &over).is_err(),
            "a term moved past the tolerance passes"
        );
        let under = Perturbed {
            inner: est,
            term,
            delta: 0.5 * INVARIANT_TOL_RECORDS / n,
        };
        assert!(
            invariants(table, &under).is_ok(),
            "a term moved within the tolerance fails"
        );
        assert!(
            knowledge(table, &over, &refs).is_err(),
            "a knowledge probability off passes"
        );
        let base = artifact.baseline_estimate();
        let off_base = Perturbed {
            inner: &base,
            term,
            delta: 1e-9,
        };
        assert!(
            baseline(table, &off_base).is_err(),
            "a baseline off the closed form passes"
        );
        let off_cond = Perturbed {
            inner: est,
            term,
            delta: 2.0 * INVARIANT_TOL_RECORDS,
        };
        assert!(
            conditionals(table, &off_cond).is_err(),
            "a row not summing to 1 passes"
        );
        let above = Perturbed {
            inner: est,
            term,
            delta: 2.0,
        };
        assert!(
            conditionals(table, &above).is_err(),
            "a conditional above 1 passes"
        );
    }

    #[test]
    fn knowledge_check_fails_on_a_wrong_item() {
        let (artifact, a, items) = session();
        let mut wrong = items[0].clone();
        let matched = wrong
            .qs
            .iter()
            .map(|&q| artifact.table().interner().count(q))
            .sum::<usize>() as f64;
        let off = 2.0 * KNOWLEDGE_TOL_RECORDS / matched;
        wrong.probability += if wrong.probability > 0.5 { -off } else { off };
        let refs = vec![&wrong];
        assert!(knowledge(artifact.table(), a.estimate(), &refs).is_err());
    }
}
