//! Exact ground truth by brute force over the generated records: what
//! `answer_recall` and `quality.precision` are measured against. Nothing
//! here knows about sketches or bands.

use crate::gen::{Measure, Record};

fn dot(a: &Record, b: &Record) -> f64 {
    let (mut i, mut j, mut acc) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

fn norm(a: &Record) -> f64 {
    a.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
}

/// Cosine of two weighted records; 0 when either is empty.
pub fn cosine(a: &Record, b: &Record) -> f64 {
    let denom = norm(a) * norm(b);
    if denom > 0.0 {
        dot(a, b) / denom
    } else {
        0.0
    }
}

/// Jaccard of the two records' dimension sets; 0 when both are empty.
pub fn jaccard(a: &Record, b: &Record) -> f64 {
    let (mut i, mut j, mut both) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                both += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - both;
    if union > 0 {
        both as f64 / union as f64
    } else {
        0.0
    }
}

pub fn similarity(measure: Measure, a: &Record, b: &Record) -> f64 {
    match measure {
        Measure::Cosine => cosine(a, b),
        Measure::Jaccard => jaccard(a, b),
    }
}

/// Every pair `(i, j)`, `i < j`, whose exact similarity is at least
/// `floor`, sorted by `(i, j)`.
pub struct Truth {
    pairs: Vec<((u32, u32), f64)>,
}

impl Truth {
    pub fn brute_force(records: &[Record], measure: Measure, floor: f64) -> Truth {
        // Cosine over unit vectors is a dot product; normalising once
        // keeps the inner loop to the merge.
        let prepared: Vec<Record> = match measure {
            Measure::Jaccard => records.to_vec(),
            Measure::Cosine => records
                .iter()
                .map(|r| {
                    let n = norm(r);
                    r.iter()
                        .map(|&(d, w)| (d, if n > 0.0 { w / n } else { 0.0 }))
                        .collect()
                })
                .collect(),
        };
        let mut pairs = Vec::new();
        for i in 0..prepared.len() {
            for j in (i + 1)..prepared.len() {
                let s = match measure {
                    Measure::Cosine => dot(&prepared[i], &prepared[j]),
                    Measure::Jaccard => jaccard(&prepared[i], &prepared[j]),
                };
                if s >= floor {
                    pairs.push(((i as u32, j as u32), s));
                }
            }
        }
        Truth { pairs }
    }

    /// Exact similarity of `(i, j)` when it is at least the floor.
    pub fn get(&self, i: u32, j: u32) -> Option<f64> {
        self.pairs
            .binary_search_by_key(&(i, j), |&(key, _)| key)
            .ok()
            .map(|at| self.pairs[at].1)
    }

    /// Pairs at or above `threshold`.
    pub fn count_at_least(&self, threshold: f64) -> usize {
        self.pairs.iter().filter(|&&(_, s)| s >= threshold).count()
    }
}

/// Recall and precision counts of one reply against the truth.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Pairs whose exact similarity is at least the threshold.
    pub relevant: usize,
    /// Of those, the ones the reply reported.
    pub found: usize,
    /// Pairs the reply reported.
    pub reported: usize,
    /// Of those, the ones whose exact similarity is at least the
    /// threshold minus `PRECISION_SLACK`.
    pub near: usize,
}

/// A reported pair counts as precise when its exact similarity is within
/// this much below the threshold: estimates are allowed to be a little
/// generous, not wrong.
pub const PRECISION_SLACK: f64 = 0.1;

impl Quality {
    pub fn of_reply(truth: &Truth, threshold: f64, reported: &[(u32, u32, f64)]) -> Quality {
        let mut q = Quality {
            relevant: truth.count_at_least(threshold),
            reported: reported.len(),
            ..Quality::default()
        };
        for &(i, j, _) in reported {
            if let Some(s) = truth.get(i.min(j), i.max(j)) {
                if s >= threshold {
                    q.found += 1;
                }
                if s >= threshold - PRECISION_SLACK {
                    q.near += 1;
                }
            }
        }
        q
    }

    pub fn absorb(&mut self, other: Quality) {
        self.relevant += other.relevant;
        self.found += other.found;
        self.reported += other.reported;
        self.near += other.near;
    }

    /// Pooled recall; 1 when nothing was relevant.
    pub fn recall(&self) -> f64 {
        if self.relevant == 0 {
            1.0
        } else {
            self.found as f64 / self.relevant as f64
        }
    }

    /// Pooled precision; 1 when nothing was reported.
    pub fn precision(&self) -> f64 {
        if self.reported == 0 {
            1.0
        } else {
            self.near as f64 / self.reported as f64
        }
    }
}

/// Quality counts kept apart per threshold, for a recall that weighs
/// every rung of the ladder alike. Pooled over the ladder, nine tenths of
/// the relevant pairs sit on the lowest two rungs and their number moves
/// by a tenth from seed to seed, so pooled recall is mostly the seed;
/// the mean of the rungs' recalls repeats three times as closely.
#[derive(Debug, Default, Clone)]
pub struct LadderQuality {
    rungs: Vec<(f64, Quality)>,
}

impl LadderQuality {
    /// Adds one reply's counts to its rung (the same rung of several
    /// corpora pools).
    pub fn absorb(&mut self, threshold: f64, q: Quality) {
        match self.rungs.iter_mut().find(|(t, _)| *t == threshold) {
            Some((_, rung)) => rung.absorb(q),
            None => self.rungs.push((threshold, q)),
        }
    }

    /// Mean over the rungs that have a relevant pair of the rung's
    /// recall; 1 when none has.
    pub fn recall(&self) -> f64 {
        let recalls: Vec<f64> = self
            .rungs
            .iter()
            .filter(|(_, q)| q.relevant > 0)
            .map(|(_, q)| q.recall())
            .collect();
        if recalls.is_empty() {
            1.0
        } else {
            recalls.iter().sum::<f64>() / recalls.len() as f64
        }
    }

    /// The counts of every rung together.
    pub fn pooled(&self) -> Quality {
        let mut all = Quality::default();
        for (_, q) in &self.rungs {
            all.absorb(*q);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_recall_weighs_every_rung_alike() {
        let q = |found, relevant| Quality {
            relevant,
            found,
            ..Quality::default()
        };
        let mut ladder = LadderQuality::default();
        assert_eq!(ladder.recall(), 1.0);
        ladder.absorb(0.9, q(2, 2));
        ladder.absorb(0.5, q(50, 100));
        // A second corpus, same rung; then a rung with nothing relevant,
        // which has no say: (2/2 + 60/200) / 2, where pooled is 62/202.
        ladder.absorb(0.5, q(10, 100));
        ladder.absorb(0.7, q(0, 0));
        assert!((ladder.recall() - 0.65).abs() < 1e-15);
        assert_eq!(ladder.pooled().found, 62);
        assert_eq!(ladder.pooled().relevant, 202);
    }

    #[test]
    fn cosine_of_hand_checked_vectors() {
        let a: Record = vec![(0, 3.0), (2, 4.0)];
        let b: Record = vec![(0, 4.0), (1, 7.0), (2, 3.0)];
        // dot = 12 + 12 = 24; |a| = 5; |b| = sqrt(74).
        assert!((cosine(&a, &b) - 24.0 / (5.0 * 74f64.sqrt())).abs() < 1e-15);
        assert_eq!(cosine(&a, &a.clone()), 1.0);
        assert_eq!(cosine(&a, &vec![(1, 9.0)]), 0.0);
        assert_eq!(cosine(&a, &Vec::new()), 0.0);
    }

    #[test]
    fn jaccard_of_hand_checked_sets() {
        let set = |dims: &[u32]| -> Record { dims.iter().map(|&d| (d, 1.0)).collect() };
        assert_eq!(jaccard(&set(&[1, 2, 3, 4]), &set(&[3, 4, 5])), 2.0 / 5.0);
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[1, 2])), 1.0);
        assert_eq!(jaccard(&set(&[1]), &set(&[2])), 0.0);
        assert_eq!(jaccard(&set(&[]), &set(&[])), 0.0);
    }

    #[test]
    fn truth_and_quality_on_a_tiny_corpus() {
        let records: Vec<Record> = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(5, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
        ];
        let truth = Truth::brute_force(&records, Measure::Jaccard, 0.4);
        // (0,1) = 2/3, (0,3) = 1, (1,3) = 2/3; record 2 matches nothing.
        assert_eq!(truth.count_at_least(0.4), 3);
        assert_eq!(truth.count_at_least(0.9), 1);
        assert_eq!(truth.get(0, 3), Some(1.0));
        assert_eq!(truth.get(0, 2), None);
        let reply = [(0, 3, 0.98), (0, 1, 0.91), (0, 2, 0.9)];
        let q = Quality::of_reply(&truth, 0.9, &reply);
        assert_eq!(
            q,
            Quality {
                relevant: 1,
                found: 1,
                reported: 3,
                near: 1
            }
        );
        assert_eq!(q.recall(), 1.0);
        assert!((q.precision() - 1.0 / 3.0).abs() < 1e-15);
        // Cosine truth agrees with the pairwise function.
        let cos = Truth::brute_force(&records, Measure::Cosine, 0.0);
        assert!((cos.get(0, 1).unwrap() - cosine(&records[0], &records[1])).abs() < 1e-12);
    }
}
