//! Correctness checks on every reply. A benchmark that times wrong
//! answers measures nothing, so each probe reply is checked for its frame
//! type, echoed threshold, counter sanity, epoch order, and — by FNV-1a
//! hash of its `pairs` member — for being the same answer every time the
//! same `(threshold, epoch)` is asked, on any connection.

use std::collections::{BTreeMap, BTreeSet};

use crate::frame::{fnv1a, Fields};

/// The threshold ladder every workload probes.
pub const LADDER: [f64; 9] = [0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];

/// What one `probe_result` frame said.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeObs {
    pub threshold: f64,
    pub epoch: u64,
    pub pairs_hash: u64,
    pub candidates: u64,
    pub cache_hits: u64,
    pub hashes_compared: u64,
    pub reply_bytes: usize,
}

impl ProbeObs {
    /// Parses and checks one reply to `probe(asked)`.
    pub fn parse(line: &str, asked: f64) -> Result<ProbeObs, String> {
        let f = Fields::parse(line)?;
        if f.frame_type() != "probe_result" {
            return Err(format!("probe({asked}) answered with {}", describe(&f)));
        }
        let need = |key: &str| {
            f.uint(key)
                .ok_or_else(|| format!("probe reply has no integer '{key}'"))
        };
        let obs = ProbeObs {
            threshold: f
                .float("threshold")
                .ok_or("probe reply has no 'threshold'")?,
            epoch: need("epoch")?,
            pairs_hash: fnv1a(
                f.raw("pairs")
                    .ok_or("probe reply has no 'pairs'")?
                    .as_bytes(),
            ),
            candidates: need("candidates")?,
            cache_hits: need("cache_hits")?,
            hashes_compared: need("hashes_compared")?,
            reply_bytes: line.len() + 1,
        };
        if obs.threshold != asked {
            return Err(format!("probe({asked}) echoed threshold {}", obs.threshold));
        }
        if obs.cache_hits > obs.candidates {
            return Err(format!(
                "probe({asked}) reports {} cache hits over {} candidates",
                obs.cache_hits, obs.candidates
            ));
        }
        Ok(obs)
    }

    /// True when the whole answer came from memos.
    pub fn zero_hash(&self) -> bool {
        self.hashes_compared == 0 && self.cache_hits == self.candidates
    }
}

/// A short description of an unexpected frame, for a violation message.
pub fn describe(f: &Fields<'_>) -> String {
    match f.frame_type() {
        "error" => format!(
            "error {} {}",
            f.string("code").unwrap_or("?"),
            f.raw("message").unwrap_or("")
        ),
        other => format!("a '{other}' frame"),
    }
}

/// Checks that `line` is a frame of type `want`; returns its fields.
pub fn expect_type<'a>(line: &'a str, want: &str) -> Result<Fields<'a>, String> {
    let f = Fields::parse(line)?;
    if f.frame_type() == want {
        Ok(f)
    } else {
        Err(format!("expected '{want}', got {}", describe(&f)))
    }
}

/// The answer each `(threshold, epoch)` gave the first time it was asked.
#[derive(Debug, Default)]
pub struct AnswerBook {
    answers: BTreeMap<(u64, u64), u64>,
}

impl AnswerBook {
    /// Records the answer, or checks it against the recorded one.
    pub fn check(&mut self, obs: &ProbeObs) -> Result<(), String> {
        let first = *self
            .answers
            .entry((obs.threshold.to_bits(), obs.epoch))
            .or_insert(obs.pairs_hash);
        if first == obs.pairs_hash {
            Ok(())
        } else {
            Err(format!(
                "probe({}) at epoch {} answered with pairs hash {:016x}, earlier {:016x}",
                obs.threshold, obs.epoch, obs.pairs_hash, first
            ))
        }
    }

    pub fn hash_at(&self, threshold: f64, epoch: u64) -> Option<u64> {
        self.answers.get(&(threshold.to_bits(), epoch)).copied()
    }
}

/// Epochs seen on one connection never go backwards.
#[derive(Debug, Default)]
pub struct EpochOrder(u64);

impl EpochOrder {
    pub fn check(&mut self, epoch: u64) -> Result<(), String> {
        if epoch < self.0 {
            return Err(format!(
                "epoch went backwards on one connection: {} after {}",
                epoch, self.0
            ));
        }
        self.0 = epoch;
        Ok(())
    }
}

/// Watch deltas: exactly one per `(watch, epoch)`, and no pair twice on
/// one watch.
#[derive(Debug, Default)]
pub struct DeltaBook {
    seen: BTreeSet<(u64, u64)>,
    pairs: BTreeMap<u64, BTreeSet<(u32, u32)>>,
}

impl DeltaBook {
    pub fn check(
        &mut self,
        watch_id: u64,
        epoch: u64,
        new_pairs: &[(u32, u32, f64)],
    ) -> Result<(), String> {
        if !self.seen.insert((watch_id, epoch)) {
            return Err(format!(
                "watch {watch_id} delivered two deltas for epoch {epoch}"
            ));
        }
        let mine = self.pairs.entry(watch_id).or_default();
        for &(i, j, _) in new_pairs {
            if !mine.insert((i, j)) {
                return Err(format!(
                    "watch {watch_id} delivered pair ({i},{j}) twice (again at epoch {epoch})"
                ));
            }
        }
        Ok(())
    }

    /// Epochs in `epochs` for which `watch_id` delivered nothing.
    pub fn missing(&self, watch_id: u64, epochs: std::ops::RangeInclusive<u64>) -> Vec<u64> {
        epochs
            .filter(|&e| !self.seen.contains(&(watch_id, e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(
        threshold: f64,
        epoch: u64,
        pairs: &str,
        candidates: u64,
        hits: u64,
        hashes: u64,
    ) -> String {
        format!(
            "{{\"type\":\"probe_result\",\"threshold\":{threshold},\"epoch\":{epoch},\"pairs\":{pairs},\
             \"candidates\":{candidates},\"pruned\":0,\"cache_hits\":{hits},\"hashes_compared\":{hashes}}}"
        )
    }

    #[test]
    fn a_good_reply_parses_and_a_bad_one_names_its_fault() {
        let obs = ProbeObs::parse(&reply(0.85, 2, "[[0,1,0.9]]", 7, 7, 0), 0.85).unwrap();
        assert!(obs.zero_hash());
        assert_eq!((obs.epoch, obs.candidates), (2, 7));
        assert!(!ProbeObs::parse(&reply(0.85, 2, "[]", 7, 3, 64), 0.85)
            .unwrap()
            .zero_hash());
        assert!(ProbeObs::parse(&reply(0.8, 2, "[]", 7, 7, 0), 0.85)
            .unwrap_err()
            .contains("echoed"));
        assert!(ProbeObs::parse(&reply(0.85, 2, "[]", 7, 8, 0), 0.85)
            .unwrap_err()
            .contains("cache hits"));
        let err = "{\"type\":\"error\",\"code\":\"no_session\",\"message\":\"attach first\"}";
        assert!(ProbeObs::parse(err, 0.85)
            .unwrap_err()
            .contains("no_session"));
        assert!(ProbeObs::parse("garbage", 0.85).is_err());
    }

    #[test]
    fn the_same_question_must_get_the_same_answer() {
        let mut book = AnswerBook::default();
        let a = ProbeObs::parse(&reply(0.7, 1, "[[0,1,0.9]]", 1, 0, 8), 0.7).unwrap();
        let same = ProbeObs::parse(&reply(0.7, 1, "[[0,1,0.9]]", 1, 1, 0), 0.7).unwrap();
        let other = ProbeObs::parse(&reply(0.7, 1, "[[0,2,0.9]]", 1, 1, 0), 0.7).unwrap();
        let later = ProbeObs::parse(&reply(0.7, 2, "[[0,2,0.9]]", 1, 1, 0), 0.7).unwrap();
        assert!(book.check(&a).is_ok());
        assert!(book.check(&same).is_ok());
        assert!(book.check(&other).is_err());
        assert!(
            book.check(&later).is_ok(),
            "another epoch may answer differently"
        );
        assert_eq!(book.hash_at(0.7, 1), Some(a.pairs_hash));
    }

    #[test]
    fn epochs_and_deltas() {
        let mut order = EpochOrder::default();
        assert!(order.check(0).is_ok() && order.check(3).is_ok() && order.check(3).is_ok());
        assert!(order.check(2).is_err());
        let mut deltas = DeltaBook::default();
        assert!(deltas.check(0, 1, &[(1, 2, 0.9)]).is_ok());
        assert!(
            deltas.check(1, 1, &[(1, 2, 0.9)]).is_ok(),
            "another watch may report the pair"
        );
        assert!(
            deltas.check(0, 1, &[]).is_err(),
            "second delta for one epoch"
        );
        assert!(
            deltas.check(0, 2, &[(1, 2, 0.9)]).is_err(),
            "pair repeated on one watch"
        );
        assert_eq!(deltas.missing(1, 1..=3), vec![2, 3]);
    }
}
