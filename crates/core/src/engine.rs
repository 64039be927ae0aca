//! Batched epoch engine for the comparison strategies.
//!
//! Every comparison strategy (retraining, enhanced, adaptive, multi-model,
//! non-binary) iterates over the corpus against a model that is **frozen
//! within the pass** (or, for the sequential-update strategies, needs the
//! frozen model only for its dominant classify/eval cost). That structure is
//! what this module exploits:
//!
//! - [`EpochEngine`] owns the fan-out: one query-blocked, thread-chunked
//!   classification (or full logit matrix) per pass instead of `N` serial
//!   scalar classifies. Predictions and dot products are exact integers, so
//!   results are bit-identical for every thread count, kernel tier, and
//!   query-block size.
//! - [`VoteLedger`] turns the QuantHD-style misclassification updates into
//!   exact integer vote counts per `(class, dimension)`: each misclassified
//!   sample contributes `±1` and `α` is constant within an iteration, so the
//!   whole pass's update is `c ← c + α·votes` applied once per dimension.
//!   This is the **reference semantics** for retraining: one f32 rounding
//!   step per dimension per iteration, rather than one per misclassified
//!   sample — see `DESIGN.md` §8 for the argument and the parity guarantees.
//! - `retrain_loop` is the one iteration loop of the three retraining
//!   strategies (retraining, enhanced, adaptive), which differ only in their
//!   `UpdateRule`; `IterationLog` is the per-iteration bookkeeping every
//!   comparison strategy shares.

use hdc::kernels;
use hdc::{Accumulator, BinaryHv, Dim, RealHv};
use threadpool::ThreadPool;

use crate::baseline::accumulate_class_sums_pooled;
use crate::encoded::EncodedDataset;
use crate::error::LehdcError;
use crate::history::{EpochRecord, EpochTiming, TrainingHistory};
use crate::model::HdcModel;

/// Shared batched-pass machinery for the comparison strategies: a persistent
/// thread pool plus the query-block size used by every fan-out.
///
/// The block size only tiles the work; every kernel involved is exact, so
/// the engine produces identical outputs at any `(threads, block)` — the
/// strategy determinism suite pins this.
#[derive(Debug, Clone, Copy)]
pub struct EpochEngine {
    pool: ThreadPool,
    /// `None` sizes the block per model via [`kernels::query_block_for`].
    block: Option<usize>,
}

impl EpochEngine {
    /// An engine fanning out over `threads` pool workers. The query block is
    /// sized per call from the model's packed row width
    /// ([`kernels::query_block_for`]) so a block of queries stays
    /// L1-resident at any `D`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        EpochEngine {
            pool: ThreadPool::new(threads),
            block: None,
        }
    }

    /// An engine with an explicit query-block size (tests use this to pin
    /// block-size invariance).
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    #[must_use]
    pub fn with_block(threads: usize, block: usize) -> Self {
        assert!(block > 0, "query block size must be non-zero");
        EpochEngine {
            pool: ThreadPool::new(threads),
            block: Some(block),
        }
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The query-block size used against `d`-dimensional models: the
    /// explicit size given to [`with_block`](Self::with_block), or the
    /// cache-sized default.
    #[must_use]
    pub fn block_for(&self, d: Dim) -> usize {
        self.block.unwrap_or_else(|| kernels::query_block_for(d.words()))
    }

    /// The underlying pool handle (cheap to copy).
    #[must_use]
    pub fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// Classifies the whole corpus against a frozen model in one blocked,
    /// thread-chunked fan-out — the batched replacement for a per-sample
    /// `model.classify(hv)` loop. Identical to that loop bit-for-bit.
    #[must_use]
    pub fn classify_epoch(&self, model: &HdcModel, queries: &[BinaryHv]) -> Vec<usize> {
        model.classify_all_blocked(queries, self.block_for(model.dim()), self.pool.threads())
    }

    /// Accuracy of a frozen model over `queries`, through the same blocked
    /// path as [`classify_epoch`](Self::classify_epoch). The correct count
    /// is an exact integer sum over exact predictions.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    #[must_use]
    pub fn accuracy(&self, model: &HdcModel, queries: &[BinaryHv], labels: &[usize]) -> f64 {
        assert_eq!(queries.len(), labels.len(), "one label per query required");
        assert!(!queries.is_empty(), "empty query set has no accuracy");
        let preds = self.classify_epoch(model, queries);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / queries.len() as f64
    }

    /// The full logit matrix of a frozen model over the corpus: row `i`
    /// holds the `n_classes` exact integer dot products of `queries[i]`,
    /// row-major (`out[i·K + k]`). This is the batched forward the
    /// enhanced/adaptive strategies read their per-class similarities from.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the model's.
    #[must_use]
    pub fn similarities_epoch(&self, model: &HdcModel, queries: &[BinaryHv]) -> Vec<i64> {
        if let Some(bad) = queries.iter().find(|q| q.dim() != model.dim()) {
            panic!(
                "query dimension must match the model: {} vs {}",
                bad.dim(),
                model.dim()
            );
        }
        let d = model.dim().get();
        let k = model.n_classes();
        let rows: Vec<&[u64]> = model.class_hvs().iter().map(BinaryHv::as_words).collect();
        let block = self.block_for(model.dim());
        let parts = self.pool.run_chunks(queries.len(), |range| {
            let chunk: Vec<&[u64]> = queries[range].iter().map(BinaryHv::as_words).collect();
            let mut out = vec![0i64; chunk.len() * k];
            kernels::dots_blocked_into(d, &chunk, &rows, block, &mut out);
            out
        });
        parts.concat()
    }
}

/// Exact integer misclassification votes per `(class, dimension)`.
///
/// Within a retraining iteration the model is frozen and `α` is constant,
/// so the pass's accumulated update to class `k` at dimension `j` is
/// `α · votes[k][j]` where each misclassified sample contributes the
/// bipolar `±1` of its hypervector: `+1`-weighted into its true class,
/// `−1`-weighted into the wrongly predicted class. The ledger counts those
/// votes exactly with two bit-sliced [`Accumulator`] planes per class
/// (positive and negative contributions), so recording a miss costs ~2
/// carry-save plane passes instead of two `O(D)` f32 AXPYs.
///
/// Because every count is an exact integer, [`apply`](Self::apply) is
/// invariant to sample order, thread count, and chunking — and performs
/// exactly **one** f32 rounding per touched dimension per iteration.
#[derive(Debug, Clone)]
pub struct VoteLedger {
    pos: Vec<Accumulator>,
    neg: Vec<Accumulator>,
    dim: Dim,
}

impl VoteLedger {
    /// An empty ledger for `n_classes` classes of dimension `dim`.
    #[must_use]
    pub fn new(n_classes: usize, dim: Dim) -> Self {
        VoteLedger {
            pos: (0..n_classes).map(|_| Accumulator::new(dim)).collect(),
            neg: (0..n_classes).map(|_| Accumulator::new(dim)).collect(),
            dim,
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.pos.len()
    }

    /// Whether no misclassification has been recorded since the last
    /// [`clear`](Self::clear).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos.iter().all(Accumulator::is_empty) && self.neg.iter().all(Accumulator::is_empty)
    }

    /// The classes holding at least one recorded vote this pass — exactly
    /// the classes whose non-binary hypervector [`apply`](Self::apply) will
    /// touch, and therefore the only classes whose binary rows can change
    /// when the model is re-signed afterwards.
    #[must_use]
    pub fn touched_classes(&self) -> Vec<usize> {
        (0..self.pos.len())
            .filter(|&k| !self.pos[k].is_empty() || !self.neg[k].is_empty())
            .collect()
    }

    /// Records one misclassified sample: `+1` votes toward `label`, `−1`
    /// votes toward `predicted`, per dimension in bipolar terms.
    ///
    /// # Panics
    ///
    /// Panics if either class index is out of range or the hypervector
    /// dimension differs from the ledger's.
    pub fn record(&mut self, hv: &BinaryHv, label: usize, predicted: usize) {
        self.pos[label].add(hv);
        self.neg[predicted].add(hv);
    }

    /// Writes class `k`'s per-dimension vote totals into `out`.
    ///
    /// With `P`/`N` the positive/negative sample counts and `pc`/`nc` their
    /// per-dimension one-counts, the bipolar vote at dimension `j` is
    /// `(2·pc[j] − P) − (2·nc[j] − N)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `out.len() != D`.
    pub fn votes_into(&self, k: usize, out: &mut [i32]) {
        assert_eq!(out.len(), self.dim.get(), "votes output must span all dims");
        let d = self.dim.get();
        let mut pc = vec![0u32; d];
        let mut nc = vec![0u32; d];
        self.pos[k].counts_into(&mut pc);
        self.neg[k].counts_into(&mut nc);
        let bias = self.pos[k].len() as i32 - self.neg[k].len() as i32;
        for ((v, &p), &n) in out.iter_mut().zip(&pc).zip(&nc) {
            *v = 2 * (p as i32 - n as i32) - bias;
        }
    }

    /// Applies the pass's accumulated update, `c ← c + α·votes`, to every
    /// class with recorded votes, fanned out one class per pool task.
    ///
    /// Dimensions with a zero vote total are left untouched (no `+0.0`
    /// round-trips), so the update is exactly the integer-vote reference
    /// semantics: one f32 `mul_add`-free rounding per touched dimension.
    ///
    /// # Panics
    ///
    /// Panics if `nonbinary.len()` differs from the class count or any
    /// hypervector dimension differs from the ledger's.
    pub fn apply(&self, nonbinary: &mut [RealHv], alpha: f32, pool: ThreadPool) {
        assert_eq!(
            nonbinary.len(),
            self.pos.len(),
            "one non-binary hypervector per class"
        );
        let d = self.dim.get();
        let tasks: Vec<(usize, &mut RealHv)> = nonbinary
            .iter_mut()
            .enumerate()
            .filter(|(k, _)| !self.pos[*k].is_empty() || !self.neg[*k].is_empty())
            .collect();
        pool.for_each_task(tasks, |_, (k, hv)| {
            assert_eq!(
                hv.dim(),
                self.dim,
                "class hypervector dimension must match the ledger"
            );
            let mut votes = vec![0i32; d];
            self.votes_into(k, &mut votes);
            for (c, &v) in hv.values_mut().iter_mut().zip(&votes) {
                if v != 0 {
                    *c += alpha * v as f32;
                }
            }
        });
    }

    /// Resets all vote counts for the next iteration, keeping plane
    /// capacity.
    pub fn clear(&mut self) {
        for acc in self.pos.iter_mut().chain(self.neg.iter_mut()) {
            acc.clear();
        }
    }
}

/// The per-iteration bookkeeping every comparison strategy shares: each
/// [`push`](Self::push) folds one iteration's wall-clock spans into the
/// recorder (metrics + one `strategy_epoch` event) and appends its
/// [`EpochRecord`]. The record's `timing` is `None` when the recorder is
/// disabled, so histories stay equal across instrumented and
/// uninstrumented runs.
pub(crate) struct IterationLog<'a> {
    rec: &'a obs::Recorder,
    strategy: &'static str,
    samples: usize,
    history: TrainingHistory,
}

impl<'a> IterationLog<'a> {
    pub(crate) fn new(strategy: &'static str, samples: usize, rec: &'a obs::Recorder) -> Self {
        IterationLog {
            rec,
            strategy,
            samples,
            history: TrainingHistory::new(),
        }
    }

    /// Logs the next iteration (numbered from 0 in push order); `timing`
    /// holds its spans, and its throughput is filled in here.
    pub(crate) fn push(
        &mut self,
        mut timing: EpochTiming,
        train_accuracy: f64,
        test_accuracy: Option<f64>,
        learning_rate: f32,
    ) {
        let (epoch, samples, rec) = (self.history.len(), self.samples, self.rec);
        let timing = rec.enabled().then(|| {
            // Throughput over the working spans (evaluation excluded); 0
            // when nothing was timed, as in the LeHDC trainer.
            let train_ns = timing.classify_ns + timing.update_ns + timing.binarize_ns;
            timing.samples_per_sec = if train_ns == 0 {
                0.0
            } else {
                samples as f64 * 1e9 / train_ns as f64
            };
            rec.observe_ns("strategy/epoch_ns", timing.epoch_ns);
            rec.observe_ns("strategy/classify_ns", timing.classify_ns);
            rec.observe_ns("strategy/update_ns", timing.update_ns);
            rec.observe_ns("strategy/binarize_ns", timing.binarize_ns);
            rec.observe_ns("strategy/eval_ns", timing.eval_ns);
            rec.add("strategy/epochs", 1);
            rec.add("strategy/samples", samples as u64);
            rec.gauge("strategy/samples_per_sec", timing.samples_per_sec);
            let mut fields = vec![
                ("strategy", obs::Value::Str(self.strategy)),
                ("epoch", obs::Value::U64(epoch as u64)),
                ("samples", obs::Value::U64(samples as u64)),
                ("samples_per_sec", obs::Value::F64(timing.samples_per_sec)),
                ("classify_ns", obs::Value::U64(timing.classify_ns)),
                ("update_ns", obs::Value::U64(timing.update_ns)),
                ("binarize_ns", obs::Value::U64(timing.binarize_ns)),
                ("eval_ns", obs::Value::U64(timing.eval_ns)),
                ("epoch_ns", obs::Value::U64(timing.epoch_ns)),
                ("train_accuracy", obs::Value::F64(train_accuracy)),
            ];
            if let Some(test_acc) = test_accuracy {
                fields.push(("test_accuracy", obs::Value::F64(test_acc)));
            }
            rec.emit("strategy_epoch", &fields);
            timing
        });
        self.history.push(EpochRecord {
            epoch,
            train_accuracy,
            test_accuracy,
            validation_accuracy: None,
            loss: None,
            learning_rate: Some(learning_rate),
            timing,
        });
    }

    pub(crate) fn finish(self) -> TrainingHistory {
        self.history
    }
}

/// What retraining (Eq. 3), enhanced retraining (Sec. 3.3) and AdaptHD
/// differ in. [`retrain_loop`] calls each method once per pass; the
/// per-sample work inside [`update`](Self::update) is statically dispatched.
pub(crate) trait UpdateRule {
    /// What the frozen model yields per pass: predictions or logits.
    type Pass;
    /// Strategy name on `strategy_epoch` events.
    const NAME: &'static str;

    /// The pass's learning rate (logged), given the previous pass's
    /// training accuracy.
    fn rate(&self, iter: usize, last_accuracy: Option<f64>) -> f32;

    /// The frozen-model fan-out (the `classify` span).
    fn classify(
        &self,
        engine: &EpochEngine,
        model: &HdcModel,
        train: &EncodedDataset,
    ) -> Self::Pass;

    /// Updates `sums` at `rate` from the pass, sets `touched[k]` for every
    /// class whose sum it changed, and returns how many samples the frozen
    /// model classified correctly (the `update` span).
    fn update(
        &mut self,
        pass: &Self::Pass,
        train: &EncodedDataset,
        sums: &mut [RealHv],
        rate: f32,
        touched: &mut [bool],
    ) -> usize;
}

/// The predicted class of one logit row: the largest dot, lowest index on
/// ties, as in `model.classify` and every argmax kernel.
pub(crate) fn predicted_class(row: &[i64]) -> usize {
    (1..row.len()).fold(0, |best, c| if row[c] > row[best] { c } else { best })
}

/// The retraining iteration loop: start from the baseline class sums, then
/// per pass classify with the frozen binary model, update the non-binary
/// sums through `rule`, re-sign the touched classes, evaluate, and log.
/// Runs `iterations` passes, or stops once the fraction of class bits a
/// pass flipped falls below `threshold` (never after the first pass).
pub(crate) fn retrain_loop<R: UpdateRule>(
    mut rule: R,
    iterations: usize,
    threshold: Option<f64>,
    train: &EncodedDataset,
    test: Option<&EncodedDataset>,
    engine: &EpochEngine,
    rec: &obs::Recorder,
) -> Result<(HdcModel, TrainingHistory), LehdcError> {
    let mut sums = accumulate_class_sums_pooled(train, engine.threads())?;
    let mut model = HdcModel::new(sums.iter().map(RealHv::sign).collect())?;
    let mut touched = vec![false; train.n_classes()];
    let mut log = IterationLog::new(R::NAME, train.len(), rec);
    let mut last_accuracy = None;

    for iter in 0..iterations {
        let rate = rule.rate(iter, last_accuracy);
        let epoch_timer = rec.start();
        let mut timing = EpochTiming::default();

        let t = rec.start();
        let pass = rule.classify(engine, &model, train);
        timing.classify_ns = t.elapsed_ns();

        let t = rec.start();
        touched.fill(false);
        let correct = rule.update(&pass, train, &mut sums, rate, &mut touched);
        timing.update_ns = t.elapsed_ns();

        let t = rec.start();
        // Only touched classes can change sign: an untouched class sum is
        // bit-unchanged, so its row is too. Re-signing exactly those rows
        // equals a full rebinarize, and their Hamming flips are the paper's
        // "updating on class hypervectors" convergence signal.
        let flipped: usize = (0..touched.len())
            .filter(|&k| touched[k])
            .map(|k| model.resign_class(k, &sums[k]))
            .sum();
        timing.binarize_ns = t.elapsed_ns();

        let t = rec.start();
        let train_accuracy = correct as f64 / train.len() as f64;
        let test_accuracy = test.map(|ts| engine.accuracy(&model, ts.hvs(), ts.labels()));
        timing.eval_ns = t.elapsed_ns();
        timing.epoch_ns = epoch_timer.elapsed_ns();
        log.push(timing, train_accuracy, test_accuracy, rate);
        last_accuracy = Some(train_accuracy);
        let flip_fraction = flipped as f64 / (train.dim().get() * touched.len()) as f64;
        if iter > 0 && threshold.is_some_and(|t| flip_fraction < t) {
            break;
        }
    }
    Ok((model, log.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveConfig, AdaptiveRule};
    use crate::enhanced::EnhancedRule;
    use crate::retrain::{RetrainConfig, RetrainRule};
    use crate::test_util::{hard_encoded_pair, off};
    use hdc::Dim;

    fn corpus(d: Dim, n: usize, seed: u64) -> Vec<BinaryHv> {
        let mut rng = hdc::rng::rng_for(seed, 0xE9);
        (0..n).map(|_| BinaryHv::random(d, &mut rng)).collect()
    }

    #[test]
    fn classify_epoch_matches_serial_classify() {
        let d = Dim::new(517);
        let classes = corpus(d, 5, 1);
        let model = HdcModel::new(classes).unwrap();
        let queries = corpus(d, 33, 2);
        let serial: Vec<usize> = queries.iter().map(|q| model.classify(q)).collect();
        for threads in [1, 4] {
            for block in [1, 7, 64] {
                let engine = EpochEngine::with_block(threads, block);
                assert_eq!(
                    engine.classify_epoch(&model, &queries),
                    serial,
                    "threads={threads} block={block}"
                );
            }
        }
    }

    #[test]
    fn similarities_epoch_matches_serial_similarities() {
        let d = Dim::new(300);
        let model = HdcModel::new(corpus(d, 4, 3)).unwrap();
        let queries = corpus(d, 19, 4);
        let serial: Vec<i64> = queries.iter().flat_map(|q| model.similarities(q)).collect();
        for threads in [1, 4] {
            for block in [1, 5, 64] {
                let engine = EpochEngine::with_block(threads, block);
                assert_eq!(
                    engine.similarities_epoch(&model, &queries),
                    serial,
                    "threads={threads} block={block}"
                );
            }
        }
    }

    #[test]
    fn vote_ledger_matches_sequential_reference() {
        let d = Dim::new(130);
        let samples = corpus(d, 40, 5);
        let labels: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let preds: Vec<usize> = (0..40).map(|i| (i * 7) % 3).collect();

        // Sequential i32 reference: each miss contributes ±bipolar votes.
        let mut reference = vec![vec![0i32; d.get()]; 3];
        let mut ledger = VoteLedger::new(3, d);
        for ((hv, &label), &pred) in samples.iter().zip(&labels).zip(&preds) {
            if label == pred {
                continue;
            }
            ledger.record(hv, label, pred);
            for j in 0..d.get() {
                let bipolar = i32::from(hv.bipolar(j));
                reference[label][j] += bipolar;
                reference[pred][j] -= bipolar;
            }
        }
        let mut votes = vec![0i32; d.get()];
        for k in 0..3 {
            ledger.votes_into(k, &mut votes);
            assert_eq!(votes, reference[k], "class {k}");
        }

        // apply == serial add_scaled of each miss, in exact-arithmetic
        // regimes (integer-valued f32 state keeps both paths exact).
        let mut batched: Vec<RealHv> = (0..3).map(|_| RealHv::zeros(d)).collect();
        let mut serial: Vec<RealHv> = (0..3).map(|_| RealHv::zeros(d)).collect();
        for ((hv, &label), &pred) in samples.iter().zip(&labels).zip(&preds) {
            if label != pred {
                serial[label].add_scaled(hv, 2.0);
                serial[pred].add_scaled(hv, -2.0);
            }
        }
        for threads in [1, 4] {
            ledger.apply(&mut batched, 2.0, ThreadPool::new(threads));
            assert_eq!(batched, serial, "threads={threads}");
            for hv in &mut batched {
                hv.values_mut().fill(0.0);
            }
        }

        ledger.clear();
        assert!(ledger.is_empty());
        ledger.votes_into(0, &mut votes);
        assert!(votes.iter().all(|&v| v == 0));
    }

    #[test]
    fn retraining_rules_are_bit_identical_across_threads_and_blocks() {
        fn fit<R: UpdateRule>(rule: R, engine: &EpochEngine) -> (HdcModel, TrainingHistory) {
            // The baseline misclassifies this corpus, so every pass
            // performs real updates.
            let (train, test) = hard_encoded_pair(1);
            retrain_loop(rule, 8, None, &train, Some(&test), engine, &off()).unwrap()
        }
        let (train, _) = hard_encoded_pair(1);
        let (rcfg, acfg) = (RetrainConfig::default(), AdaptiveConfig::default());
        let run = |engine: &EpochEngine| {
            [
                fit(RetrainRule::new(&rcfg, &train, engine.pool()), engine),
                fit(EnhancedRule { config: &rcfg }, engine),
                fit(AdaptiveRule { config: &acfg }, engine),
            ]
        };
        let reference = run(&EpochEngine::new(1));
        for (_, history) in &reference {
            assert_eq!(history.len(), 8);
            assert!(history.records()[0].train_accuracy < 1.0);
        }
        for threads in [1usize, 2, 4] {
            for block in [1usize, 7, 64, 256] {
                let observed = run(&EpochEngine::with_block(threads, block));
                assert_eq!(observed, reference, "threads={threads} block={block}");
            }
        }
    }
}
