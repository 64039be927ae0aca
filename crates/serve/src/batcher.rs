//! The micro-batch collector: the perf heart of the daemon.
//!
//! Connection readers enqueue [`ClassifyRequest`]s; one collector thread
//! drains the ring in batches and answers each batch with *one* packed
//! classify fan-out. That coalescing is where the throughput comes from —
//! per-request costs (queue hop, model snapshot, kernel dispatch) are paid
//! once per batch, and the encode + argmax work runs on the persistent
//! threadpool at full width instead of one request at a time.
//!
//! Steady-state request handling allocates nothing: the batch `Vec`s, the
//! packed query hypervectors, and the per-worker [`EncodeScratch`]es are
//! all reused across batches (re-sized only when a hot swap changes the
//! model dimension).

use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdc::kernels::query_block_for;
use hdc::{BinaryHv, Encode, EncodeScratch};
use obs::Recorder;
use threadpool::ThreadPool;

use crate::queue::RingBuffer;
use crate::state::ModelState;

/// A classification outcome sent back to the connection that asked:
/// `(class, model epoch)` or a human-readable rejection.
pub type ClassifyReply = Result<(u32, u64), String>;

/// One enqueued classify request.
pub struct ClassifyRequest {
    /// Raw (un-normalized) feature vector from the client.
    pub features: Vec<f32>,
    /// When the reader enqueued it — measures queue + coalescing wait.
    pub enqueued: Instant,
    /// Rendezvous channel back to the connection's writer.
    pub reply: SyncSender<ClassifyReply>,
}

pub(crate) struct Collector {
    pub queue: Arc<RingBuffer<ClassifyRequest>>,
    pub state: Arc<ModelState>,
    pub pool: ThreadPool,
    pub max_batch: usize,
    pub max_wait: Duration,
    pub rec: Recorder,
}

impl Collector {
    /// Runs until the queue is closed *and* drained, so every request that
    /// made it into the ring is answered even during shutdown.
    pub(crate) fn run(&self) {
        let mut pending: Vec<ClassifyRequest> = Vec::with_capacity(self.max_batch);
        let mut queries: Vec<BinaryHv> = Vec::new();
        let mut scratches: Vec<EncodeScratch> = Vec::new();
        let mut scratch_dim = None;

        while self
            .queue
            .recv_batch(&mut pending, self.max_batch, self.max_wait)
            .is_ok()
        {
            let batch_timer = self.rec.start();
            let snap = self.state.snapshot();
            let bundle = &snap.bundle;

            // Reject shape mismatches and non-finite features up front so
            // the fan-out below is infallible; the rest of the batch
            // proceeds unaffected. The protocol layer already screens for
            // NaN/±inf, so the finiteness check here is defense in depth
            // (e.g. against a future ingress path that skips decode).
            let expected = bundle.n_features();
            pending.retain(|req| {
                if req.features.len() != expected {
                    let _ = req.reply.send(Err(format!(
                        "expected {expected} features, got {}",
                        req.features.len()
                    )));
                    return false;
                }
                if let Some(i) = req.features.iter().position(|v| !v.is_finite()) {
                    let _ = req.reply.send(Err(format!(
                        "feature {i} is not finite (NaN/±inf cannot be quantized)"
                    )));
                    return false;
                }
                true
            });
            let n = pending.len();
            if n == 0 {
                continue;
            }

            // Queries are encoded at the *encoder* dimension; a distilled
            // bundle then projects each one down to the model dimension
            // before the argmax fan-out.
            let enc_dim = bundle.encoder.dim();
            let model_dim = bundle.model.dim();
            if scratch_dim != Some(enc_dim) {
                queries.clear();
                scratches.clear();
                scratch_dim = Some(enc_dim);
            }
            while queries.len() < n {
                queries.push(BinaryHv::zeros(enc_dim));
            }
            let ranges = threadpool::chunk_ranges(n, self.pool.threads());
            while scratches.len() < ranges.len() {
                scratches.push(EncodeScratch::new(enc_dim));
            }

            // Encode fan-out: each worker gets a disjoint slice of requests
            // and output rows plus its own scratch. Normalization happens
            // in place on the request's owned features.
            let encode_timer = self.rec.start();
            {
                let mut tasks = Vec::with_capacity(ranges.len());
                let mut req_rest = &mut pending[..];
                let mut out_rest = &mut queries[..n];
                let mut scratch_rest = &mut scratches[..];
                for range in &ranges {
                    let (reqs, rr) = req_rest.split_at_mut(range.len());
                    let (outs, or) = out_rest.split_at_mut(range.len());
                    let (scratch, sr) = scratch_rest.split_at_mut(1);
                    req_rest = rr;
                    out_rest = or;
                    scratch_rest = sr;
                    tasks.push((reqs, outs, &mut scratch[0]));
                }
                self.pool.for_each_task(tasks, |_, (reqs, outs, scratch)| {
                    for (req, out) in reqs.iter_mut().zip(outs.iter_mut()) {
                        if let Some(norm) = &bundle.normalizer {
                            norm.apply_row(&mut req.features);
                        }
                        bundle
                            .encoder
                            .encode_into(&req.features, scratch, out)
                            .expect("feature counts were validated above");
                    }
                });
            }
            self.rec.observe_since("serve/encode_ns", &encode_timer);

            // One blocked argmax fan-out answers the whole batch.
            let classify_timer = self.rec.start();
            let block = query_block_for(model_dim.words());
            let preds = if bundle.selection.is_some() {
                let projected: Vec<BinaryHv> = queries[..n]
                    .iter()
                    .map(|q| bundle.project_query(q.clone()))
                    .collect();
                bundle
                    .model
                    .classify_all_blocked(&projected, block, self.pool.threads())
            } else {
                bundle
                    .model
                    .classify_all_blocked(&queries[..n], block, self.pool.threads())
            };
            self.rec.observe_since("serve/classify_ns", &classify_timer);

            // Record before replying: a client that just received its
            // answer must see this batch already counted in STATS.
            if self.rec.enabled() {
                let now = Instant::now();
                for req in &pending {
                    let wait = now.saturating_duration_since(req.enqueued);
                    self.rec
                        .observe_ns("serve/queue_wait_ns", wait.as_nanos() as u64);
                }
                self.rec.add("serve/requests_total", n as u64);
                self.rec.add("serve/batches_total", 1);
                self.rec.gauge("serve/epoch", snap.epoch as f64);
                self.rec.gauge("serve/last_batch_size", n as f64);
                self.rec.observe_since("serve/batch_ns", &batch_timer);
            }
            for (req, pred) in pending.drain(..).zip(preds) {
                let _ = req.reply.send(Ok((pred as u32, snap.epoch)));
            }
        }
    }
}
