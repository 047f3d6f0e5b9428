//! KV-cache incremental decoding.
//!
//! The paper motivates APTQ with LLM deployment on edge devices; the
//! inference loop that actually runs there is autoregressive decoding
//! with a key/value cache — O(T) attention work per new token instead of
//! re-running the full O(T²) prefill every step. [`DecodeSession`]
//! implements that loop and is verified (see tests) to produce logits
//! identical to the full forward pass; [`BatchDecodeSession`] serves many
//! sequences through the same step kernel.
//!
//! The cache is **preallocated** at `max_seq_len` rows per layer and
//! written in place, one row per token. Growing it with
//! [`Matrix::vcat`] instead would copy the entire cache on every token —
//! O(T²) bytes moved over a T-token decode — which is exactly the kind
//! of regression the `decode/kv_bytes_moved` counter exists to catch:
//! it counts bytes *written into* the cache and must stay linear in T.

use aptq_obs::Recorder;
use aptq_tensor::Matrix;

use crate::config::ModelConfig;
use crate::linear::{Linear, LinearOp};
use crate::model::ModelOf;
use crate::rope::RopeTable;
use crate::LmError;

/// Per-layer key/value cache: rotated keys and raw values, preallocated
/// at `max_seq_len × d_model`; rows `[0, pos)` are valid.
#[derive(Debug, Clone)]
struct LayerKv {
    /// Rotated keys (heads concatenated).
    k_rot: Matrix,
    /// Values.
    v: Matrix,
}

/// One sequence's private KV cache and position: a [`DecodeSession`]
/// owns one, a [`BatchDecodeSession`] a table of them.
#[derive(Debug)]
struct SeqSlot {
    layers: Vec<LayerKv>,
    pos: usize,
}

impl SeqSlot {
    /// An empty sequence with its full `max_seq_len`-row KV cache
    /// preallocated, so stepping never regrows it.
    fn new(cfg: &ModelConfig) -> Self {
        SeqSlot {
            layers: (0..cfg.n_layers)
                .map(|_| LayerKv {
                    k_rot: Matrix::zeros(cfg.max_seq_len, cfg.d_model),
                    v: Matrix::zeros(cfg.max_seq_len, cfg.d_model),
                })
                .collect(),
            pos: 0,
        }
    }

    /// Used (not preallocated) cache bytes.
    fn cache_bytes(&self, cfg: &ModelConfig) -> usize {
        self.pos * kv_bytes_per_token(cfg)
    }

    /// Checks that `token` is in the vocabulary and a cache row is free.
    fn check_next(&self, token: u32, cfg: &ModelConfig) -> Result<(), LmError> {
        if token as usize >= cfg.vocab_size {
            return Err(LmError::TokenOutOfRange {
                token,
                vocab: cfg.vocab_size,
            });
        }
        if self.pos >= cfg.max_seq_len {
            return Err(LmError::SequenceFull {
                pos: self.pos,
                max_seq_len: cfg.max_seq_len,
            });
        }
        Ok(())
    }

    /// Fault injection: overwrites the most recently written layer-0
    /// key-cache row with NaN. No-op before the first token.
    fn poison(&mut self) {
        if let (Some(last), Some(kv)) = (self.pos.checked_sub(1), self.layers.first_mut()) {
            for v in kv.k_rot.row_mut(last) {
                *v = f32::NAN;
            }
        }
    }
}

/// KV-cache bytes one fed token writes: a key row and a value row per
/// layer.
fn kv_bytes_per_token(cfg: &ModelConfig) -> usize {
    cfg.n_layers * 2 * cfg.d_model * std::mem::size_of::<f32>()
}

/// The decode step behind both sessions: feeds token `t` to sequence
/// `slots[seq]` for every `(seq, t)` in `tokens` and returns the
/// next-token logits, row `r` answering `tokens[r]`.
///
/// The rows are stacked into one B×d matrix, so each projection runs
/// once per layer for the whole batch (where packed unpacking
/// amortizes), and attention runs per row against that sequence's own
/// cache. A solo session is the B = 1 case, so with row-independent
/// projections ([`LinearOp`] contract) batched ≡ solo by construction.
///
/// Callers validate before and quarantine after: this writes one cache
/// row per layer per sequence but advances no position, and records
/// only the operators' [`LinearOp::forward_into`] counters.
///
/// # HotPath
///
/// Allocation budget: per-step scratch (stacked hidden rows, projection
/// outputs, per-head score vector, logits) sized by batch × model, never
/// by sequence length; KV caches are preallocated by [`SeqSlot::new`]
/// and written in place, never regrown.
///
/// # Determinism
///
/// Projections run on the shared matmul threadpool
/// ([`aptq_tensor::parallel`]); logits and recorded counters are
/// bit-identical at any `APTQ_THREADS` value.
fn forward_step<L: LinearOp>(
    model: &ModelOf<L>,
    slots: &mut [Option<SeqSlot>],
    tokens: &[(usize, u32)],
    rec: &mut Recorder,
) -> Matrix {
    let cfg = model.config();
    let (b, d_model, n_heads, d_head) = (tokens.len(), cfg.d_model, cfg.n_heads, cfg.d_head());

    // Stacked embedding rows, one per listed sequence.
    let mut x = Matrix::zeros(b, d_model);
    for (r, &(_, token)) in tokens.iter().enumerate() {
        x.row_mut(r)
            .copy_from_slice(model.embed().row(token as usize));
    }

    for (li, block) in model.blocks().iter().enumerate() {
        // Attention sub-layer. One projection call covers every row, and
        // goes through the generic LinearOp hook so packed operators
        // count their unpacking work into `rec`.
        let (normed, _) = block.norm1.forward(&x);
        let mut q = block.attn.wq().forward_op(&normed, Some(&mut *rec));
        let mut k = block.attn.wk().forward_op(&normed, Some(&mut *rec));
        let v = block.attn.wv().forward_op(&normed, Some(&mut *rec));
        let mut concat = Matrix::zeros(b, d_model);
        for (r, &(seq, _)) in tokens.iter().enumerate() {
            if let Some(slot) = slots[seq].as_mut() {
                attend_cached_row(
                    &mut slot.layers[li],
                    model.rope(),
                    n_heads,
                    d_head,
                    slot.pos,
                    q.row_mut(r),
                    k.row_mut(r),
                    v.row(r),
                    concat.row_mut(r),
                );
            }
        }
        let attn_out = block.attn.wo().forward_op(&concat, Some(&mut *rec));
        x.add_assign(&attn_out);

        // FFN sub-layer.
        let (normed2, _) = block.norm2.forward(&x);
        let (ffn_out, _) = block.ffn.forward_opt(&normed2, Some(&mut *rec));
        x.add_assign(&ffn_out);
    }

    let (normed, _) = model.final_norm().forward(&x);
    normed.matmul(model.lm_head())
}

/// An incremental decoding session over a model, generic over the
/// linear operator `L`.
///
/// Instantiated at `L = `[`Linear`] this is fp32 cached decoding;
/// instantiated at `aptq_qmodel::QuantizedLinear` the same loop decodes
/// straight from packed sub-byte storage, turning quantized generation
/// from O(T²) full re-forwards into O(T) cached steps.
///
/// # Example
///
/// ```
/// use aptq_lm::{decode::DecodeSession, Model, ModelConfig};
///
/// # fn main() -> Result<(), aptq_lm::LmError> {
/// let model = Model::new(&ModelConfig::test_tiny(16), 0);
/// let mut session = DecodeSession::new(&model);
/// let logits = session.feed(3)?;
/// assert_eq!(logits.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodeSession<'m, L = Linear> {
    model: &'m ModelOf<L>,
    /// The session's one sequence — always `Some`; held as an `Option`
    /// so it passes to the step kernel as a one-slot table.
    slot: Option<SeqSlot>,
    /// Position at which non-finite logits first appeared, if ever.
    /// A quarantined session refuses all further tokens.
    quarantined: Option<usize>,
    metrics: Recorder,
}

impl<'m, L: LinearOp> DecodeSession<'m, L> {
    /// Starts an empty session, preallocating the full
    /// `max_seq_len`-row KV cache so [`DecodeSession::feed`] never
    /// reallocates or copies previously cached rows.
    pub fn new(model: &'m ModelOf<L>) -> Self {
        DecodeSession {
            model,
            slot: Some(SeqSlot::new(model.config())),
            quarantined: None,
            metrics: Recorder::new(),
        }
    }

    /// The model this session decodes.
    pub fn model(&self) -> &'m ModelOf<L> {
        self.model
    }

    /// Number of tokens consumed so far.
    pub fn len(&self) -> usize {
        self.slot.as_ref().map_or(0, |slot| slot.pos)
    }

    /// Whether no tokens have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache memory in **used** bytes (the edge-deployment statistic:
    /// 2 matrices × layers × T × d_model × 4 bytes). Preallocated but
    /// not-yet-written rows are capacity, not usage, so this grows
    /// linearly with the number of tokens fed.
    pub fn cache_bytes(&self) -> usize {
        let cfg = self.model.config();
        self.slot.as_ref().map_or(0, |slot| slot.cache_bytes(cfg))
    }

    /// Telemetry recorded so far: `decode/tokens`,
    /// `decode/kv_bytes_moved`, plus whatever the operator's
    /// [`LinearOp::forward_into`] hook counts (packed operators record
    /// `qmodel/qlinear/…` unpacking work per fed token).
    pub fn metrics(&self) -> &Recorder {
        &self.metrics
    }

    /// Takes the accumulated telemetry, leaving an empty recorder (for
    /// merging into a pipeline-wide [`Recorder`]).
    pub fn take_metrics(&mut self) -> Recorder {
        std::mem::take(&mut self.metrics)
    }

    /// The position at which non-finite logits first appeared, if the
    /// session is quarantined. A quarantined session rejects every
    /// further [`DecodeSession::feed`] with
    /// [`LmError::NonFiniteLogits`].
    pub fn quarantined(&self) -> Option<usize> {
        self.quarantined
    }

    /// Fault-injection hook (chaos suite): overwrites the most
    /// recently written layer-0 key-cache row with NaN, so the next
    /// [`DecodeSession::feed`] attends over poisoned state and must
    /// detect the resulting non-finite logits. No-op before the first
    /// fed token (no cache row has been written yet).
    pub fn poison_kv_cache(&mut self) {
        if let Some(slot) = self.slot.as_mut() {
            slot.poison();
        }
    }

    /// Feeds one token (a one-row [`BatchDecodeSession::step`]);
    /// returns the next-token logits.
    ///
    /// # Determinism
    ///
    /// Projections run on the shared matmul threadpool
    /// ([`aptq_tensor::parallel`]); logits and recorded counters are
    /// bit-identical at any `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: the step kernel's per-token scratch, sized by
    /// the model, never by the sequence; the 1 × vocab logits row is
    /// moved out, not copied, and the non-finite quarantine scan reads
    /// it in place.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::TokenOutOfRange`] for invalid ids,
    /// [`LmError::SequenceFull`] when the RoPE table (i.e.
    /// `max_seq_len`) is exhausted, and [`LmError::NonFiniteLogits`]
    /// when the logits row contains NaN/Inf — the session is then
    /// quarantined (this and all later feeds fail, the position never
    /// advances) and `decode/quarantine/sessions` is recorded.
    pub fn feed(&mut self, token: u32) -> Result<Vec<f32>, LmError> {
        if let Some(pos) = self.quarantined {
            return Err(LmError::NonFiniteLogits { pos });
        }
        let cfg = self.model.config();
        let pos = self.len();
        if let Some(slot) = &self.slot {
            slot.check_next(token, cfg)?;
        }
        let logits = forward_step(
            self.model,
            std::slice::from_mut(&mut self.slot),
            &[(0, token)],
            &mut self.metrics,
        );
        self.metrics
            .add("decode/kv_bytes_moved", kv_bytes_per_token(cfg) as u64);
        if !logits.row(0).iter().all(|v| v.is_finite()) {
            self.quarantined = Some(pos);
            self.metrics.incr("decode/quarantine/sessions");
            return Err(LmError::NonFiniteLogits { pos });
        }
        if let Some(slot) = self.slot.as_mut() {
            slot.pos += 1;
        }
        self.metrics.incr("decode/tokens");
        // `logits` is 1 × vocab: moving it out is free, where
        // `row(0).to_vec()` would copy the row.
        Ok(logits.into_vec())
    }

    /// Feeds a whole prompt, returning the logits after its last token.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`; see [`DecodeSession::feed`].
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`] for an empty prompt; propagates
    /// [`DecodeSession::feed`] errors.
    pub fn feed_all(&mut self, tokens: &[u32]) -> Result<Vec<f32>, LmError> {
        let mut last = None;
        for &t in tokens {
            last = Some(self.feed(t)?);
        }
        last.ok_or(LmError::EmptyInput)
    }
}

/// Greedy generation through the KV cache (functionally identical to
/// [`crate::generate::generate_greedy`], asymptotically cheaper), for
/// any linear operator — fp32 or packed.
///
/// Token selection goes through [`aptq_tensor::select::argmax`]: NaN
/// logits never win and ties break toward the lowest token id.
///
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS`; see [`DecodeSession::feed`].
///
/// # Errors
///
/// Rejects the prompt per the [`crate::generate`] input contract;
/// propagates session errors.
pub fn generate_greedy_cached<L: LinearOp>(
    model: &ModelOf<L>,
    prompt: &[u32],
    n_new: usize,
) -> Result<Vec<u32>, LmError> {
    let mut session = DecodeSession::new(model);
    crate::generate::extend_cached(&mut session, prompt, n_new, aptq_tensor::select::argmax)
}

/// One sequence's cached-attention step for one layer: rotates the
/// freshly projected `q`/`k` rows for position `pos`, appends `k`/`v`
/// in place at cache row `pos`, and accumulates the softmax-weighted
/// values over rows `[0, pos]` into `out`.
///
/// Called once per row by [`forward_step`], so a row's float operations
/// and their order never depend on how many other sequences share the
/// step.
///
/// Dot-product order matches `Matrix::matmul_nt`; the softmax mirrors
/// `aptq_tensor::activation::softmax_rows`.
#[allow(clippy::too_many_arguments)]
fn attend_cached_row(
    kv: &mut LayerKv,
    rope: &RopeTable,
    n_heads: usize,
    d_head: usize,
    pos: usize,
    q: &mut [f32],
    k: &mut [f32],
    v: &[f32],
    out: &mut [f32],
) {
    for h in 0..n_heads {
        let lo = h * d_head;
        let hi = lo + d_head;
        rope.apply_row(&mut q[lo..hi], pos);
        rope.apply_row(&mut k[lo..hi], pos);
    }
    kv.k_rot.row_mut(pos).copy_from_slice(k);
    kv.v.row_mut(pos).copy_from_slice(v);

    let t = pos + 1;
    let scale = 1.0 / (d_head as f32).sqrt();
    for h in 0..n_heads {
        let lo = h * d_head;
        let hi = lo + d_head;
        let qh = &q[lo..hi];
        // Scores against the cached keys, read in place (no per-token
        // copy of the cache).
        let mut scores = vec![0.0f32; t];
        for (ti, s) in scores.iter_mut().enumerate() {
            let kh = &kv.k_rot.row(ti)[lo..hi];
            let mut acc = 0.0f32;
            for (a, b) in qh.iter().zip(kh) {
                acc += a * b;
            }
            *s = acc * scale;
        }
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for s in &mut scores {
            *s = (*s - max).exp();
            sum += *s;
        }
        let inv = 1.0 / sum;
        for s in &mut scores {
            *s *= inv;
        }
        let head = &mut out[lo..hi];
        for (ti, &s) in scores.iter().enumerate() {
            let vh = &kv.v.row(ti)[lo..hi];
            for (o, b) in head.iter_mut().zip(vh) {
                *o += s * b;
            }
        }
    }
}

/// A multi-sequence KV-cached decode engine: one token per active
/// sequence per step, with the per-sequence hidden rows stacked into a
/// single B×d matrix so every projection runs **once per layer per
/// step** over the whole batch. For a packed operator
/// (`aptq_qmodel::QuantizedLinear`) that means each sub-byte weight
/// group is unpacked once for B sequences instead of B times — the
/// serving amortization APTQ targets.
///
/// Sequences join and leave independently (continuous batching): a
/// retired slot is reused by the next [`BatchDecodeSession::join`] and
/// never disturbs other sequences' caches or positions.
///
/// Every sequence's logits are bit-identical to decoding it alone in a
/// [`DecodeSession`] — both sessions run the same step kernel, attention
/// runs per row against that sequence's own cache, and the batched
/// projections are row-independent by the [`LinearOp`] contract.
///
/// # Example
///
/// ```
/// use aptq_lm::{decode::BatchDecodeSession, Model, ModelConfig};
///
/// # fn main() -> Result<(), aptq_lm::LmError> {
/// let model = Model::new(&ModelConfig::test_tiny(16), 0);
/// let mut batch = BatchDecodeSession::new(&model);
/// let a = batch.join();
/// let b = batch.join();
/// let logits = batch.step(&[(a, 3), (b, 7)])?;
/// assert_eq!(logits.shape(), (2, 16));
/// batch.leave(a)?;
/// let logits = batch.step(&[(b, 1)])?; // `b` continues undisturbed
/// assert_eq!(logits.shape(), (1, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchDecodeSession<'m, L = Linear> {
    model: &'m ModelOf<L>,
    slots: Vec<Option<SeqSlot>>,
    /// Sequence ids evicted by the most recent
    /// [`BatchDecodeSession::step`] for non-finite logits.
    evicted: Vec<usize>,
    metrics: Recorder,
}

impl<'m, L: LinearOp> BatchDecodeSession<'m, L> {
    /// Starts a session with no active sequences.
    pub fn new(model: &'m ModelOf<L>) -> Self {
        BatchDecodeSession {
            model,
            slots: Vec::new(),
            evicted: Vec::new(),
            metrics: Recorder::new(),
        }
    }

    /// Admits a new sequence and returns its id (used with
    /// [`BatchDecodeSession::step`] / [`BatchDecodeSession::leave`]).
    /// The lowest retired slot is reused if one exists; its
    /// `max_seq_len`-row KV cache is preallocated here so stepping
    /// never regrows it.
    pub fn join(&mut self) -> usize {
        let fresh = SeqSlot::new(self.model.config());
        self.metrics.incr("decode/batch/joins");
        if let Some(i) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[i] = Some(fresh);
            i
        } else {
            self.slots.push(Some(fresh));
            self.slots.len() - 1
        }
    }

    /// Retires sequence `seq`, freeing its slot for a later
    /// [`BatchDecodeSession::join`]. Other sequences are undisturbed.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::UnknownSeq`] if `seq` is not active.
    pub fn leave(&mut self, seq: usize) -> Result<(), LmError> {
        if !self.is_active(seq) {
            return Err(LmError::UnknownSeq { seq });
        }
        self.slots[seq] = None;
        self.metrics.incr("decode/batch/leaves");
        Ok(())
    }

    /// Number of currently active sequences.
    pub fn active(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether sequence `seq` is active.
    pub fn is_active(&self, seq: usize) -> bool {
        self.seq_len(seq).is_some()
    }

    /// Tokens consumed so far by sequence `seq` (`None` if inactive).
    pub fn seq_len(&self, seq: usize) -> Option<usize> {
        self.slots.get(seq)?.as_ref().map(|slot| slot.pos)
    }

    /// Cache memory in **used** bytes, summed over active sequences
    /// (same statistic as [`DecodeSession::cache_bytes`]). A sequence
    /// that leaves stops counting immediately.
    pub fn cache_bytes(&self) -> usize {
        let cfg = self.model.config();
        self.slots
            .iter()
            .flatten()
            .map(|slot| slot.cache_bytes(cfg))
            .sum()
    }

    /// Telemetry recorded so far: `decode/batch/steps`,
    /// `decode/batch/tokens`, `decode/batch/occupancy` (active
    /// sequences summed over steps), `decode/batch/joins`/`leaves`,
    /// `decode/batch/kv_bytes_moved`, plus whatever the operator's
    /// [`LinearOp::forward_into`] hook counts — for packed operators
    /// the `qmodel/qlinear/…` counters advance **once per layer per
    /// step**, not once per sequence.
    pub fn metrics(&self) -> &Recorder {
        &self.metrics
    }

    /// Takes the accumulated telemetry, leaving an empty recorder.
    pub fn take_metrics(&mut self) -> Recorder {
        std::mem::take(&mut self.metrics)
    }

    /// Sequence ids quarantined (evicted) by the most recent
    /// [`BatchDecodeSession::step`] because their logits row went
    /// non-finite. Empty after a fully healthy step. Evicted slots are
    /// free for reuse by [`BatchDecodeSession::join`].
    pub fn evicted_last_step(&self) -> &[usize] {
        &self.evicted
    }

    /// Fault-injection hook (chaos suite): overwrites sequence `seq`'s
    /// most recently written layer-0 key-cache row with NaN, so its
    /// next step attends over poisoned state and must be quarantined.
    /// No-op if the sequence has not consumed any token yet.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::UnknownSeq`] if `seq` is not active.
    pub fn poison_kv_cache(&mut self, seq: usize) -> Result<(), LmError> {
        let Some(Some(slot)) = self.slots.get_mut(seq) else {
            return Err(LmError::UnknownSeq { seq });
        };
        slot.poison();
        Ok(())
    }

    /// Feeds one token per listed sequence; returns the batch logits
    /// (`tokens.len() × vocab`, row `r` answering `tokens[r]`). Each
    /// [`LinearOp::forward_into`] call runs once per layer over the
    /// stacked rows, through the same step kernel as
    /// [`DecodeSession::feed`].
    ///
    /// # Determinism
    ///
    /// Projections run on the shared matmul threadpool
    /// ([`aptq_tensor::parallel`]); logits and recorded counters are
    /// bit-identical at any `APTQ_THREADS`, and every row is
    /// bit-identical to feeding that sequence alone in its own
    /// [`DecodeSession`].
    ///
    /// # Quarantine
    ///
    /// After the forward pass each logits row is scanned for
    /// NaN/Inf. A non-finite row **evicts** that sequence — its slot
    /// is freed, its position never advances, and its id is reported
    /// via [`BatchDecodeSession::evicted_last_step`] with one
    /// `decode/quarantine/evictions` count per eviction — while the
    /// step still returns `Ok` with every row. Surviving sequences
    /// are unaffected: attention is per-row against private caches
    /// and projections are row-independent ([`LinearOp`] contract),
    /// so peer logits are bit-identical to a batch that never
    /// contained the poisoned sequence (pinned in
    /// `tests/batch_decode.rs`).
    ///
    /// # HotPath
    ///
    /// Allocation budget: the step kernel's per-step scratch, sized by
    /// batch × model, never by sequence length, plus a batch-sized
    /// eviction list; per-sequence KV caches are preallocated at
    /// [`BatchDecodeSession::join`] and written in place, never
    /// regrown.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`] for an empty batch,
    /// [`LmError::UnknownSeq`] for an inactive sequence id,
    /// [`LmError::DuplicateSeq`] if an id is listed twice, and
    /// [`LmError::TokenOutOfRange`] / [`LmError::SequenceFull`] per
    /// sequence as in [`DecodeSession::feed`]. No cache row or
    /// position advances unless the whole batch validates.
    pub fn step(&mut self, tokens: &[(usize, u32)]) -> Result<Matrix, LmError> {
        if tokens.is_empty() {
            return Err(LmError::EmptyInput);
        }
        let cfg = self.model.config();
        for (i, &(seq, token)) in tokens.iter().enumerate() {
            let Some(Some(slot)) = self.slots.get(seq) else {
                return Err(LmError::UnknownSeq { seq });
            };
            if tokens[..i].iter().any(|&(prev, _)| prev == seq) {
                return Err(LmError::DuplicateSeq { seq });
            }
            slot.check_next(token, cfg)?;
        }

        let b = tokens.len();
        let logits = forward_step(self.model, &mut self.slots, tokens, &mut self.metrics);
        self.metrics.add(
            "decode/batch/kv_bytes_moved",
            (b * kv_bytes_per_token(cfg)) as u64,
        );
        let occupancy = self.active() as u64;
        // Non-finite quarantine: a poisoned row is evicted instead of
        // advancing. Batch-sized one-shot scratch, filled by index.
        let mut evicted = vec![usize::MAX; b];
        let mut n_evicted = 0usize;
        for (r, &(seq, _)) in tokens.iter().enumerate() {
            if logits.row(r).iter().all(|v| v.is_finite()) {
                if let Some(slot) = self.slots[seq].as_mut() {
                    slot.pos += 1;
                }
            } else {
                evicted[n_evicted] = seq;
                n_evicted += 1;
                self.slots[seq] = None;
                self.metrics.incr("decode/quarantine/evictions");
            }
        }
        evicted.truncate(n_evicted);
        self.evicted = evicted;
        self.metrics.incr("decode/batch/steps");
        self.metrics.add("decode/batch/tokens", b as u64);
        self.metrics.add("decode/batch/occupancy", occupancy);
        Ok(logits)
    }
}

/// Greedy generation over many prompts at once through a
/// [`BatchDecodeSession`] — continuous batching: every sequence
/// prefills and generates at its own pace, leaving the batch as soon
/// as it has `n_new` new tokens (or fills the context), and each
/// step's projections run once for all sequences still active.
///
/// Output `i` is bit-identical to
/// `generate_greedy_cached(model, &prompts[i], n_new)`: same length
/// rule (capped at `max_seq_len + 1` total tokens), same argmax
/// tie-breaking, same logits.
///
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS`; see
/// [`BatchDecodeSession::step`].
///
/// A sequence quarantined mid-generation (non-finite logits — see
/// [`BatchDecodeSession::step`]'s quarantine contract) stops where it
/// was: its output keeps every token up to the last healthy step while
/// the rest of the batch finishes normally.
///
/// # Errors
///
/// Returns [`LmError::EmptyInput`] if `prompts` is empty, and rejects
/// each prompt, in order, per the [`crate::generate`] input contract.
pub fn generate_greedy_batched<L: LinearOp>(
    model: &ModelOf<L>,
    prompts: &[Vec<u32>],
    n_new: usize,
) -> Result<Vec<Vec<u32>>, LmError> {
    if prompts.is_empty() {
        return Err(LmError::EmptyInput);
    }
    for p in prompts {
        model.config().check_prompt(p)?;
    }
    let max = model.config().max_seq_len;
    let mut session = BatchDecodeSession::new(model);
    let slots: Vec<usize> = prompts.iter().map(|_| session.join()).collect();
    let mut outs: Vec<Vec<u32>> = prompts.to_vec();
    let mut fed = vec![0usize; prompts.len()];
    let mut batch: Vec<(usize, u32)> = Vec::with_capacity(prompts.len());
    let mut rows: Vec<usize> = Vec::with_capacity(prompts.len());
    loop {
        batch.clear();
        rows.clear();
        for (i, out) in outs.iter().enumerate() {
            if session.is_active(slots[i]) {
                batch.push((slots[i], out[fed[i]]));
                rows.push(i);
            }
        }
        if batch.is_empty() {
            break;
        }
        let logits = session.step(&batch)?;
        for (r, &i) in rows.iter().enumerate() {
            // A sequence quarantined this step is already evicted: its
            // output stays truncated at the last healthy token and the
            // surviving sequences keep decoding undisturbed.
            if session.evicted_last_step().contains(&slots[i]) {
                continue;
            }
            fed[i] += 1;
            let target = prompts[i].len() + n_new;
            if fed[i] >= prompts[i].len() && outs[i].len() < target {
                outs[i].push(aptq_tensor::select::argmax(logits.row(r)) as u32);
            }
            if outs[i].len() >= target || fed[i] >= max {
                session.leave(slots[i])?;
            }
        }
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_greedy;
    use crate::{Model, ModelConfig};

    fn model() -> Model {
        Model::new(&ModelConfig::test_tiny(16), 42)
    }

    #[test]
    fn incremental_matches_full_forward() {
        let m = model();
        let seq = [1u32, 5, 9, 2, 7, 11];
        let full = m.forward(&seq);
        let mut session = DecodeSession::new(&m);
        for (i, &t) in seq.iter().enumerate() {
            let logits = session.feed(t).unwrap();
            for (a, b) in logits.iter().zip(full.row(i)) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "position {i}: incremental {a} vs full {b}"
                );
            }
        }
        assert_eq!(session.len(), seq.len());
    }

    #[test]
    fn cached_generation_matches_uncached() {
        let m = model();
        let a = generate_greedy(&m, &[1, 2, 3], 8).unwrap();
        let b = generate_greedy_cached(&m, &[1, 2, 3], 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn feed_rejects_bad_tokens_and_overflow() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        assert!(matches!(s.feed(99), Err(LmError::TokenOutOfRange { .. })));
        // Exhaust max_seq_len (32 for test_tiny).
        for i in 0..32 {
            s.feed((i % 16) as u32).unwrap();
        }
        assert!(matches!(s.feed(0), Err(LmError::SequenceFull { .. })));
    }

    #[test]
    fn cache_grows_linearly() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        assert!(s.is_empty());
        assert_eq!(s.cache_bytes(), 0);
        s.feed(1).unwrap();
        let one = s.cache_bytes();
        s.feed(2).unwrap();
        assert_eq!(s.cache_bytes(), 2 * one);
        // 2 matrices × n_layers × d_model × 4 bytes per token.
        assert_eq!(one, 2 * 2 * 16 * 4);
    }

    #[test]
    fn kv_write_traffic_is_linear_in_tokens() {
        // The whole point of the preallocated cache: each fed token
        // writes exactly one new row per matrix per layer, so write
        // traffic equals used bytes — no O(T²) regrowth copies.
        let m = model();
        let mut s = DecodeSession::new(&m);
        for i in 0..16 {
            s.feed((i % 16) as u32).unwrap();
        }
        assert_eq!(s.metrics().get("decode/tokens"), 16);
        assert_eq!(
            s.metrics().get("decode/kv_bytes_moved"),
            s.cache_bytes() as u64
        );
        let drained = s.take_metrics();
        assert_eq!(drained.get("decode/tokens"), 16);
        assert!(s.metrics().is_empty());
    }

    #[test]
    fn long_sequence_incremental_matches_full_forward() {
        // 256 tokens through the preallocated cache must agree with the
        // one-shot forward pass and keep write traffic linear.
        let cfg = ModelConfig {
            max_seq_len: 256,
            ..ModelConfig::test_tiny(16)
        };
        let m = Model::new(&cfg, 7);
        let seq: Vec<u32> = (0..256).map(|i| (i * 11 % 16) as u32).collect();
        let full = m.forward(&seq);
        let mut s = DecodeSession::new(&m);
        for (i, &t) in seq.iter().enumerate() {
            let logits = s.feed(t).unwrap();
            for (a, b) in logits.iter().zip(full.row(i)) {
                assert!(
                    (a - b).abs() < 1e-3,
                    "position {i}: incremental {a} vs full {b}"
                );
            }
        }
        assert_eq!(s.metrics().get("decode/tokens"), 256);
        assert_eq!(
            s.metrics().get("decode/kv_bytes_moved"),
            s.cache_bytes() as u64
        );
    }

    #[test]
    fn feed_all_returns_last_logits() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        let logits = s.feed_all(&[3, 4, 5]).unwrap();
        let full = m.forward(&[3, 4, 5]);
        for (a, b) in logits.iter().zip(full.row(2)) {
            assert!((a - b).abs() < 1e-4);
        }
        let mut empty = DecodeSession::new(&m);
        assert!(matches!(empty.feed_all(&[]), Err(LmError::EmptyInput)));
    }
}
