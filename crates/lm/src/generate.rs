//! Deterministic and sampled text generation.
//!
//! Four generators: [`generate_greedy`], the uncached reference the
//! others are tested against; [`generate_sampled`] and
//! [`crate::decode::generate_greedy_cached`], which decode through a
//! [`DecodeSession`] (O(T) per token); and
//! [`crate::decode::generate_greedy_batched`]. They and
//! [`crate::ModelOf::try_forward`] check a prompt up front (even at
//! `n_new = 0`) with one contract, in this order:
//!
//! - an empty prompt is [`LmError::EmptyInput`];
//! - a prompt longer than `max_seq_len` is [`LmError::SequenceFull`]
//!   (the model cannot attend over more positions than its RoPE table
//!   covers — silently sliding a window over the prompt would score
//!   different tokens than the caller supplied);
//! - a token id outside the vocabulary is [`LmError::TokenOutOfRange`].
//!
//! Generation stops early once the context is full, so at most
//! `max_seq_len + 1` total tokens are ever returned (the final token is
//! predicted from a full context but never fed back).

use aptq_tensor::activation::softmax;
use rand::rngs::StdRng;
use rand::Rng;

use crate::decode::DecodeSession;
use crate::linear::LinearOp;
use crate::model::ModelOf;
use crate::LmError;

/// Sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Softmax temperature; `0.0` selects greedy decoding.
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (0 = all).
    pub top_k: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            temperature: 1.0,
            top_k: 0,
        }
    }
}

/// Greedily extends `prompt` by `n_new` tokens, re-running the full
/// forward pass every step — the O(T²) reference implementation that
/// [`crate::decode::generate_greedy_cached`] is verified against.
///
/// Token selection goes through [`aptq_tensor::select::argmax`]: NaN
/// logits never win and ties break toward the lowest token id.
///
/// # Determinism
///
/// The forward pass runs on the shared matmul threadpool
/// ([`aptq_tensor::parallel`]); outputs are bit-identical at any
/// `APTQ_THREADS` value.
///
/// # Errors
///
/// Rejects the prompt per the module contract.
pub fn generate_greedy<L: LinearOp>(
    model: &ModelOf<L>,
    prompt: &[u32],
    n_new: usize,
) -> Result<Vec<u32>, LmError> {
    model.config().check_prompt(prompt)?;
    let max = model.config().max_seq_len;
    let mut tokens = prompt.to_vec();
    for _ in 0..n_new {
        if tokens.len() > max {
            break;
        }
        let logits = model.forward(&tokens);
        let last = logits.row(logits.rows() - 1);
        let next = aptq_tensor::select::argmax(last);
        tokens.push(next as u32);
    }
    Ok(tokens)
}

/// Extends `prompt` by `n_new` tokens with temperature / top-k
/// sampling through a fresh [`DecodeSession`] — O(T) cached steps, not
/// O(T²) re-forwards.
///
/// The top-k filter keeps **exactly** `min(k, vocab)` candidates via
/// [`aptq_tensor::select::top_k_indices`] — boundary ties resolve by
/// token id instead of widening the candidate set, and NaN logits are
/// never sampled. When floating-point rounding leaves the CDF short of
/// the drawn `r`, the fallback is the **highest-probability kept**
/// index, never a top-k-masked (zero-probability) token.
///
/// # Determinism
///
/// Bit-identical for a fixed seed at any `APTQ_THREADS` value; exactly
/// one RNG draw per emitted token when `temperature > 0`, none at
/// `temperature <= 0` (greedy).
///
/// # Errors
///
/// Same as [`generate_greedy`] (see the module contract).
pub fn generate_sampled<L: LinearOp>(
    model: &ModelOf<L>,
    prompt: &[u32],
    n_new: usize,
    cfg: SampleConfig,
    rng: &mut StdRng,
) -> Result<Vec<u32>, LmError> {
    let mut session = DecodeSession::new(model);
    generate_sampled_session(&mut session, prompt, n_new, cfg, rng)
}

/// [`generate_sampled`] over a caller-provided session, so tests and
/// telemetry can inspect [`DecodeSession::metrics`] afterwards (the
/// per-token counters must be flat — cached steps, no prefix
/// re-execution). The session must be fresh (no tokens fed).
///
/// # Determinism
///
/// Bit-identical for a fixed seed at any `APTQ_THREADS` value; see
/// [`generate_sampled`].
///
/// # Errors
///
/// Same as [`generate_sampled`].
pub fn generate_sampled_session<L: LinearOp>(
    session: &mut DecodeSession<'_, L>,
    prompt: &[u32],
    n_new: usize,
    cfg: SampleConfig,
    rng: &mut StdRng,
) -> Result<Vec<u32>, LmError> {
    extend_cached(session, prompt, n_new, |logits| {
        if cfg.temperature <= 0.0 {
            aptq_tensor::select::argmax(logits)
        } else {
            sample_step(logits, cfg, rng)
        }
    })
}

/// The prefill-then-extend loop behind [`generate_sampled_session`] and
/// [`crate::decode::generate_greedy_cached`]: checks the prompt (module
/// contract), feeds it to the fresh `session`, then appends
/// `pick(logits)` up to `n_new` times, feeding each new token back
/// until the context is full.
pub(crate) fn extend_cached<L: LinearOp>(
    session: &mut DecodeSession<'_, L>,
    prompt: &[u32],
    n_new: usize,
    mut pick: impl FnMut(&[f32]) -> usize,
) -> Result<Vec<u32>, LmError> {
    let cfg = session.model().config();
    cfg.check_prompt(prompt)?;
    let mut logits = session.feed_all(prompt)?;
    let mut out = prompt.to_vec();
    for _ in 0..n_new {
        let next = pick(&logits) as u32;
        out.push(next);
        if session.len() >= cfg.max_seq_len {
            break;
        }
        logits = session.feed(next)?;
    }
    Ok(out)
}

/// Temperature-scales and top-k-masks one logit row, then samples from
/// its softmax with a single RNG draw.
fn sample_step(logits: &[f32], cfg: SampleConfig, rng: &mut StdRng) -> usize {
    let mut scaled: Vec<f32> = logits.to_vec();
    for v in &mut scaled {
        *v /= cfg.temperature;
    }
    if cfg.top_k > 0 && cfg.top_k < scaled.len() {
        let keep = aptq_tensor::select::top_k_indices(&scaled, cfg.top_k);
        let mut masked = vec![f32::NEG_INFINITY; scaled.len()];
        for &i in &keep {
            masked[i] = scaled[i];
        }
        scaled = masked;
    }
    let probs = softmax(&aptq_tensor::Matrix::from_vec(1, scaled.len(), scaled));
    let r: f32 = rng.gen_range(0.0..1.0);
    sample_from_cdf(probs.row(0), r)
}

/// Walks the CDF of `probs` and returns the first index whose
/// cumulative mass exceeds `r`.
///
/// When f32 rounding leaves the total cumulative mass below `r`
/// (possible since the summation order here differs from the softmax's
/// own normalization), the fallback is the **highest-probability**
/// index via [`aptq_tensor::select::argmax`] — never blindly the last
/// index, which top-k masking may have zeroed out entirely.
fn sample_from_cdf(probs: &[f32], r: f32) -> usize {
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    aptq_tensor::select::argmax(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, ModelConfig};
    use aptq_tensor::init;

    fn model() -> Model {
        Model::new(&ModelConfig::test_tiny(16), 21)
    }

    #[test]
    fn greedy_is_deterministic_and_extends() {
        let m = model();
        let a = generate_greedy(&m, &[1, 2, 3], 5).unwrap();
        let b = generate_greedy(&m, &[1, 2, 3], 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(&a[..3], &[1, 2, 3]);
        assert!(a.iter().all(|&t| (t as usize) < 16));
    }

    #[test]
    fn greedy_rejects_empty_prompt() {
        let m = model();
        assert!(matches!(
            generate_greedy(&m, &[], 3),
            Err(LmError::EmptyInput)
        ));
    }

    #[test]
    fn sampling_respects_vocab_and_seed() {
        let m = model();
        let cfg = SampleConfig {
            temperature: 1.2,
            top_k: 4,
        };
        let a = generate_sampled(&m, &[1], 10, cfg, &mut init::rng(5)).unwrap();
        let b = generate_sampled(&m, &[1], 10, cfg, &mut init::rng(5)).unwrap();
        assert_eq!(a, b, "same seed must give same sample");
        assert!(a.iter().all(|&t| (t as usize) < 16));
    }

    #[test]
    fn zero_temperature_falls_back_to_greedy() {
        let m = model();
        let cfg = SampleConfig {
            temperature: 0.0,
            top_k: 0,
        };
        let sampled = generate_sampled(&m, &[2, 3], 4, cfg, &mut init::rng(1)).unwrap();
        let greedy = generate_greedy(&m, &[2, 3], 4).unwrap();
        assert_eq!(sampled, greedy);
    }

    #[test]
    fn sampled_matches_full_reforward_reference() {
        // Regression for the O(T²) sampled path: the cached rewrite
        // must emit the same tokens as the old implementation — a full
        // re-forward per step — for the same seed and config.
        let m = model();
        let cfg = SampleConfig {
            temperature: 0.9,
            top_k: 6,
        };
        let prompt = [1u32, 4, 2];
        let n_new = 12;
        let cached = generate_sampled(&m, &prompt, n_new, cfg, &mut init::rng(11)).unwrap();

        let mut rng = init::rng(11);
        let mut tokens = prompt.to_vec();
        for _ in 0..n_new {
            let logits = m.try_forward(&tokens).unwrap();
            let next = sample_step(logits.row(logits.rows() - 1), cfg, &mut rng);
            tokens.push(next as u32);
        }
        assert_eq!(cached, tokens);
    }

    #[test]
    fn sampled_per_token_cost_is_flat() {
        // The cached sampled path must feed each token exactly once:
        // total decode work equals prompt + generated-but-one tokens,
        // with KV write traffic linear in that count — not quadratic.
        let m = model();
        let cfg = SampleConfig {
            temperature: 1.1,
            top_k: 4,
        };
        let mut session = DecodeSession::new(&m);
        let out =
            generate_sampled_session(&mut session, &[1, 2, 3], 10, cfg, &mut init::rng(3)).unwrap();
        assert_eq!(out.len(), 13);
        // 3 prompt tokens + the 10 sampled tokens, each fed exactly
        // once (same loop shape as generate_greedy_cached); a
        // re-forwarding implementation would score sequences of length
        // 3, 4, ..., 12 — 75 token-forwards instead of 13.
        assert_eq!(session.metrics().get("decode/tokens"), 13);
        assert_eq!(
            session.metrics().get("decode/kv_bytes_moved"),
            session.cache_bytes() as u64
        );
    }

    #[test]
    fn cdf_fallback_never_selects_masked_token() {
        // Regression: with the last vocab slot masked to probability
        // zero and r beyond the (rounding-shortened) total mass, the
        // old fallback `probs.len() - 1` returned the masked token;
        // the fix falls back to the highest-probability kept index.
        // 0.3 + 0.3 + 0.3 sums to 0.90000004 < 0.95 in f32.
        let probs = [0.3f32, 0.3, 0.3, 0.0];
        assert_eq!(sample_from_cdf(&probs, 0.95), 0);
        // Inside the mass the walk is untouched by the fix.
        assert_eq!(sample_from_cdf(&probs, 0.0), 0);
        assert_eq!(sample_from_cdf(&probs, 0.35), 1);
        assert_eq!(sample_from_cdf(&probs, 0.65), 2);
    }

    #[test]
    fn sampling_with_top_k_never_emits_masked_tokens() {
        // End-to-end version of the CDF fallback regression: with
        // top_k = 1 only the argmax survives masking, so every emitted
        // token must equal the greedy choice no matter what r is drawn.
        let m = model();
        let cfg = SampleConfig {
            temperature: 1.0,
            top_k: 1,
        };
        for seed in 0..8 {
            let sampled = generate_sampled(&m, &[2, 3], 6, cfg, &mut init::rng(seed)).unwrap();
            let greedy = generate_greedy(&m, &[2, 3], 6).unwrap();
            assert_eq!(sampled, greedy, "seed {seed}");
        }
    }

    #[test]
    fn long_prompts_error_instead_of_sliding_a_window() {
        // Contract unification: both greedy paths (and the sampled
        // path) reject prompts longer than max_seq_len with
        // SequenceFull instead of silently scoring a slid window.
        let m = model();
        let prompt: Vec<u32> = (0..40).map(|i| (i % 16) as u32).collect();
        assert!(matches!(
            generate_greedy(&m, &prompt, 2),
            Err(LmError::SequenceFull {
                pos: 32,
                max_seq_len: 32
            })
        ));
        assert!(matches!(
            crate::decode::generate_greedy_cached(&m, &prompt, 2),
            Err(LmError::SequenceFull { .. })
        ));
        assert!(matches!(
            generate_sampled(&m, &prompt, 2, SampleConfig::default(), &mut init::rng(0)),
            Err(LmError::SequenceFull { .. })
        ));

        // Every generator checks the whole prompt up front with the same
        // contract, so an out-of-vocabulary id past position 0 fails even
        // when no token is generated (`n_new = 0` never runs a forward).
        let all = |p: &[u32], n: usize| {
            let mut rng = init::rng(0);
            [
                generate_greedy(&m, p, n).map(drop),
                crate::decode::generate_greedy_cached(&m, p, n).map(drop),
                generate_sampled(&m, p, n, SampleConfig::default(), &mut rng).map(drop),
                crate::decode::generate_greedy_batched(&m, &[vec![1], p.to_vec()], n).map(drop),
            ]
        };
        for n_new in [0, 2] {
            for (g, r) in all(&prompt, n_new).into_iter().enumerate() {
                let ok = matches!(r, Err(LmError::SequenceFull { pos: 32, .. }));
                assert!(ok, "generator {g}, n_new {n_new}: {r:?}");
            }
            for (g, r) in all(&[1, 99, 2], n_new).into_iter().enumerate() {
                let ok = matches!(r, Err(LmError::TokenOutOfRange { token: 99, .. }));
                assert!(ok, "generator {g}, n_new {n_new}: {r:?}");
            }
        }
    }

    #[test]
    fn generation_at_context_boundary_is_capped_and_consistent() {
        // Exactly max_seq_len prompt tokens: both greedy paths emit
        // exactly one more token (predicted from the full context,
        // never fed back) and agree bit-for-bit.
        let m = model();
        let max = 32;
        let prompt: Vec<u32> = (0..max).map(|i| (i % 16) as u32).collect();
        let uncached = generate_greedy(&m, &prompt, 5).unwrap();
        let cached = crate::decode::generate_greedy_cached(&m, &prompt, 5).unwrap();
        assert_eq!(uncached.len(), max + 1);
        assert_eq!(uncached, cached);
        // One token below the boundary: two new tokens fit.
        let prompt: Vec<u32> = (0..max - 1).map(|i| (i % 16) as u32).collect();
        let uncached = generate_greedy(&m, &prompt, 5).unwrap();
        let cached = crate::decode::generate_greedy_cached(&m, &prompt, 5).unwrap();
        assert_eq!(uncached.len(), max + 1);
        assert_eq!(uncached, cached);
    }
}
