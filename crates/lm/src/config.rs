//! Model hyper-parameter configuration and the preset stand-ins for the
//! paper's LLaMA-7B / LLaMA-13B targets.

use serde::{Deserialize, Serialize};

use crate::LmError;

/// Hyper-parameters of a LLaMA-family decoder-only transformer.
///
/// # Example
///
/// ```
/// use aptq_lm::ModelConfig;
///
/// let cfg = ModelConfig::tiny_llama_s(128);
/// assert_eq!(cfg.d_model % cfg.n_heads, 0);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable model name used in reports.
    pub name: String,
    /// Vocabulary size (token ids are `0..vocab_size`).
    pub vocab_size: usize,
    /// Residual stream width.
    pub d_model: usize,
    /// Number of attention heads; must divide `d_model`.
    pub n_heads: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Hidden width of the SwiGLU feed-forward.
    pub d_ff: usize,
    /// Maximum sequence length the RoPE table is built for.
    pub max_seq_len: usize,
    /// RoPE base frequency (LLaMA uses 10000).
    pub rope_theta: f32,
    /// RMSNorm epsilon.
    pub norm_eps: f32,
}

impl ModelConfig {
    /// Stand-in for LLaMA-7B: the smaller of the two evaluation models.
    ///
    /// Same block structure as LLaMA (RMSNorm → attention → residual →
    /// RMSNorm → SwiGLU → residual) at laptop scale. The width is
    /// deliberately capacity-matched to the synthetic task (see
    /// DESIGN.md §2): at larger widths the model is so over-parameterized
    /// that even 2-bit quantization is lossless after error
    /// compensation, which would erase every comparison the paper makes.
    pub fn tiny_llama_s(vocab_size: usize) -> Self {
        ModelConfig {
            // audit:allow(alloc): cold constructor — builds the config name once
            name: "TinyLlama-S".to_string(),
            vocab_size,
            d_model: 32,
            n_heads: 4,
            n_layers: 6,
            d_ff: 64,
            max_seq_len: 128,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
        }
    }

    /// Stand-in for LLaMA-13B: wider and deeper than [`tiny_llama_s`].
    ///
    /// [`tiny_llama_s`]: ModelConfig::tiny_llama_s
    pub fn tiny_llama_m(vocab_size: usize) -> Self {
        ModelConfig {
            // audit:allow(alloc): cold constructor — builds the config name once
            name: "TinyLlama-M".to_string(),
            vocab_size,
            d_model: 36,
            n_heads: 6,
            n_layers: 7,
            d_ff: 80,
            max_seq_len: 128,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
        }
    }

    /// Minimal configuration for unit tests: 2 layers, width 16.
    pub fn test_tiny(vocab_size: usize) -> Self {
        ModelConfig {
            name: "test-tiny".to_string(),
            vocab_size,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            d_ff: 32,
            max_seq_len: 32,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
        }
    }

    /// Head dimension `d_model / n_heads`.
    pub fn d_head(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        let attn = 4 * self.d_model * self.d_model;
        let ffn = 3 * self.d_model * self.d_ff;
        let norms = 2 * self.d_model;
        let per_block = attn + ffn + norms;
        let embed = self.vocab_size * self.d_model;
        let head = self.d_model * self.vocab_size;
        let final_norm = self.d_model;
        self.n_layers * per_block + embed + head + final_norm
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::InvalidConfig`] if any dimension is zero, the
    /// head count does not divide the model width, or the head dimension
    /// is odd (RoPE rotates coordinate pairs).
    pub fn validate(&self) -> Result<(), LmError> {
        if self.vocab_size == 0
            || self.d_model == 0
            || self.n_heads == 0
            || self.n_layers == 0
            || self.d_ff == 0
            || self.max_seq_len == 0
        {
            return Err(LmError::InvalidConfig(
                "all dimensions must be positive".into(),
            ));
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(LmError::InvalidConfig(format!(
                "n_heads {} must divide d_model {}",
                self.n_heads, self.d_model
            )));
        }
        if !self.d_head().is_multiple_of(2) {
            return Err(LmError::InvalidConfig(format!(
                "head dimension {} must be even for RoPE",
                self.d_head()
            )));
        }
        if self.rope_theta <= 0.0 || self.norm_eps <= 0.0 {
            return Err(LmError::InvalidConfig(
                "rope_theta and norm_eps must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The input contract of [`crate::ModelOf::try_forward`] and every
    /// generator, in order: `EmptyInput`, `SequenceFull` past
    /// `max_seq_len`, then `TokenOutOfRange` for the first bad id.
    /// Wrappers over the generic stack (the packed model) validate with
    /// it too, so there is one contract.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`], [`LmError::SequenceFull`] or
    /// [`LmError::TokenOutOfRange`], checked in that order.
    pub fn check_prompt(&self, tokens: &[u32]) -> Result<(), LmError> {
        if tokens.is_empty() {
            return Err(LmError::EmptyInput);
        }
        if tokens.len() > self.max_seq_len {
            return Err(LmError::SequenceFull {
                pos: self.max_seq_len,
                max_seq_len: self.max_seq_len,
            });
        }
        match tokens.iter().find(|&&t| t as usize >= self.vocab_size) {
            Some(&token) => Err(LmError::TokenOutOfRange {
                token,
                vocab: self.vocab_size,
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(ModelConfig::tiny_llama_s(200).validate().is_ok());
        assert!(ModelConfig::tiny_llama_m(200).validate().is_ok());
        assert!(ModelConfig::test_tiny(32).validate().is_ok());
    }

    #[test]
    fn m_is_bigger_than_s() {
        let s = ModelConfig::tiny_llama_s(200);
        let m = ModelConfig::tiny_llama_m(200);
        assert!(m.param_count() > s.param_count());
        assert!(m.n_layers > s.n_layers);
        assert!(m.d_model > s.d_model);
    }

    #[test]
    fn d_head_divides() {
        let s = ModelConfig::tiny_llama_s(100);
        assert_eq!(s.d_head() * s.n_heads, s.d_model);
        assert_eq!(s.d_head() % 2, 0);
    }

    #[test]
    fn param_count_hand_check() {
        let cfg = ModelConfig::test_tiny(10);
        // per block: 4*16*16 + 3*16*32 + 2*16 = 1024 + 1536 + 32 = 2592
        // embed 10*16=160, head 16*10=160, final norm 16
        assert_eq!(cfg.param_count(), 2 * 2592 + 160 + 160 + 16);
    }

    #[test]
    fn validate_rejects_bad_heads() {
        let mut cfg = ModelConfig::test_tiny(10);
        cfg.n_heads = 3; // does not divide 16
        assert!(cfg.validate().is_err());
        cfg.n_heads = 8; // d_head = 2, even — fine
        assert!(cfg.validate().is_ok());
        cfg.d_model = 8;
        cfg.n_heads = 8; // d_head = 1, odd
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_dims() {
        let mut cfg = ModelConfig::test_tiny(10);
        cfg.n_layers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = ModelConfig::tiny_llama_s(123);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
