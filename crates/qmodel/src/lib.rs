//! # aptq-qmodel
//!
//! Packed-weight quantized inference — the deployment half of the APTQ
//! story.
//!
//! The quantization methods in `aptq-core` evaluate quality by
//! *simulated* quantization: they install dequantized fp32 weights back
//! into the full-precision [`aptq_lm::Model`]. A real edge deployment
//! instead ships **packed 2/4-bit codes plus group parameters** and
//! dequantizes on the fly during the matmul, never materializing the
//! fp32 weight matrix. This crate implements that execution path:
//!
//! - [`QuantizedLinear`]: a linear layer whose weight lives in a
//!   [`aptq_core::pack::PackedTensor`]; `forward` decodes the packed
//!   codes a byte block at a time, dequantizing each weight row on the
//!   fly.
//! - [`QuantizedModel`]: the full transformer with every projection
//!   packed (embeddings, norms and LM head stay fp32, as in the paper's
//!   GPTQ-family setting), constructible straight from a model + a
//!   [`aptq_core::QuantPlan`] + calibration Hessians.
//! - Bit-exact agreement with the simulated path (tested): the packed
//!   execution produces the same logits as installing the dequantized
//!   weights into the reference model.
//! - [`MemoryBreakdown`]: the edge-device size accounting (packed codes
//!   + metadata vs fp16).

pub mod memory;
pub mod qlinear;
pub mod qtransformer;

pub use memory::MemoryBreakdown;
pub use qlinear::QuantizedLinear;
pub use qtransformer::QuantizedModel;

/// Errors surfaced by packed-model construction and inference.
#[derive(Debug)]
pub enum QModelError {
    /// Quantization of a layer failed.
    Quant(aptq_core::QuantError),
    /// A plan/Hessian entry was missing for a layer.
    MissingLayer(String),
    /// Input sequence or prompt was empty where at least one token is
    /// required.
    EmptyInput,
    /// Token id outside the vocabulary.
    TokenOutOfRange {
        /// Offending token.
        token: u32,
        /// Vocabulary size.
        vocab: usize,
    },
    /// Sequence longer than the RoPE table.
    SequenceTooLong {
        /// Requested length.
        len: usize,
        /// Maximum supported length.
        max: usize,
    },
    /// Decode produced non-finite logits; the session is quarantined.
    NonFinite {
        /// Decode position at which the logits went non-finite.
        pos: usize,
    },
    /// Artifact integrity failure: envelope malformed or a packed
    /// layer's checksum no longer matches its stored fingerprint.
    Integrity(aptq_artifact::ArtifactError),
}

impl std::fmt::Display for QModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QModelError::Quant(e) => write!(f, "layer quantization failed: {e}"),
            QModelError::MissingLayer(l) => write!(f, "no plan/hessian entry for layer {l}"),
            QModelError::EmptyInput => write!(f, "input sequence must contain at least one token"),
            QModelError::TokenOutOfRange { token, vocab } => {
                write!(f, "token {token} out of range for vocab {vocab}")
            }
            QModelError::SequenceTooLong { len, max } => {
                write!(f, "sequence of {len} tokens exceeds max length {max}")
            }
            QModelError::NonFinite { pos } => {
                write!(
                    f,
                    "non-finite logits at decode position {pos}: sequence quarantined"
                )
            }
            QModelError::Integrity(e) => write!(f, "packed-model integrity failure: {e}"),
        }
    }
}

impl std::error::Error for QModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QModelError::Quant(e) => Some(e),
            QModelError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aptq_core::QuantError> for QModelError {
    fn from(e: aptq_core::QuantError) -> Self {
        QModelError::Quant(e)
    }
}

impl From<aptq_artifact::ArtifactError> for QModelError {
    fn from(e: aptq_artifact::ArtifactError) -> Self {
        QModelError::Integrity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format() {
        assert!(QModelError::MissingLayer("x".into())
            .to_string()
            .contains('x'));
        assert!(QModelError::TokenOutOfRange { token: 5, vocab: 2 }
            .to_string()
            .contains('5'));
        assert!(QModelError::SequenceTooLong { len: 9, max: 4 }
            .to_string()
            .contains('9'));
        let e = QModelError::Quant(aptq_core::QuantError::EmptyCalibration);
        assert!(std::error::Error::source(&e).is_some());
        assert!(QModelError::NonFinite { pos: 3 }.to_string().contains('3'));
        assert!(QModelError::EmptyInput.to_string().contains("token"));
        let i = QModelError::Integrity(aptq_artifact::ArtifactError::ChecksumMismatch {
            section: "layers.0.self_attn.q_proj".into(),
            expected: 1,
            got: 2,
        });
        assert!(i.to_string().contains("integrity"));
        assert!(std::error::Error::source(&i).is_some());
    }
}
