//! The deployer's path: checkpoint load and the APTQ-75% pipeline
//! (calibration → attention-aware Hessians → sensitivity probe →
//! Eq. 18 allocation → OBQ solve + pack → verify → sealed envelope),
//! plus the oracles that check its output.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use aptq_artifact::ArtifactKind;
use aptq_core::grid::GridConfig;
use aptq_core::hessian::LayerHessian;
use aptq_core::methods::apply_plan_obq_recorded;
use aptq_core::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use aptq_core::{HessianMode, QuantPlan, QuantSession};
use aptq_lm::{LayerKind, LayerRef, Model};
use aptq_obs::Recorder;
use aptq_qmodel::{QuantizedLinear, QuantizedModel};
use aptq_textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_textgen::{Grammar, Tokenizer};

use crate::trace::Tracer;

/// The APTQ-75% target: share of weights kept at 4 bits (Eq. 18's `R`).
pub const HIGH_BIT_RATIO: f32 = 0.75;
/// Calibration segments and their length (the CLI's `pack` defaults).
const CALIB_SEGMENTS: usize = 64;
const CALIB_LEN: usize = 64;
/// `QuantSession::sensitivity` probes at most this many segments.
const PROBE_SEGMENTS: usize = 16;
/// Packed and simulated logits must agree to this absolute tolerance.
const LOGIT_TOL: f32 = 1e-4;

/// Reads and parses a committed fp32 checkpoint.
pub fn load_checkpoint(path: &str) -> Result<Model, String> {
    let json = std::fs::read_to_string(path).map_err(|e| {
        format!("reading {path}: {e} (run from the repository root, where assets/ lives)")
    })?;
    Model::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

/// One pipeline's products and per-phase wall times.
pub struct Deployment {
    pub qmodel: QuantizedModel,
    pub envelope: String,
    pub plan: QuantPlan,
    pub hessians: Arc<BTreeMap<LayerRef, LayerHessian>>,
    pub calibration: Vec<Vec<u32>>,
    /// `QuantSession::metrics()` after the pipeline.
    pub session_metrics: Recorder,
    /// Calibration to sealed envelope.
    pub total: Duration,
}

/// Runs the APTQ-75% pipeline on `model` with calibration drawn from
/// `calib_seed`. Each phase is one span under a `pipeline` span.
pub fn pipeline(
    model: &Model,
    grammar: &Grammar,
    tok: &Tokenizer,
    calib_seed: u64,
    tr: &mut Tracer,
    req: u64,
) -> Result<Deployment, String> {
    let cfg = GridConfig::default();
    let start = std::time::Instant::now();
    tr.open("pipeline", req);
    let result = (|| -> Result<_, String> {
        let (calibration, _) = tr.time("textgen.calib", req, || {
            CorpusGenerator::new(grammar, tok, CorpusStyle::WebC4, calib_seed)
                .segments(CALIB_SEGMENTS, CALIB_LEN.min(model.config().max_seq_len))
        });
        let mut session = QuantSession::new(calibration.clone());
        let (hessians, _) = tr.time("core.hessians", req, || {
            session.hessians(model, HessianMode::AttentionAware)
        });
        let hessians = hessians.map_err(|e| format!("hessians: {e}"))?;
        let (sens, _) = tr.time("core.sensitivity", req, || {
            session.sensitivity(model, 2, &cfg)
        });
        let sens = sens.map_err(|e| format!("sensitivity: {e}"))?;
        let (plan, _) = tr.time("core.allocate", req, || {
            MixedPrecisionAllocator::two_four(HIGH_BIT_RATIO)
                .map(|a| a.allocate(model, &sens, AllocationPolicy::HessianTrace))
        });
        let plan = plan.map_err(|e| format!("allocate: {e}"))?;
        let (qmodel, _) = tr.time("qmodel.quantize_from", req, || {
            QuantizedModel::quantize_from(model, &plan, &hessians, &cfg)
        });
        let qmodel = qmodel.map_err(|e| format!("quantize_from: {e}"))?;
        let (verified, _) = tr.time("qmodel.verify", req, || qmodel.verify());
        verified.map_err(|e| format!("verify: {e}"))?;
        let (envelope, _) = tr.time("artifact.seal", req, || qmodel.to_envelope_json());
        let envelope = envelope.map_err(|e| format!("seal: {e}"))?;
        Ok((qmodel, envelope, plan, hessians, calibration, session))
    })();
    let total = start.elapsed();
    tr.close();
    let (qmodel, envelope, plan, hessians, calibration, session) = result?;
    Ok(Deployment {
        qmodel,
        envelope,
        plan,
        hessians,
        calibration,
        session_metrics: session.metrics().clone(),
        total,
    })
}

/// Opens a sealed packed-model envelope (checksums and layer
/// fingerprints are validated by the loader).
pub fn open(envelope: &str, tr: &mut Tracer, req: u64) -> Result<QuantizedModel, String> {
    tr.time("artifact.open", req, || {
        QuantizedModel::from_envelope_json(envelope)
    })
    .0
    .map_err(|e| format!("open: {e}"))
}

/// Replays `Model::forward_capture` over the calibration set — the
/// activation-capture half of `core.hessians`, timed on its own.
pub fn replay_capture(model: &Model, calibration: &[Vec<u32>], tr: &mut Tracer) {
    tr.time("lm.capture", 0, || {
        for seg in calibration {
            std::hint::black_box(model.forward_capture(seg));
        }
    });
}

/// Every packed projection of `qm` in canonical layer order.
fn projections(qm: &QuantizedModel) -> Vec<(LayerRef, &QuantizedLinear)> {
    let mut out = Vec::new();
    for (b, block) in qm.model().blocks().iter().enumerate() {
        let layers: [(LayerKind, &QuantizedLinear); 7] = [
            (LayerKind::Q, block.attn.wq()),
            (LayerKind::K, block.attn.wk()),
            (LayerKind::V, block.attn.wv()),
            (LayerKind::O, block.attn.wo()),
            (LayerKind::Gate, block.ffn.gate()),
            (LayerKind::Up, block.ffn.up()),
            (LayerKind::Down, block.ffn.down()),
        ];
        out.extend(layers.map(|(kind, lin)| (LayerRef { block: b, kind }, lin)));
    }
    out
}

/// Counters the oracle reads from the simulated-quantization recorder.
pub struct ObqCounts {
    pub column_updates: u64,
    pub packed_bytes: u64,
}

/// The deployment oracles: the plan keeps at least 75% of weights at
/// 4 bits; the envelope reopens to a model equal to the one sealed,
/// with every layer fingerprint equal to the header's; and packed
/// logits on `held_out` match simulated quantization (`apply_plan_obq`
/// on a clone of the fp32 model) within 1e-4.
pub fn check(
    model: &Model,
    dep: &Deployment,
    held_out: &[u32],
    tr: &mut Tracer,
) -> Result<ObqCounts, String> {
    let ratio = dep.plan.high_bit_ratio(model, 4);
    if ratio < HIGH_BIT_RATIO {
        return Err(format!(
            "plan keeps {ratio:.3} of weights at 4 bits, below {HIGH_BIT_RATIO}"
        ));
    }

    let reopened = open(&dep.envelope, tr, 0)?;
    if reopened != dep.qmodel {
        return Err("reopened envelope differs from the sealed model".into());
    }
    let header = aptq_artifact::open(ArtifactKind::PackedModel, &dep.envelope)
        .map_err(|e| format!("envelope header: {e}"))?;
    let layers = projections(&reopened);
    if header.sections.len() != layers.len() {
        return Err("envelope sections do not cover every layer".into());
    }
    for (layer, lin) in layers {
        if header.sections.get(&layer.to_string()) != Some(&lin.fingerprint()) {
            return Err(format!(
                "layer {layer}: reopened fingerprint differs from the envelope"
            ));
        }
    }

    let mut simulated = model.clone();
    let mut rec = Recorder::new();
    apply_plan_obq_recorded(
        "APTQ",
        &mut simulated,
        &dep.plan,
        &dep.hessians,
        &GridConfig::default(),
        &mut rec,
    )
    .map_err(|e| format!("simulated quantization: {e}"))?;
    let packed = dep
        .qmodel
        .forward(held_out)
        .map_err(|e| format!("packed forward: {e}"))?;
    let sim = simulated.forward(held_out);
    if !(packed.all_finite() && sim.all_finite()) {
        return Err("non-finite logits on the held-out segment".into());
    }
    let worst = packed
        .as_slice()
        .iter()
        .zip(sim.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    if worst > LOGIT_TOL {
        return Err(format!(
            "packed logits differ from simulated quantization by {worst:e}"
        ));
    }
    Ok(ObqCounts {
        column_updates: rec.get("quant/obq/column_updates"),
        packed_bytes: rec.get("quant/obq/packed_bytes"),
    })
}

/// Model forwards one sensitivity probe makes: the unperturbed base
/// pass plus one pass per layer, each over every probe segment.
pub fn probe_forwards(model: &Model, calibration_len: usize) -> u64 {
    ((model.layer_refs().len() + 1) * calibration_len.min(PROBE_SEGMENTS)) as u64
}
