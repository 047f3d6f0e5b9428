//! The APTQ benchmark: one process per workload, run from the
//! repository root.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chat|chat-fp32|batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer split, from spans kept around every library call (see
//! `README.md` in this directory). The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod deploy;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

use aptq_lm::{LinearOp, Model, ModelOf};
use aptq_textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_textgen::{Grammar, Tokenizer};

use crate::deploy::{Deployment, ObqCounts};
use crate::serve::{Request, ServeStats};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <chat|chat-fp32|batch> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Worker threads for every parallel kernel. One, so that a run keeps
/// to one of the 2-vCPU reference machine's vCPUs and the other takes
/// the rest of the system; results are bit-identical at any count.
const THREADS: &str = "1";
/// TinyLlama-S, the LLaMA-7B stand-in.
const CKPT_S: &str = "assets/ckpt-s800b12l44-v134-tinyllama_s.json";

/// Set-up repetitions; `setup_s` and `quantize_s` are their medians.
const SETUP_REPS: usize = 3;
/// Chat: distinct prompts, served in order pass after pass, their
/// length range and output length. Few enough that each is served about
/// sixty times in a run: through a slow spell of the host, most servings
/// are slowed, and only many tries find one that was not.
const CHAT_PROMPTS: usize = 16;
const CHAT_PROMPT_LEN: (usize, usize) = (16, 96);
const CHAT_NEW: usize = 32;
/// Batch: requests per round, sequences in flight, length ranges. Two
/// waves of requests per round keep join/leave churn while a round stays
/// short enough to repeat about a hundred times in a run.
const BATCH_REQUESTS: usize = 64;
const BATCH_CONCURRENCY: usize = 32;
const BATCH_PROMPT_LEN: (usize, usize) = (8, 48);
const BATCH_NEW: (usize, usize) = (8, 64);
/// Held-out perplexity segments per corpus, and segment length. The
/// held-out sets are fixed, like a test split (the CLI's `eval-ppl`
/// seed), so across seeds perplexity moves only with the calibration.
const PPL_SEGMENTS: usize = 128;
const PPL_SEED: u64 = 50_002;
const SEG_LEN: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Chat,
    ChatFp32,
    Batch,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "chat" => Workload::Chat,
            "chat-fp32" => Workload::ChatFp32,
            "batch" => Workload::Batch,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::ChatFp32 => "chat-fp32",
            Workload::Batch => "batch",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("an unsigned integer"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| bad("a number of seconds"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("a number of seconds in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    /// An input stream of its own for each use of the seed.
    fn seed_for(&self, stream: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(stream)
    }

    /// Timed phases as (traced, seconds): a traced run measures half its
    /// time untraced so the tracing overhead can be reported.
    fn phases(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// The result line plus the human-readable table above it.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Set by checks that are not single operations (stage sums, counts).
    broken: bool,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
}

impl Report {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.errors.push(why);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name, value, unit, samples));
    }

    fn absorb(&mut self, s: &ServeStats) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.errors.extend(s.first_error.clone());
        if !s.counts_repeat {
            self.broken = true;
        }
    }

    fn print(&self) {
        for e in &self.errors {
            eprintln!("perfbench: FAILED: {e}");
        }
        for (name, value, unit, n) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit:<12} n={n}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                // A failed request is an infinite latency; JSON has no
                // infinity, so it is written as the largest finite value.
                let v = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && !self.broken && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::env::set_var("APTQ_THREADS", THREADS);
    match run(&args) {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let mut tr = Tracer::new(args.trace);
    let mut rep = Report::default();
    run_workload(args, &grammar, &tok, &mut tr, &mut rep)?;
    if args.trace {
        let path = format!(
            "perfbench/traces/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        tr.write_jsonl(std::path::Path::new(&path))?;
        eprintln!("perfbench: spans written to {path}");
    }
    Ok(rep)
}

/// Reports on standard error how long a phase of the run took.
fn log_phase(phase: &str, since: Instant) {
    eprintln!("perfbench: {phase}: {:.2} s", since.elapsed().as_secs_f64());
}

/// A pipeline repetition must seal the same envelope and record the
/// same session counters as the first.
fn check_repeat(first: &Deployment, dep: &Deployment) -> Result<(), String> {
    if first.envelope != dep.envelope {
        return Err("pipeline repetition sealed a different envelope".into());
    }
    if first.session_metrics != dep.session_metrics {
        return Err("pipeline repetition recorded different session counters".into());
    }
    Ok(())
}

/// Set-up builds the packed TinyLlama-S the way a deployer would (load,
/// APTQ-75% pipeline, seal, open); the run then serves the packed model
/// — or, for `chat-fp32`, the fp32 checkpoint it was built from.
fn run_workload(
    args: &Args,
    grammar: &Grammar,
    tok: &Tokenizer,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let calib_seed = args.seed_for(1);
    let set_up = Instant::now();
    let mut setup = Vec::new();
    let mut quantize = Vec::new();
    let mut built: Option<(Model, Deployment, aptq_qmodel::QuantizedModel)> = None;
    for i in 1..=SETUP_REPS as u64 {
        let t0 = Instant::now();
        rep.attempted += 1;
        let model = deploy::load_checkpoint(CKPT_S)?;
        let dep = deploy::pipeline(&model, grammar, tok, calib_seed, tr, i)?;
        let qmodel = deploy::open(&dep.envelope, tr, i)?;
        setup.push(t0.elapsed().as_secs_f64());
        quantize.push(dep.total.as_secs_f64());
        match &built {
            Some((_, first, _)) => {
                if let Err(e) = check_repeat(first, &dep) {
                    rep.fail(1, format!("set-up pipeline {i}: {e}"));
                }
            }
            None => built = Some((model, dep, qmodel)),
        }
    }
    let (model, dep, qmodel) = built.ok_or("no set-up repetition")?;
    log_phase("set-up repetitions", set_up);
    let setup_rss = stats::peak_rss_mb()?;

    let checks = Instant::now();
    let held_out = held_out_segment(grammar, tok, args);
    let obq = match deploy::check(&model, &dep, &held_out, tr) {
        Ok(c) => Some(c),
        Err(e) => {
            rep.fail(SETUP_REPS as u64, format!("deployment oracle: {e}"));
            None
        }
    };
    if args.trace {
        deploy::replay_capture(&model, &dep.calibration, tr);
    }

    // Model bytes, and the bytes of projection weights read per step.
    let (ppl_c4, ppl_wiki, model_bytes, projection_bytes, served, overhead) = if args.workload
        == Workload::ChatFp32
    {
        let (c4, wiki) = perplexities(&model, grammar, tok, tr)?;
        let weights: usize = model
            .layer_refs()
            .into_iter()
            .map(|r| model.layer_weight(r).len())
            .sum();
        let (served, overhead) = serve_phases(&model, args, grammar, tok, tr, rep, checks)?;
        let bytes = model.config().param_count() * 4;
        (c4, wiki, bytes, weights * 4, served, overhead)
    } else {
        let (c4, wiki) = perplexities(qmodel.model(), grammar, tok, tr)?;
        let (served, overhead) = serve_phases(qmodel.model(), args, grammar, tok, tr, rep, checks)?;
        let memory = qmodel.memory();
        (
            c4,
            wiki,
            memory.total_bytes(),
            memory.packed_bytes,
            served,
            overhead,
        )
    };

    if args.trace {
        rep.metric("quantize_s", median(&quantize), "s", quantize.len());
        layer_metrics(
            rep,
            tr,
            &served,
            &model,
            &dep,
            obq.as_ref(),
            projection_bytes as f64,
            overhead,
        );
    } else {
        rep.metric("setup_s", median(&setup), "s", setup.len());
        rep.metric("ppl_c4", ppl_c4, "ppl", PPL_SEGMENTS);
        rep.metric("ppl_wiki", ppl_wiki, "ppl", PPL_SEGMENTS);
        rep.metric("model_bytes", model_bytes as f64, "B", 1);
        serving_metrics(rep, &served);
        let rss = served.peak_rss_mb.ok_or("could not read VmHWM")?;
        rep.metric("peak_rss_mb", rss.max(setup_rss), "MB", 1);
    }
    Ok(())
}

/// Builds the request stream and its oracle, then runs the serving loop
/// once per timed phase. Returns the last phase's measurements and, for
/// a traced run, the tracing overhead on the median inter-token gap.
fn serve_phases<L: LinearOp>(
    model: &ModelOf<L>,
    args: &Args,
    grammar: &Grammar,
    tok: &Tokenizer,
    tr: &mut Tracer,
    rep: &mut Report,
    checks: Instant,
) -> Result<(ServeStats, f64), String> {
    let batch = args.workload == Workload::Batch;
    let (reqs, oracle) = if batch {
        let reqs = serve::requests(
            grammar,
            tok,
            CorpusStyle::Wiki,
            args.seed_for(3),
            BATCH_REQUESTS,
            BATCH_PROMPT_LEN,
            BATCH_NEW,
        );
        let oracle = cached_oracle(model, &reqs)?;
        (reqs, oracle)
    } else {
        let reqs = serve::requests(
            grammar,
            tok,
            CorpusStyle::WebC4,
            args.seed_for(3),
            CHAT_PROMPTS,
            CHAT_PROMPT_LEN,
            (CHAT_NEW, CHAT_NEW),
        );
        let oracle = full_reforward_oracle(model, &reqs)?;
        (reqs, oracle)
    };
    log_phase("deployment oracles, perplexity and output oracles", checks);
    // The peak is taken over set-up and serving: what the checks above
    // held is the benchmark's, not the program's.
    stats::reset_peak_rss()?;
    let serving = Instant::now();
    let mut phases = Vec::new();
    for (traced, budget) in args.phases() {
        tr.set_enabled(traced);
        let mut s = ServeStats::new();
        if batch {
            serve::batch(model, &reqs, &oracle, BATCH_CONCURRENCY, budget, tr, &mut s);
        } else {
            serve::chat(model, &reqs, &oracle, budget, tr, &mut s);
        }
        rep.absorb(&s);
        phases.push(s);
    }
    log_phase("serving", serving);
    // How much slower the traced half was, in percent.
    let overhead = if phases.len() == 2 {
        100.0 * (median(&phases[1].itl_ms) / median(&phases[0].itl_ms) - 1.0)
    } else {
        0.0
    };
    let last = phases.pop().ok_or("no serving phase ran")?;
    Ok((last, overhead))
}

/// One held-out C4-style segment for the packed ≡ simulated check.
fn held_out_segment(grammar: &Grammar, tok: &Tokenizer, args: &Args) -> Vec<u32> {
    CorpusGenerator::new(grammar, tok, CorpusStyle::WebC4, args.seed_for(2)).segment(SEG_LEN)
}

/// Perplexity of the served model on the held-out C4- and Wiki-style sets.
fn perplexities<L: LinearOp>(
    model: &ModelOf<L>,
    grammar: &Grammar,
    tok: &Tokenizer,
    tr: &mut Tracer,
) -> Result<(f64, f64), String> {
    let mut ppl = [0.0f64; 2];
    for (slot, style) in ppl.iter_mut().zip([CorpusStyle::WebC4, CorpusStyle::Wiki]) {
        let segs =
            CorpusGenerator::new(grammar, tok, style, PPL_SEED).segments(PPL_SEGMENTS, SEG_LEN);
        let (p, _) = tr.time("eval.perplexity", 0, || aptq_eval::perplexity(model, &segs));
        *slot = f64::from(p.map_err(|e| format!("perplexity: {e}"))?);
    }
    Ok((ppl[0], ppl[1]))
}

/// Chat oracle: full-reforward greedy generation (`generate_greedy`).
fn full_reforward_oracle<L: LinearOp>(
    model: &ModelOf<L>,
    reqs: &[Request],
) -> Result<serve::Oracle, String> {
    reqs.iter()
        .map(|r| {
            aptq_lm::generate::generate_greedy(model, &r.prompt, r.n_new)
                .map_err(|e| format!("oracle: {e}"))
        })
        .collect()
}

/// Batch oracle: each request decoded alone (`generate_greedy_cached`).
fn cached_oracle<L: LinearOp>(
    model: &ModelOf<L>,
    reqs: &[Request],
) -> Result<serve::Oracle, String> {
    reqs.iter()
        .map(|r| {
            aptq_lm::decode::generate_greedy_cached(model, &r.prompt, r.n_new)
                .map_err(|e| format!("oracle: {e}"))
        })
        .collect()
}

fn serving_metrics(rep: &mut Report, s: &ServeStats) {
    rep.metric("ttft_ms_p50", median(&s.ttft_ms), "ms", s.ttft_ms.len());
    rep.metric(
        "ttft_ms_p90",
        percentile(&s.ttft_ms, 0.9),
        "ms",
        s.ttft_ms.len(),
    );
    rep.metric("itl_ms_p50", median(&s.itl_ms), "ms", s.itl_ms.len());
    rep.metric(
        "itl_ms_p90",
        percentile(&s.itl_ms, 0.9),
        "ms",
        s.itl_ms.len(),
    );
    rep.metric("decode_tok_s", s.decode_tok_s, "tok/s", s.ttft_ms.len());
}

/// The per-layer split of a traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    rep: &mut Report,
    tr: &Tracer,
    s: &ServeStats,
    model: &Model,
    dep: &Deployment,
    obq: Option<&ObqCounts>,
    projection_bytes: f64,
    overhead: f64,
) {
    for (metric, span) in [
        ("textgen.calib_ms", "textgen.calib"),
        ("core.hessians_ms", "core.hessians"),
        ("lm.capture_ms", "lm.capture"),
        ("core.sensitivity_ms", "core.sensitivity"),
        ("core.allocate_ms", "core.allocate"),
        ("qmodel.quantize_from_ms", "qmodel.quantize_from"),
        ("qmodel.verify_ms", "qmodel.verify"),
        ("artifact.seal_ms", "artifact.seal"),
        ("artifact.open_ms", "artifact.open"),
        ("eval.perplexity_ms", "eval.perplexity"),
    ] {
        let d = tr.durations_ms(span);
        rep.metric(metric, median(&d), "ms", d.len());
    }
    rep.metric(
        "lm.prefill_ms",
        median(&s.prefill_ms),
        "ms",
        s.prefill_ms.len(),
    );
    let step = median(&s.step_us);
    rep.metric("lm.decode_step_us", step, "us", s.step_us.len());

    let n = s.stages.len();
    let stage =
        |f: fn(&serve::StageTimes) -> f64| median(&s.stages.iter().map(f).collect::<Vec<_>>());
    let split = [
        ("lm.embed_us", stage(|t| t.embed)),
        ("lm.rmsnorm_us", stage(|t| t.rmsnorm)),
        ("linear.qkv_us", stage(|t| t.qkv)),
        ("linear.o_us", stage(|t| t.o)),
        ("lm.ffn_us", stage(|t| t.ffn)),
        ("lm.lm_head_us", stage(|t| t.lm_head)),
    ];
    let in_step: f64 = split.iter().map(|(_, v)| v).sum();
    for (name, v) in split {
        rep.metric(name, v, "us", n);
    }
    // Derived: the step minus every stage the replay could time.
    rep.metric("lm.attend_us", step - in_step, "us", n);
    rep.metric("tensor.argmax_us", stage(|t| t.argmax), "us", n);
    if !(in_step.is_finite() && step.is_finite()) || in_step > step {
        rep.broken = true;
        rep.errors.push(format!(
            "stage times sum to {in_step:.3} us, more than the {step:.3} us decode step"
        ));
    }
    rep.metric("trace.overhead_pct", overhead, "%", 2);

    let c = &s.counters;
    let batched = c.get("decode/batch/steps") > 0;
    let (steps, tokens, kv) = if batched {
        (
            c.get("decode/batch/steps"),
            c.get("decode/batch/tokens"),
            c.get("decode/batch/kv_bytes_moved"),
        )
    } else {
        // A `DecodeSession` feeds one token per step.
        (
            c.get("decode/tokens"),
            c.get("decode/tokens"),
            c.get("decode/kv_bytes_moved"),
        )
    };
    let codes = c.get("qmodel/qlinear/codes_unpacked") as f64;
    let per = |x: f64, d: u64| x / d.max(1) as f64;
    rep.metric(
        "qmodel.codes_unpacked_per_token",
        per(codes, tokens),
        "codes/token",
        tokens as usize,
    );
    rep.metric(
        "lm.kv_bytes_per_token",
        per(kv as f64, tokens),
        "B/token",
        tokens as usize,
    );
    // Computed: every step reads each projection's storage once.
    rep.metric(
        "qmodel.weight_bytes_per_token",
        per(projection_bytes * steps as f64, tokens),
        "B/token",
        tokens as usize,
    );
    rep.metric(
        "qmodel.codes_unpacked_per_step",
        per(codes, steps),
        "codes/step",
        steps as usize,
    );
    let requests = s.attempted;
    if batched {
        rep.metric(
            "lm.batch_occupancy",
            per(c.get("decode/batch/occupancy") as f64, steps),
            "seqs/step",
            steps as usize,
        );
        rep.metric(
            "lm.joins",
            per(c.get("decode/batch/joins") as f64, requests),
            "1/request",
            requests as usize,
        );
        rep.metric(
            "lm.leaves",
            per(c.get("decode/batch/leaves") as f64, requests),
            "1/request",
            requests as usize,
        );
    } else {
        // One `DecodeSession` per request, holding one sequence.
        rep.metric("lm.batch_occupancy", 1.0, "seqs/step", steps as usize);
        rep.metric("lm.joins", 1.0, "1/request", requests as usize);
        rep.metric("lm.leaves", 1.0, "1/request", requests as usize);
    }

    let m = &dep.session_metrics;
    rep.metric(
        "core.capture_passes",
        m.get("quant/session/capture_passes") as f64,
        "count",
        1,
    );
    rep.metric(
        "core.sensitivity_probes",
        m.get("quant/session/sensitivity_probes") as f64,
        "count",
        1,
    );
    // Computed: (layers + 1) forwards over each probe segment.
    rep.metric(
        "core.probe_forwards",
        deploy::probe_forwards(model, dep.calibration.len()) as f64,
        "count",
        1,
    );
    let (cols, packed) = obq.map_or((f64::NAN, f64::NAN), |o| {
        (o.column_updates as f64, o.packed_bytes as f64)
    });
    rep.metric("core.obq_column_updates", cols, "count", 1);
    rep.metric("core.packed_bytes", packed, "B", 1);
}
