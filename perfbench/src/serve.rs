//! The serving side: seeded request streams, the one-client chat loop
//! over `DecodeSession`, the 32-way closed loop over
//! `BatchDecodeSession`, and the traced stage replay of one decode step.

use std::time::{Duration, Instant};

use aptq_lm::decode::{BatchDecodeSession, DecodeSession};
use aptq_lm::{LinearOp, LmError, ModelOf};
use aptq_obs::Recorder;
use aptq_tensor::select::argmax;
use aptq_tensor::Matrix;
use aptq_textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_textgen::{Grammar, Tokenizer};
use rand::Rng;

use crate::stats::{ms, us};
use crate::trace::Tracer;

/// In a traced run, every this many decode steps is replayed stage by stage.
const REPLAY_EVERY: usize = 4;

/// One generation request: a prompt and how many tokens to generate.
pub struct Request {
    pub prompt: Vec<u32>,
    pub n_new: usize,
}

/// Shuffles request lengths into their pairing and order.
const LENGTH_ORDER_SEED: u64 = 0x5eed;

/// `n` requests whose prompt and output lengths are spread evenly over
/// the given inclusive ranges and shuffled into a fixed pairing and
/// order, with prompt text drawn from the `style` corpus at `seed`.
/// Latency depends on the lengths and, in a batch, on how they line up
/// in flight; fixing them makes every seed schedule the same work, so
/// seeds change the text but not the length mix.
pub fn requests(
    grammar: &Grammar,
    tok: &Tokenizer,
    style: CorpusStyle,
    seed: u64,
    n: usize,
    prompt_len: (usize, usize),
    out_len: (usize, usize),
) -> Vec<Request> {
    let mut rng = aptq_tensor::init::rng(LENGTH_ORDER_SEED);
    let mut spread = |(lo, hi): (usize, usize)| {
        let mut v: Vec<usize> = (0..n)
            .map(|i| lo + (hi - lo) * i / (n - 1).max(1))
            .collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    };
    let prompts = spread(prompt_len);
    let outs = spread(out_len);
    let mut gen = CorpusGenerator::new(grammar, tok, style, seed);
    prompts
        .into_iter()
        .zip(outs)
        .map(|(p, o)| Request {
            prompt: gen.segment(p),
            n_new: o,
        })
        .collect()
}

/// Per-stage wall time of one replayed decode step, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub embed: f64,
    pub rmsnorm: f64,
    pub qkv: f64,
    pub o: f64,
    pub ffn: f64,
    pub lm_head: f64,
    pub argmax: f64,
}

/// Re-runs the public layer functions of one decode step for `tokens`
/// (one row each) on the loaded model, timing each stage: embedding
/// rows, every `RmsNorm::forward`, the `wq/wk/wv` and `wo`
/// `LinearOp::forward_op` calls, `SwiGlu::forward_opt`, the `lm_head`
/// matmul and `argmax`. Attention (`attend_cached_row`) is private, so
/// the value projection's output stands in for its result as the input
/// of `wo`: every stage sees real, non-zero activations of the right
/// shape (zero inputs would let `matmul_band` skip work).
pub fn replay<L: LinearOp>(model: &ModelOf<L>, tokens: &[u32], tr: &mut Tracer) -> StageTimes {
    let mut t = StageTimes::default();
    let mut rec = Recorder::new();
    let d = model.config().d_model;
    tr.open("replay", 0);
    let (mut x, dt) = tr.time("lm.embed", 0, || {
        let mut x = Matrix::zeros(tokens.len(), d);
        for (r, &tok) in tokens.iter().enumerate() {
            x.row_mut(r)
                .copy_from_slice(model.embed().row(tok as usize));
        }
        x
    });
    t.embed += us(dt);
    for block in model.blocks() {
        let ((normed, _), dt) = tr.time("lm.rmsnorm", 0, || block.norm1.forward(&x));
        t.rmsnorm += us(dt);
        let ((_q, _k, v), dt) = tr.time("linear.qkv", 0, || {
            (
                block.attn.wq().forward_op(&normed, Some(&mut rec)),
                block.attn.wk().forward_op(&normed, Some(&mut rec)),
                block.attn.wv().forward_op(&normed, Some(&mut rec)),
            )
        });
        t.qkv += us(dt);
        let (attn_out, dt) = tr.time("linear.o", 0, || {
            block.attn.wo().forward_op(&v, Some(&mut rec))
        });
        t.o += us(dt);
        x.add_assign(&attn_out);
        let ((normed2, _), dt) = tr.time("lm.rmsnorm", 0, || block.norm2.forward(&x));
        t.rmsnorm += us(dt);
        let ((ffn_out, _), dt) = tr.time("lm.ffn", 0, || {
            block.ffn.forward_opt(&normed2, Some(&mut rec))
        });
        t.ffn += us(dt);
        x.add_assign(&ffn_out);
    }
    let ((normed, _), dt) = tr.time("lm.rmsnorm", 0, || model.final_norm().forward(&x));
    t.rmsnorm += us(dt);
    let (logits, dt) = tr.time("lm.lm_head", 0, || normed.matmul(model.lm_head()));
    t.lm_head += us(dt);
    let (picked, dt) = tr.time("tensor.argmax", 0, || {
        (0..logits.rows())
            .map(|r| argmax(logits.row(r)))
            .sum::<usize>()
    });
    t.argmax += us(dt);
    tr.close();
    std::hint::black_box(picked);
    t
}

/// Everything a serving loop measured.
///
/// The end-to-end latencies are *best of the run*: every request is
/// served many times, spread over the whole run, and each request (and
/// each of its output positions) keeps its fastest serving. The host
/// these numbers are taken on changes speed by up to 2× within seconds,
/// so a median over all servings mostly measures how much of the run
/// fell in a slow spell; the fastest serving of a deterministic request
/// measures the program. A request that fails in any serving is `+inf`
/// at every one of its samples.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Per request: best time to the first token.
    pub ttft_ms: Vec<f64>,
    /// Per request and output token after the first: best gap.
    pub itl_ms: Vec<f64>,
    /// Tokens of the request mix over its best wall time: chat sums each
    /// request's best time, batch each loop iteration's.
    pub decode_tok_s: f64,
    /// Per serving: `feed_all` (chat) or the steps that carried its prompt (batch).
    pub prefill_ms: Vec<f64>,
    /// Per `feed` (generation phase, chat) or per `step` (batch).
    pub step_us: Vec<f64>,
    /// Traced runs only: one entry per replayed step.
    pub stages: Vec<StageTimes>,
    pub attempted: u64,
    pub failed: u64,
    /// The sessions' own counters, merged over all requests.
    pub counters: Recorder,
    /// Whether every repetition of an input recorded the same counters.
    pub counts_repeat: bool,
    /// First error or mismatch seen, for the log.
    pub first_error: Option<String>,
    /// Peak resident memory once every request has been served once.
    /// Read then rather than at exit: the samples kept here grow with
    /// run length and machine speed, and are not the program's.
    pub peak_rss_mb: Option<f64>,
}

impl ServeStats {
    pub fn new() -> Self {
        ServeStats {
            counts_repeat: true,
            ..ServeStats::default()
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Reference outputs: prompt plus generated tokens for each request.
pub type Oracle = Vec<Vec<u32>>;

/// One serving's latencies, kept only if the serving succeeds.
struct Latency {
    ttft_ms: f64,
    itl_ms: Vec<f64>,
}

/// Best latencies of each request over all its servings.
struct Best {
    ttft_ms: Vec<f64>,
    itl_ms: Vec<Vec<f64>>,
    failed: Vec<bool>,
}

impl Best {
    fn new(reqs: &[Request]) -> Self {
        Best {
            ttft_ms: vec![f64::INFINITY; reqs.len()],
            itl_ms: reqs
                .iter()
                .map(|r| vec![f64::INFINITY; r.n_new.saturating_sub(1)])
                .collect(),
            failed: vec![false; reqs.len()],
        }
    }

    fn record(&mut self, req: usize, lat: &Latency) {
        self.ttft_ms[req] = self.ttft_ms[req].min(lat.ttft_ms);
        for (best, &gap) in self.itl_ms[req].iter_mut().zip(&lat.itl_ms) {
            *best = best.min(gap);
        }
    }

    /// Writes the per-request samples into `stats`; a failed (or never
    /// served) request stays `+inf` everywhere.
    fn finish(self, stats: &mut ServeStats) {
        for (i, failed) in self.failed.into_iter().enumerate() {
            let lost = |x: f64| if failed { f64::INFINITY } else { x };
            stats.ttft_ms.push(lost(self.ttft_ms[i]));
            stats.itl_ms.extend(self.itl_ms[i].iter().map(|&x| lost(x)));
        }
    }
}

/// One chat request on a fresh `DecodeSession`: `feed_all` the prompt,
/// then `feed` each greedy token back until `n_new` are generated.
/// Returns the output, its latencies, the request's wall time in
/// seconds and the session's counters.
fn chat_request<L: LinearOp>(
    model: &ModelOf<L>,
    req: &Request,
    id: u64,
    tr: &mut Tracer,
    stats: &mut ServeStats,
) -> Result<(Vec<u32>, Latency, f64, Recorder), LmError> {
    let t0 = Instant::now();
    let mut replayed = Duration::ZERO;
    let mut session = DecodeSession::new(model);
    let (logits, dt) = tr.time("lm.prefill", id, || session.feed_all(&req.prompt));
    let mut logits = logits?;
    stats.prefill_ms.push(ms(dt));
    let mut out = Vec::with_capacity(req.n_new);
    out.push(tr.time("tensor.argmax", id, || argmax(&logits) as u32).0);
    let mut lat = Latency {
        ttft_ms: ms(t0.elapsed()),
        itl_ms: Vec::with_capacity(req.n_new),
    };
    let mut emitted = Instant::now();
    while out.len() < req.n_new {
        let prev = out[out.len() - 1];
        let (next, dt) = tr.time("lm.decode_step", id, || session.feed(prev));
        logits = next?;
        stats.step_us.push(us(dt));
        out.push(tr.time("tensor.argmax", id, || argmax(&logits) as u32).0);
        lat.itl_ms.push(ms(emitted.elapsed()));
        if tr.enabled() && out.len().is_multiple_of(REPLAY_EVERY) {
            let replay_start = Instant::now();
            stats.stages.push(replay(model, &[prev], tr));
            replayed += replay_start.elapsed();
        }
        emitted = Instant::now();
    }
    let wall = (t0.elapsed() - replayed).as_secs_f64();
    Ok((out, lat, wall, session.take_metrics()))
}

/// The chat workload: one client, closed loop, serving `reqs` in order,
/// pass after pass, until `budget_s` has passed (at least one pass).
/// Each output must equal `oracle` (full-reforward greedy generation),
/// and each serving of a prompt must record the same counters as its
/// first. `decode_tok_s` is every request's tokens over the sum of each
/// request's best wall time.
pub fn chat<L: LinearOp>(
    model: &ModelOf<L>,
    reqs: &[Request],
    oracle: &Oracle,
    budget_s: f64,
    tr: &mut Tracer,
    stats: &mut ServeStats,
) {
    let mut first_counts: Vec<Option<Recorder>> = vec![None; reqs.len()];
    let mut best = Best::new(reqs);
    let mut best_wall = vec![f64::INFINITY; reqs.len()];
    let start = Instant::now();
    let mut served = 0usize;
    while served < reqs.len() || start.elapsed().as_secs_f64() < budget_s {
        if served == reqs.len() {
            stats.peak_rss_mb = crate::stats::peak_rss_mb().ok();
        }
        let i = served % reqs.len();
        served += 1;
        let id = served as u64;
        stats.attempted += 1;
        tr.open("request", id);
        let result = chat_request(model, &reqs[i], id, tr, stats);
        tr.close();
        let (out, lat, wall, counts) = match result {
            Ok(r) => r,
            Err(e) => {
                best.failed[i] = true;
                stats.fail(format!("chat request {id}: {e}"));
                continue;
            }
        };
        stats.counters.merge(&counts);
        let first = first_counts[i].get_or_insert_with(|| counts.clone());
        if *first != counts {
            stats.counts_repeat = false;
            best.failed[i] = true;
            stats.fail(format!(
                "chat request {id}: counters differ from the first serving of its prompt"
            ));
        } else if out[..] != oracle[i][reqs[i].prompt.len()..] {
            best.failed[i] = true;
            stats.fail(format!(
                "chat request {id}: output differs from generate_greedy"
            ));
        } else {
            best.record(i, &lat);
            best_wall[i] = best_wall[i].min(wall);
        }
    }
    if stats.peak_rss_mb.is_none() {
        stats.peak_rss_mb = crate::stats::peak_rss_mb().ok();
    }
    let tokens: usize = reqs.iter().map(|r| r.n_new).sum();
    stats.decode_tok_s = if best.failed.contains(&true) {
        0.0
    } else {
        tokens as f64 / best_wall.iter().sum::<f64>()
    };
    best.finish(stats);
}

/// A request in flight in the batch loop.
struct Live {
    req: usize,
    id: u64,
    slot: usize,
    fed: usize,
    out: Vec<u32>,
    started: Instant,
    emitted: Instant,
    prefill_ms: f64,
    lat: Latency,
}

/// The batch workload: rounds of `reqs` through one
/// `BatchDecodeSession` per round with `concurrency` sequences in
/// flight — each request `join`s as soon as an earlier one `leave`s —
/// until `budget_s` has passed (at least one round). Each output must
/// equal `oracle` (solo `generate_greedy_cached`), and every round must
/// record the same session counters. Every round schedules the same
/// steps, so a request's latencies — and the wall time of each loop
/// iteration (joins, one `step`, token selection, leaves) — are
/// comparable across rounds: `decode_tok_s` is a round's tokens over the
/// sum of each iteration's best time.
pub fn batch<L: LinearOp>(
    model: &ModelOf<L>,
    reqs: &[Request],
    oracle: &Oracle,
    concurrency: usize,
    budget_s: f64,
    tr: &mut Tracer,
    stats: &mut ServeStats,
) {
    let mut first_counts: Option<Recorder> = None;
    let mut best = Best::new(reqs);
    let mut best_iters: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < budget_s {
        let mut session = BatchDecodeSession::new(model);
        let round_failed = stats.failed;
        let iters = batch_round(
            model,
            &mut session,
            reqs,
            oracle,
            concurrency,
            round,
            tr,
            stats,
            &mut best,
        );
        if best_iters.len() < iters.len() {
            best_iters.resize(iters.len(), f64::INFINITY);
        }
        for (best, t) in best_iters.iter_mut().zip(iters) {
            *best = best.min(t);
        }
        if round == 0 {
            stats.peak_rss_mb = crate::stats::peak_rss_mb().ok();
        }
        let counts = session.take_metrics();
        stats.counters.merge(&counts);
        // A round with failures takes a different path; only healthy
        // rounds must repeat the counters exactly.
        if stats.failed == round_failed {
            match &first_counts {
                None => first_counts = Some(counts),
                Some(first) if *first != counts => {
                    stats.counts_repeat = false;
                    stats.first_error.get_or_insert(format!(
                        "batch round {round}: counters differ from round 0"
                    ));
                }
                Some(_) => {}
            }
        }
        round += 1;
    }
    let tokens: usize = reqs.iter().map(|r| r.n_new).sum();
    stats.decode_tok_s = if best.failed.contains(&true) {
        0.0
    } else {
        tokens as f64 / best_iters.iter().sum::<f64>()
    };
    best.finish(stats);
}

/// Serves every request of `reqs` once through `session`. Returns the
/// wall time of each loop iteration in seconds, stage replays left out.
#[allow(clippy::too_many_arguments)]
fn batch_round<L: LinearOp>(
    model: &ModelOf<L>,
    session: &mut BatchDecodeSession<'_, L>,
    reqs: &[Request],
    oracle: &Oracle,
    concurrency: usize,
    round: u64,
    tr: &mut Tracer,
    stats: &mut ServeStats,
    best: &mut Best,
) -> Vec<f64> {
    let mut iters = Vec::new();
    let mut live: Vec<Live> = Vec::with_capacity(concurrency);
    let mut next = 0usize;
    let mut step_tokens: Vec<(usize, u32)> = Vec::with_capacity(concurrency);
    let mut n_steps = 0usize;
    loop {
        let iter_start = Instant::now();
        let mut replayed = Duration::ZERO;
        while live.len() < concurrency && next < reqs.len() {
            let id = round * reqs.len() as u64 + next as u64 + 1;
            stats.attempted += 1;
            let slot = tr.time("lm.join", id, || session.join()).0;
            let now = Instant::now();
            live.push(Live {
                req: next,
                id,
                slot,
                fed: 0,
                out: Vec::with_capacity(reqs[next].n_new),
                started: now,
                emitted: now,
                prefill_ms: 0.0,
                lat: Latency {
                    ttft_ms: 0.0,
                    itl_ms: Vec::with_capacity(reqs[next].n_new),
                },
            });
            next += 1;
        }
        if live.is_empty() {
            break;
        }
        step_tokens.clear();
        step_tokens.extend(live.iter().map(|l| {
            let prompt = &reqs[l.req].prompt;
            (
                l.slot,
                if l.fed < prompt.len() {
                    prompt[l.fed]
                } else {
                    l.out[l.out.len() - 1]
                },
            )
        }));
        let (logits, dt) = tr.time("lm.decode_step", 0, || session.step(&step_tokens));
        let now = Instant::now();
        let logits = match logits {
            Ok(l) => l,
            Err(e) => {
                for l in live.drain(..) {
                    let _ = session.leave(l.slot);
                    best.failed[l.req] = true;
                    stats.fail(format!("batch request {}: {e}", l.id));
                }
                continue;
            }
        };
        stats.step_us.push(us(dt));
        for (r, l) in live.iter_mut().enumerate() {
            let plen = reqs[l.req].prompt.len();
            if l.fed < plen {
                l.fed += 1;
                l.prefill_ms += ms(dt);
                if l.fed < plen {
                    continue;
                }
            }
            let tok = tr
                .time("tensor.argmax", l.id, || argmax(logits.row(r)) as u32)
                .0;
            if l.out.is_empty() {
                l.lat.ttft_ms = ms(now - l.started);
                stats.prefill_ms.push(l.prefill_ms);
            } else {
                l.lat.itl_ms.push(ms(now - l.emitted));
            }
            l.out.push(tok);
            l.emitted = now;
        }
        n_steps += 1;
        if tr.enabled() && n_steps.is_multiple_of(REPLAY_EVERY) {
            let toks: Vec<u32> = step_tokens.iter().map(|&(_, t)| t).collect();
            let replay_start = Instant::now();
            stats.stages.push(replay(model, &toks, tr));
            // Keep the replay out of the next inter-token gaps.
            let spent = replay_start.elapsed();
            replayed = spent;
            for l in &mut live {
                l.emitted += spent;
                l.started += spent;
            }
        }
        let evicted = session.evicted_last_step().to_vec();
        let mut i = 0;
        while i < live.len() {
            let l = &live[i];
            let req = &reqs[l.req];
            if evicted.contains(&l.slot) {
                let l = live.swap_remove(i);
                best.failed[l.req] = true;
                stats.fail(format!(
                    "batch request {}: evicted for non-finite logits",
                    l.id
                ));
            } else if l.out.len() == req.n_new {
                let l = live.remove(i);
                let left = tr.time("lm.leave", l.id, || session.leave(l.slot)).0;
                if let Err(e) = left {
                    best.failed[l.req] = true;
                    stats.fail(format!("batch request {}: {e}", l.id));
                } else if l.out[..] != oracle[l.req][req.prompt.len()..] {
                    best.failed[l.req] = true;
                    stats.fail(format!(
                        "batch request {}: output differs from generate_greedy_cached",
                        l.id
                    ));
                } else {
                    best.record(l.req, &l.lat);
                }
            } else {
                i += 1;
            }
        }
        iters.push((iter_start.elapsed() - replayed).as_secs_f64());
    }
    iters
}
