//! The three load shapes: direct calls on one thread, an open loop that
//! sends on a schedule fixed beforehand, and a closed loop of one client
//! keeping a fixed number of requests outstanding.

use crate::models::{FEATURES, QUERY_DOCS};
use crate::trace::{EngineMeter, Tracer};
use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::ServedBy;
use dlr_serve::{BatchEngine, Response, ResponseHandle, ScoreRequest, Server};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Every request's latency budget, from when it was due. On the reference
/// host the hypervisor stalls the guest for up to 60 ms a few times a run; a
/// budget inside that reach (20 ms) was missed by 0.4% of requests at the
/// median and by 2% in a bad run, none of it the server's doing.
pub const DEADLINE: Duration = Duration::from_millis(100);
/// Consecutive calls or requests in one block. A timing metric is read from
/// the quiet end of the block values, and a block has to be short for the
/// host to leave one in ten alone: neighbours slow the guest in bursts of
/// milliseconds, so blocks of 50 ms were all slowed by some amount, and
/// their quiet decile wandered 6% between runs where this one wanders 2%.
pub const BLOCK: usize = 25;

/// The documents requests are cut from and what each should score.
pub struct Pool {
    /// Row-major feature rows, as the deployed scorer expects them.
    pub rows: Vec<f32>,
    pub labels: Vec<f32>,
    /// The deployed scorer's own score of every document, taken in set-up
    /// in 64-document batches and checked there against the oracle.
    pub expected: Vec<f32>,
}

impl Pool {
    pub fn docs(&self) -> usize {
        self.labels.len()
    }
}

/// The requests of one phase, fixed before its clock starts.
pub struct Plan<'a> {
    pub pool: &'a Pool,
    /// Documents in request `i`; the plan cycles when a phase sends more.
    pub sizes: Vec<usize>,
    /// Whether request `i` is compared against direct scoring.
    pub audit: Vec<bool>,
    /// Attach relevance labels to every request whose index is a multiple
    /// of this (the registry's shadow NDCG needs them); 0 labels none.
    pub label_every: usize,
}

impl Plan<'_> {
    pub fn docs(&self, i: usize) -> usize {
        self.sizes[i % self.sizes.len()]
    }

    /// First pool document of request `i`: queries cycle through the pool
    /// in order, so the working set is the whole pool.
    pub fn start(&self, i: usize) -> usize {
        let queries = self.pool.docs() / QUERY_DOCS;
        let start = (i % queries) * QUERY_DOCS;
        start.min(self.pool.docs() - self.docs(i))
    }

    pub fn rows(&self, i: usize) -> &[f32] {
        let (start, docs) = (self.start(i), self.docs(i));
        &self.pool.rows[start * FEATURES..(start + docs) * FEATURES]
    }

    pub fn expected(&self, i: usize) -> &[f32] {
        let (start, docs) = (self.start(i), self.docs(i));
        &self.pool.expected[start..start + docs]
    }

    fn audited(&self, i: usize) -> bool {
        self.audit[i % self.audit.len()]
    }

    fn request(&self, i: usize) -> ScoreRequest {
        let request = ScoreRequest::new(self.rows(i).to_vec()).with_deadline(DEADLINE);
        if self.label_every > 0 && i.is_multiple_of(self.label_every) {
            let (start, docs) = (self.start(i), self.docs(i));
            request.with_labels(self.pool.labels[start..start + docs].to_vec())
        } else {
            request
        }
    }
}

/// What single-thread direct scoring measured.
#[derive(Default)]
pub struct DirectOutcome {
    /// Duration and documents of every call.
    pub call_ns: Vec<u64>,
    pub call_docs: Vec<usize>,
    /// Calls whose scores differed from the pool's expected ones.
    pub wrong: u64,
}

/// Score the plan's requests back to back for `seconds`, one call each. The
/// comparison of every call's output happens outside the timed interval.
pub fn direct_phase(
    scorer: &mut dyn DocumentScorer,
    plan: &Plan<'_>,
    seconds: f64,
) -> DirectOutcome {
    let length = Duration::from_secs_f64(seconds);
    let mut out = vec![0.0f32; plan.sizes.iter().copied().max().unwrap_or(QUERY_DOCS)];
    let mut outcome = DirectOutcome::default();
    let start = Instant::now();
    for i in 0.. {
        let n = plan.docs(i);
        let t0 = Instant::now();
        scorer.score_batch(plan.rows(i), &mut out[..n]);
        let t1 = Instant::now();
        outcome
            .call_ns
            .push(u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX));
        outcome.call_docs.push(n);
        if out[..n] != *plan.expected(i) {
            outcome.wrong += 1;
        }
        if t1 - start >= length {
            break;
        }
    }
    outcome
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Scored by the primary, equal to direct scoring where audited.
    Primary,
    /// Scored, but by the fallback.
    Fallback,
    /// Scored by the primary with scores that differ from direct scoring.
    Wrong,
    Expired,
    Failed,
    /// Shed or rejected at the door.
    Refused,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Number of the request over the whole run, from 1.
    pub number: u64,
    /// How long after its due time it was submitted (0 in a closed loop).
    pub late_ns: u64,
    /// `Delivery.latency_nanos`: admission to delivery on the server's clock.
    pub server_ns: u64,
    /// Submit to `wait()` returning, on the client's clock.
    pub client_ns: u64,
    /// When it was submitted, on the tracer's clock (0 without a tracer).
    pub submit_ns: u64,
    pub outcome: Outcome,
}

impl Reply {
    /// Reply time counted from when the request was due. A request that was
    /// refused, expired or failed never got its scores, so it counts as
    /// having taken the whole deadline at least: shedding more must not read
    /// as answering faster.
    pub fn latency_ns(&self) -> u64 {
        let measured = self.late_ns + self.server_ns;
        match self.outcome {
            Outcome::Primary | Outcome::Fallback | Outcome::Wrong => measured,
            Outcome::Expired | Outcome::Failed | Outcome::Refused => {
                measured.max(DEADLINE.as_nanos() as u64)
            }
        }
    }

    /// Answered by the primary, correctly, within the deadline.
    pub fn good(&self) -> bool {
        self.outcome == Outcome::Primary && self.latency_ns() <= DEADLINE.as_nanos() as u64
    }
}

fn classify(plan: &Plan<'_>, i: usize, response: &Response) -> Outcome {
    match response {
        Response::Scored {
            scores,
            served_by: ServedBy::Primary,
        } => {
            if plan.audited(i) && scores[..] != *plan.expected(i) {
                Outcome::Wrong
            } else {
                Outcome::Primary
            }
        }
        Response::Scored { .. } => Outcome::Fallback,
        Response::Expired => Outcome::Expired,
        Response::Failed => Outcome::Failed,
    }
}

/// Where a served phase reports each submission, so a control plane can act
/// at fixed request counts.
pub type OnSent<'a> = &'a mut dyn FnMut(u64);

/// Open loop: submit request `i` when `due_ns[i]` has passed since the
/// phase began, whether or not earlier ones were answered, then collect
/// every reply. The thread polls the clock to each due time, yielding the
/// core between polls: on the reference host a timed sleep overshoots by
/// 80 µs at the median and over 1 ms at p99, which would be the measurement,
/// and a loop that never yields starves the dispatcher whenever the kernel
/// wakes it on the generator's core.
pub fn open_loop<E: BatchEngine + 'static>(
    server: &Server<E>,
    plan: &Plan<'_>,
    due_ns: &[u64],
    first_number: u64,
    tracer: Option<&Tracer>,
    on_sent: OnSent<'_>,
) -> Vec<Reply> {
    let mut pending = Vec::with_capacity(due_ns.len());
    let start = Instant::now();
    for (i, &due) in due_ns.iter().enumerate() {
        let request = plan.request(i);
        let due = Duration::from_nanos(due);
        while start.elapsed() < due {
            std::thread::yield_now();
        }
        let submit_ns = tracer.map_or(0, Tracer::now_ns);
        let sent_at = Instant::now();
        let late_ns = u64::try_from((sent_at - start - due).as_nanos()).unwrap_or(u64::MAX);
        let number = first_number + i as u64;
        let submitted = match tracer {
            Some(t) => t.scope("serve.submit", number, || server.submit(request)),
            None => server.submit(request),
        };
        let reply = Reply {
            number,
            late_ns,
            server_ns: 0,
            client_ns: 0,
            submit_ns,
            outcome: Outcome::Refused,
        };
        pending.push((i, reply, submitted.ok().map(|h| (sent_at, h))));
        on_sent(number);
    }
    pending
        .into_iter()
        .map(|(i, mut reply, handle)| {
            if let Some((sent_at, handle)) = handle {
                let delivery = handle.wait();
                reply.client_ns = u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                reply.server_ns = delivery.latency_nanos;
                reply.outcome = classify(plan, i, &delivery.response);
            }
            reply
        })
        .collect()
}

/// What the closed loop measured.
pub struct ClosedOutcome {
    pub replies: Vec<Reply>,
    /// Completions per second in each block.
    pub block_qps: Vec<f64>,
    /// Engine time per document it was handed in each block, from `meter`.
    pub block_us_per_doc: Vec<f64>,
}

/// Closed loop: one client thread keeps `outstanding` requests in flight
/// for `seconds`, waiting for the oldest before sending the next. A block
/// is `block` completions. `meter` is the served engine's.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<E: BatchEngine + 'static>(
    server: &Server<E>,
    plan: &Plan<'_>,
    outstanding: usize,
    seconds: f64,
    block: usize,
    first_number: u64,
    tracer: Option<&Tracer>,
    meter: &EngineMeter,
) -> ClosedOutcome {
    let length = Duration::from_secs_f64(seconds);
    let mut outcome = ClosedOutcome {
        replies: Vec::new(),
        block_qps: Vec::new(),
        block_us_per_doc: Vec::new(),
    };
    let mut in_flight: VecDeque<(usize, Reply, Instant, ResponseHandle)> = VecDeque::new();
    let mut next = 0usize;
    let mut submit = |in_flight: &mut VecDeque<_>, replies: &mut Vec<Reply>| {
        let i = next;
        next += 1;
        let number = first_number + i as u64;
        let reply = Reply {
            number,
            late_ns: 0,
            server_ns: 0,
            client_ns: 0,
            submit_ns: tracer.map_or(0, Tracer::now_ns),
            outcome: Outcome::Refused,
        };
        let sent_at = Instant::now();
        match server.submit(plan.request(i)) {
            Ok(handle) => in_flight.push_back((i, reply, sent_at, handle)),
            Err(_) => replies.push(reply),
        }
    };
    for _ in 0..outstanding {
        submit(&mut in_flight, &mut outcome.replies);
    }
    let start = Instant::now();
    let mut block_start = start;
    let mut block_done = 0usize;
    let mut metered = meter.read();
    let mut phase_over = false;
    while let Some((i, mut reply, sent_at, handle)) = in_flight.pop_front() {
        let delivery = handle.wait();
        let now = Instant::now();
        reply.client_ns = u64::try_from((now - sent_at).as_nanos()).unwrap_or(u64::MAX);
        reply.server_ns = delivery.latency_nanos;
        reply.outcome = classify(plan, i, &delivery.response);
        outcome.replies.push(reply);
        if phase_over {
            // Only drain what is still in flight.
            continue;
        }
        phase_over = now - start >= length;
        block_done += 1;
        // A phase too short for one whole block keeps its partial one.
        if block_done == block || (phase_over && outcome.block_qps.is_empty()) {
            outcome
                .block_qps
                .push(block_done as f64 / (now - block_start).as_secs_f64());
            let (busy_ns, docs) = meter.read();
            if docs > metered.1 {
                outcome
                    .block_us_per_doc
                    .push((busy_ns - metered.0) as f64 / 1e3 / (docs - metered.1) as f64);
            }
            metered = (busy_ns, docs);
            block_start = now;
            block_done = 0;
        }
        if !phase_over {
            submit(&mut in_flight, &mut outcome.replies);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TimedEngine;
    use dlr_serve::{PlainEngine, ServerConfig};

    struct Sum;
    impl DocumentScorer for Sum {
        fn num_features(&self) -> usize {
            FEATURES
        }
        fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
            for (row, o) in rows.chunks_exact(FEATURES).zip(out.iter_mut()) {
                *o = row.iter().sum();
            }
        }
        fn name(&self) -> String {
            "sum".into()
        }
    }

    fn pool() -> Pool {
        let docs = 4 * QUERY_DOCS;
        let rows: Vec<f32> = (0..docs * FEATURES).map(|i| (i % 7) as f32).collect();
        let mut expected = vec![0.0f32; docs];
        Sum.score_batch(&rows, &mut expected);
        Pool {
            rows,
            labels: vec![0.0; docs],
            expected,
        }
    }

    #[test]
    fn plan_cycles_the_pool_and_keeps_large_requests_inside_it() {
        let pool = pool();
        let plan = Plan {
            pool: &pool,
            sizes: vec![64, 16, 256],
            audit: vec![true],
            label_every: 0,
        };
        assert_eq!(plan.start(0), 0);
        assert_eq!(plan.start(1), 64);
        assert_eq!(plan.start(2), 0); // 256 documents only fit at the front
        assert_eq!(plan.start(4), 0);
        assert_eq!(plan.rows(1).len(), 16 * FEATURES);
        assert_eq!(plan.expected(2).len(), 256);
    }

    #[test]
    fn direct_phase_runs_its_length_and_flags_wrong_scores() {
        let mut pool = pool();
        let plan = Plan {
            pool: &pool,
            sizes: vec![64],
            audit: vec![true],
            label_every: 0,
        };
        let got = direct_phase(&mut Sum, &plan, 0.02);
        assert_eq!(got.wrong, 0);
        assert!(got.call_ns.len() >= 4, "more than one pass over the pool");
        assert_eq!(got.call_docs, vec![64; got.call_ns.len()]);
        pool.expected[3] += 1.0;
        let plan = Plan {
            pool: &pool,
            sizes: vec![64],
            audit: vec![true],
            label_every: 0,
        };
        assert!(direct_phase(&mut Sum, &plan, 0.02).wrong > 0);
    }

    #[test]
    fn served_loops_answer_every_request_and_audit_the_scores() {
        let mut pool = pool();
        pool.expected[QUERY_DOCS] += 1.0; // request 1 of each cycle is wrong
        let plan = Plan {
            pool: &pool,
            sizes: vec![64],
            audit: vec![true],
            label_every: 1,
        };
        let engine = TimedEngine::new(PlainEngine::new(Sum), None);
        let meter = engine.meter();
        let server = Server::start(engine, ServerConfig::default());
        let due: Vec<u64> = (0..8).map(|i| i * 200_000).collect();
        let mut sent = Vec::new();
        let replies = open_loop(&server, &plan, &due, 1, None, &mut |n| sent.push(n));
        assert_eq!(sent, (1..=8).collect::<Vec<u64>>());
        assert_eq!(replies.len(), 8);
        let wrong = replies
            .iter()
            .filter(|r| r.outcome == Outcome::Wrong)
            .count();
        assert_eq!(wrong, 2, "requests 1 and 5 hit the doctored query");
        assert!(replies
            .iter()
            .all(|r| r.outcome != Outcome::Primary || r.good()));
        // A request that got no scores took its whole deadline at least.
        let refused = Reply {
            outcome: Outcome::Refused,
            server_ns: 0,
            ..replies[0]
        };
        assert!(refused.latency_ns() >= DEADLINE.as_nanos() as u64);
        assert!(!refused.good());
        let closed = closed_loop(&server, &plan, 8, 0.05, 16, 9, None, &meter);
        assert!(!closed.block_qps.is_empty());
        assert_eq!(closed.block_us_per_doc.len(), closed.block_qps.len());
        assert!(closed.block_us_per_doc.iter().all(|&us| us > 0.0));
        assert!(closed.replies.len() >= 16 * closed.block_qps.len());
        assert_eq!(closed.replies[0].number, 9);
        let (_engine, stats) = server.shutdown();
        assert_eq!(stats.admitted, stats.answered());
    }
}
