//! Rounds: one pass of the query batch through the workload's API, with
//! every result checked against the reference.
//!
//! A round is a *count* of queries (the whole batch), never a time slice,
//! so the program's counters are the same in every round; `--seconds`
//! decides how many rounds a run measures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use warehouse::allocation::NodePlacement;
use warehouse::exec::{ExecMetrics, FileIoMetrics, ObsConfig, ThroughputMetrics};
use warehouse::workload::BoundQuery;
use warehouse::{AdmissionPolicy, Session, Warehouse};

use crate::setup::Expected;
use crate::span::{SpanId, Spans};
use crate::spec::{Api, Workload, SIM_DISKS_PER_NODE, SIM_NODES};
use crate::stats::{percentile, ratio};
use crate::sys;

/// A session over `warehouse` configured as `workload` prescribes, with the
/// pool size, MPL and tracing switch given.
pub fn session<'a>(
    workload: &Workload,
    warehouse: &'a Warehouse,
    workers: usize,
    mpl: usize,
    obs: ObsConfig,
) -> Session<'a> {
    let mut builder = warehouse
        .session()
        .workers(workers)
        .obs(obs)
        .policy(AdmissionPolicy::Concurrent { max_in_flight: mpl });
    if workload.simio {
        builder = builder.nodes(NodePlacement::shared_nothing(SIM_NODES, SIM_DISKS_PER_NODE));
    }
    builder.build()
}

/// Pool accounting summed over the `execute` calls of a round.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// Σ over queries of per-worker busy time.
    pub busy: Duration,
    /// Σ over queries of wall × pool size.
    pub capacity: Duration,
    pub fragments: u64,
    pub stolen: u64,
    pub compressed: u64,
    pub rows_scanned: u64,
    pub rows_matched: u64,
}

impl EngineTotals {
    pub fn add(&mut self, metrics: &ExecMetrics) {
        self.busy += metrics.workers.iter().map(|w| w.busy).sum::<Duration>();
        self.capacity += metrics.wall * metrics.worker_count() as u32;
        self.fragments += metrics.total_fragments() as u64;
        self.stolen += metrics.total_stolen() as u64;
        self.compressed += metrics.total_compressed() as u64;
        self.rows_scanned += metrics.total_rows_scanned();
        self.rows_matched += metrics.workers.iter().map(|w| w.rows_matched).sum::<u64>();
    }
}

/// Events the program's own tracing recorded during a round.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounts {
    pub recorded: u64,
    pub dropped: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub queries: usize,
    /// Wall time of the round, taken outside the `execute`/`stream` calls.
    pub wall: Duration,
    /// Process CPU (user + system) over the round, in seconds.
    pub cpu_s: f64,
    /// Response time per query in ms, in batch order (empty for the
    /// queries of a call that panicked).
    pub latencies_ms: Vec<f64>,
    /// Queries that panicked or returned a result differing from the
    /// reference.
    pub failed: usize,
    /// False when a timing the program reported contradicts the wall clock
    /// measured around the call.
    pub consistent: bool,
    pub engine: EngineTotals,
    /// Scheduler metrics of a stream round.
    pub throughput: Option<ThroughputMetrics>,
    pub trace: TraceCounts,
}

impl Round {
    pub fn qps(&self) -> f64 {
        ratio(self.queries as f64, self.wall.as_secs_f64())
    }
}

/// Runs `queries` once through `api` on `session`, checking every result
/// against `expected`.  With `spans`, each call into the session is
/// recorded as a child of the given parent span.
pub fn run_round(
    session: &Session<'_>,
    api: Api,
    queries: &[BoundQuery],
    expected: &[Expected],
    mut spans: Option<(&mut Spans, SpanId)>,
) -> Result<Round, String> {
    let mut round = Round {
        queries: queries.len(),
        consistent: true,
        ..Round::default()
    };
    let cpu_before = sys::cpu_total_seconds()?;
    let start = Instant::now();
    match api {
        Api::Single => {
            let mut results = Vec::with_capacity(queries.len());
            for (i, query) in queries.iter().enumerate() {
                let span = spans
                    .as_mut()
                    .map(|(s, parent)| s.enter("session.execute", Some(*parent), Some(i as u32)));
                let began = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| session.execute(query)));
                round.latencies_ms.push(began.elapsed().as_secs_f64() * 1e3);
                if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
                    s.exit(id);
                }
                results.push(result);
            }
            round.wall = start.elapsed();
            for (result, want) in results.iter().zip(expected) {
                match result {
                    Ok(result) => {
                        if !want.matches(result.hits, &result.measure_sums) {
                            round.failed += 1;
                        }
                        round.engine.add(&result.metrics);
                        if let Some(trace) = &result.trace {
                            round.trace.recorded += trace.events.len() as u64;
                            round.trace.dropped += trace.dropped;
                        }
                    }
                    Err(_) => round.failed += 1,
                }
            }
        }
        Api::Stream { .. } => {
            let span = spans
                .as_mut()
                .map(|(s, parent)| s.enter("session.stream", Some(*parent), None));
            let outcome = catch_unwind(AssertUnwindSafe(|| session.stream(queries)));
            round.wall = start.elapsed();
            if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
                s.exit(id);
            }
            match outcome {
                Ok(outcome) if outcome.queries.len() == queries.len() => {
                    for (scheduled, want) in outcome.queries.iter().zip(expected) {
                        if !want.matches(scheduled.hits, &scheduled.measure_sums) {
                            round.failed += 1;
                        }
                        round
                            .latencies_ms
                            .push(scheduled.latency.as_secs_f64() * 1e3);
                        // A query is admitted and merged inside the call.
                        if scheduled.admission_wait + scheduled.latency > round.wall {
                            round.consistent = false;
                        }
                    }
                    round.engine.add(&outcome.metrics.pool);
                    if let Some(trace) = &outcome.trace {
                        round.trace.recorded = trace.events.len() as u64;
                        round.trace.dropped = trace.dropped;
                    }
                    round.throughput = Some(outcome.metrics);
                }
                // A panic, or a result list of the wrong length, fails
                // every query of the call.
                _ => round.failed = queries.len(),
            }
        }
    }
    round.cpu_s = sys::cpu_total_seconds()? - cpu_before;
    Ok(round)
}

/// Per-round values of the timing metrics.
#[derive(Debug, Default)]
pub struct RoundSeries {
    pub qps: Vec<f64>,
    pub latency_p50_ms: Vec<f64>,
    pub latency_p95_ms: Vec<f64>,
    pub cpu_ms_per_query: Vec<f64>,
}

impl RoundSeries {
    pub fn push(&mut self, round: &Round) {
        self.qps.push(round.qps());
        self.latency_p50_ms
            .push(percentile(&round.latencies_ms, 50.0));
        self.latency_p95_ms
            .push(percentile(&round.latencies_ms, 95.0));
        self.cpu_ms_per_query
            .push(ratio(round.cpu_s * 1e3, round.queries as f64));
    }

    /// `(metric name, per-round values)` in `END_TO_END` order.
    pub fn named(&self) -> [(&'static str, &[f64]); 4] {
        [
            ("qps", &self.qps),
            ("latency_p50_ms", &self.latency_p50_ms),
            ("latency_p95_ms", &self.latency_p95_ms),
            ("cpu_ms_per_query", &self.cpu_ms_per_query),
        ]
    }
}

/// The correctness gate's running totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Results checked: every query of every round, warm-up included, plus
    /// the oracle sample.
    pub attempted: usize,
    /// Results that were wrong, or missing because their call panicked.
    pub failed: usize,
    /// False once a program-reported timing contradicted the wall clock.
    pub consistent: bool,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            consistent: true,
        }
    }
}

impl Checks {
    pub fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn add_round(&mut self, round: &Round) {
        self.add(round.queries, round.failed);
        self.consistent &= round.consistent;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.consistent
    }
}

/// The outcome of the timed phase of an untraced run.
#[derive(Debug, Default)]
pub struct Measured {
    pub series: RoundSeries,
    pub rounds: usize,
}

/// Fewest timed rounds of a run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// One untimed warm-up round, then timed rounds until `seconds` have been
/// measured (at least [`MIN_ROUNDS`]); every round's results are tallied
/// in `checks`.
pub fn measure(
    session: &Session<'_>,
    api: Api,
    queries: &[BoundQuery],
    expected: &[Expected],
    seconds: f64,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let mut measured = Measured::default();
    checks.add_round(&run_round(session, api, queries, expected, None)?);
    let mut timed = Duration::ZERO;
    while measured.rounds < MIN_ROUNDS || timed.as_secs_f64() < seconds {
        let round = run_round(session, api, queries, expected, None)?;
        timed += round.wall;
        measured.rounds += 1;
        checks.add_round(&round);
        measured.series.push(&round);
    }
    Ok(measured)
}

/// File-I/O counters accumulated between two snapshots.
pub fn file_delta(before: &FileIoMetrics, after: &FileIoMetrics) -> FileIoMetrics {
    let mut delta = *after;
    delta.pool.hits -= before.pool.hits;
    delta.pool.misses -= before.pool.misses;
    delta.pool.evictions -= before.pool.evictions;
    delta.segment_reads -= before.segment_reads;
    delta.bytes_read -= before.bytes_read;
    delta.decoded_cache_hits -= before.decoded_cache_hits;
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::set_up;
    use crate::spec::{Scale, WORKERS, WORKLOADS};
    use crate::stats::median;
    use crate::sys::test_out_dir;

    #[test]
    fn every_workload_runs_correctly_and_a_perturbed_reference_fails() {
        for workload in &WORKLOADS {
            let mut spans = Spans::new();
            let mut env =
                set_up(workload, &Scale::quick(), 5, &test_out_dir(), &mut spans).unwrap();
            env.compute_reference();
            let env = env;
            let mpl = workload.api.mpl();
            let session = session(workload, env.target(), WORKERS, mpl, ObsConfig::default());
            let mut checks = Checks::default();
            let (api, queries) = (workload.api, &env.queries);
            let measured =
                measure(&session, api, queries, &env.expected, 0.0, &mut checks).unwrap();
            assert_eq!(measured.rounds, MIN_ROUNDS, "{}", workload.name);
            let checked = 40 * (MIN_ROUNDS + 1);
            assert_eq!(
                checks,
                Checks {
                    attempted: checked,
                    failed: 0,
                    consistent: true
                },
                "{}",
                workload.name
            );
            for (name, values) in measured.series.named() {
                assert_eq!(values.len(), MIN_ROUNDS);
                // A quick round is shorter than one 10 ms CPU tick.
                let positive = median(values) > 0.0 || name == "cpu_ms_per_query";
                assert!(positive, "{} {name} = {values:?}", workload.name);
            }

            // Perturb one expected value: exactly that query must fail, in
            // every round.
            let mut perturbed = env.expected.clone();
            perturbed[7].sum_bits[0] ^= 1;
            let round = run_round(&session, workload.api, &env.queries, &perturbed, None).unwrap();
            assert_eq!(round.failed, 1, "{}", workload.name);
            assert_eq!(round.latencies_ms.len(), 40);
        }
    }

    #[test]
    fn a_panicking_call_fails_its_queries_instead_of_the_run() {
        let workload = &WORKLOADS[0];
        let mut spans = Spans::new();
        let mut env = set_up(workload, &Scale::quick(), 5, &test_out_dir(), &mut spans).unwrap();
        env.compute_reference();
        // A query bound against a larger schema: its values are out of
        // range for this store, which the program answers with a panic.
        let big = Scale::full().config.build();
        let foreign = crate::setup::generate_queries(&big, &WORKLOADS[1], 1, 40);
        env.queries[3] = foreign.into_iter().max_by_key(|q| q.values()[0]).unwrap();
        let session = session(workload, env.target(), WORKERS, 1, ObsConfig::default());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let round = run_round(&session, Api::Single, &env.queries, &env.expected, None);
        std::panic::set_hook(hook);
        let round = round.unwrap();
        assert!(round.failed >= 1 && round.failed < 40, "{}", round.failed);
        assert_eq!(round.latencies_ms.len(), 40);
    }

    #[test]
    fn traced_rounds_record_one_span_per_call() {
        let workload = &WORKLOADS[1];
        let mut spans = Spans::new();
        let mut env = set_up(workload, &Scale::quick(), 5, &test_out_dir(), &mut spans).unwrap();
        env.compute_reference();
        let traced = session(workload, env.target(), WORKERS, 4, ObsConfig::enabled());
        let parent = spans.enter("round.traced", None, None);
        let stream = run_round(
            &traced,
            workload.api,
            &env.queries,
            &env.expected,
            Some((&mut spans, parent)),
        )
        .unwrap();
        let single = run_round(
            &traced,
            Api::Single,
            &env.queries,
            &env.expected,
            Some((&mut spans, parent)),
        )
        .unwrap();
        spans.exit(parent);
        assert!(stream.trace.recorded > 0 && single.trace.recorded > 0);
        assert!(stream.throughput.is_some() && single.throughput.is_none());
        let count = |name| spans.all().iter().filter(|s| s.name == name).count();
        assert_eq!(count("session.stream"), 1);
        assert_eq!(count("session.execute"), 40);
        assert!(spans.self_ns(parent) >= 0);
    }
}
