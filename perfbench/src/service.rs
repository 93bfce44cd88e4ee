//! The `service_mix` workload: an `EnumerationEngine` (default config,
//! two workers) serving eight disjoint regions to four tenants.
//!
//! * Reads: one generator thread submits capped tree, forest and
//!   terminal-tree queries at a fixed offered rate (open loop), drawn
//!   from a 100-query pool with Zipf(0.7) popularity, so a share of queries
//!   repeats and replays from the result cache. Each query is timed from
//!   its due time to the moment its outcome is seen.
//! * Writes: one writer thread applies a one-edit mutation batch every
//!   [`MUTATION_INTERVAL`], just before an arrival: an edge insertion
//!   into one region, then its removal (newest id, so nothing is
//!   renumbered), so the graph returns to its starting state after every
//!   second batch.
//!
//! The run is [`ROUNDS`] rounds. Each sets up a fresh engine and replays
//! the same seeded schedule of arrivals and batches, so every arrival
//! and every batch is measured once per round, and its figure is its
//! fastest round.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::Rng;
use steiner_core::EnumStats;
use steiner_graph::epoch::GraphMutation;
use steiner_graph::{EdgeId, VertexId};
use steiner_service::{EnumerationEngine, Query, QueryOptions, QueryOutcome, Session, Ticket};

use crate::check::{self, StreamHash};
use crate::inputs::{self, Family, ServiceInputs, Spec, POOL, SERVICE_CAP, TENANTS};
use crate::report::{Report, Timer};
use crate::stats::{mean, percentile, ratio};
use crate::sys;
use crate::trace::{Kind, Tracer};

/// Offered query rate of the open loop, about half of the engine's
/// measured capacity on this mix (2 workers; see `perfbench/README.md`).
pub const OFFERED_PER_S: f64 = 100.0;

/// Time between two mutation batches: one per three arrivals.
pub const MUTATION_INTERVAL: Duration = Duration::from_millis(30);

/// Each batch is due this long before an arrival, when the queries of
/// earlier arrivals have almost always finished: the fence then has
/// little to drain, and `mutation_*` measures the batch itself rather
/// than whichever query it happened to wait for. At a random phase the
/// share of batches that waited followed the host's speed (4–22% from
/// run to run), and `mutation_p90_ms` jumped between a batch that waited
/// and one that did not. A drain is the in-flight queries' own time,
/// which `latency_*` measures; a fence that outlasts this lead delays the
/// next arrival, which `latency_*` measures too.
const MUTATION_LEAD: Duration = Duration::from_millis(1);

/// Rounds per run. A vCPU the hypervisor takes away for a few
/// milliseconds delays whichever queries run then, and the generator
/// and the outcome's waiter with them: one query crosses three threads
/// on two shared vCPUs. Taking each arrival's fastest round keeps such a
/// stall out of the figures unless it hit the arrival in every round.
/// In ten 40 s runs of one round each (percentiles as medians of 2.5 s
/// windows), `latency_p99_ms` spread 43% on a contended host; with the
/// median over five rounds it spread 19% and 70% in two sets of ten
/// runs, because stretches of contention lasting minutes hit most
/// rounds of some runs (p99 6.9–7.7 ms in quiet runs, up to 19.7 ms).
pub const ROUNDS: usize = 5;

/// A query's deadline, counted from its due time. Generous: it only
/// fires when the engine stalls.
const DEADLINE: Duration = Duration::from_secs(5);

/// Pool queries (the most popular) run once before timing starts.
const WARM_QUERIES: usize = POOL;

/// Threads waiting for outcomes. More than the engine's two workers, so
/// a waiter is free whenever a query finishes unless several queue up.
const WAITERS: usize = 4;

/// The outcome of every `SAMPLE_EVERY`-th arrival of known epoch is
/// compared with a one-shot run, up to `MAX_SAMPLES` of them.
const SAMPLE_EVERY: usize = 8;
const MAX_SAMPLES: usize = 64;

fn to_query(spec: &Spec, family: Family) -> Query {
    match (family, spec) {
        (Family::Tree, Spec::Terminals(w)) => Query::SteinerTree {
            terminals: w.clone(),
        },
        (Family::Terminal, Spec::Terminals(w)) => Query::TerminalSteinerTree {
            terminals: w.clone(),
        },
        (Family::Forest, Spec::Sets(s)) => Query::SteinerForest { sets: s.clone() },
        _ => unreachable!("the pool holds undirected queries only"),
    }
}

/// What the generator knows about one submitted query.
struct Sent {
    /// Arrival number.
    seq: usize,
    pool: usize,
    due: Instant,
    /// The epoch the query was admitted under, when no mutation batch
    /// overlapped its submission.
    epoch: Option<u64>,
    /// Submitted while a mutation batch was in progress.
    fenced: bool,
}

/// One observed outcome.
struct Seen {
    /// Arrival number within the round.
    seq: usize,
    pool: usize,
    latency_ns: u64,
    solutions: usize,
    hash: StreamHash,
    /// Why the query failed: rejected, or an error outcome.
    error: Option<String>,
    cache_hit: bool,
    epoch: Option<u64>,
    fenced: bool,
    stats: EnumStats,
}

/// One committed mutation batch.
struct Batch {
    ns: u64,
    invalidated: u64,
    retained: u64,
}

struct Setup {
    inputs: ServiceInputs,
    engine: EnumerationEngine,
    sessions: Vec<Session>,
}

/// Builds the serving graph and query pool, starts an engine with its
/// tenants, and warms its cache with the most popular queries. Returns
/// the set-up and the seconds the graph build took.
fn set_up() -> (Setup, f64) {
    let t = Timer::start();
    let inputs = inputs::service_inputs();
    let build = t.seconds();
    let engine = EnumerationEngine::new(inputs.graph.clone());
    let sessions: Vec<Session> = (0..TENANTS)
        .map(|k| engine.session(&format!("tenant{k}")))
        .collect();
    for q in inputs.pool.iter().take(WARM_QUERIES) {
        let _ = sessions[q.tenant].run(
            to_query(&q.spec, q.family),
            QueryOptions::default().limit(SERVICE_CAP),
        );
    }
    (
        Setup {
            inputs,
            engine,
            sessions,
        },
        build,
    )
}

/// Counters of one engine over one round.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    compactions: u64,
    /// Cache bytes when the round ended.
    bytes: u64,
    rejected: u64,
    deadline_exceeded: u64,
}

/// What one round observed.
struct Round {
    /// Outcomes in arrival order.
    seen: Vec<(Seen, Option<QueryOutcome>)>,
    /// Batches in schedule order.
    batches: Vec<Result<Batch, String>>,
    /// The edge each insertion batch added.
    inserted: Vec<(VertexId, VertexId)>,
    tracers: Vec<Tracer>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    in_flight: Vec<f64>,
    repeats: usize,
    wall: f64,
    cpu: f64,
    counters: Counters,
}

/// Runs the workload for `seconds` of offered load, in [`ROUNDS`] rounds.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let origin = Instant::now();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut rounds = Vec::new();
    let mut kept = None;
    for r in 0..ROUNDS {
        let t = Timer::start();
        let (setup, build) = set_up();
        setups.push(t.seconds());
        builds.push(build);
        let tag = trace.then_some((origin, 8 * r as u32));
        rounds.push(round(&setup, seed, seconds / ROUNDS as f64, tag));
        kept = Some(setup.inputs); // the engine drains and joins here
    }
    let peak_rss = sys::peak_rss_mb();
    let inputs = kept.expect("at least one round");
    report.set("setup_s", percentile(&mut setups, 0.5));
    report.set("graph.build_ms", percentile(&mut builds, 0.5) * 1e3);

    // Failures and output checks, round by round.
    let mut checked = 0;
    for r in &rounds {
        report.attempted += (r.seen.len() + r.batches.len()) as u64;
        for b in &r.batches {
            if let Err(e) = b {
                report.fail(format!("mutation batch failed: {e}"));
            }
        }
        for (s, _) in &r.seen {
            if let Some(why) = &s.error {
                report.fail(format!("query from pool slot {}: {why}", s.pool));
            }
        }
        checked += check_samples(&inputs, &r.inserted, &r.seen, &mut report);
    }
    report.note("checked_outcomes", checked as f64);

    // End-to-end metrics. Every arrival (and every batch) of the schedule
    // is one sample, with its fastest round among those it succeeded in.
    let ms = |s: &Seen| s.latency_ns as f64 / 1e6;
    let arrivals = rounds.iter().map(|r| r.seen.len()).max().unwrap_or(0);
    let mut per_arrival: Vec<(Vec<f64>, usize)> = vec![(Vec::new(), 0); arrivals];
    let mut solutions = 0usize;
    for r in &rounds {
        for (s, _) in r.seen.iter().filter(|(s, _)| s.error.is_none()) {
            per_arrival[s.seq].0.push(ms(s));
            per_arrival[s.seq].1 = s.solutions;
            solutions += s.solutions;
        }
    }
    let medians: Vec<(f64, usize)> = per_arrival
        .iter_mut()
        .filter(|(v, _)| !v.is_empty())
        .map(|(v, k)| (percentile(v, 0.0), *k))
        .collect();
    let mut latency: Vec<f64> = medians.iter().map(|m| m.0).collect();
    let mut ttfs: Vec<f64> = medians.iter().filter(|m| m.1 > 0).map(|m| m.0).collect();
    // The outcome arrives as one batch: each of its k solutions waited
    // latency / k on average.
    let mut gaps_us: Vec<f64> = Vec::new();
    for &(l, k) in medians.iter().filter(|m| m.1 > 0) {
        gaps_us.extend(std::iter::repeat_n(l * 1e3 / k as f64, k));
    }
    let batches = rounds.iter().map(|r| r.batches.len()).max().unwrap_or(0);
    let mut per_batch: Vec<Vec<f64>> = vec![Vec::new(); batches];
    for r in &rounds {
        for (b, x) in r.batches.iter().enumerate() {
            if let Ok(x) = x {
                per_batch[b].push(x.ns as f64 / 1e6);
            }
        }
    }
    let mut mutation: Vec<f64> = per_batch
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, 0.0))
        .collect();
    let wall: f64 = rounds.iter().map(|r| r.wall).sum();
    report.set("solutions_per_s", ratio(solutions as f64, wall));
    report.set("delay_p50_us", percentile(&mut gaps_us, 0.5));
    report.set("delay_p99_us", percentile(&mut gaps_us, 0.99));
    report.set("ttfs_p50_ms", percentile(&mut ttfs, 0.5));
    report.set("ttfs_p95_ms", percentile(&mut ttfs, 0.95));
    report.set("latency_p50_ms", percentile(&mut latency, 0.5));
    report.set("latency_p99_ms", percentile(&mut latency, 0.99));
    report.set("mutation_p50_ms", percentile(&mut mutation, 0.5));
    report.set("mutation_p90_ms", percentile(&mut mutation, 0.9));
    report.set("peak_rss_mb", peak_rss);
    let all_batches = || rounds.iter().flat_map(|r| r.batches.iter().flatten());
    let waited = all_batches().filter(|b| b.ns > 500_000).count();
    report.note(
        "share.mutation_over_0.5ms",
        ratio(waited as f64, all_batches().count() as f64),
    );
    let queries: usize = rounds.iter().map(|r| r.seen.len()).sum();
    report.note("rounds", ROUNDS as f64);
    report.note("queries", queries as f64);
    report.note("latency_samples", latency.len() as f64);
    report.note("mutation_samples", mutation.len() as f64);
    report.note("offered_per_s", OFFERED_PER_S);
    report.note("wall_s", wall);
    let sum = |f: &dyn Fn(&Counters) -> u64| rounds.iter().map(|r| f(&r.counters)).sum::<u64>();
    let (hits, misses) = (sum(&|c| c.hits), sum(&|c| c.misses));
    let hit_frac = ratio(hits as f64, (hits + misses) as f64);
    let repeats: usize = rounds.iter().map(|r| r.repeats).sum();
    report.note("share.repeat", ratio(repeats as f64, queries as f64));
    report.note("share.cache_hit", hit_frac);
    let mut late_ms: Vec<f64> = rounds.iter().flat_map(|r| r.late_ms.clone()).collect();
    report.set("loadgen.late_p99_ms", percentile(&mut late_ms, 0.99));

    if trace {
        let ok = || {
            rounds
                .iter()
                .flat_map(|r| r.seen.iter().map(|(s, _)| s))
                .filter(|s| s.error.is_none())
        };
        let mut miss_stats = EnumStats::default();
        for s in ok().filter(|s| !s.cache_hit) {
            miss_stats.merge(&s.stats);
        }
        let mut hit_ms: Vec<f64> = ok().filter(|s| s.cache_hit).map(ms).collect();
        let mut miss_ms: Vec<f64> = ok().filter(|s| !s.cache_hit).map(ms).collect();
        let mut fenced_ms: Vec<f64> = ok().filter(|s| s.fenced).map(ms).collect();
        let done: Vec<&Batch> = all_batches().collect();
        let n_batches = done.len().max(1) as f64;
        let mut submit_us: Vec<f64> = rounds.iter().flat_map(|r| r.submit_us.clone()).collect();
        let in_flight: Vec<f64> = rounds.iter().flat_map(|r| r.in_flight.clone()).collect();
        report.set("cache.hit_frac", hit_frac);
        report.set("cache.hit_latency_p50_ms", percentile(&mut hit_ms, 0.5));
        report.set("cache.miss_latency_p50_ms", percentile(&mut miss_ms, 0.5));
        report.set(
            "cache.bytes",
            rounds.iter().map(|r| r.counters.bytes).max().unwrap_or(0) as f64,
        );
        report.set("cache.evicted_entries", sum(&|c| c.evictions) as f64);
        report.set("cache.compactions", sum(&|c| c.compactions) as f64);
        report.set(
            "epoch.entries_invalidated_per_batch",
            done.iter().map(|b| b.invalidated).sum::<u64>() as f64 / n_batches,
        );
        report.set(
            "epoch.entries_retained_per_batch",
            done.iter().map(|b| b.retained).sum::<u64>() as f64 / n_batches,
        );
        report.set(
            "epoch.fenced_latency_p50_ms",
            percentile(&mut fenced_ms, 0.5),
        );
        report.set("service.submit_us_p50", percentile(&mut submit_us, 0.5));
        report.set("service.in_flight_mean", mean(&in_flight));
        report.set("service.rejected", sum(&|c| c.rejected) as f64);
        report.set(
            "service.deadline_exceeded",
            sum(&|c| c.deadline_exceeded) as f64,
        );
        report.set(
            "core.nodes_per_solution",
            ratio(miss_stats.nodes as f64, miss_stats.solutions as f64),
        );
        report.set(
            "core.deficient_internal_nodes",
            miss_stats.deficient_internal_nodes as f64,
        );
        report.set("core.scratch_allocs", miss_stats.scratch_allocs as f64);
        report.set(
            "paths.path_gen_work_per_solution",
            ratio(miss_stats.path_gen_work as f64, miss_stats.solutions as f64),
        );
        report.set(
            "paths.fstp_cache_hit_frac",
            ratio(
                miss_stats.fstp_cache_hits as f64,
                (miss_stats.fstp_cache_hits + miss_stats.fstp_cache_misses) as f64,
            ),
        );
        // Tracing cost, estimated: spans recorded times the measured
        // cost of one span, over the CPU time the run used.
        let cpu: f64 = rounds.iter().map(|r| r.cpu).sum();
        let tracers: Vec<Tracer> = rounds.into_iter().flat_map(|r| r.tracers).collect();
        let spans: u64 = tracers.iter().map(|t| t.calls.iter().sum::<u64>()).sum();
        report.set(
            "trace.overhead_frac",
            ratio(spans as f64 * span_cost_s(), cpu),
        );
        report.spans = tracers;
    }
    report
}

/// One round on a fresh engine: `seconds` of offered load. With
/// `trace`, spans are kept with the given origin, and span ids are
/// tagged from the given base.
fn round(setup: &Setup, seed: u64, seconds: f64, trace: Option<(Instant, u32)>) -> Round {
    let Setup {
        inputs,
        engine,
        sessions,
    } = setup;
    let cache0 = engine.cache_stats().0;
    let tracer = |tag: u32| trace.map(|(origin, base)| Tracer::with_origin(origin, base + tag));
    let mut_seq = AtomicU64::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let interval = Duration::from_secs_f64(1.0 / OFFERED_PER_S);
    let mut rng = steiner_bench::workloads::rng(seed ^ 0x10ad);
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(Ticket, Sent)>();
    let rx = Mutex::new(rx);
    let mut seen = Vec::new();
    let stop = AtomicBool::new(false);
    let mut late_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut in_flight = Vec::new();
    let mut repeats = 0usize;
    let mut drawn = vec![false; inputs.pool.len()];
    let arrivals = inputs.arrivals(&mut rng, (seconds * OFFERED_PER_S).ceil() as usize + 1);
    let origin = trace.map_or(t0, |(origin, _)| origin);
    let (batches, inserted, tracers) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut tr = tracer(1);
            let mut wrng = steiner_bench::workloads::rng(seed ^ 0x3417);
            let mut batches = Vec::new();
            let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
            let mut round: Vec<usize> = Vec::new();
            let m0 = inputs.graph.num_edges();
            let mut next = t0 + MUTATION_INTERVAL - MUTATION_LEAD;
            'batches: loop {
                loop {
                    if stop.load(Ordering::SeqCst) {
                        break 'batches;
                    }
                    let now = Instant::now();
                    if now >= next {
                        break;
                    }
                    std::thread::sleep((next - now).min(Duration::from_millis(5)));
                }
                next += MUTATION_INTERVAL;
                let edit = if batches.len() % 2 == 0 {
                    // Regions in rounds, each round in a seeded order, so
                    // every region takes the same share of insertions.
                    if round.is_empty() {
                        round = (0..inputs.regions.len()).collect();
                        for i in (1..round.len()).rev() {
                            round.swap(i, wrng.gen_range(0..i + 1));
                        }
                    }
                    let region = round.pop().expect("refilled above");
                    let (first, len) = inputs.regions[region];
                    let u = first + wrng.gen_range(0..len);
                    let v = first + (u - first + 1 + wrng.gen_range(0..len - 1)) % len;
                    inserted.push((VertexId::new(u), VertexId::new(v)));
                    GraphMutation::InsertEdge {
                        u: VertexId::new(u),
                        v: VertexId::new(v),
                    }
                } else {
                    GraphMutation::RemoveEdge(EdgeId::new(m0))
                };
                mut_seq.fetch_add(1, Ordering::SeqCst);
                if let Some(t) = tr.as_mut() {
                    t.open(Kind::Mutation);
                }
                let start = Instant::now();
                let out = engine.apply_mutations(&[edit]);
                let ns = start.elapsed().as_nanos() as u64;
                if let Some(t) = tr.as_mut() {
                    t.close();
                }
                mut_seq.fetch_add(1, Ordering::SeqCst);
                batches.push(
                    out.map(|o| Batch {
                        ns,
                        invalidated: o.entries_invalidated,
                        retained: o.entries_retained,
                    })
                    .map_err(|e| e.to_string()),
                );
            }
            (batches, inserted, tr)
        });
        // Waiters: each takes the next ticket and blocks until its outcome
        // arrives, so an outcome is seen when the engine delivers it, with
        // no polling thread competing with the workers for the cores.
        let waiters: Vec<_> = (0..WAITERS)
            .map(|w| {
                let rx = &rx;
                scope.spawn(move || {
                    let mut tr = tracer(2 + w as u32);
                    let mut seen: Vec<(Seen, Option<QueryOutcome>)> = Vec::new();
                    loop {
                        let next = rx.lock().expect("no waiter panics holding it").recv();
                        let Ok((ticket, sent)) = next else { break };
                        let outcome = ticket.wait();
                        let now = Instant::now();
                        let latency_ns = (now - sent.due).as_nanos() as u64;
                        if let Some(t) = tr.as_mut() {
                            t.set_query(sent.pool as u32);
                            t.open_at(Kind::Outcome, (sent.due - origin).as_nanos() as u64);
                            t.close_at((now - origin).as_nanos() as u64);
                        }
                        let edges = outcome.solutions.edges().unwrap_or(&[]);
                        let record = Seen {
                            seq: sent.seq,
                            pool: sent.pool,
                            latency_ns,
                            solutions: edges.len(),
                            hash: StreamHash::of(edges),
                            error: outcome.status.as_ref().err().map(|e| e.to_string()),
                            cache_hit: outcome.stats.cache_hits > 0,
                            epoch: sent.epoch,
                            fenced: sent.fenced,
                            stats: outcome.stats,
                        };
                        let keep = record.epoch.is_some() && sent.seq.is_multiple_of(SAMPLE_EVERY);
                        seen.push((record, keep.then_some(outcome)));
                    }
                    (seen, tr)
                })
            })
            .collect();

        // The generator: this thread.
        let mut tr = tracer(0);
        let mut j = 0u32;
        loop {
            let due = t0 + interval * j;
            j += 1;
            if due >= t0 + budget {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let started = Instant::now();
            late_ms.push((started - due).as_secs_f64() * 1e3);
            let pool = arrivals[j as usize - 1];
            repeats += usize::from(drawn[pool]);
            drawn[pool] = true;
            in_flight.push(engine.in_flight() as f64);
            let q = &inputs.pool[pool];
            let query = to_query(&q.spec, q.family);
            let opts = QueryOptions::default()
                .limit(SERVICE_CAP)
                .deadline(due + DEADLINE);
            let before = mut_seq.load(Ordering::SeqCst);
            if let Some(t) = tr.as_mut() {
                t.set_query(pool as u32);
                t.open(Kind::Submit);
            }
            let s = Instant::now();
            let ticket = sessions[q.tenant].submit(query, opts);
            submit_us.push(s.elapsed().as_secs_f64() * 1e6);
            if let Some(t) = tr.as_mut() {
                t.close();
            }
            let after = mut_seq.load(Ordering::SeqCst);
            let sent = Sent {
                seq: j as usize - 1,
                pool,
                due,
                epoch: (before == after && before.is_multiple_of(2)).then_some(before / 2),
                fenced: before % 2 == 1 || before != after,
            };
            match ticket {
                Ok(ticket) => tx
                    .send((ticket, sent))
                    .expect("waiters outlive the generator"),
                Err(e) => seen.push((rejected(sent, e.to_string()), None)),
            }
        }
        drop(tx);
        stop.store(true, Ordering::SeqCst);
        let (batches, inserted, wtr) = writer.join().expect("writer thread panicked");
        let mut tracers: Vec<Tracer> = [tr, wtr].into_iter().flatten().collect();
        for w in waiters {
            let (s, wtr) = w.join().expect("waiter thread panicked");
            seen.extend(s);
            tracers.extend(wtr);
        }
        (batches, inserted, tracers)
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu0;
    // Outcomes in arrival order, as the generator sent them.
    seen.sort_by_key(|(s, _)| s.seq);
    engine.wait_idle();
    let cache1 = engine.cache_stats().0;
    let tenants = engine.tenants();
    Round {
        seen,
        batches,
        inserted,
        tracers,
        late_ms,
        submit_us,
        in_flight,
        repeats,
        wall,
        cpu,
        counters: Counters {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            evictions: cache1.evictions - cache0.evictions,
            compactions: cache1.compactions - cache0.compactions,
            bytes: cache1.bytes,
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            deadline_exceeded: tenants.iter().map(|t| t.deadline_exceeded).sum(),
        },
    }
}

fn rejected(sent: Sent, why: String) -> Seen {
    Seen {
        seq: sent.seq,
        pool: sent.pool,
        latency_ns: 0,
        solutions: 0,
        hash: StreamHash::default(),
        error: Some(why),
        cache_hit: false,
        epoch: None,
        fenced: sent.fenced,
        stats: EnumStats::default(),
    }
}

/// Seconds one open/close span pair costs on this host.
fn span_cost_s() -> f64 {
    let mut t = Tracer::default();
    let n = 100_000;
    let timer = Timer::start();
    for _ in 0..n {
        t.open(Kind::Submit);
        t.close();
    }
    timer.seconds() / n as f64
}

/// Compares the sampled outcomes of one round with one-shot runs against
/// the graph as of their epoch, and checks those reference streams.
/// Returns how many outcomes it compared.
fn check_samples(
    inputs: &ServiceInputs,
    inserted: &[(VertexId, VertexId)],
    seen: &[(Seen, Option<QueryOutcome>)],
    report: &mut Report,
) -> usize {
    let mut refs: HashMap<(usize, u64), check::Checked> = HashMap::new();
    let mut compared = 0;
    for (s, outcome) in seen {
        let (Some(epoch), Some(_)) = (s.epoch, outcome) else {
            continue;
        };
        if compared == MAX_SAMPLES || s.error.is_some() {
            continue;
        }
        compared += 1;
        // After an odd number of batches the newest insertion is live.
        let state = if epoch % 2 == 1 { epoch } else { 0 };
        let q = &inputs.pool[s.pool];
        let checked = refs.entry((s.pool, state)).or_insert_with(|| {
            let mut g = inputs.graph.clone();
            if state > 0 {
                let (u, v) = inserted[(state as usize - 1) / 2];
                g.add_edge(u, v).expect("inserted endpoints are in range");
            }
            check::check_edges(q.family, &q.spec, &g, SERVICE_CAP).unwrap_or(check::Checked {
                hash: StreamHash(0),
                solutions: u64::MAX,
                defects: 1,
            })
        });
        if checked.defects > 0 {
            report.wrong(format!(
                "pool slot {}: reference stream has defects",
                s.pool
            ));
        }
        if (checked.hash, checked.solutions) != (s.hash, s.solutions as u64) {
            report.wrong(format!(
                "pool slot {} at epoch {epoch}: served stream ({} solutions) differs from one-shot ({})",
                s.pool, s.solutions, checked.solutions
            ));
        }
    }
    compared
}
