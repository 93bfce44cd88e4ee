//! The `oneshot` workload: a closed loop with one caller thread running
//! cold, capped, sequential `Enumeration` queries.
//!
//! The traced run drives each query three times: once through the public
//! builder; once through [`mirror`], a copy of the engine's Algorithm-3
//! recursion written over the public `MinimalSteinerProblem` methods with
//! a span around every `prepare`, `classify`, `branch` and emission; and
//! once sharded over [`SHARD_THREADS`] threads with work stealing, for
//! the `steal.*` and `merge.*` counters. All three streams must be
//! identical.

use std::hash::Hash;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use steiner_core::{
    DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, NodeStep, Prepared,
    SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use steiner_graph::epoch::{ArcMutation, GraphMutation};
use steiner_graph::{ArcId, EdgeId};

use crate::check::{self, StreamHash};
use crate::inputs::{self, Family, Host, OneshotQuery, Spec, Structure, ONESHOT_CAP};
use crate::report::{Report, Timer};
use crate::stats::{percentile, ratio, Histogram};
use crate::sys;
use crate::trace::{Kind, Tracer};

/// Runs a closure over the query's problem value, whatever its type.
trait Visit {
    type Out;
    fn visit<P>(self, p: P) -> Self::Out
    where
        P: MinimalSteinerProblem + Send,
        P::Item: Send + Hash;
}

fn dispatch<V: Visit>(q: &OneshotQuery, v: V) -> V::Out {
    match (&q.host, &q.spec, q.family) {
        (Host::Undirected(g), Spec::Terminals(w), Family::Tree) => {
            v.visit(SteinerTree::new(g.graph(), w))
        }
        (Host::Undirected(g), Spec::Terminals(w), Family::Terminal) => {
            v.visit(TerminalSteinerTree::new(g.graph(), w))
        }
        (Host::Undirected(g), Spec::Sets(sets), Family::Forest) => {
            v.visit(SteinerForest::new(g.graph(), sets))
        }
        (Host::Directed(d), Spec::Rooted(root, w), Family::Directed) => {
            v.visit(DirectedSteinerTree::new(d.digraph(), *root, w))
        }
        _ => unreachable!("query specs are built per family"),
    }
}

/// The caller's sink: timestamps every solution and folds it into the
/// stream fingerprint. Both the builder run and the mirrored run use it,
/// so they pay the same per-solution cost.
struct Sink<'a> {
    start: Instant,
    last: Instant,
    first_ns: Option<u64>,
    hash: StreamHash,
    delivered: u64,
    gaps: &'a mut Vec<u64>,
}

impl<'a> Sink<'a> {
    fn new(gaps: &'a mut Vec<u64>) -> Self {
        gaps.clear();
        let now = Instant::now();
        Sink {
            start: now,
            last: now,
            first_ns: None,
            hash: StreamHash::default(),
            delivered: 0,
            gaps,
        }
    }

    fn deliver<T: Hash>(&mut self, items: &[T]) {
        let now = Instant::now();
        self.gaps.push((now - self.last).as_nanos() as u64);
        if self.first_ns.is_none() {
            self.first_ns = Some((now - self.start).as_nanos() as u64);
        }
        self.last = now;
        self.hash.push(items);
        self.delivered += 1;
    }

    fn finish(self, stats: EnumStats) -> QueryRun {
        QueryRun {
            ttfs_ns: self.first_ns,
            total_ns: self.start.elapsed().as_nanos() as u64,
            solutions: self.delivered,
            hash: self.hash,
            stats,
            prepare_ns: 0,
        }
    }
}

/// What one query run delivered and cost.
#[derive(Clone, Copy, Debug)]
pub struct QueryRun {
    /// Call to first solution, if any was delivered.
    pub ttfs_ns: Option<u64>,
    /// Call to return.
    pub total_ns: u64,
    /// Solutions delivered.
    pub solutions: u64,
    /// Fingerprint of the delivered stream.
    pub hash: StreamHash,
    /// The engine's counters for the run.
    pub stats: EnumStats,
    /// `prepare` duration (mirrored runs only).
    pub prepare_ns: u64,
}

/// A builder run: `Enumeration::new(p).with_limit(cap)`; when
/// `threads > 1`, sharded with second-level work stealing under its
/// default (adaptive) policy.
struct Builder<'a> {
    threads: usize,
    gaps: &'a mut Vec<u64>,
}

impl Visit for Builder<'_> {
    type Out = Result<QueryRun, SteinerError>;
    fn visit<P>(self, p: P) -> Self::Out
    where
        P: MinimalSteinerProblem + Send,
        P::Item: Send + Hash,
    {
        let mut e = Enumeration::new(p).with_limit(ONESHOT_CAP);
        if self.threads > 1 {
            e = e.with_threads(self.threads).with_stealing(true);
        }
        let mut sink = Sink::new(self.gaps);
        let stats = e.for_each(|items| {
            sink.deliver(items);
            ControlFlow::Continue(())
        })?;
        Ok(sink.finish(stats))
    }
}

/// The mirrored, traced run.
struct Mirror<'a> {
    tracer: &'a mut Tracer,
    gaps: &'a mut Vec<u64>,
}

struct Cx<'a, 'b> {
    tracer: &'a mut Tracer,
    sink: Sink<'b>,
}

impl Cx<'_, '_> {
    /// Delivers one solution under the builder's limit rule: stop once
    /// `ONESHOT_CAP` solutions went out.
    fn deliver<T: Hash>(&mut self, items: &[T]) -> ControlFlow<()> {
        self.sink.deliver(items);
        if self.sink.delivered >= ONESHOT_CAP {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

impl Visit for Mirror<'_> {
    type Out = Result<QueryRun, SteinerError>;
    fn visit<P>(self, mut p: P) -> Self::Out
    where
        P: MinimalSteinerProblem + Send,
        P::Item: Send + Hash,
    {
        let tracer = self.tracer;
        let sink = Sink::new(self.gaps);
        tracer.open(Kind::Query);
        tracer.open(Kind::Prepare);
        let prepared = p.prepare();
        let prepare_ns = tracer.close();
        let prepared = match prepared {
            Ok(x) => x,
            Err(e) => {
                tracer.close();
                return Err(e);
            }
        };
        let mut cx = Cx { tracer, sink };
        match prepared {
            Prepared::Empty => {}
            Prepared::Single(mut items) => {
                cx.tracer.open(Kind::Emit);
                items.sort_unstable();
                p.stats_mut().note_emission();
                let _ = cx.deliver(&items);
                cx.tracer.close();
            }
            Prepared::Search => {
                let (n, _) = p.instance_size();
                let mut scratch = Vec::with_capacity(n + 1);
                let _ = mirror(&mut p, 0, &mut cx, &mut scratch);
            }
        }
        p.seal_stats();
        p.stats_mut().note_end();
        let Cx { tracer, sink } = cx;
        let mut run = sink.finish(*p.stats());
        tracer.close();
        run.prepare_ns = prepare_ns;
        Ok(run)
    }
}

/// `steiner_core::solver`'s node recursion, over public trait methods,
/// with one span per call.
fn mirror<P: MinimalSteinerProblem>(
    p: &mut P,
    depth: u32,
    cx: &mut Cx<'_, '_>,
    scratch: &mut Vec<P::Item>,
) -> ControlFlow<()>
where
    P::Item: Hash,
{
    scratch.clear();
    cx.tracer.open(Kind::Classify);
    let step = p.classify(scratch);
    cx.tracer.close();
    match step {
        NodeStep::Complete => {
            p.stats_mut().note_node(0, depth);
            cx.tracer.open(Kind::Emit);
            scratch.clear();
            p.solution(scratch);
            if !P::SORTED_SOLUTIONS {
                scratch.sort_unstable();
            }
            p.stats_mut().note_emission();
            let flow = cx.deliver(scratch);
            cx.tracer.close();
            flow
        }
        NodeStep::Unique => {
            p.stats_mut().note_node(0, depth);
            cx.tracer.open(Kind::Emit);
            scratch.sort_unstable();
            p.stats_mut().note_emission();
            let flow = cx.deliver(scratch);
            cx.tracer.close();
            flow
        }
        NodeStep::Branch(at) => {
            cx.tracer.open(Kind::Branch);
            let (children, flow) = p.branch(at, &mut |q| mirror(q, depth + 1, cx, scratch));
            cx.tracer.close();
            p.stats_mut().note_node(children, depth);
            flow
        }
    }
}

/// Inserts the query's probe edge (or arc) and removes it again, newest
/// id first so nothing is renumbered. Returns the two batches' summed
/// duration: one sample per probe, because a removal costs about three
/// insertions and a median over both kinds would fall between the two.
fn mutation_probe(q: &mut OneshotQuery) -> Result<u64, String> {
    let (u, v) = q.probe;
    let time = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<u64, String> {
        let t = Instant::now();
        f()?;
        Ok(t.elapsed().as_nanos() as u64)
    };
    match &mut q.host {
        Host::Undirected(g) => {
            let id = EdgeId::new(g.graph().num_edges());
            let ins = time(&mut || {
                g.batch_apply(&[GraphMutation::InsertEdge { u, v }])
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?;
            let del = time(&mut || {
                g.batch_apply(&[GraphMutation::RemoveEdge(id)])
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?;
            Ok(ins + del)
        }
        Host::Directed(d) => {
            let id = ArcId::new(d.digraph().num_arcs());
            let ins = time(&mut || {
                d.batch_apply(&[ArcMutation::InsertArc { tail: u, head: v }])
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?;
            let del = time(&mut || {
                d.batch_apply(&[ArcMutation::RemoveArc(id)])
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?;
            Ok(ins + del)
        }
    }
}

/// Queries between two repetitions of the set-up.
const SETUP_EVERY: usize = 384;

/// Threads of the sharded runs (traced run and output check).
pub const SHARD_THREADS: usize = 2;

/// The output check runs every `SHARD_CHECK_EVERY`-th query sharded too.
const SHARD_CHECK_EVERY: usize = 8;

/// Size buckets (`n + m` upper bounds) of the linear-delay check.
pub const SIZE_BUCKETS: [(usize, &str); 4] = [
    (300, "nm_lt300"),
    (900, "nm_lt900"),
    (1800, "nm_lt1800"),
    (usize::MAX, "nm_ge1800"),
];

fn size_bucket(size: usize) -> usize {
    SIZE_BUCKETS
        .iter()
        .position(|&(hi, _)| size < hi)
        .expect("last bucket is unbounded")
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Layers {
    /// Self nanoseconds per (family, kind) and (structure, kind).
    by_family: [[u64; crate::trace::KINDS]; 4],
    by_structure: [[u64; crate::trace::KINDS]; 4],
    prepare_ms: Vec<f64>,
    /// Gaps in milli-nanoseconds per unit of `n + m`, per size bucket.
    per_nm: [Histogram; 4],
    traced_ns: u64,
    untraced_ns: u64,
    stream_mismatches: u64,
    /// Sharded runs: summed counters, gaps, process CPU and wall seconds.
    sharded: EnumStats,
    sharded_gaps: Histogram,
    sharded_cpu_s: f64,
    sharded_wall_s: f64,
}

/// The one-shot workload.
///
/// The loop cycles through the query list until `seconds` have passed,
/// so each query runs several times (one run per pass). A query's time
/// figures are the medians over its runs, so a scheduling hiccup on the
/// shared host moves one run of one query, not the query's figure.
/// After each query it runs the query's mutation probe, so the probe's
/// walk over the graph does not warm it for the timed query.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    // Set-up: generate the query list (graphs, terminals, epoch wrappers).
    // It is repeated every `SETUP_EVERY` queries; the median is reported.
    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| {
        let t = Timer::start();
        let queries = inputs::oneshot_queries(seed);
        setups.push(t.seconds());
        queries
    };
    let mut queries = set_up(&mut setups);

    let mut gaps_buf: Vec<u64> = Vec::with_capacity(ONESHOT_CAP as usize + 1);
    // Warm-up: code pages, allocator arenas, thread stacks.
    for q in queries.iter().take(16) {
        let _ = dispatch(
            q,
            Builder {
                threads: 1,
                gaps: &mut gaps_buf,
            },
        );
    }

    let mut tracer = trace.then(Tracer::default);
    let mut layers = Layers::default();
    let mut runs: Vec<(usize, QueryRun)> = Vec::new();
    // Gaps per pass over the query list: the k-th run of every query.
    let mut pass_gaps: Vec<Histogram> = Vec::new();
    // Mutation-probe nanoseconds per query, one sample per run.
    let mut probe_ns: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut k = 0usize;
    while t0.elapsed() < budget {
        let (pass, i) = (k / queries.len(), k % queries.len());
        k += 1;
        if i.is_multiple_of(SETUP_EVERY) && k > 1 {
            drop(set_up(&mut setups));
        }
        if i == 0 {
            pass_gaps.push(Histogram::default());
        }
        let q = &queries[i];
        report.attempted += 1;
        if let Some(tr) = tracer.as_mut() {
            tr.set_query(i as u32);
        }
        let run = match tracer.as_mut() {
            None => dispatch(
                q,
                Builder {
                    threads: 1,
                    gaps: &mut gaps_buf,
                },
            ),
            Some(tr) => traced_runs(q, i, tr, &mut layers, &mut gaps_buf),
        };
        match run {
            Ok(run) => {
                for &g in &gaps_buf {
                    pass_gaps[pass].record(g);
                }
                if trace {
                    let b = size_bucket(q.size);
                    for &g in &gaps_buf {
                        layers.per_nm[b].record(g * 1000 / q.size as u64);
                    }
                }
                runs.push((i, run));
            }
            Err(e) => report.fail(format!("query {i}: {e}")),
        }
        report.attempted += 2;
        if let Some(tr) = tracer.as_mut() {
            tr.open(Kind::Mutation);
        }
        match mutation_probe(&mut queries[i]) {
            Ok(ns) => probe_ns[i].push(ns),
            Err(e) => report.fail(format!("mutation probe on query {i}: {e}")),
        }
        if let Some(tr) = tracer.as_mut() {
            tr.close();
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let peak_rss = sys::peak_rss_mb();

    check_streams(&queries, &runs, &mut report);
    if layers.stream_mismatches > 0 {
        report.wrong(format!(
            "{} traced or sharded streams differ from their untraced runs",
            layers.stream_mismatches
        ));
    }

    // End-to-end metrics. Every query that ran is one sample, with its
    // medians over its runs; solutions are the same in every run (the
    // stream check above holds them to the reference).
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut per_query: Vec<Vec<&QueryRun>> = vec![Vec::new(); queries.len()];
    for (i, r) in &runs {
        per_query[*i].push(r);
    }
    let median_of = |v: &mut Vec<f64>| percentile(v, 0.5);
    let mut solutions = 0u64;
    let mut busy_ms = 0.0;
    let mut ttfs = Vec::new();
    let mut latency = Vec::new();
    let mut query_ms = vec![0.0; queries.len()];
    for (i, rs) in per_query.iter().enumerate() {
        let Some(first) = rs.first() else { continue };
        let total = median_of(&mut rs.iter().map(|r| ms(r.total_ns)).collect());
        solutions += first.solutions;
        busy_ms += total;
        query_ms[i] = total;
        latency.push(total);
        let mut firsts: Vec<f64> = rs.iter().filter_map(|r| r.ttfs_ns.map(ms)).collect();
        if !firsts.is_empty() {
            ttfs.push(median_of(&mut firsts));
        }
    }
    let mut mutation_ms: Vec<f64> = probe_ns
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median_of(&mut v.iter().map(|&ns| ms(ns)).collect()))
        .collect();
    // Delay percentiles: pooled over all queries of a pass, median over
    // the whole passes (the partial last pass when none is whole).
    let whole = runs.len() / queries.len();
    let passes = &pass_gaps[..whole.max(1).min(pass_gaps.len())];
    let pass_q = |q: f64| median_of(&mut passes.iter().map(|h| h.quantile(q)).collect());
    report.set("setup_s", percentile(&mut setups, 0.5));
    report.set("graph.build_ms", percentile(&mut setups, 0.5) * 1e3);
    report.set("solutions_per_s", ratio(solutions as f64, busy_ms / 1e3));
    report.set("delay_p50_us", pass_q(0.5) / 1e3);
    report.set("delay_p99_us", pass_q(0.99) / 1e3);
    report.set("ttfs_p50_ms", percentile(&mut ttfs, 0.5));
    report.set("ttfs_p95_ms", percentile(&mut ttfs, 0.95));
    report.set("latency_p50_ms", percentile(&mut latency, 0.5));
    report.set("latency_p99_ms", percentile(&mut latency, 0.99));
    report.set("mutation_p50_ms", percentile(&mut mutation_ms, 0.5));
    report.set("mutation_p90_ms", percentile(&mut mutation_ms, 0.9));
    report.set("peak_rss_mb", peak_rss);
    report.note("runs", runs.len() as f64);
    report.note("passes", runs.len() as f64 / queries.len() as f64);
    report.note("queries_counted", latency.len() as f64);
    report.note(
        "delay_samples",
        passes.iter().map(Histogram::count).sum::<u64>() as f64,
    );
    report.note("delay_passes", passes.len() as f64);
    report.note("setup_samples", setups.len() as f64);
    report.note("wall_s", wall);

    // Input-property shares, by family and by structure.
    let share = |pick: &dyn Fn(usize) -> bool| {
        (0..queries.len())
            .filter(|&i| pick(i))
            .filter_map(|i| per_query[i].first().map(|r| (r.solutions, query_ms[i])))
            .fold((0, 0.0), |(s, t), (sol, q)| (s + sol, t + q))
    };
    for fam in Family::ALL {
        let (sol, t) = share(&|i| queries[i].family == fam);
        report.note(
            &format!("share.solutions.{}", fam.name()),
            ratio(sol as f64, solutions as f64),
        );
        report.note(&format!("share.time.{}", fam.name()), ratio(t, busy_ms));
    }
    for st in Structure::ALL {
        let (sol, t) = share(&|i| queries[i].structure == st);
        report.note(
            &format!("share.solutions.{}", st.name()),
            ratio(sol as f64, solutions as f64),
        );
        report.note(&format!("share.time.{}", st.name()), ratio(t, busy_ms));
    }

    if let Some(tr) = tracer {
        layer_metrics(&mut report, &queries, &runs, &layers, &tr);
        report.spans.push(tr);
    }
    report
}

/// Runs one query untraced and traced, in alternating order so neither
/// side always runs with warm caches, then sharded; checks the three
/// streams agree. Returns the untraced run, whose gaps are left in `gaps`.
fn traced_runs(
    q: &OneshotQuery,
    i: usize,
    tr: &mut Tracer,
    layers: &mut Layers,
    gaps: &mut Vec<u64>,
) -> Result<QueryRun, SteinerError> {
    let mut other_gaps = Vec::with_capacity(gaps.capacity());
    let before = tr.self_ns;
    let plain = |gaps: &mut Vec<u64>| dispatch(q, Builder { threads: 1, gaps });
    let (plain, traced) = if i.is_multiple_of(2) {
        let plain = plain(gaps);
        let traced = dispatch(
            q,
            Mirror {
                tracer: tr,
                gaps: &mut other_gaps,
            },
        );
        (plain, traced)
    } else {
        let traced = dispatch(
            q,
            Mirror {
                tracer: tr,
                gaps: &mut other_gaps,
            },
        );
        (plain(gaps), traced)
    };
    let plain = plain?;
    let traced = traced?;
    if (traced.hash, traced.solutions) != (plain.hash, plain.solutions) {
        layers.stream_mismatches += 1;
    }
    layers.untraced_ns += plain.total_ns;
    layers.traced_ns += traced.total_ns;
    for (k, (now, was)) in tr.self_ns.iter().zip(before).enumerate() {
        layers.by_family[q.family as usize][k] += now - was;
        layers.by_structure[q.structure as usize][k] += now - was;
    }
    layers.prepare_ms.push(traced.prepare_ns as f64 / 1e6);

    tr.open(Kind::Query);
    let cpu0 = sys::cpu_seconds();
    let sharded = dispatch(
        q,
        Builder {
            threads: SHARD_THREADS,
            gaps: &mut other_gaps,
        },
    );
    layers.sharded_cpu_s += sys::cpu_seconds() - cpu0;
    tr.close();
    let sharded = sharded?;
    if (sharded.hash, sharded.solutions) != (plain.hash, plain.solutions) {
        layers.stream_mismatches += 1;
    }
    layers.sharded_wall_s += sharded.total_ns as f64 / 1e9;
    layers.sharded.merge(&sharded.stats);
    for &g in &other_gaps {
        layers.sharded_gaps.record(g);
    }
    Ok(QueryRun {
        stats: traced.stats,
        ..plain
    })
}

/// Re-runs every query that ran, sequentially and untimed, checks the
/// reference stream (distinct solutions, oracle sample) and compares
/// every timed stream of that query against it, and a sharded run of
/// every `SHARD_CHECK_EVERY`-th query.
fn check_streams(queries: &[OneshotQuery], records: &[(usize, QueryRun)], report: &mut Report) {
    let mut seen: Vec<Option<check::Checked>> = vec![None; queries.len()];
    for &(i, ref run) in records {
        if seen[i].is_none() {
            let q = &queries[i];
            let checked = match &q.host {
                Host::Undirected(g) => {
                    check::check_edges(q.family, &q.spec, g.graph(), ONESHOT_CAP)
                }
                Host::Directed(d) => check::check_arcs(&q.spec, d.digraph(), ONESHOT_CAP),
            };
            match checked {
                Ok(c) => {
                    if c.defects > 0 {
                        report.wrong(format!("query {i}: {} defective solutions", c.defects));
                    }
                    if i.is_multiple_of(SHARD_CHECK_EVERY) {
                        let mut gaps = Vec::new();
                        let sharded = dispatch(
                            q,
                            Builder {
                                threads: SHARD_THREADS,
                                gaps: &mut gaps,
                            },
                        );
                        match sharded {
                            Ok(r) if (r.hash, r.solutions) == (c.hash, c.solutions) => {}
                            Ok(r) => report.wrong(format!(
                                "query {i}: sharded stream ({} solutions) differs from the sequential reference ({})",
                                r.solutions, c.solutions
                            )),
                            Err(e) => report.wrong(format!("query {i}: sharded run failed: {e}")),
                        }
                    }
                    seen[i] = Some(c);
                }
                Err(e) => {
                    report.wrong(format!("query {i}: reference run failed: {e}"));
                    continue;
                }
            }
        }
        let c = seen[i].expect("filled above");
        if (c.hash, c.solutions) != (run.hash, run.solutions) {
            report.wrong(format!(
                "query {i}: stream ({} solutions) differs from the sequential reference ({})",
                run.solutions, c.solutions
            ));
        }
    }
}

fn layer_metrics(
    report: &mut Report,
    queries: &[OneshotQuery],
    records: &[(usize, QueryRun)],
    layers: &Layers,
    tr: &Tracer,
) {
    let mut total = EnumStats::default();
    let mut bridged = EnumStats::default();
    let mut peak_scratch = 0u64;
    for (i, r) in records {
        total.merge(&r.stats);
        peak_scratch = peak_scratch.max(r.stats.peak_scratch_bytes);
        if queries[*i].structure == Structure::Bridged {
            bridged.merge(&r.stats);
        }
    }
    let s = |ns: u64| ns as f64 / 1e9;
    let core_kinds = [
        (Kind::Prepare, "prepare"),
        (Kind::Classify, "classify"),
        (Kind::Branch, "branch"),
        (Kind::Emit, "emit"),
    ];
    for (kind, name) in core_kinds {
        report.set(&format!("core.{name}.self_s"), s(tr.self_ns[kind as usize]));
        for f in Family::ALL {
            let v = layers.by_family[f as usize][kind as usize];
            report.set(&format!("core.{name}.self_s.{}", f.name()), s(v));
        }
        for st in Structure::ALL {
            let v = layers.by_structure[st as usize][kind as usize];
            report.set(&format!("core.{name}.self_s.{}", st.name()), s(v));
        }
    }
    report.set(
        "core.classify.calls",
        tr.calls[Kind::Classify as usize] as f64,
    );
    report.set("core.branch.calls", tr.calls[Kind::Branch as usize] as f64);
    let mut prep = layers.prepare_ms.clone();
    report.set("core.prepare.ms_p50", percentile(&mut prep, 0.5));
    for (b, (_, name)) in SIZE_BUCKETS.iter().enumerate() {
        let v = layers.per_nm[b].quantile(0.99) / 1e3;
        report.set(&format!("core.solver.delay_p99_ns_per_nm.{name}"), v);
    }
    report.set(
        "core.nodes_per_solution",
        ratio(total.nodes as f64, total.solutions as f64),
    );
    report.set(
        "core.deficient_internal_nodes",
        total.deficient_internal_nodes as f64,
    );
    report.set(
        "core.classify.incremental_frac",
        ratio(
            bridged.classify_incremental as f64,
            (bridged.classify_incremental + bridged.classify_rebuilds) as f64,
        ),
    );
    report.set("core.scratch_allocs", total.scratch_allocs as f64);
    report.set("core.peak_scratch_kb", peak_scratch as f64 / 1024.0);
    report.set(
        "paths.path_gen_work_per_solution",
        ratio(total.path_gen_work as f64, total.solutions as f64),
    );
    report.set(
        "paths.fstp_cache_hit_frac",
        ratio(
            total.fstp_cache_hits as f64,
            (total.fstp_cache_hits + total.fstp_cache_misses) as f64,
        ),
    );
    let sharded = &layers.sharded;
    report.set("steal.subtrees_stolen", sharded.subtrees_stolen as f64);
    report.set(
        "steal.failure_frac",
        ratio(
            sharded.steal_failures as f64,
            (sharded.subtrees_stolen + sharded.steal_failures) as f64,
        ),
    );
    report.set(
        "steal.cpu_util",
        ratio(layers.sharded_cpu_s, layers.sharded_wall_s),
    );
    report.set(
        "merge.burst_frac",
        ratio(
            layers.sharded_gaps.count_below(200) as f64,
            layers.sharded_gaps.count() as f64,
        ),
    );
    report.set(
        "trace.overhead_frac",
        ratio(layers.traced_ns as f64, layers.untraced_ns as f64) - 1.0,
    );
}
