//! In-memory span recording for the traced runs.
//!
//! A span is one call into a layer: its kind, the query it served, its
//! parent span, and its start and end on a monotonic clock. The tracer
//! keeps a stack of open spans and charges each span's *self time* — its
//! duration minus the part covered by its children — to its kind as the
//! span closes, so per-layer totals need no post-processing. The first
//! [`SPAN_LOG_CAP`] spans are also kept verbatim and written out when the
//! run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries a span can mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole query, from the call to its return.
    Query = 0,
    /// `MinimalSteinerProblem::prepare`.
    Prepare,
    /// `MinimalSteinerProblem::classify`.
    Classify,
    /// `MinimalSteinerProblem::branch`: path generation plus
    /// descend/retract, children excluded.
    Branch,
    /// Emission: `solution()`, the canonicalizing sort and the sink.
    Emit,
    /// `Session::submit`.
    Submit,
    /// Waiting for and receiving a query outcome.
    Outcome,
    /// `EnumerationEngine::apply_mutations` or `EpochGraph::batch_apply`.
    Mutation,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 8;

impl Kind {
    /// The name written to the span log.
    pub fn name(self) -> &'static str {
        [
            "query", "prepare", "classify", "branch", "emit", "submit", "outcome", "mutation",
        ][self as usize]
    }
}

/// Spans kept verbatim for the span log.
pub const SPAN_LOG_CAP: usize = 200_000;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Dense id in opening order.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Which layer boundary.
    pub kind: Kind,
    /// The query (workload-defined index) this span served.
    pub query: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

struct Open {
    id: u32,
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
}

/// Span stack plus per-kind totals.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    next_id: u32,
    query: u32,
    /// Self nanoseconds charged to each kind.
    pub self_ns: [u64; KINDS],
    /// Spans closed per kind.
    pub calls: [u64; KINDS],
    log: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_origin(Instant::now(), 0)
    }
}

impl Tracer {
    /// A tracer whose clock starts at `origin` and whose span ids start at
    /// `tag << 24`, so tracers of different threads sharing one origin
    /// write one consistent span log.
    pub fn with_origin(origin: Instant, tag: u32) -> Self {
        Tracer {
            origin,
            stack: Vec::with_capacity(256),
            next_id: tag << 24,
            query: 0,
            self_ns: [0; KINDS],
            calls: [0; KINDS],
            log: Vec::with_capacity(SPAN_LOG_CAP),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `query`.
    pub fn set_query(&mut self, query: u32) {
        self.query = query;
    }

    /// Opens a span of `kind` now.
    pub fn open(&mut self, kind: Kind) {
        let t = self.now_ns();
        self.open_at(kind, t);
    }

    /// Closes the innermost open span now, returning its duration.
    pub fn close(&mut self) -> u64 {
        let t = self.now_ns();
        self.close_at(t)
    }

    /// Opens a span of `kind` at time `t`.
    pub fn open_at(&mut self, kind: Kind, t: u64) {
        self.stack.push(Open {
            id: self.next_id,
            kind,
            start_ns: t,
            child_ns: 0,
        });
        self.next_id = self.next_id.wrapping_add(1);
    }

    /// Closes the innermost open span at time `t`: charges its self time
    /// to its kind and its whole duration to its parent's children.
    pub fn close_at(&mut self, t: u64) -> u64 {
        let open = self.stack.pop().expect("close without a matching open");
        let dur = t.saturating_sub(open.start_ns);
        self.self_ns[open.kind as usize] += dur.saturating_sub(open.child_ns);
        self.calls[open.kind as usize] += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.log.len() < SPAN_LOG_CAP {
            self.log.push(Span {
                id: open.id,
                parent,
                kind: open.kind,
                query: self.query,
                start_ns: open.start_ns,
                end_ns: t,
            });
        }
        dur
    }

    /// The spans kept so far, in closing order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.log
    }
}

/// Writes the kept spans of `tracers` as one CSV file
/// (`id,parent,kind,query,start_ns,end_ns`; `parent` is empty for a root
/// span).
pub fn write_csv(tracers: &[Tracer], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,kind,query,start_ns,end_ns")?;
    for s in tracers.iter().flat_map(|t| &t.log) {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id,
            parent,
            s.kind.name(),
            s.query,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Self time per kind recomputed offline from a span list: each span's
/// duration minus the durations of the spans whose parent it is. Used to
/// cross-check the online totals.
#[cfg(test)]
pub fn self_time_from_spans(spans: &[Span]) -> [u64; KINDS] {
    let mut child = std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_insert(0u64) += s.end_ns - s.start_ns;
        }
    }
    let mut out = [0u64; KINDS];
    for s in spans {
        let covered = child.get(&s.id).copied().unwrap_or(0);
        out[s.kind as usize] += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// query [0, 100]
    ///   prepare  [2, 10]
    ///   classify [10, 20]
    ///   branch   [20, 90]
    ///     classify [30, 40]
    ///     emit     [50, 60]
    ///     branch   [60, 85]
    ///       classify [61, 62]
    fn nested_fixture() -> Tracer {
        let mut t = Tracer::default();
        t.set_query(7);
        t.open_at(Kind::Query, 0);
        t.open_at(Kind::Prepare, 2);
        t.close_at(10);
        t.open_at(Kind::Classify, 10);
        t.close_at(20);
        t.open_at(Kind::Branch, 20);
        t.open_at(Kind::Classify, 30);
        t.close_at(40);
        t.open_at(Kind::Emit, 50);
        t.close_at(60);
        t.open_at(Kind::Branch, 60);
        t.open_at(Kind::Classify, 61);
        t.close_at(62);
        t.close_at(85);
        t.close_at(90);
        assert_eq!(t.close_at(100), 100);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = nested_fixture();
        assert_eq!(t.self_ns[Kind::Query as usize], 100 - 8 - 10 - 70);
        assert_eq!(t.self_ns[Kind::Prepare as usize], 8);
        assert_eq!(t.self_ns[Kind::Classify as usize], 10 + 10 + 1);
        assert_eq!(
            t.self_ns[Kind::Branch as usize],
            (70 - 10 - 10 - 25) + (25 - 1)
        );
        assert_eq!(t.self_ns[Kind::Emit as usize], 10);
        assert_eq!(t.calls[Kind::Classify as usize], 3);
        assert_eq!(t.calls[Kind::Branch as usize], 2);
        // Self times tile the root span exactly.
        assert_eq!(t.self_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn span_log_links_parents_and_matches_online_totals() {
        let t = nested_fixture();
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        let root = spans.iter().find(|s| s.kind == Kind::Query).unwrap();
        assert_eq!(root.parent, None);
        assert_eq!((root.start_ns, root.end_ns, root.query), (0, 100, 7));
        let inner = spans
            .iter()
            .find(|s| s.kind == Kind::Classify && s.start_ns == 61)
            .unwrap();
        let inner_parent = spans.iter().find(|s| Some(s.id) == inner.parent).unwrap();
        assert_eq!(
            (inner_parent.kind, inner_parent.start_ns),
            (Kind::Branch, 60)
        );
        assert_eq!(self_time_from_spans(spans), t.self_ns);
    }

    #[test]
    fn span_log_round_trips_through_csv() {
        let t = nested_fixture();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("selftest-{}.csv", std::process::id()));
        write_csv(std::slice::from_ref(&t), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        assert!(lines.iter().any(|l| l.ends_with(",,query,7,0,100")));
    }
}
