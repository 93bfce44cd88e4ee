//! Output checks: stream fingerprints, distinctness, and the `verify`
//! oracles, run outside the timed phases.

use std::hash::{Hash, Hasher};
use steiner_core::{
    verify, DirectedSteinerTree, Enumeration, SteinerError, SteinerForest, SteinerTree,
    TerminalSteinerTree,
};
use steiner_graph::{ArcId, DiGraph, EdgeId, UndirectedGraph};

use crate::inputs::{Family, Spec};

/// A fast multiplicative hasher for solution items (edge and arc ids
/// hash through `write_u32`).
struct Fold(u64);

impl Fold {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Fold {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An order-sensitive fingerprint of a solution stream, updated one
/// solution at a time (cheap enough to run inside a timed sink).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    /// Folds in one solution.
    pub fn push<T: Hash>(&mut self, items: &[T]) {
        let mut h = Fold(self.0);
        h.write_usize(items.len());
        for it in items {
            it.hash(&mut h);
        }
        self.0 = h.finish();
    }

    /// The fingerprint of a whole collected stream.
    pub fn of<T: Hash>(stream: &[Vec<T>]) -> StreamHash {
        let mut h = StreamHash::default();
        for s in stream {
            h.push(s);
        }
        h
    }
}

/// Whether no solution appears twice in `stream`.
pub fn all_distinct<T: Ord>(stream: &[Vec<T>]) -> bool {
    let mut refs: Vec<&Vec<T>> = stream.iter().collect();
    refs.sort_unstable();
    refs.windows(2).all(|w| w[0] != w[1])
}

/// Solutions per stream checked against the oracle: the first, the last
/// and two spread evenly in between.
pub const ORACLE_SAMPLE: usize = 4;

/// The fixed sample of stream positions the oracle checks.
pub fn sample_positions(len: usize) -> Vec<usize> {
    if len <= ORACLE_SAMPLE {
        return (0..len).collect();
    }
    let mut out = vec![0, len / 3, 2 * len / 3, len - 1];
    out.sort_unstable();
    out.dedup();
    out
}

/// The undirected problems' streams, collected by a plain sequential
/// one-shot run capped at `cap`.
pub fn reference_edges(
    family: Family,
    spec: &Spec,
    g: &UndirectedGraph,
    cap: u64,
) -> Result<Vec<Vec<EdgeId>>, SteinerError> {
    match (family, spec) {
        (Family::Tree, Spec::Terminals(w)) => Enumeration::new(SteinerTree::new(g, w))
            .with_limit(cap)
            .collect_vec(),
        (Family::Terminal, Spec::Terminals(w)) => Enumeration::new(TerminalSteinerTree::new(g, w))
            .with_limit(cap)
            .collect_vec(),
        (Family::Forest, Spec::Sets(sets)) => Enumeration::new(SteinerForest::new(g, sets))
            .with_limit(cap)
            .collect_vec(),
        _ => unreachable!("query specs are built per family"),
    }
}

/// The directed problem's stream, as [`reference_edges`].
pub fn reference_arcs(spec: &Spec, d: &DiGraph, cap: u64) -> Result<Vec<Vec<ArcId>>, SteinerError> {
    let Spec::Rooted(root, w) = spec else {
        unreachable!("directed queries carry a root")
    };
    Enumeration::new(DirectedSteinerTree::new(d, *root, w))
        .with_limit(cap)
        .collect_vec()
}

/// How many of the sampled solutions of an undirected stream the oracle
/// rejects.
pub fn oracle_failures_edges(
    family: Family,
    spec: &Spec,
    g: &UndirectedGraph,
    stream: &[Vec<EdgeId>],
) -> usize {
    sample_positions(stream.len())
        .into_iter()
        .filter(|&i| {
            let s = &stream[i];
            let ok = match (family, spec) {
                (Family::Tree, Spec::Terminals(w)) => verify::is_minimal_steiner_tree(g, w, s),
                (Family::Terminal, Spec::Terminals(w)) => {
                    verify::is_minimal_terminal_steiner_tree(g, w, s)
                }
                (Family::Forest, Spec::Sets(sets)) => verify::is_minimal_steiner_forest(g, sets, s),
                _ => false,
            };
            !ok
        })
        .count()
}

/// How many of the sampled solutions of a directed stream the oracle
/// rejects.
pub fn oracle_failures_arcs(spec: &Spec, d: &DiGraph, stream: &[Vec<ArcId>]) -> usize {
    let Spec::Rooted(root, w) = spec else {
        return stream.len();
    };
    sample_positions(stream.len())
        .into_iter()
        .filter(|&i| !verify::is_minimal_directed_steiner_subgraph(d, *root, w, &stream[i]))
        .count()
}

/// What the check of one reference stream found.
#[derive(Clone, Copy, Debug)]
pub struct Checked {
    /// The stream's fingerprint.
    pub hash: StreamHash,
    /// Its length.
    pub solutions: u64,
    /// Duplicate solutions (0 or 1) plus oracle rejections.
    pub defects: usize,
}

/// Collects the reference stream of a query and checks it: distinct
/// solutions, and the oracle on the fixed sample.
pub fn check_edges(
    family: Family,
    spec: &Spec,
    g: &UndirectedGraph,
    cap: u64,
) -> Result<Checked, SteinerError> {
    let stream = reference_edges(family, spec, g, cap)?;
    Ok(Checked {
        hash: StreamHash::of(&stream),
        solutions: stream.len() as u64,
        defects: usize::from(!all_distinct(&stream))
            + oracle_failures_edges(family, spec, g, &stream),
    })
}

/// [`check_edges`] for a directed query.
pub fn check_arcs(spec: &Spec, d: &DiGraph, cap: u64) -> Result<Checked, SteinerError> {
    let stream = reference_arcs(spec, d, cap)?;
    Ok(Checked {
        hash: StreamHash::of(&stream),
        solutions: stream.len() as u64,
        defects: usize::from(!all_distinct(&stream)) + oracle_failures_arcs(spec, d, &stream),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use steiner_graph::VertexId;

    #[test]
    fn stream_hash_is_order_and_boundary_sensitive() {
        let a = vec![vec![EdgeId(1), EdgeId(2)], vec![EdgeId(3)]];
        let b = vec![vec![EdgeId(3)], vec![EdgeId(1), EdgeId(2)]];
        let c = vec![vec![EdgeId(1)], vec![EdgeId(2), EdgeId(3)]];
        assert_ne!(StreamHash::of(&a), StreamHash::of(&b));
        assert_ne!(StreamHash::of(&a), StreamHash::of(&c));
        let mut incremental = StreamHash::default();
        incremental.push(&a[0]);
        incremental.push(&a[1]);
        assert_eq!(incremental, StreamHash::of(&a));
    }

    #[test]
    fn duplicates_are_found_anywhere_in_the_stream() {
        assert!(all_distinct(&[vec![1], vec![2], vec![3]]));
        assert!(!all_distinct(&[vec![1], vec![2], vec![1]]));
    }

    #[test]
    fn oracle_sample_covers_both_ends() {
        assert_eq!(sample_positions(3), vec![0, 1, 2]);
        let s = sample_positions(1000);
        assert_eq!(s.len(), ORACLE_SAMPLE);
        assert_eq!((s[0], *s.last().unwrap()), (0, 999));
    }

    #[test]
    fn checks_pass_on_a_square_and_catch_a_bad_solution() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let spec = Spec::Terminals(vec![VertexId(0), VertexId(2)]);
        let ok = check_edges(Family::Tree, &spec, &g, 10).unwrap();
        assert_eq!((ok.solutions, ok.defects), (2, 0));
        let bad = vec![vec![EdgeId(0), EdgeId(1), EdgeId(2)]];
        assert_eq!(oracle_failures_edges(Family::Tree, &spec, &g, &bad), 1);
    }
}
