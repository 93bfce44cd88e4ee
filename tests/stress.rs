//! Bounded stress tests: larger instances than the unit tests touch,
//! verifying scalability-critical paths (deep recursion, big outputs,
//! streaming) without unbounded runtimes.

use minimal_steiner::graph::{generators, VertexId};
use minimal_steiner::paths::streaming::Enumeration as StreamingEnumeration;
use minimal_steiner::steiner::verify;
use minimal_steiner::{Enumeration, SteinerForest, SteinerTree};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Long path graphs exercise Θ(n) recursion depth in every enumerator.
#[test]
fn deep_recursion_on_long_paths() {
    let n = 20_000;
    let g = generators::path(n);
    let w = [VertexId(0), VertexId::new(n - 1)];
    let mut count = 0u64;
    // Unique solution (the whole path), found through a unique-completion
    // leaf — but the s-t path enumerator underneath still recurses.
    let stats = Enumeration::new(SteinerTree::new(&g, &w))
        .for_each(|tree| {
            count += 1;
            assert_eq!(tree.len(), n - 1);
            ControlFlow::Continue(())
        })
        .expect("valid instance");
    assert_eq!(count, 1);
    assert_eq!(stats.nodes, 1);
}

/// Deep recursion inside the path enumerator itself, on a worker thread
/// with a large stack (the streaming adapter's reason for existing).
#[test]
fn deep_path_enumeration_streams() {
    let n = 30_000;
    let g = generators::path(n);
    let iter = StreamingEnumeration::spawn(move |sink| {
        minimal_steiner::paths::undirected::enumerate_st_paths(
            &g,
            VertexId(0),
            VertexId::new(n - 1),
            None,
            &mut |p| sink(p.edges.len()),
        );
    });
    let lengths: Vec<usize> = iter.collect();
    assert_eq!(lengths, vec![n - 1]);
}

/// A dense-output instance: all 4^8 = 65536 minimal Steiner trees of an
/// 8-block width-4 theta chain, verified for count and distinctness.
#[test]
fn theta_chain_full_output() {
    let g = generators::theta_chain(8, 4);
    let w = [VertexId(0), VertexId(8)];
    let stats = Enumeration::new(SteinerTree::new(&g, &w))
        .run()
        .expect("valid instance");
    assert_eq!(stats.solutions, 4u64.pow(8));
    assert_eq!(stats.deficient_internal_nodes, 0);
    assert!(stats.internal_nodes <= stats.leaf_nodes);
}

/// Deep backtracking: a theta chain drives the path enumerator's `E-STP`
/// recursion `blocks` levels deep with `width`-way branching at every
/// level, so every per-level reverse-BFS cache is overwritten and
/// revalidated many times under a deep prefix trail. Tree and forest
/// must both deliver exactly the 3^6 = 729 block-by-block path choices,
/// each distinct and each a minimal solution per the `verify` oracles.
#[test]
fn theta_chain_deep_backtrack_tree_and_forest() {
    let g = generators::theta_chain(6, 3);
    let w = [VertexId(0), VertexId(6)];
    let mut trees = BTreeSet::new();
    Enumeration::new(SteinerTree::new(&g, &w))
        .for_each(|t| {
            assert!(verify::is_minimal_steiner_tree(&g, &w, t), "tree {t:?}");
            assert!(trees.insert(t.to_vec()), "duplicate tree {t:?}");
            ControlFlow::Continue(())
        })
        .expect("valid instance");
    assert_eq!(trees.len(), 3usize.pow(6));

    let sets = vec![w.to_vec()];
    let mut forests = BTreeSet::new();
    Enumeration::new(SteinerForest::new(&g, &sets))
        .for_each(|f| {
            assert!(
                verify::is_minimal_steiner_forest(&g, &sets, f),
                "forest {f:?}"
            );
            assert!(forests.insert(f.to_vec()), "duplicate forest {f:?}");
            ControlFlow::Continue(())
        })
        .expect("valid instance");
    assert_eq!(forests.len(), 3usize.pow(6));
}

/// Moderate grid, many terminals: tens of thousands of solutions with the
/// work-per-solution bound holding throughout.
#[test]
fn grid_many_terminals_bounded_amortized_work() {
    let g = generators::grid(4, 7);
    let w: Vec<VertexId> = vec![VertexId(0), VertexId(6), VertexId(21), VertexId(27)];
    let mut count = 0u64;
    let stats = Enumeration::new(SteinerTree::new(&g, &w))
        .for_each(|_| {
            count += 1;
            if count >= 50_000 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("valid instance");
    assert!(stats.solutions >= 50_000 || stats.solutions == count);
    let nm = (g.num_vertices() + g.num_edges()) as u64;
    assert!(stats.work / stats.solutions.max(1) <= 20 * nm);
}

/// Genuinely deep enumeration recursion: on a ladder (2×k grid) the path
/// enumeration tree nests prefixes along the whole chain, so recursion
/// depth grows with k. Run on the large-stack worker.
#[test]
fn deep_nested_branching_on_ladders() {
    let k = 1_500;
    let g = generators::ladder(k);
    let target = VertexId::new(g.num_vertices() - 1);
    let iter = StreamingEnumeration::spawn(move |sink| {
        minimal_steiner::paths::undirected::enumerate_st_paths(
            &g,
            VertexId(0),
            target,
            None,
            &mut |p| sink(p.edges.len()),
        );
    });
    let first: Vec<usize> = iter.take(500).collect();
    assert_eq!(first.len(), 500);
    // Corner-to-corner distance in a 2×k ladder is k edges.
    assert!(first.iter().all(|&len| len >= k));
}

/// The induced enumerator on a larger claw-free host, capped.
#[test]
fn induced_on_larger_line_graph() {
    let base = generators::grid(3, 5);
    let g = minimal_steiner::graph::line_graph::line_graph(&base);
    let w = [VertexId(0), VertexId::new(g.num_vertices() - 1)];
    let mut count = 0u64;
    minimal_steiner::induced::supergraph::enumerate_minimal_induced_steiner_subgraphs(
        &g,
        &w,
        &mut |set| {
            assert!(
                minimal_steiner::induced::verify::is_minimal_induced_steiner_subgraph(&g, &w, set)
            );
            count += 1;
            if count >= 200 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    )
    .expect("line graphs are claw-free");
    assert!(count > 10);
}
