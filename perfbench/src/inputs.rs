//! Seeded input generation. Every workload's inputs are a pure function
//! of the `--seed` argument; the program under test only ever sees the
//! generated graphs and terminal lists.

use rand::rngs::StdRng;
use rand::Rng;
use steiner_bench::workloads;
use steiner_graph::epoch::{EpochDigraph, EpochGraph};
use steiner_graph::{generators, DiGraph, UndirectedGraph, VertexId};

/// The four enumeration problems the engine serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Minimal Steiner trees.
    Tree = 0,
    /// Minimal Steiner forests.
    Forest,
    /// Minimal terminal Steiner trees.
    Terminal,
    /// Minimal directed Steiner trees.
    Directed,
}

impl Family {
    /// All families, in metric order.
    pub const ALL: [Family; 4] = [
        Family::Tree,
        Family::Forest,
        Family::Terminal,
        Family::Directed,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        ["tree", "forest", "terminal", "directed"][self as usize]
    }
}

/// The graph structures the workloads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// Sparse random connected graphs G(n, 1.5n).
    Random = 0,
    /// Grids with terminals on the boundary.
    Grid,
    /// Grid cores with pendant bridge paths ending in terminals.
    Bridged,
    /// Chains of theta blocks: exponentially many solutions.
    Theta,
}

impl Structure {
    /// All structures, in metric order.
    pub const ALL: [Structure; 4] = [
        Structure::Random,
        Structure::Grid,
        Structure::Bridged,
        Structure::Theta,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        ["random", "grid", "bridged", "theta"][self as usize]
    }
}

/// What a query asks for, with vertex ids of its graph.
#[derive(Clone, Debug)]
pub enum Spec {
    /// Tree or terminal tree over one terminal list.
    Terminals(Vec<VertexId>),
    /// Forest over terminal sets.
    Sets(Vec<Vec<VertexId>>),
    /// Directed tree from a root.
    Rooted(VertexId, Vec<VertexId>),
}

/// The graph a one-shot query runs on, held in the graph layer's epoch
/// wrapper so the workload can time edits to it.
pub enum Host {
    /// An undirected graph.
    Undirected(EpochGraph),
    /// A directed graph.
    Directed(EpochDigraph),
}

/// One query of the one-shot workloads.
pub struct OneshotQuery {
    /// Problem family.
    pub family: Family,
    /// Graph structure.
    pub structure: Structure,
    /// Terminals, sets or root.
    pub spec: Spec,
    /// The graph.
    pub host: Host,
    /// The two endpoints of the edge (or arc) the mutation probe inserts
    /// and removes again before the query runs.
    pub probe: (VertexId, VertexId),
    /// `n + m` of the graph the query runs on.
    pub size: usize,
}

/// Solutions delivered per one-shot query at most.
pub const ONESHOT_CAP: u64 = 1_000;

/// One-shot queries per structure; families per structure are fixed
/// counts so the family mix does not move with the seed.
const PER_STRUCTURE: [(Family, usize); 4] = [
    (Family::Tree, 120),
    (Family::Forest, 24),
    (Family::Terminal, 24),
    (Family::Directed, 24),
];

/// Smallest and largest `n + m` of a one-shot graph.
const SIZE_RANGE: (f64, f64) = (100.0, 2400.0);

/// A base graph of one structure with its (undirected) terminal list.
pub struct Base {
    /// The graph.
    pub graph: UndirectedGraph,
    /// The terminals a one-shot query uses.
    pub terminals: Vec<VertexId>,
    /// Where this structure places terminals: any vertex of a random
    /// graph, the boundary of a grid, the pendant tips (and corner 0) of
    /// a bridged grid, the hubs of a theta chain.
    pub candidates: Vec<VertexId>,
}

/// Builds a graph of `structure` with `n + m` close to `size` and `t`
/// terminals placed the structure's way. `variant` picks the theta width
/// (2 to 5) and the bridged tail length (3 to 8) in rotation, so their
/// mix does not move with the seed.
pub fn base_graph(
    structure: Structure,
    size: usize,
    t: usize,
    variant: usize,
    rng: &mut StdRng,
) -> Base {
    match structure {
        Structure::Random => {
            let n = ((size as f64 / 2.5).round() as usize).max(t + 2);
            let graph = generators::random_connected_graph(n, n * 3 / 2, rng);
            let terminals = generators::random_terminals(n, t, rng);
            let candidates = graph.vertices().collect();
            Base {
                graph,
                terminals,
                candidates,
            }
        }
        Structure::Grid => {
            let cells = (size / 3).max(9);
            let rows = ((cells as f64).sqrt().round() as usize).max(3);
            let cols = (cells / rows).max(3);
            let graph = generators::grid(rows, cols);
            let ring = boundary(rows, cols);
            let offset = rng.gen_range(0..ring.len());
            let mut terminals: Vec<VertexId> = (0..t)
                .map(|i| ring[(offset + i * ring.len() / t) % ring.len()])
                .collect();
            terminals.sort_unstable();
            terminals.dedup();
            Base {
                graph,
                terminals,
                candidates: ring,
            }
        }
        Structure::Bridged => {
            let tail = 3 + variant % 6;
            let pendants = t.saturating_sub(1).max(1);
            let core = ((size.saturating_sub(2 * pendants * tail)) / 3).max(9);
            let rows = ((core as f64).sqrt().round() as usize).max(3);
            let cols = (core / rows).max(3);
            let inst = workloads::bridged_instance(rows, cols, pendants, tail);
            Base {
                graph: inst.graph,
                candidates: inst.terminals.clone(),
                terminals: inst.terminals,
            }
        }
        Structure::Theta => {
            let width = 2 + variant % 4;
            let blocks = (size / (3 * width)).max(t);
            let graph = generators::theta_chain(blocks, width);
            // Hubs spread along the chain, always including both ends.
            let mut terminals: Vec<VertexId> = (0..t)
                .map(|i| VertexId::new(i * blocks / (t - 1).max(1)))
                .collect();
            terminals.dedup();
            let candidates = (0..=blocks).map(VertexId::new).collect();
            Base {
                graph,
                terminals,
                candidates,
            }
        }
    }
}

/// Boundary vertices of a `rows × cols` grid in cyclic order.
fn boundary(rows: usize, cols: usize) -> Vec<VertexId> {
    let mut ring = Vec::new();
    ring.extend(0..cols);
    ring.extend((1..rows).map(|r| r * cols + cols - 1));
    ring.extend((0..cols - 1).rev().map(|c| (rows - 1) * cols + c));
    ring.extend((1..rows - 1).rev().map(|r| r * cols));
    ring.into_iter().map(VertexId::new).collect()
}

/// Terminals for the terminal Steiner tree problem: each terminal must
/// be a leaf, so the non-terminal vertices must connect all terminals.
/// Theta hubs cut the chain, so that structure uses one middle vertex of
/// distinct blocks instead; elsewhere random vertices are drawn until the
/// instance has a solution.
fn leaf_terminals(structure: Structure, base: &Base, t: usize, rng: &mut StdRng) -> Vec<VertexId> {
    let g = &base.graph;
    let n = g.num_vertices();
    if structure == Structure::Theta {
        let hubs = base.candidates.len();
        let blocks = hubs - 1;
        let width = (n - hubs) / blocks;
        let mut picked: Vec<VertexId> = (0..t.min(blocks))
            .map(|i| {
                let b = i * blocks / t.min(blocks);
                VertexId::new(hubs + b * width + rng.gen_range(0..width))
            })
            .collect();
        picked.sort_unstable();
        return picked;
    }
    let mut candidate = base.terminals.clone();
    for _ in 0..64 {
        if leaves_can_connect(g, &candidate) {
            return candidate;
        }
        candidate = generators::random_terminals(n, t, rng);
    }
    panic!("no terminal set with a terminal Steiner tree found in 64 draws");
}

/// Whether the non-terminals of `g` induce one connected subgraph that
/// every terminal is adjacent to (sufficient for a terminal Steiner tree
/// to exist when there are at least two terminals).
fn leaves_can_connect(g: &UndirectedGraph, terminals: &[VertexId]) -> bool {
    let n = g.num_vertices();
    let mut is_terminal = vec![false; n];
    for w in terminals {
        is_terminal[w.index()] = true;
    }
    let Some(start) = (0..n).find(|&v| !is_terminal[v]) else {
        return false;
    };
    let mut seen = vec![false; n];
    seen[start] = true;
    let mut stack = vec![VertexId::new(start)];
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for &(v, _) in g.adjacency(u) {
            if !is_terminal[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    let non_terminals = n - terminals.len();
    reached == non_terminals
        && terminals
            .iter()
            .all(|&w| g.adjacency(w).iter().any(|&(v, _)| !is_terminal[v.index()]))
}

/// Pairs up `terminals` into forest terminal sets (an odd one out joins
/// the last pair).
pub fn pair_sets(terminals: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut sets: Vec<Vec<VertexId>> = terminals.chunks(2).map(|c| c.to_vec()).collect();
    if sets.len() > 1 && sets.last().is_some_and(|s| s.len() == 1) {
        let lone = sets.pop().expect("checked non-empty")[0];
        sets.last_mut().expect("more than one set").push(lone);
    }
    sets
}

/// Both orientations of every edge of `g`.
pub fn bidirected(g: &UndirectedGraph) -> DiGraph {
    let mut d = DiGraph::with_capacity(g.num_vertices(), 2 * g.num_edges());
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        d.add_arc(u, v).expect("endpoints are in range");
        d.add_arc(v, u).expect("endpoints are in range");
    }
    d
}

/// Two distinct vertices of a graph on `n` vertices.
fn probe_pair(n: usize, rng: &mut StdRng) -> (VertexId, VertexId) {
    let u = rng.gen_range(0..n);
    let v = (u + 1 + rng.gen_range(0..n - 1)) % n;
    (VertexId::new(u), VertexId::new(v))
}

/// The one-shot query list: 192 queries per structure (120 tree, 24
/// forest, 24 terminal, 24 directed), sizes stratified log-uniform in
/// `n + m` ∈ [100, 2400], 2 to 8 terminals, in a seeded order.
pub fn oneshot_queries(seed: u64) -> Vec<OneshotQuery> {
    let mut rng = workloads::rng(seed);
    let mut out = Vec::new();
    for structure in Structure::ALL {
        for (family, count) in PER_STRUCTURE {
            // Stratified: the j-th query of a cell draws its size from the
            // j-th of `count` equal log-size strata and takes the j-th of
            // `count` evenly spread terminal counts, so the size and |W|
            // mix is the same for every seed.
            for j in 0..count {
                let (lo, hi) = (SIZE_RANGE.0.ln(), SIZE_RANGE.1.ln());
                let u = (j as f64 + rng.gen_range(0..1_000_000u64) as f64 / 1e6) / count as f64;
                let size = (lo + (hi - lo) * u).exp();
                let t = 2 + j * 7 / count;
                out.push(oneshot_query(
                    family,
                    structure,
                    size as usize,
                    t,
                    j,
                    &mut rng,
                ));
            }
        }
    }
    // Seeded Fisher–Yates, so families and structures interleave.
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        out.swap(i, j);
    }
    out
}

fn oneshot_query(
    family: Family,
    structure: Structure,
    size: usize,
    t: usize,
    variant: usize,
    rng: &mut StdRng,
) -> OneshotQuery {
    let base = base_graph(structure, size, t, variant, rng);
    let n = base.graph.num_vertices();
    let probe = probe_pair(n, rng);
    let spec = match family {
        Family::Tree => Spec::Terminals(base.terminals.clone()),
        Family::Forest => Spec::Sets(pair_sets(&base.terminals)),
        Family::Terminal => Spec::Terminals(leaf_terminals(structure, &base, t, rng)),
        Family::Directed => {
            let (root, rest) = base
                .terminals
                .split_first()
                .expect("at least two terminals");
            Spec::Rooted(*root, rest.to_vec())
        }
    };
    let (host, size) = if family == Family::Directed {
        let d = bidirected(&base.graph);
        let size = d.num_vertices() + d.num_arcs();
        (Host::Directed(EpochDigraph::new(d)), size)
    } else {
        let size = n + base.graph.num_edges();
        (Host::Undirected(EpochGraph::new(base.graph)), size)
    };
    OneshotQuery {
        family,
        structure,
        spec,
        host,
        probe,
        size,
    }
}

/// One query of the service pool.
#[derive(Clone, Debug)]
pub struct PoolQuery {
    /// Tree, forest or terminal tree.
    pub family: Family,
    /// Terminals or sets, in serving-graph vertex ids.
    pub spec: Spec,
    /// The tenant that submits it.
    pub tenant: usize,
}

/// The serving graph and the query pool of `service_mix`.
pub struct ServiceInputs {
    /// Disjoint union of the regions.
    pub graph: UndirectedGraph,
    /// `(first vertex, vertex count)` of each region.
    pub regions: Vec<(usize, usize)>,
    /// The query pool, most popular first.
    pub pool: Vec<PoolQuery>,
    /// Cumulative Zipf weights over `pool`, for skewed draws.
    pub popularity: Vec<f64>,
}

/// The serving graph and query pool are one fixed instance (the pool is
/// the service's catalogue of known queries); the workload seed drives
/// the arrival sequence and the mutation batches.
const SERVICE_INPUT_SEED: u64 = 0x5e_4f1c_e000;

/// Regions of the serving graph: two of each structure.
pub const REGIONS: usize = 8;
/// Distinct queries in the service pool.
pub const POOL: usize = 100;
/// Tenants submitting to the engine.
pub const TENANTS: usize = 4;
/// Skew of the pool's popularity: query `k` is drawn with weight
/// `(k + 1)^-ZIPF_EXPONENT`.
pub const ZIPF_EXPONENT: f64 = 0.7;
/// Solutions delivered per service query at most.
pub const SERVICE_CAP: u64 = 100;

/// Builds the serving graph (eight disjoint regions, one of `n + m` ≈ 500
/// and one of ≈ 1100 per structure) and the 100-query pool (60% tree,
/// 20% forest, 20% terminal tree; 2 to 6 terminals inside one region;
/// Zipf(0.7) popularity).
pub fn service_inputs() -> ServiceInputs {
    let mut rng = workloads::rng(SERVICE_INPUT_SEED);
    let mut graph = UndirectedGraph::new(0);
    let mut regions = Vec::new();
    let mut bases = Vec::new();
    for r in 0..REGIONS {
        let structure = Structure::ALL[r % 4];
        // Two sizes per structure, fixed, so the serving graph (and with
        // it each query's scratch) is the same size for every seed.
        let size = if r < 4 { 300 } else { 700 };
        let base = base_graph(structure, size, 6, r, &mut rng);
        let first = graph.num_vertices();
        for _ in 0..base.graph.num_vertices() {
            graph.add_vertex();
        }
        for e in base.graph.edges() {
            let (u, v) = base.graph.endpoints(e);
            graph
                .add_edge_indices(first + u.index(), first + v.index())
                .expect("region vertices were just added");
        }
        regions.push((first, base.graph.num_vertices()));
        bases.push((structure, base));
    }
    let mut pool = Vec::new();
    for k in 0..POOL {
        // Region, family and |W| rotate with the popularity rank, so the
        // popular head of the pool has the same make-up for every seed;
        // the seed picks the terminals.
        let region = k % REGIONS;
        let (structure, base) = &bases[region];
        let t = 2 + (k / 5) % 5;
        let family = match k % 5 {
            2 => Family::Forest,
            4 => Family::Terminal,
            _ => Family::Tree,
        };
        let local = if family == Family::Terminal {
            leaf_terminals(*structure, base, t, &mut rng)
        } else {
            let mut picked = base.candidates.clone();
            for i in 0..t.min(picked.len()) {
                let j = rng.gen_range(i..picked.len());
                picked.swap(i, j);
            }
            picked.truncate(t);
            picked.sort_unstable();
            picked
        };
        let first = regions[region].0;
        let lift = |w: &VertexId| VertexId::new(first + w.index());
        let terminals: Vec<VertexId> = local.iter().map(lift).collect();
        let spec = if family == Family::Forest {
            Spec::Sets(pair_sets(&terminals))
        } else {
            Spec::Terminals(terminals)
        };
        pool.push(PoolQuery {
            family,
            spec,
            tenant: k % TENANTS,
        });
    }
    let mut popularity = Vec::with_capacity(POOL);
    let mut acc = 0.0;
    for k in 0..POOL {
        acc += ((k + 1) as f64).powf(-ZIPF_EXPONENT);
        popularity.push(acc);
    }
    ServiceInputs {
        graph,
        regions,
        pool,
        popularity,
    }
}

impl ServiceInputs {
    /// `n` pool indices in arrival order, drawn with Zipf popularity.
    /// Stratified: the k-th arrival of each block of `ARRIVAL_BLOCK`
    /// draws from the k-th of `ARRIVAL_BLOCK` equal slices of the
    /// popularity mass, and each block is shuffled by `rng`. So every
    /// block holds the same query mix whatever the seed, and the seed
    /// sets the order.
    pub fn arrivals(&self, rng: &mut StdRng, n: usize) -> Vec<usize> {
        let total = *self.popularity.last().expect("non-empty pool");
        let mut out = Vec::with_capacity(n + ARRIVAL_BLOCK);
        while out.len() < n {
            let start = out.len();
            for k in 0..ARRIVAL_BLOCK {
                let u =
                    (k as f64 + rng.gen_range(0..1_000_000u64) as f64 / 1e6) / ARRIVAL_BLOCK as f64;
                let x = total * u;
                out.push(
                    self.popularity
                        .partition_point(|&c| c <= x)
                        .min(self.pool.len() - 1),
                );
            }
            for i in (start + 1..out.len()).rev() {
                let j = rng.gen_range(start..i + 1);
                out.swap(i, j);
            }
        }
        out.truncate(n);
        out
    }
}

/// Arrivals per stratified block of [`ServiceInputs::arrivals`].
pub const ARRIVAL_BLOCK: usize = 500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = oneshot_queries(3);
        let b = oneshot_queries(3);
        assert_eq!(a.len(), 768);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.family, x.structure, x.size, x.probe),
                (y.family, y.structure, y.size, y.probe)
            );
        }
        let c = oneshot_queries(4);
        assert!(a.iter().zip(&c).any(|(x, y)| x.size != y.size));
    }

    #[test]
    fn oneshot_sizes_and_terminal_counts_stay_in_range() {
        for q in oneshot_queries(11) {
            // `size` counts both arcs of a directed query's edges; the
            // range is on the underlying graph's n + m.
            let nm = match &q.host {
                Host::Undirected(_) => q.size,
                Host::Directed(d) => (q.size + d.digraph().num_vertices()) / 2,
            };
            assert!((60..=4000).contains(&nm), "size {nm} out of range");
            let t = match &q.spec {
                Spec::Terminals(w) => w.len(),
                Spec::Sets(s) => s.iter().map(Vec::len).sum(),
                Spec::Rooted(_, w) => w.len() + 1,
            };
            assert!((2..=8).contains(&t), "{t} terminals");
        }
    }

    #[test]
    fn pairs_absorb_an_odd_terminal() {
        let w: Vec<VertexId> = (0..5).map(VertexId::new).collect();
        let sets = pair_sets(&w);
        assert_eq!(sets.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn zipf_draws_favour_the_head_of_the_pool() {
        let inputs = service_inputs();
        assert_eq!(inputs.regions.len(), REGIONS);
        let mut rng = workloads::rng(9);
        let mut hits = vec![0usize; POOL];
        let drawn = inputs.arrivals(&mut rng, 20_000);
        assert_eq!(drawn.len(), 20_000);
        for &k in &drawn {
            hits[k] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > 0);
    }

    #[test]
    fn every_arrival_block_holds_the_same_mix() {
        let inputs = service_inputs();
        let mix = |seed: u64| {
            let drawn = inputs.arrivals(&mut workloads::rng(seed), ARRIVAL_BLOCK);
            let mut hits = vec![0i64; POOL];
            for &k in &drawn {
                hits[k] += 1;
            }
            (drawn, hits)
        };
        let (a, ha) = mix(1);
        let (b, hb) = mix(2);
        assert_ne!(a, b, "the seed sets the order");
        // Stratified: a query's share of the mass covers whole strata plus
        // at most two partly covered ones at its ends, so its count moves
        // by at most two between seeds.
        assert!(ha.iter().zip(&hb).all(|(x, y)| (x - y).abs() <= 2));
    }
}
