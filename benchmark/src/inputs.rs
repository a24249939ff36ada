//! Seeded inputs: the data graphs and the serving stream. Every input is a pure function of the workload's `--seed`;
//! the program under test only ever sees the generated values.

use benu_graph::{Graph, GraphBuilder, VertexId};
use benu_pattern::{queries, Pattern, PatternVertex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// Salts keep the seed's two uses independent streams.
const GRAPH_SALT: u64 = 0x0067_7261_7068;
const MIX_SALT: u64 = 0x006d_6978;

/// A workload's data graph: its dataset preset (`base`) with the vertex
/// ids permuted by `seed`.
///
/// The seed permutes rather than regenerates, so every seed yields an
/// isomorphic graph with the same match counts and hub structure while
/// changing everything the system derives from vertex ids: shard
/// placement, task order, worker assignment and cache access order.
/// Regenerating the power-law graph per seed moved the fetch workload's
/// communication volume by 17% between seeds (quartile spread over ten
/// seeds), which would drown any change the benchmark exists to detect.
pub fn seeded_graph(base: &Graph, seed: u64) -> Graph {
    relabel(base, &permutation(base.num_vertices(), seed ^ GRAPH_SALT))
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// `g` with vertex `v` renamed `perm[v]`.
pub fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(g.num_vertices());
    for (u, v) in g.edges() {
        b.add_edge(perm[u as usize] as VertexId, perm[v as usize] as VertexId);
    }
    b.build()
}

/// FNV-1a digest of a graph's vertex count and sorted edge list.
pub fn fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv::default();
    h.write(&(g.num_vertices() as u64).to_le_bytes());
    for (u, v) in g.edges() {
        h.write(&u.to_le_bytes());
        h.write(&v.to_le_bytes());
    }
    h.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// How a served query delivers its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Count,
    Collect,
    TopK(usize),
}

/// One class of the serving mix.
#[derive(Clone, Copy, Debug)]
pub struct Class {
    /// Share of the stream, in thousandths.
    pub permille: u32,
    pub pattern: &'static str,
    pub mode: Mode,
}

/// The serving mix: light counts dominate, with result-writing Collect,
/// early-terminating TopK and one heavy pattern behind a TopK.
pub const MIX: [Class; 8] = [
    Class {
        permille: 250,
        pattern: "triangle",
        mode: Mode::Count,
    },
    Class {
        permille: 150,
        pattern: "clique4",
        mode: Mode::Count,
    },
    Class {
        permille: 150,
        pattern: "chordal_square",
        mode: Mode::Count,
    },
    Class {
        permille: 100,
        pattern: "triangle",
        mode: Mode::Collect,
    },
    Class {
        permille: 100,
        pattern: "square",
        mode: Mode::TopK(100),
    },
    Class {
        permille: 100,
        pattern: "clique4",
        mode: Mode::TopK(100),
    },
    Class {
        permille: 100,
        pattern: "q2",
        mode: Mode::Count,
    },
    Class {
        permille: 50,
        pattern: "q4",
        mode: Mode::TopK(100),
    },
];

/// The patterns the mix names, by name.
pub fn mix_pattern(name: &str) -> Pattern {
    match name {
        "triangle" => queries::triangle(),
        "clique4" => queries::clique(4),
        "chordal_square" => queries::chordal_square(),
        "square" => queries::square(),
        "q2" => queries::q2(),
        "q4" => queries::q4(),
        other => panic!("no mix pattern named {other}"),
    }
}

/// The distinct pattern names of [`MIX`], in first-appearance order.
pub fn mix_patterns() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for class in &MIX {
        if !names.contains(&class.pattern) {
            names.push(class.pattern);
        }
    }
    names
}

/// One submission of the serving stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Submission {
    /// Index into [`MIX`].
    pub class: usize,
    /// The vertex renumbering the submitted pattern carries, if any.
    pub perm: Option<Vec<PatternVertex>>,
}

impl Submission {
    /// The pattern as submitted (relabeled when the submission says so).
    pub fn pattern(&self) -> Pattern {
        let base = mix_pattern(MIX[self.class].pattern);
        match &self.perm {
            Some(perm) => base.relabeled(perm),
            None => base,
        }
    }
}

/// Submissions per block of the stream: every block holds each class of
/// [`MIX`] exactly `permille * BLOCK / 1000` times.
pub const BLOCK: usize = 20;

/// The serving stream: `blocks` blocks of [`BLOCK`] submissions, each
/// block a seeded shuffle of the exact mix shares, so every prefix of
/// the stream is within one block of the shares. Every second
/// submission carries a seeded vertex renumbering of its pattern.
pub fn stream(seed: u64, blocks: usize) -> Vec<Submission> {
    let block: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.permille as usize * BLOCK / 1000))
        .collect();
    assert_eq!(block.len(), BLOCK, "the mix shares fill a block exactly");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ MIX_SALT);
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut classes = block.clone();
        for i in (1..classes.len()).rev() {
            let j = rng.gen_range(0..=i);
            classes.swap(i, j);
        }
        for class in classes {
            let perm = (out.len() % 2 == 1).then(|| {
                let size = mix_pattern(MIX[class].pattern).num_vertices();
                permutation(size, rng.gen::<u64>())
            });
            out.push(Submission { class, perm });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::datasets::Dataset;

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        let base = Dataset::AsSkitter.build(0.02);
        let a = seeded_graph(&base, 7);
        let b = seeded_graph(&base, 7);
        let c = seeded_graph(&base, 8);
        assert_eq!(a, b);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(a, c);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // Other seeds rename vertices; the graph stays isomorphic.
        assert_eq!(a.num_edges(), c.num_edges());
        let mut da: Vec<usize> = a.vertices().map(|v| a.degree(v)).collect();
        let mut dc: Vec<usize> = c.vertices().map(|v| c.degree(v)).collect();
        da.sort_unstable();
        dc.sort_unstable();
        assert_eq!(da, dc);
    }

    #[test]
    fn permutations_are_bijections() {
        let p = permutation(100, 3);
        let mut seen = p.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_ne!(p, permutation(100, 4));
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream(11, 30);
        assert_eq!(a, stream(11, 30));
        assert_ne!(a, stream(12, 30));
        let classes = |s: &[Submission]| s.iter().map(|q| q.class).collect::<Vec<_>>();
        assert_ne!(classes(&a), classes(&stream(12, 30)));
    }

    #[test]
    fn every_block_holds_the_mix_shares_exactly() {
        let s = stream(5, 15);
        assert_eq!(s.len(), 15 * BLOCK);
        for block in s.chunks(BLOCK) {
            for (i, class) in MIX.iter().enumerate() {
                let k = block.iter().filter(|q| q.class == i).count();
                assert_eq!(k, class.permille as usize * BLOCK / 1000, "class {i}");
            }
        }
        assert_eq!(s.iter().filter(|q| q.perm.is_some()).count(), s.len() / 2);
    }

    #[test]
    fn relabeled_submissions_stay_isomorphic() {
        for q in stream(2, 2) {
            let base = mix_pattern(MIX[q.class].pattern);
            assert!(q.pattern().is_isomorphic(&base));
        }
    }
}
