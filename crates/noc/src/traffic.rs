//! Synthetic traffic patterns.

use rand::Rng;

use crate::{Mesh, NodeId};

/// Standard synthetic destination patterns for NoC evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Every node sends to a uniformly random other node.
    UniformRandom,
    /// Node `(x, y)` sends to `(y, x)` (requires a square mesh);
    /// stresses one diagonal of the bisection.
    Transpose,
    /// Node `i` sends to the node with the bit-complement index.
    BitComplement,
    /// A fraction of traffic targets one hot node, the rest uniform.
    Hotspot {
        /// The hot node.
        node: NodeId,
        /// Fraction of packets aimed at it (0..=1 scaled by 1000,
        /// i.e. permille, to keep the type `Copy + Eq`-friendly).
        permille: u16,
    },
}

impl TrafficPattern {
    /// Picks a destination for a packet from `src`. Never returns
    /// `src` itself (self-traffic is re-rolled or remapped).
    pub fn destination<R: Rng>(&self, mesh: &Mesh, src: NodeId, rng: &mut R) -> NodeId {
        let n = mesh.nodes() as u16;
        match *self {
            TrafficPattern::UniformRandom => {
                if n == 1 {
                    return src;
                }
                loop {
                    let d = NodeId(rng.gen_range(0..n));
                    if d != src {
                        return d;
                    }
                }
            }
            TrafficPattern::Transpose => {
                assert_eq!(mesh.cols, mesh.rows, "transpose needs a square mesh");
                let (x, y) = mesh.coords(src);
                let d = mesh.node(y, x);
                if d == src {
                    // Diagonal nodes have no transpose partner; fall
                    // back to uniform so they still contribute load.
                    TrafficPattern::UniformRandom.destination(mesh, src, rng)
                } else {
                    d
                }
            }
            TrafficPattern::BitComplement => {
                let bits = 16 - (n - 1).leading_zeros();
                let mask = ((1u32 << bits) - 1) as u16;
                let mut d = (!src.0) & mask;
                if d >= n || NodeId(d) == src {
                    d = (src.0 + n / 2) % n;
                }
                if NodeId(d) == src {
                    return TrafficPattern::UniformRandom.destination(mesh, src, rng);
                }
                NodeId(d)
            }
            TrafficPattern::Hotspot { node, permille } => {
                if node != src && rng.gen_range(0..1000) < permille {
                    node
                } else {
                    TrafficPattern::UniformRandom.destination(mesh, src, rng)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_never_self() {
        let mesh = Mesh::new(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        for src in mesh.node_ids() {
            for _ in 0..50 {
                assert_ne!(TrafficPattern::UniformRandom.destination(&mesh, src, &mut rng), src);
            }
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = Mesh::new(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let src = mesh.node(1, 3);
        let d = TrafficPattern::Transpose.destination(&mesh, src, &mut rng);
        assert_eq!(d, mesh.node(3, 1));
        // Diagonal falls back but never self.
        let diag = mesh.node(2, 2);
        let d2 = TrafficPattern::Transpose.destination(&mesh, diag, &mut rng);
        assert_ne!(d2, diag);
    }

    #[test]
    fn hotspot_biases_toward_node() {
        let mesh = Mesh::new(4, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let hot = mesh.node(0, 0);
        let pat = TrafficPattern::Hotspot { node: hot, permille: 500 };
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            if pat.destination(&mesh, mesh.node(3, 3), &mut rng) == hot {
                hits += 1;
            }
        }
        // ~50% plus the uniform share; definitely above 40%.
        assert!(hits > trials * 4 / 10, "hotspot hits {hits}/{trials}");
    }

    #[test]
    fn bit_complement_is_deterministic_and_not_self() {
        let mesh = Mesh::new(4, 4);
        let mut rng = StdRng::seed_from_u64(3);
        for src in mesh.node_ids() {
            let d = TrafficPattern::BitComplement.destination(&mesh, src, &mut rng);
            assert_ne!(d, src);
            assert!((d.0 as usize) < mesh.nodes());
        }
    }
}
