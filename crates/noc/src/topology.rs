//! 2-D mesh topology and dimension-ordered routing.

use std::fmt;

/// A node (switch + attached core) in the mesh, identified by its
/// linear index (`y * cols + x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A router port direction. `Local` is the core's
/// injection/ejection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward smaller y.
    North,
    /// Toward larger y.
    South,
    /// Toward larger x.
    East,
    /// Toward smaller x.
    West,
    /// The attached core.
    Local,
}

impl Direction {
    /// All five port directions.
    pub const ALL: [Direction; 5] =
        [Direction::North, Direction::South, Direction::East, Direction::West, Direction::Local];

    /// The four inter-router directions (everything but `Local`).
    pub const CARDINAL: [Direction; 4] =
        [Direction::North, Direction::South, Direction::East, Direction::West];

    /// Index of this direction in per-port arrays.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The port on the neighbouring router that faces back at this one.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }
}

/// A `cols × rows` 2-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Number of columns (x extent).
    pub cols: u16,
    /// Number of rows (y extent).
    pub rows: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the node count exceeds
    /// `u16::MAX`.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols >= 1 && rows >= 1, "mesh dimensions must be at least 1x1");
        assert!(
            u16::try_from((cols as u32) * (rows as u32)).is_ok(),
            "mesh too large"
        );
        Mesh { cols, rows }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// `(x, y)` coordinates of a node.
    pub fn coords(&self, n: NodeId) -> (u16, u16) {
        (n.0 % self.cols, n.0 / self.cols)
    }

    /// Node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node(&self, x: u16, y: u16) -> NodeId {
        assert!(x < self.cols && y < self.rows, "coordinates outside mesh");
        NodeId(y * self.cols + x)
    }

    /// The neighbour of `n` in `dir`, if any.
    pub fn neighbor(&self, n: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y) = self.coords(n);
        match dir {
            Direction::North => (y > 0).then(|| self.node(x, y - 1)),
            Direction::South => (y + 1 < self.rows).then(|| self.node(x, y + 1)),
            Direction::East => (x + 1 < self.cols).then(|| self.node(x + 1, y)),
            Direction::West => (x > 0).then(|| self.node(x - 1, y)),
            Direction::Local => None,
        }
    }

    /// Dimension-ordered (XY) routing: the output port a flit at `at`
    /// takes toward `dst` — X first, then Y, then eject. Deadlock-free
    /// on a mesh.
    pub fn route_xy(&self, at: NodeId, dst: NodeId) -> Direction {
        let (x, y) = self.coords(at);
        let (dx, dy) = self.coords(dst);
        if dx > x {
            Direction::East
        } else if dx < x {
            Direction::West
        } else if dy > y {
            Direction::South
        } else if dy < y {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// Manhattan hop distance (router-to-router) between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// Dense id of the directed channel leaving `n` toward the cardinal
    /// direction `dir`: `n * 4 + dir`. Ids run over `0..4 * nodes()` in
    /// `(node, direction)` order; an id whose port faces the mesh edge
    /// names no channel.
    pub fn channel_id(&self, n: NodeId, dir: Direction) -> usize {
        debug_assert!(dir != Direction::Local && usize::from(n.0) < self.nodes());
        usize::from(n.0) * 4 + dir.index()
    }

    /// The directed channel with dense id `id`, as `(upstream node,
    /// direction)`: the inverse of [`Mesh::channel_id`].
    pub fn channel(&self, id: usize) -> (NodeId, Direction) {
        debug_assert!(id < 4 * self.nodes());
        (NodeId((id / 4) as u16), Direction::CARDINAL[id % 4])
    }

    /// Number of unidirectional inter-router channels in the mesh.
    pub fn channel_count(&self) -> usize {
        let horiz = (self.cols as usize - 1) * self.rows as usize;
        let vert = (self.rows as usize - 1) * self.cols as usize;
        2 * (horiz + vert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(4, 3);
        for n in m.node_ids() {
            let (x, y) = m.coords(n);
            assert_eq!(m.node(x, y), n);
        }
        assert_eq!(m.nodes(), 12);
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new(3, 3);
        let corner = m.node(0, 0);
        assert_eq!(m.neighbor(corner, Direction::North), None);
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(m.neighbor(corner, Direction::East), Some(m.node(1, 0)));
        assert_eq!(m.neighbor(corner, Direction::South), Some(m.node(0, 1)));
        let mid = m.node(1, 1);
        for d in [Direction::North, Direction::South, Direction::East, Direction::West] {
            assert!(m.neighbor(mid, d).is_some());
        }
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = Mesh::new(4, 4);
        let src = m.node(0, 0);
        let dst = m.node(3, 3);
        assert_eq!(m.route_xy(src, dst), Direction::East);
        let mid = m.node(3, 0);
        assert_eq!(m.route_xy(mid, dst), Direction::South);
        assert_eq!(m.route_xy(dst, dst), Direction::Local);
    }

    #[test]
    fn xy_route_always_reaches_destination() {
        let m = Mesh::new(5, 4);
        for src in m.node_ids() {
            for dst in m.node_ids() {
                let mut at = src;
                let mut steps = 0;
                while at != dst {
                    let dir = m.route_xy(at, dst);
                    at = m.neighbor(at, dir).expect("route led off the mesh");
                    steps += 1;
                    assert!(steps <= 20, "routing loop {src} -> {dst}");
                }
                assert_eq!(steps, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn channel_count_matches_formula() {
        let m = Mesh::new(4, 4);
        // 2 × (3×4 + 3×4) = 48 unidirectional channels.
        assert_eq!(m.channel_count(), 48);
    }

    #[test]
    fn channel_ids_are_dense_and_round_trip() {
        let m = Mesh::new(4, 3);
        let mut existing = 0;
        for id in 0..4 * m.nodes() {
            let (n, d) = m.channel(id);
            assert_eq!(m.channel_id(n, d), id);
            existing += usize::from(m.neighbor(n, d).is_some());
        }
        assert_eq!(existing, m.channel_count());
    }

    #[test]
    fn opposite_directions() {
        for d in [Direction::North, Direction::South, Direction::East, Direction::West] {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }
}
