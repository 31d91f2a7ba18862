//! Mesh topology and dimension-order routing.

use stashdir_common::NodeId;
use std::fmt;
use std::ops::Range;

/// A `width × height` 2-D mesh. Node `i` sits at `(i % width, i / width)`.
///
/// # Examples
///
/// ```
/// use stashdir_common::NodeId;
/// use stashdir_noc::Mesh;
///
/// let mesh = Mesh::new(4, 4);
/// assert_eq!(mesh.nodes(), 16);
/// assert_eq!(mesh.coords(NodeId::new(5)), (1, 1));
/// assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(15)), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// Creates the squarest mesh holding exactly `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or cannot be arranged into a rectangle
    /// with aspect ratio ≤ 2 (e.g. primes > 3 are rejected).
    pub fn for_nodes(nodes: u16) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut best: Option<(u16, u16)> = None;
        let mut w = 1u16;
        while (w as u32 * w as u32) <= nodes as u32 {
            if nodes.is_multiple_of(w) {
                best = Some((nodes / w, w));
            }
            w += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "w = 1 divides every `nodes`, so the loop records a factorization"
        )]
        let (w, h) = best.expect("factorization exists");
        assert!(
            w <= h * 2,
            "{nodes} nodes cannot form a mesh with aspect ratio <= 2 ({w}x{h})"
        );
        Mesh::new(w, h)
    }

    /// Mesh width (columns).
    pub const fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub const fn height(self) -> u16 {
        self.height
    }

    /// Total node count.
    pub const fn nodes(self) -> u16 {
        self.width * self.height
    }

    /// The `(x, y)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    pub fn coords(self, node: NodeId) -> (u16, u16) {
        assert!(node.get() < self.nodes(), "node {node} outside mesh");
        (node.get() % self.width, node.get() / self.width)
    }

    /// The node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside mesh");
        NodeId::new(y * self.width + x)
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// The XY (x-first, then y) route from `src` to `dst` as a sequence
    /// of directed links. Empty when `src == dst`.
    pub fn xy_route(self, src: NodeId, dst: NodeId) -> Vec<Link> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut links = Vec::with_capacity(self.hops(src, dst) as usize);
        let mut from = src;
        while x != dx {
            x = if x < dx { x + 1 } else { x - 1 };
            let to = self.node_at(x, y);
            links.push(Link { from, to });
            from = to;
        }
        while y != dy {
            y = if y < dy { y + 1 } else { y - 1 };
            let to = self.node_at(x, y);
            links.push(Link { from, to });
            from = to;
        }
        links
    }

    /// The XY route from `src` to `dst` as its X leg, then its Y leg,
    /// each a run of consecutive [`Mesh::link_index`] numbers. Walking
    /// both runs in order visits exactly the links of
    /// [`Mesh::xy_route`]. A leg the route does not take is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use stashdir_common::NodeId;
    /// use stashdir_noc::Mesh;
    ///
    /// let mesh = Mesh::new(4, 4);
    /// let [x, y] = mesh.xy_link_runs(NodeId::new(3), NodeId::new(8));
    /// // Three hops west along row 0, then two hops south down column 0.
    /// assert_eq!((x.links.len(), x.reversed), (3, true));
    /// assert_eq!((y.links.len(), y.reversed), (2, false));
    /// ```
    pub fn xy_link_runs(self, src: NodeId, dst: NodeId) -> [LinkRun; 2] {
        self.link_runs(self.coords(src), self.coords(dst))
    }

    /// [`Mesh::xy_link_runs`] between the nodes at `(sx, sy)` and
    /// `(dx, dy)`, for callers that already hold both coordinates.
    pub(crate) fn link_runs(self, (sx, sy): (u16, u16), (dx, dy): (u16, u16)) -> [LinkRun; 2] {
        let (sx, sy, dx, dy) = (sx as usize, sy as usize, dx as usize, dy as usize);
        let w = self.width as usize;
        let h = self.height as usize;
        // East links, then west links, then south, then north.
        let horizontal = (w - 1) * h;
        let row = sy * (w - 1);
        let x = if sx <= dx {
            LinkRun::forward(row + sx..row + dx)
        } else {
            LinkRun::reversed(horizontal + row + dx..horizontal + row + sx)
        };
        let column = 2 * horizontal + dx * (h - 1);
        let y = if sy <= dy {
            LinkRun::forward(column + sy..column + dy)
        } else {
            let north = column + (h - 1) * w;
            LinkRun::reversed(north + dy..north + sy)
        };
        [x, y]
    }

    /// Number of directed links in the mesh (each physical channel is two
    /// directed links).
    pub fn directed_links(self) -> usize {
        let w = self.width as usize;
        let h = self.height as usize;
        2 * ((w - 1) * h + (h - 1) * w)
    }

    /// Dense index of a directed link for table lookups.
    ///
    /// # Panics
    ///
    /// Panics if `link` does not connect mesh neighbors.
    pub fn link_index(self, link: Link) -> usize {
        let (fx, fy) = self.coords(link.from);
        let (tx, ty) = self.coords(link.to);
        let w = self.width as usize;
        let h = self.height as usize;
        let horizontal = (w - 1) * h; // east links, then west links, then vertical
        match (tx as i32 - fx as i32, ty as i32 - fy as i32) {
            (1, 0) => fy as usize * (w - 1) + fx as usize,
            (-1, 0) => horizontal + fy as usize * (w - 1) + tx as usize,
            (0, 1) => 2 * horizontal + fx as usize * (h - 1) + fy as usize,
            (0, -1) => 2 * horizontal + (h - 1) * w + fx as usize * (h - 1) + ty as usize,
            _ => panic!("{link} does not connect mesh neighbors"),
        }
    }
}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.width, self.height)
    }
}

/// One leg of an XY route: consecutive dense link indices, walked from
/// the low end up or, when `reversed`, from the high end down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRun {
    /// The leg's link indices (see [`Mesh::link_index`]).
    pub links: Range<usize>,
    /// The route takes the links in decreasing index order.
    pub reversed: bool,
}

impl LinkRun {
    fn forward(links: Range<usize>) -> Self {
        LinkRun {
            links,
            reversed: false,
        }
    }

    fn reversed(links: Range<usize>) -> Self {
        LinkRun {
            links,
            reversed: true,
        }
    }
}

/// A directed link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Upstream router.
    pub from: NodeId,
    /// Downstream router.
    pub to: NodeId,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let mesh = Mesh::new(4, 2);
        for n in 0..8 {
            let node = NodeId::new(n);
            let (x, y) = mesh.coords(node);
            assert_eq!(mesh.node_at(x, y), node);
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(0)), 0);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(3)), 3);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(12)), 3);
        assert_eq!(mesh.hops(NodeId::new(5), NodeId::new(10)), 2);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let mesh = Mesh::new(4, 4);
        let route = mesh.xy_route(NodeId::new(0), NodeId::new(5));
        // 0 -> 1 (x), then 1 -> 5 (y).
        assert_eq!(route.len(), 2);
        assert_eq!(route[0].from, NodeId::new(0));
        assert_eq!(route[0].to, NodeId::new(1));
        assert_eq!(route[1].from, NodeId::new(1));
        assert_eq!(route[1].to, NodeId::new(5));
    }

    #[test]
    fn route_length_matches_hops_everywhere() {
        let mesh = Mesh::new(3, 5);
        for a in 0..15 {
            for b in 0..15 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(mesh.xy_route(a, b).len() as u64, mesh.hops(a, b));
            }
        }
    }

    #[test]
    fn route_to_self_is_empty() {
        let mesh = Mesh::new(4, 4);
        assert!(mesh.xy_route(NodeId::new(6), NodeId::new(6)).is_empty());
    }

    #[test]
    fn routes_go_west_and_north_too() {
        let mesh = Mesh::new(4, 4);
        let route = mesh.xy_route(NodeId::new(15), NodeId::new(0));
        assert_eq!(route.len(), 6);
        assert_eq!(route.last().unwrap().to, NodeId::new(0));
    }

    #[test]
    fn link_indices_are_dense_and_unique() {
        let mesh = Mesh::new(4, 3);
        let mut seen = vec![false; mesh.directed_links()];
        for a in 0..mesh.nodes() {
            for b in 0..mesh.nodes() {
                for link in mesh.xy_route(NodeId::new(a), NodeId::new(b)) {
                    let idx = mesh.link_index(link);
                    assert!(idx < mesh.directed_links());
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every directed link is routable");
    }

    #[test]
    fn for_nodes_builds_square_meshes() {
        assert_eq!(Mesh::for_nodes(16), Mesh::new(4, 4));
        assert_eq!(Mesh::for_nodes(32), Mesh::new(8, 4));
        assert_eq!(Mesh::for_nodes(64), Mesh::new(8, 8));
        assert_eq!(Mesh::for_nodes(2), Mesh::new(2, 1));
    }

    #[test]
    #[should_panic(expected = "aspect ratio")]
    fn for_nodes_rejects_primes() {
        let _ = Mesh::for_nodes(13);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_mesh_node_panics() {
        Mesh::new(2, 2).coords(NodeId::new(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Mesh::new(4, 4).to_string(), "4x4 mesh");
        let link = Link {
            from: NodeId::new(0),
            to: NodeId::new(1),
        };
        assert_eq!(link.to_string(), "node0->node1");
    }
}
