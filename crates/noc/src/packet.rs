//! Flits, the units a packet crosses the fabric in.

use crate::NodeId;

/// Identifier of a packet in the fabric: the index of its slot in the
/// network's packet table. A slot is reused once its packet has left
/// (its tail ejected, or reconfiguration purged it), so an id is
/// unique among the packets in flight at one time, not over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PacketId(pub(crate) u32);

/// One flow-control unit, 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// The packet this flit belongs to.
    pub(crate) packet: PacketId,
    /// Source node (odd-even routing may turn freely only in the
    /// source column, so the route function needs it; replicated like
    /// `dst` so routers need no packet table).
    pub(crate) src: NodeId,
    /// Destination (replicated so routers need no packet table).
    pub(crate) dst: NodeId,
    /// First flit of its packet: it carries the route.
    pub(crate) head: bool,
    /// Last flit of its packet: it releases the wormhole path.
    pub(crate) tail: bool,
}

impl Flit {
    /// The `len` flits of packet `packet` from `src` to `dst`, in
    /// order; a one-flit packet's flit is both head and tail.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub(crate) fn of_packet(
        packet: PacketId,
        src: NodeId,
        dst: NodeId,
        len: u32,
    ) -> impl Iterator<Item = Flit> {
        assert!(len >= 1, "packet must have at least one flit");
        (0..len).map(move |i| Flit { packet, src, dst, head: i == 0, tail: i + 1 == len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ends(len: u32) -> Vec<(bool, bool)> {
        Flit::of_packet(PacketId(7), NodeId(0), NodeId(5), len).map(|f| (f.head, f.tail)).collect()
    }

    #[test]
    fn segmentation_marks_head_and_tail() {
        let body = (false, false);
        assert_eq!(ends(4), [(true, false), body, body, (false, true)]);
        assert_eq!(ends(2), [(true, false), (false, true)]);
        let f: Vec<Flit> = Flit::of_packet(PacketId(7), NodeId(0), NodeId(5), 3).collect();
        assert!(f.iter().all(|x| x.packet == PacketId(7) && x.src == NodeId(0) && x.dst == NodeId(5)));
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        assert_eq!(ends(1), [(true, true)]);
    }

    #[test]
    fn a_flit_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 12);
    }
}
