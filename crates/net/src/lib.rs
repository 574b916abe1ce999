//! # pscc-net
//!
//! Inter-peer-server communication with the ordering semantics of the
//! paper's Fig. 2: *multiple* communication paths may exist between two
//! peer servers; message order is preserved **along each path**, but
//! messages sent on different paths can arrive out of order. All of the
//! race conditions of paper §4.2.4 (callback races, purge races,
//! deescalation races) stem from exactly this looseness, so the transport
//! reproduces it faithfully:
//!
//! * [`InProcNetwork`] — an in-process network for the real
//!   multithreaded harness: every source enqueues into the
//!   destination's mailbox in program order, so each path stays FIFO;
//!   receivers merge across paths in arrival order.
//! * [`SeededNet`] — a single-threaded, deterministic message pool for
//!   simulation and race-exploration tests: per-path FIFO is enforced,
//!   and the *choice of which path delivers next* is driven by a seeded
//!   RNG, so every adversarial interleaving is reproducible.
//!
//! ## Overload protection
//!
//! Both real transports deliver into one mailbox type per site, bounded
//! ([`DEFAULT_MAILBOX_CAPACITY`] in the harnesses) and split into two
//! lanes. The transport's [`LaneClassifier`] marks *consistency* traffic
//! (callbacks, commit decisions, rejoin handshakes, flow-control
//! verdicts); that lane is never shed and receivers drain it ahead of
//! the bulk lane, so a fetch flood cannot wedge the messages callback
//! locking depends on. A full bulk lane is where the transports differ:
//! an in-proc send waits briefly and then drops — counted, never silent
//! — which the engine's timeout-and-retry machinery already tolerates;
//! a TCP reader stops reading, and the kernel window pushes back on the
//! sender.
//!
//! # Examples
//!
//! ```
//! use pscc_net::{InProcNetwork, PathId, Transport, DEFAULT_MAILBOX_CAPACITY};
//! use pscc_common::SiteId;
//! use std::time::Duration;
//!
//! let sites = [SiteId(0), SiteId(1)];
//! let net = InProcNetwork::<String>::with_overload(&sites, 2, DEFAULT_MAILBOX_CAPACITY, |_| true);
//! let a = net.endpoint(SiteId(0));
//! let b = net.endpoint(SiteId(1));
//! a.send(SiteId(1), PathId(0), "hello".to_string());
//! let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(env.msg, "hello");
//! assert_eq!(env.from, SiteId(0));
//! assert_eq!(env.to, SiteId(1));
//! ```

pub mod codec;
mod mailbox;
pub mod tcp;

use mailbox::Mailbox;
use pscc_common::SiteId;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Duration;

/// Per-lane mailbox capacity of every site in the harnesses.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 4_096;

/// How long an in-proc bulk-lane send waits on a full mailbox before
/// dropping the message (counted via [`InProcNetwork::dropped`]). Short:
/// the sender is an engine thread whose time is better spent draining
/// its own mailbox.
const BULK_FULL_TIMEOUT: Duration = Duration::from_millis(10);

/// Decides the lane of a message: `true` routes it onto the never-shed
/// priority (consistency) lane, `false` onto the sheddable bulk lane.
/// The engine's classifier is `Message::is_consistency`, the lane column
/// of its single routing table `Message::route`; the transport stays
/// generic over the payload type.
pub type LaneClassifier<M> = fn(&M) -> bool;

/// One of the parallel communication paths between a pair of peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(pub u8);

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Which path carries it.
    pub path: PathId,
    /// The payload.
    pub msg: M,
}

// ---------------------------------------------------------------------
// Threaded network
// ---------------------------------------------------------------------

/// An in-process network between a fixed set of sites with `n_paths`
/// independent FIFO paths per ordered pair and one bounded, two-lane
/// mailbox per site (see the module docs on overload protection).
pub struct InProcNetwork<M> {
    n_paths: u8,
    // Every source shares a destination's mailbox; per-path FIFO holds
    // because a sending thread enqueues in program order.
    mailboxes: HashMap<SiteId, Mailbox<M>>,
}

impl<M> fmt::Debug for InProcNetwork<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcNetwork")
            .field("n_paths", &self.n_paths)
            .field("sites", &self.mailboxes.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl<M> InProcNetwork<M> {
    /// Builds a network among `sites` with `n_paths` paths per pair,
    /// per-lane mailbox `capacity`, and `classify` choosing each
    /// message's lane.
    ///
    /// # Panics
    ///
    /// Panics if `n_paths == 0` or `capacity == 0`.
    pub fn with_overload(
        sites: &[SiteId],
        n_paths: u8,
        capacity: usize,
        classify: LaneClassifier<M>,
    ) -> Self {
        assert!(n_paths > 0, "need at least one path");
        InProcNetwork {
            n_paths,
            mailboxes: sites
                .iter()
                .map(|&s| (s, Mailbox::new(s, capacity, classify)))
                .collect(),
        }
    }

    /// The endpoint of `site`. Dropping it closes the site's mailbox:
    /// later sends to the site are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `site` was not in the construction list.
    pub fn endpoint(&self, site: SiteId) -> Endpoint<M> {
        let inbox = self
            .mailboxes
            .get(&site)
            .unwrap_or_else(|| panic!("unknown site {site}"))
            .clone();
        let out = self
            .mailboxes
            .iter()
            .filter(|(dst, _)| **dst != site)
            .map(|(dst, mb)| (*dst, mb.clone()))
            .collect();
        Endpoint {
            n_paths: self.n_paths,
            inbox,
            out,
        }
    }

    /// Current mailbox depth (both lanes) of `site` — the per-peer queue
    /// gauge harnesses export.
    pub fn queue_depth(&self, site: SiteId) -> usize {
        self.mailboxes.get(&site).map_or(0, Mailbox::depth)
    }

    /// Bulk-lane messages dropped on overflow so far, network-wide.
    pub fn dropped(&self) -> u64 {
        self.mailboxes.values().map(Mailbox::dropped).sum()
    }
}

/// A message transport as seen by one site: the engine harnesses are
/// generic over this, so the same driver loop runs over in-process
/// mailboxes ([`Endpoint`]) and real sockets ([`tcp::TcpNode`]).
pub trait Transport<M> {
    /// Sends `msg` to `to` along `path` (best effort; a vanished peer
    /// behaves like a closed socket).
    fn send(&self, to: SiteId, path: PathId, msg: M);

    /// Waits up to `timeout` for the next inbound message, consistency
    /// traffic first.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>>;
}

/// One site's handle onto an [`InProcNetwork`].
pub struct Endpoint<M> {
    n_paths: u8,
    inbox: Mailbox<M>,
    out: HashMap<SiteId, Mailbox<M>>,
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("n_paths", &self.n_paths)
            .field("depth", &self.inbox.depth())
            .finish()
    }
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        self.inbox.close();
    }
}

impl<M> Transport<M> for Endpoint<M> {
    /// Sends `msg` to `to` along `path`. Consistency traffic blocks on a
    /// full mailbox and is never dropped. Bulk traffic on a full mailbox
    /// waits [`BULK_FULL_TIMEOUT`] and is then dropped and counted — the
    /// engine's lock timeouts and `Busy` retries re-drive the work.
    ///
    /// # Panics
    ///
    /// Panics on an unknown destination or path (protocol error).
    fn send(&self, to: SiteId, path: PathId, msg: M) {
        let dst = self
            .out
            .get(&to)
            .unwrap_or_else(|| panic!("unknown destination {to}"));
        assert!(path.0 < self.n_paths, "unknown {path}");
        // A closed destination has shut down; losing the message then is
        // fine.
        dst.push(self.inbox.site(), path, msg, Some(BULK_FULL_TIMEOUT));
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv_timeout(timeout)
    }
}

// ---------------------------------------------------------------------
// Deterministic network
// ---------------------------------------------------------------------

/// A deterministic, single-threaded message pool with per-path FIFO and
/// seeded cross-path delivery order — the instrument used to drive the
/// race-condition tests of paper §4.2.4.
#[derive(Debug)]
pub struct SeededNet<M> {
    queues: HashMap<(SiteId, SiteId, PathId), VecDeque<M>>,
    in_flight: usize,
}

impl<M> Default for SeededNet<M> {
    fn default() -> Self {
        SeededNet {
            queues: HashMap::new(),
            in_flight: 0,
        }
    }
}

impl<M> SeededNet<M> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a message.
    pub fn send(&mut self, from: SiteId, to: SiteId, path: PathId, msg: M) {
        self.queues
            .entry((from, to, path))
            .or_default()
            .push_back(msg);
        self.in_flight += 1;
    }

    /// Messages currently in flight.
    pub fn len(&self) -> usize {
        self.in_flight
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Delivers the head of a uniformly chosen non-empty `(src, dst,
    /// path)` queue. Per-path FIFO is preserved; everything else is up to
    /// the seed — exactly the SP2's "loose ordering".
    pub fn deliver_next<R: Rng>(&mut self, rng: &mut R) -> Option<Envelope<M>> {
        if self.in_flight == 0 {
            return None;
        }
        let keys: Vec<(SiteId, SiteId, PathId)> = {
            let mut ks: Vec<_> = self
                .queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(k, _)| *k)
                .collect();
            ks.sort(); // determinism independent of HashMap order
            ks
        };
        let k = keys[rng.gen_range(0..keys.len())];
        let msg = self.queues.get_mut(&k).and_then(VecDeque::pop_front)?;
        self.in_flight -= 1;
        Some(Envelope {
            from: k.0,
            to: k.1,
            path: k.2,
            msg,
        })
    }

    /// Delivers the oldest message of the given link-path FIFO, if any
    /// (targeted race construction in tests).
    pub fn deliver_from(&mut self, from: SiteId, to: SiteId, path: PathId) -> Option<Envelope<M>> {
        let msg = self
            .queues
            .get_mut(&(from, to, path))
            .and_then(VecDeque::pop_front)?;
        self.in_flight -= 1;
        Some(Envelope {
            from,
            to,
            path,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Odd payloads are "consistency" traffic.
    fn odd_is_consistency(m: &u32) -> bool {
        m % 2 == 1
    }

    fn two_sites(n_paths: u8, capacity: usize) -> InProcNetwork<u32> {
        InProcNetwork::with_overload(
            &[SiteId(0), SiteId(1)],
            n_paths,
            capacity,
            odd_is_consistency,
        )
    }

    fn recv(e: &Endpoint<u32>) -> Envelope<u32> {
        e.recv_timeout(Duration::from_secs(5)).expect("delivery")
    }

    #[test]
    fn inproc_roundtrip_and_fifo_per_path() {
        let net = two_sites(3, DEFAULT_MAILBOX_CAPACITY);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        for i in 0..10 {
            a.send(SiteId(1), PathId(1), i * 2);
        }
        let got: Vec<Envelope<u32>> = (0..10).map(|_| recv(&b)).collect();
        assert!(got
            .iter()
            .all(|e| e.from == SiteId(0) && e.to == SiteId(1) && e.path == PathId(1)));
        let msgs: Vec<u32> = got.into_iter().map(|e| e.msg).collect();
        assert_eq!(msgs, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inproc_recv_on_empty_mailbox_returns_none() {
        let net = two_sites(1, DEFAULT_MAILBOX_CAPACITY);
        let b = net.endpoint(SiteId(1));
        assert!(b.recv_timeout(Duration::ZERO).is_none());
    }

    #[test]
    fn inproc_cross_thread() {
        let net = two_sites(2, DEFAULT_MAILBOX_CAPACITY);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                a.send(SiteId(1), PathId((i % 2) as u8), i);
            }
        });
        let mut got: Vec<u32> = (0..100).map(|_| recv(&b).msg).collect();
        h.join().unwrap();
        got.sort();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn priority_lane_drained_before_bulk() {
        let net = two_sites(1, 64);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        // Bulk first, then priority: the receiver must see priority first.
        a.send(SiteId(1), PathId(0), 2);
        a.send(SiteId(1), PathId(0), 4);
        a.send(SiteId(1), PathId(0), 1);
        assert_eq!(net.queue_depth(SiteId(1)), 3);
        let got: Vec<u32> = (0..3).map(|_| recv(&b).msg).collect();
        assert_eq!(got, vec![1, 2, 4]);
        assert_eq!(net.queue_depth(SiteId(1)), 0);
    }

    #[test]
    fn bulk_overflow_drops_are_counted_and_priority_survives() {
        // Capacity 1: the second undrained bulk send must overflow.
        let net = two_sites(1, 1);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        a.send(SiteId(1), PathId(0), 2); // fills the bulk lane
        a.send(SiteId(1), PathId(0), 4); // overflows: dropped after the wait
        a.send(SiteId(1), PathId(0), 1); // priority: never dropped
        assert_eq!(net.dropped(), 1);
        assert_eq!(net.queue_depth(SiteId(1)), 2);
        let got: Vec<u32> = (0..2).map(|_| recv(&b).msg).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn full_priority_lane_blocks_until_drained_and_closes_with_its_endpoint() {
        let net = two_sites(1, 1);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        a.send(SiteId(1), PathId(0), 1); // fills the priority lane
        let sender = std::thread::spawn(move || {
            a.send(SiteId(1), PathId(0), 3); // blocks: the lane is lossless
            a
        });
        assert_eq!(recv(&b).msg, 1);
        assert_eq!(recv(&b).msg, 3);
        let a = sender.join().unwrap();
        a.send(SiteId(1), PathId(0), 5); // fills the lane again
        let blocked = std::thread::spawn(move || a.send(SiteId(1), PathId(0), 7));
        // Dropping the receiving endpoint releases the blocked sender.
        drop(b);
        blocked.join().unwrap();
        assert_eq!(net.dropped(), 0);
    }

    #[test]
    fn seeded_net_preserves_per_path_fifo() {
        let mut net = SeededNet::new();
        let (s0, s1) = (SiteId(0), SiteId(1));
        for i in 0..20u32 {
            net.send(s0, s1, PathId((i % 2) as u8), i);
        }
        let mut rng = StdRng::seed_from_u64(42);
        let mut per_path: HashMap<PathId, Vec<u32>> = HashMap::new();
        while let Some(env) = net.deliver_next(&mut rng) {
            per_path.entry(env.path).or_default().push(env.msg);
        }
        for (_, v) in per_path {
            let mut sorted = v.clone();
            sorted.sort();
            assert_eq!(v, sorted, "per-path order violated");
        }
        assert!(net.is_empty());
    }

    #[test]
    fn seeded_net_reorders_across_paths() {
        // With 2 paths, some seed must interleave them out of send order.
        let mut reordered = false;
        for seed in 0..20 {
            let mut net = SeededNet::new();
            net.send(SiteId(0), SiteId(1), PathId(0), 1u32);
            net.send(SiteId(0), SiteId(1), PathId(1), 2u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let first = net.deliver_next(&mut rng).unwrap();
            if first.msg == 2 {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "no seed produced cross-path reordering");
    }

    #[test]
    fn seeded_net_is_deterministic() {
        let run = |seed| {
            let mut net = SeededNet::new();
            for i in 0..30u32 {
                net.send(SiteId(i % 3), SiteId((i + 1) % 3), PathId((i % 2) as u8), i);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order = Vec::new();
            while let Some(e) = net.deliver_next(&mut rng) {
                order.push(e.msg);
            }
            order
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn deliver_from_is_targeted() {
        let mut net = SeededNet::new();
        net.send(SiteId(0), SiteId(1), PathId(0), 'a');
        net.send(SiteId(0), SiteId(1), PathId(1), 'b');
        let e = net.deliver_from(SiteId(0), SiteId(1), PathId(1)).unwrap();
        assert_eq!(e.msg, 'b');
        assert_eq!(net.len(), 1);
        assert!(net.deliver_from(SiteId(0), SiteId(1), PathId(1)).is_none());
    }
}
