//! The bounded, two-lane mailbox of one site: the single definition both
//! real transports deliver into (see the crate docs on overload
//! protection).

use crate::{Envelope, LaneClassifier, PathId};
use pscc_common::SiteId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One site's mailbox: a priority lane for consistency traffic and a
/// bulk lane for everything else, each holding at most `capacity`
/// envelopes. Both lanes sit under one lock, so a receiver sees the
/// priority lane first without polling. Clones share the lanes.
pub(crate) struct Mailbox<M> {
    site: SiteId,
    shared: Arc<Shared<M>>,
}

struct Shared<M> {
    lanes: Mutex<Lanes<M>>,
    capacity: usize,
    /// The lane decision: `true` puts a message on the priority lane.
    classify: LaneClassifier<M>,
    /// Signals receivers that an envelope arrived (or the mailbox closed).
    ready: Condvar,
    /// Signals senders that a lane has room (or the mailbox closed).
    space: Condvar,
    /// Bulk-lane envelopes dropped on overflow.
    dropped: AtomicU64,
}

struct Lanes<M> {
    prio: VecDeque<Envelope<M>>,
    bulk: VecDeque<Envelope<M>>,
    closed: bool,
}

impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Self {
        Mailbox {
            site: self.site,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M> Mailbox<M> {
    /// An empty mailbox for `site` whose lanes each hold `capacity`
    /// envelopes; `classify` picks each message's lane.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(site: SiteId, capacity: usize, classify: LaneClassifier<M>) -> Self {
        assert!(capacity > 0, "need a non-zero mailbox capacity");
        Mailbox {
            site,
            shared: Arc::new(Shared {
                lanes: Mutex::new(Lanes {
                    prio: VecDeque::new(),
                    bulk: VecDeque::new(),
                    closed: false,
                }),
                capacity,
                classify,
                ready: Condvar::new(),
                space: Condvar::new(),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// The site this mailbox delivers to.
    pub(crate) fn site(&self) -> SiteId {
        self.site
    }

    fn lock(&self) -> MutexGuard<'_, Lanes<M>> {
        self.shared.lanes.lock().expect("mailbox poisoned")
    }

    /// Queues `msg` from `from` along `path` on the lane its classifier
    /// picks. A full priority lane blocks the caller until there is
    /// room: that lane never loses a message. A full bulk lane blocks
    /// for at most `bulk_wait` (`None`: until there is room), then drops
    /// the message and counts it in [`Mailbox::dropped`]. This wait is
    /// the one place the transports differ: an in-proc sender gives up
    /// after a short grace, a TCP reader stalls its socket instead.
    ///
    /// Returns `false` once the mailbox is closed; `msg` is discarded.
    pub(crate) fn push(
        &self,
        from: SiteId,
        path: PathId,
        msg: M,
        bulk_wait: Option<Duration>,
    ) -> bool {
        let prio = (self.shared.classify)(&msg);
        let deadline = bulk_wait.filter(|_| !prio).map(|w| Instant::now() + w);
        let env = Envelope {
            from,
            to: self.site,
            path,
            msg,
        };
        let mut lanes = self.lock();
        loop {
            if lanes.closed {
                return false;
            }
            let lane = if prio {
                &mut lanes.prio
            } else {
                &mut lanes.bulk
            };
            if lane.len() < self.shared.capacity {
                lane.push_back(env);
                drop(lanes);
                self.shared.ready.notify_one();
                return true;
            }
            lanes = match deadline {
                None => self.shared.space.wait(lanes).expect("mailbox poisoned"),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    let waited = self.shared.space.wait_timeout(lanes, at - now);
                    waited.expect("mailbox poisoned").0
                }
            };
        }
    }

    /// Waits up to `timeout` for the next envelope, priority lane first.
    /// A closed mailbox still hands out what it holds, then `None`.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let deadline = Instant::now() + timeout;
        let mut lanes = self.lock();
        loop {
            // Senders wait only on a full lane; skip the wake-up otherwise.
            let was_full = lanes.prio.len().max(lanes.bulk.len()) >= self.shared.capacity;
            if let Some(env) = lanes.prio.pop_front().or_else(|| lanes.bulk.pop_front()) {
                drop(lanes);
                if was_full {
                    self.shared.space.notify_all();
                }
                return Some(env);
            }
            let now = Instant::now();
            if lanes.closed || now >= deadline {
                return None;
            }
            let waited = self.shared.ready.wait_timeout(lanes, deadline - now);
            lanes = waited.expect("mailbox poisoned").0;
        }
    }

    /// Envelopes queued on both lanes.
    pub(crate) fn depth(&self) -> usize {
        let lanes = self.lock();
        lanes.prio.len() + lanes.bulk.len()
    }

    /// Bulk-lane envelopes dropped on overflow so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Refuses further envelopes and wakes every blocked sender and
    /// receiver. Called when the site's receiving side goes away, so no
    /// sender waits forever on a lane nobody drains. Runs in `Drop`, so
    /// it must not panic: setting the flag is valid even on a poisoned
    /// lock.
    pub(crate) fn close(&self) {
        let mut lanes = self
            .shared
            .lanes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        lanes.closed = true;
        drop(lanes);
        self.shared.space.notify_all();
        self.shared.ready.notify_all();
    }
}
