//! A real multithreaded harness: one OS thread per peer server,
//! communicating over [`pscc_net::InProcNetwork`] with the paths and
//! lanes of the routing table [`Message::route`], real-time timers, and
//! immediate disks. This is the
//! deployment shape of paper Fig. 2 — preemptive sites with genuinely
//! concurrent message handling — and the strongest validation that the
//! engine's state machine is driven correctly from outside.
//!
//! Applications submit requests through per-site channels and receive
//! replies the same way; everything else (timing, delivery order) is up
//! to the operating system's scheduler, so runs are *not* deterministic —
//! exactly the point.

use crate::testkit::CONTROLLER;
use crossbeam::channel as mpsc;
use pscc_common::{AppId, PsccError, SimTime, SiteId, SystemConfig, TxnId};
use pscc_core::{
    AppOp, AppReply, AppRequest, DrainPhase, Input, Message, Output, OwnerMap, PeerServer, ReqId,
};
use pscc_net::{InProcNetwork, PathId, Transport, DEFAULT_MAILBOX_CAPACITY};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A site thread's answer to [`Cmd::Probe`] — the observed state the
/// supervisor thread reconciles against.
#[derive(Debug, Clone, Copy)]
pub struct SiteProbe {
    /// The engine's epoch (bumped by each in-thread restart recovery).
    pub epoch: u64,
    /// Drain lifecycle phase.
    pub phase: DrainPhase,
    /// Admitted remote data requests.
    pub queue_depth: usize,
}

/// Longest a site thread blocks on its transport before it looks at its
/// command channel again.
const RECV_SLICE: Duration = Duration::from_micros(200);

/// Commands a driver can send to a site thread.
enum Cmd {
    App(AppRequest),
    /// Ask the site to report its counters.
    Stats(mpsc::Sender<pscc_common::Counters>),
    /// Inject a control-plane message as [`CONTROLLER`] (drain/undrain).
    Control(Message),
    /// Ask the site to report its control-plane observables.
    Probe(mpsc::Sender<SiteProbe>),
    /// Restart the engine in place: the current instance is dropped (the
    /// model of a process crash), its durable WAL image survives, and a
    /// recovered engine takes over the same thread and transport.
    Restart(mpsc::Sender<()>),
}

/// Applies one batch of engine outputs inside a site thread: sends go
/// to the transport (acks addressed to [`CONTROLLER`] are dropped — the
/// supervisor thread polls probes instead of holding an endpoint), disks
/// complete immediately, timers are armed against wall clock, and app
/// replies go to the driver channel.
fn drive<T: Transport<Message>>(
    outs: Vec<Output>,
    endpoint: &T,
    timers: &mut Vec<(Instant, pscc_core::TimerId)>,
    pending: &mut VecDeque<Input>,
    rtx: &mpsc::Sender<AppReply>,
) {
    for o in outs {
        match o {
            Output::Send { to, msg } => {
                if to == CONTROLLER {
                    continue;
                }
                Transport::send(endpoint, to, PathId(msg.path() as u8), msg);
            }
            Output::Disk { req, .. } => {
                // Immediate disks: storage is in memory.
                pending.push_back(Input::DiskDone { req });
            }
            Output::ArmTimer { timer, delay } => {
                timers.push((
                    Instant::now() + Duration::from_micros(delay.as_micros()),
                    timer,
                ));
            }
            Output::App(reply) => {
                let _ = rtx.send(reply);
            }
        }
    }
}

/// A cluster of peer servers, each on its own OS thread.
pub struct ThreadedCluster {
    cmd_tx: Vec<mpsc::Sender<Cmd>>,
    reply_rx: Vec<mpsc::Receiver<AppReply>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadedCluster {
    /// Spawns `n` peer servers on their own threads over in-process
    /// channels.
    pub fn new(n: u32, cfg: SystemConfig, owners: OwnerMap) -> Self {
        let sites: Vec<SiteId> = (0..n).map(SiteId).collect();
        // Consistency traffic (callbacks, commit decisions, rejoin) rides
        // the lossless priority lane (DESIGN.md §7).
        let net = InProcNetwork::with_overload(
            &sites,
            3,
            DEFAULT_MAILBOX_CAPACITY,
            Message::is_consistency,
        );
        Self::with_transports(
            cfg,
            owners,
            sites.iter().map(|s| (*s, net.endpoint(*s))).collect(),
        )
    }

    /// Spawns peer servers over real TCP sockets on localhost — the
    /// full deployment stack: engine + codec frames + kernel TCP, with
    /// the same two-lane mailboxes as [`ThreadedCluster::new`].
    ///
    /// # Panics
    ///
    /// Panics if localhost listeners cannot be bound.
    pub fn new_tcp(n: u32, cfg: SystemConfig, owners: OwnerMap) -> Self {
        use std::collections::HashMap;
        use std::net::{SocketAddr, TcpListener};
        let sites: Vec<SiteId> = (0..n).map(SiteId).collect();
        let addrs: Vec<SocketAddr> = sites
            .iter()
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind");
                let a = l.local_addr().expect("addr");
                drop(l);
                a
            })
            .collect();
        let transports = sites
            .iter()
            .map(|&s| {
                let peers: HashMap<SiteId, SocketAddr> = sites
                    .iter()
                    .filter(|o| **o != s)
                    .map(|o| (*o, addrs[o.0 as usize]))
                    .collect();
                let node = pscc_net::tcp::TcpNode::start_bounded(
                    s,
                    addrs[s.0 as usize],
                    peers,
                    DEFAULT_MAILBOX_CAPACITY,
                    Message::is_consistency,
                )
                .expect("tcp node");
                (s, node)
            })
            .collect();
        Self::with_transports(cfg, owners, transports)
    }

    /// Spawns the site threads over arbitrary transports.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] — a
    /// cluster of real threads wedged by an un-admittable config is much
    /// harder to diagnose than an up-front refusal.
    pub fn with_transports<T: Transport<Message> + Send + 'static>(
        cfg: SystemConfig,
        owners: OwnerMap,
        transports: Vec<(SiteId, T)>,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut cmd_tx = Vec::new();
        let mut reply_rx = Vec::new();
        let mut handles = Vec::new();
        let start = Instant::now();

        // Drivers are trusted not to flood, but the channels are bounded
        // anyway so a runaway workload blocks at submission instead of
        // growing memory without limit.
        for (site, endpoint) in transports {
            let (ctx, crx) = mpsc::bounded::<Cmd>(DEFAULT_MAILBOX_CAPACITY);
            let (rtx, rrx) = mpsc::bounded::<AppReply>(DEFAULT_MAILBOX_CAPACITY);
            cmd_tx.push(ctx);
            reply_rx.push(rrx);
            let cfg = cfg.clone();
            let owners = owners.clone();
            let stop = Arc::clone(&shutdown);
            handles.push(std::thread::spawn(move || {
                let mut engine = PeerServer::new(site, cfg.clone(), owners.clone());
                // (fire-at, timer) pairs, unsorted (few at a time).
                let mut timers: Vec<(Instant, pscc_core::TimerId)> = Vec::new();
                let mut pending: VecDeque<Input> = VecDeque::new();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    // Gather one input: pending first, then due timers,
                    // then commands, then the network. Timers go before
                    // anything that can arrive without pause, so steady
                    // traffic cannot starve lock-wait timeouts, lease
                    // heartbeats or `Busy` retries.
                    let now = Instant::now();
                    let due = timers.iter().position(|(at, _)| *at <= now);
                    let input = if let Some(i) = pending.pop_front() {
                        Some(i)
                    } else if let Some(i) = due {
                        let (_, timer) = timers.swap_remove(i);
                        Some(Input::TimerFired { timer })
                    } else if let Ok(cmd) = crx.try_recv() {
                        match cmd {
                            Cmd::App(req) => Some(Input::App(req)),
                            Cmd::Stats(tx) => {
                                let _ = tx.send(engine.stats);
                                continue;
                            }
                            Cmd::Control(msg) => Some(Input::Msg {
                                from: CONTROLLER,
                                msg,
                            }),
                            Cmd::Probe(tx) => {
                                let _ = tx.send(SiteProbe {
                                    epoch: engine.epoch(),
                                    phase: engine.drain_phase(),
                                    queue_depth: engine.queue_depth(),
                                });
                                continue;
                            }
                            Cmd::Restart(done) => {
                                // Rebuild the engine in place. Owners come
                                // back through ARIES restart recovery over
                                // the durable image; pure clients restart
                                // cold (nothing durable to lose).
                                let owns_data =
                                    !owners.pages_of(site, cfg.database_pages).is_empty();
                                let outs = if owns_data {
                                    let durable = engine.crash_image();
                                    let prior = engine.epoch();
                                    let (next, outs) = PeerServer::recover(
                                        site,
                                        cfg.clone(),
                                        owners.clone(),
                                        &durable,
                                        prior,
                                    );
                                    engine = next;
                                    outs
                                } else {
                                    engine = PeerServer::new(site, cfg.clone(), owners.clone());
                                    Vec::new()
                                };
                                engine.stats.faults_injected += 1;
                                // A crashed process forgets its timers.
                                timers.clear();
                                pending.clear();
                                drive(outs, &endpoint, &mut timers, &mut pending, &rtx);
                                let _ = done.send(());
                                continue;
                            }
                        }
                    } else {
                        // Block no later than the earliest timer.
                        let wait = timers
                            .iter()
                            .map(|(at, _)| at.saturating_duration_since(now))
                            .fold(RECV_SLICE, Duration::min);
                        Transport::recv_timeout(&endpoint, wait).map(|env| Input::Msg {
                            from: env.from,
                            msg: env.msg,
                        })
                    };
                    let Some(input) = input else { continue };
                    let now = SimTime::from_micros(start.elapsed().as_micros() as u64);
                    let outs = engine.handle(now, input);
                    drive(outs, &endpoint, &mut timers, &mut pending, &rtx);
                }
            }));
        }
        ThreadedCluster {
            cmd_tx,
            reply_rx,
            shutdown,
            handles,
        }
    }

    /// Submits an application request to `site` without waiting.
    pub fn submit(&self, site: SiteId, app: AppId, txn: Option<TxnId>, op: AppOp) {
        let _ = self.cmd_tx[site.0 as usize].send(Cmd::App(AppRequest { app, txn, op }));
    }

    /// Waits (up to 10 s wall time) for the next reply from `site`.
    ///
    /// # Errors
    ///
    /// [`PsccError::InvalidOperation`] on timeout.
    pub fn recv_reply(&self, site: SiteId) -> Result<AppReply, PsccError> {
        self.reply_rx[site.0 as usize]
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| PsccError::InvalidOperation("threaded cluster reply timeout"))
    }

    /// Begins a transaction at `site`.
    ///
    /// # Errors
    ///
    /// Propagates reply timeouts.
    pub fn begin(&self, site: SiteId, app: AppId) -> Result<TxnId, PsccError> {
        self.submit(site, app, None, AppOp::Begin);
        loop {
            match self.recv_reply(site)? {
                AppReply::Started { txn, .. } => return Ok(txn),
                _ => continue, // stale replies from earlier aborts
            }
        }
    }

    /// Runs one op to completion (retrying the receive past unrelated
    /// replies).
    ///
    /// # Errors
    ///
    /// [`PsccError::Aborted`] when the transaction aborts instead.
    pub fn run_op(
        &self,
        site: SiteId,
        app: AppId,
        txn: TxnId,
        op: AppOp,
    ) -> Result<AppReply, PsccError> {
        self.submit(site, app, Some(txn), op);
        loop {
            match self.recv_reply(site)? {
                AppReply::Aborted { txn: t, reason, .. } if t == txn => {
                    return Err(PsccError::Aborted { txn: t, reason })
                }
                r @ (AppReply::Done { .. } | AppReply::Committed { .. }) => {
                    let matches_txn = match &r {
                        AppReply::Done { txn: t, .. } | AppReply::Committed { txn: t, .. } => {
                            *t == txn
                        }
                        _ => false,
                    };
                    if matches_txn {
                        return Ok(r);
                    }
                }
                _ => continue,
            }
        }
    }

    /// Injects a control-plane message at `site` as [`CONTROLLER`].
    pub fn send_control(&self, site: SiteId, msg: Message) {
        let _ = self.cmd_tx[site.0 as usize].send(Cmd::Control(msg));
    }

    /// Reports `site`'s control-plane observables.
    ///
    /// # Errors
    ///
    /// [`PsccError::InvalidOperation`] if the site thread is gone or
    /// does not answer within five seconds.
    pub fn probe(&self, site: SiteId) -> Result<SiteProbe, PsccError> {
        Self::probe_via(&self.cmd_tx[site.0 as usize])
    }

    fn probe_via(tx: &mpsc::Sender<Cmd>) -> Result<SiteProbe, PsccError> {
        let (ptx, prx) = mpsc::bounded(1);
        tx.send(Cmd::Probe(ptx))
            .map_err(|_| PsccError::InvalidOperation("probe: site thread gone"))?;
        prx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| PsccError::InvalidOperation("probe: site thread unresponsive"))
    }

    /// Rolls each of `sites` through drain → restart → undrain from a
    /// dedicated supervisor thread, one site at a time, while the rest
    /// of the cluster keeps serving. Each step must complete within
    /// `step_timeout` of wall clock. Returns the join handle; joining
    /// yields the post-roll epoch of each rolled site in order.
    ///
    /// The supervisor talks to site threads only through their command
    /// channels — exactly the interface a remote operator would have —
    /// so the roll exercises the same drain protocol as the
    /// deterministic harness, under a preemptive scheduler.
    pub fn spawn_rolling_restart(
        &self,
        step_timeout: Duration,
        sites: Vec<SiteId>,
    ) -> JoinHandle<Result<Vec<u64>, PsccError>> {
        let cmd_tx: Vec<mpsc::Sender<Cmd>> = sites
            .iter()
            .map(|s| self.cmd_tx[s.0 as usize].clone())
            .collect();
        std::thread::spawn(move || {
            let wait = |tx: &mpsc::Sender<Cmd>,
                        ok: &dyn Fn(&SiteProbe) -> bool,
                        err: &'static str|
             -> Result<SiteProbe, PsccError> {
                let deadline = Instant::now() + step_timeout;
                loop {
                    let p = Self::probe_via(tx)?;
                    if ok(&p) {
                        return Ok(p);
                    }
                    if Instant::now() > deadline {
                        return Err(PsccError::InvalidOperation(err));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            };
            let mut epochs = Vec::with_capacity(cmd_tx.len());
            for (i, tx) in cmd_tx.iter().enumerate() {
                let req = ReqId(i as u64 + 1);
                let before = Self::probe_via(tx)?.epoch;
                tx.send(Cmd::Control(Message::DrainReq { req }))
                    .map_err(|_| PsccError::InvalidOperation("rolling: site thread gone"))?;
                wait(
                    tx,
                    &|p| p.phase == DrainPhase::Drained,
                    "rolling: drain step timed out",
                )?;
                let (dtx, drx) = mpsc::bounded(1);
                tx.send(Cmd::Restart(dtx))
                    .map_err(|_| PsccError::InvalidOperation("rolling: site thread gone"))?;
                drx.recv_timeout(step_timeout)
                    .map_err(|_| PsccError::InvalidOperation("rolling: restart step timed out"))?;
                tx.send(Cmd::Control(Message::UndrainReq { req }))
                    .map_err(|_| PsccError::InvalidOperation("rolling: site thread gone"))?;
                let after = wait(
                    tx,
                    &|p| p.phase == DrainPhase::Active && p.epoch >= before,
                    "rolling: undrain step timed out",
                )?;
                epochs.push(after.epoch);
            }
            Ok(epochs)
        })
    }

    /// Sums the counters of every site.
    pub fn total_stats(&self) -> pscc_common::Counters {
        let mut total = pscc_common::Counters::default();
        for tx in &self.cmd_tx {
            let (stx, srx) = mpsc::bounded(1);
            if tx.send(Cmd::Stats(stx)).is_ok() {
                if let Ok(c) = srx.recv_timeout(Duration::from_secs(5)) {
                    total += c;
                }
            }
        }
        total
    }

    /// Stops all site threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
