//! A benchmark-side copy of `pscc_sim::Simulation::run`, built from the
//! same public parts (`owner_map`, `AppDriver`, `PeerServer`,
//! `CostModel`), that can time every `PeerServer::handle` call by input
//! kind. It exists only until the program times its own layers. Every
//! report it gives is compared with `Simulation::run`'s for the same
//! spec (see `des::Verdicts`).

use pscc_common::{Counters, SimDuration, SimTime, SiteId};
use pscc_core::{AppOp, AppReply, DiskOp, Input, Message, Output, PeerServer};
use pscc_sim::driver::DriverAction;
use pscc_sim::experiment::{owner_map, ExperimentSpec};
use pscc_sim::{AppDriver, CostModel, SimReport};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// The input kinds `handle` calls are timed by. Message labels not
/// listed fall into `msg.other`.
pub const KINDS: [&str; 22] = [
    "app_begin",
    "app_read",
    "app_write",
    "app_commit",
    "app_abort",
    "disk_done",
    "timer",
    "msg.read_obj",
    "msg.read_page",
    "msg.read_reply",
    "msg.write_obj",
    "msg.write_granted",
    "msg.commit_req",
    "msg.commit_ok",
    "msg.prepare",
    "msg.voted",
    "msg.decide",
    "msg.decided",
    "msg.callback",
    "msg.cb_ok",
    "msg.purge",
    "msg.other",
];

fn kind_of(input: &Input) -> usize {
    match input {
        Input::App(req) => match req.op {
            AppOp::Begin => 0,
            AppOp::Read(_) => 1,
            AppOp::Write { .. } => 2,
            AppOp::Commit => 3,
            AppOp::Abort => 4,
            ref op => panic!("AppDriver never submits {op:?}"),
        },
        Input::DiskDone { .. } => 5,
        Input::TimerFired { .. } => 6,
        Input::Msg { msg, .. } => {
            let label = msg.label();
            KINDS[7..KINDS.len() - 1]
                .iter()
                .position(|k| &k[4..] == label)
                .map_or(KINDS.len() - 1, |i| i + 7)
        }
    }
}

/// What one replica run observed besides its report.
#[derive(Debug, Default)]
pub struct Observed {
    /// Events the loop processed.
    pub events: u64,
    /// Wall nanoseconds of the whole loop.
    pub loop_ns: u64,
    /// Wall nanoseconds inside `handle`, summed over all calls.
    pub handle_ns: u64,
    /// Per [`KINDS`] entry: wall nanoseconds inside `handle`.
    pub kind_ns: [u64; KINDS.len()],
    /// Per [`KINDS`] entry: `handle` calls.
    pub kind_calls: [u64; KINDS.len()],
    /// Log-disk outputs.
    pub log_forces: u64,
    /// Data-disk page reads.
    pub page_reads: u64,
    /// Data-disk page writes.
    pub page_writes: u64,
    /// Begin submitted → `Committed` routed, real µs, every committed txn.
    pub txn_us: Vec<f64>,
    /// Commit submitted → `Committed` routed, real µs.
    pub commit_us: Vec<f64>,
    /// Every `sample_every`-th message sent (0 keeps none).
    pub sent: Vec<Message>,
}

#[derive(Debug)]
enum Event {
    CpuDone {
        site: usize,
        after: Option<usize>,
    },
    Deliver {
        site: usize,
        from: SiteId,
        msg: Message,
    },
    DiskDone {
        site: usize,
        req: pscc_core::DiskReqId,
    },
    Timer {
        site: usize,
        timer: pscc_core::TimerId,
    },
}

struct HeapItem {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug)]
enum Task {
    Input(Input),
    Think(usize),
}

/// One DES point, replayed.
pub struct Replica {
    cost: CostModel,
    sites: Vec<PeerServer>,
    apps: Vec<AppDriver>,
    cpus: Vec<(bool, VecDeque<Task>)>,
    data_disks: Vec<SimTime>,
    log_disks: Vec<SimTime>,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<HeapItem>,
    timed: bool,
    sample_every: u64,
    sent_seen: u64,
    begun: Vec<Instant>,
    commit_sent: Vec<Instant>,
    /// What the run observed.
    pub obs: Observed,
}

impl Replica {
    /// Builds the point exactly as `experiment::build_sim` does. With
    /// `timed`, every `handle` call is timed by kind; `sample_every > 0`
    /// keeps every such sent message for the codec timings.
    pub fn new(spec: &ExperimentSpec, timed: bool, sample_every: u64) -> Self {
        let (owners, n_sites, app_sites) = owner_map(spec);
        let apps: Vec<AppDriver> = app_sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                AppDriver::new(
                    pscc_common::AppId(i as u32),
                    *site,
                    spec.workload.clone(),
                    spec.cfg.clone(),
                    owners.clone(),
                    spec.seed.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        let n = n_sites as usize;
        let now = Instant::now();
        Replica {
            cost: CostModel::sp2(),
            sites: (0..n_sites)
                .map(|i| PeerServer::new(SiteId(i), spec.cfg.clone(), owners.clone()))
                .collect(),
            cpus: (0..n).map(|_| (false, VecDeque::new())).collect(),
            data_disks: vec![SimTime::ZERO; n],
            log_disks: vec![SimTime::ZERO; n],
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            timed,
            sample_every,
            sent_seen: 0,
            begun: vec![now; apps.len()],
            commit_sent: vec![now; apps.len()],
            apps,
            obs: Observed::default(),
        }
    }

    /// The peer servers (inspection after a run).
    pub fn sites(&self) -> &[PeerServer] {
        &self.sites
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        self.events.push(HeapItem {
            at,
            seq: self.seq,
            event,
        });
    }

    fn push_task(&mut self, site: usize, task: Task) {
        self.cpus[site].1.push_back(task);
        if !self.cpus[site].0 {
            self.run_next_task(site);
        }
    }

    fn run_next_task(&mut self, site: usize) {
        let Some(task) = self.cpus[site].1.pop_front() else {
            self.cpus[site].0 = false;
            return;
        };
        self.cpus[site].0 = true;
        match task {
            Task::Input(input) => {
                let mut cost = self.cost.handle_cpu;
                if let Input::Msg { msg, .. } = &input {
                    cost += self.cost.msg_cpu(msg);
                }
                let now = self.now;
                let outputs = if self.timed {
                    let kind = kind_of(&input);
                    let t0 = Instant::now();
                    let outputs = self.sites[site].handle(now, input);
                    let ns = t0.elapsed().as_nanos() as u64;
                    self.obs.handle_ns += ns;
                    self.obs.kind_ns[kind] += ns;
                    self.obs.kind_calls[kind] += 1;
                    outputs
                } else {
                    self.sites[site].handle(now, input)
                };
                let mut send_cost = SimDuration::ZERO;
                for o in &outputs {
                    if let Output::Send { msg, .. } = o {
                        send_cost += self.cost.msg_cpu(msg);
                    }
                }
                let end = self.now + cost + send_cost;
                self.apply_outputs(site, outputs, end);
                self.schedule(end, Event::CpuDone { site, after: None });
            }
            Task::Think(app) => {
                let end = self.now + self.cost.per_obj_proc;
                self.schedule(
                    end,
                    Event::CpuDone {
                        site,
                        after: Some(app),
                    },
                );
            }
        }
    }

    fn apply_outputs(&mut self, site: usize, outputs: Vec<Output>, end: SimTime) {
        for o in outputs {
            match o {
                Output::Send { to, msg } => {
                    self.sent_seen += 1;
                    if self.sample_every > 0 && self.sent_seen.is_multiple_of(self.sample_every) {
                        self.obs.sent.push(msg.clone());
                    }
                    let at = end + self.cost.msg_latency;
                    self.schedule(
                        at,
                        Event::Deliver {
                            site: to.0 as usize,
                            from: SiteId(site as u32),
                            msg,
                        },
                    );
                }
                Output::Disk { req, op } => {
                    let (disk, service) = match op {
                        DiskOp::WriteLog => {
                            self.obs.log_forces += 1;
                            (&mut self.log_disks[site], self.cost.log_io)
                        }
                        DiskOp::ReadPage(_) => {
                            self.obs.page_reads += 1;
                            (&mut self.data_disks[site], self.cost.disk_io)
                        }
                        DiskOp::WritePage(_) => {
                            self.obs.page_writes += 1;
                            (&mut self.data_disks[site], self.cost.disk_io)
                        }
                    };
                    let start = (*disk).max(end);
                    *disk = start + service;
                    let done_at = *disk;
                    self.schedule(done_at, Event::DiskDone { site, req });
                }
                Output::ArmTimer { timer, delay } => {
                    self.schedule(end + delay, Event::Timer { site, timer });
                }
                Output::App(reply) => self.route_reply(site, reply),
            }
        }
    }

    fn route_reply(&mut self, site: usize, reply: AppReply) {
        let app = reply.app().0 as usize;
        if let AppReply::Committed { .. } = reply {
            let t = Instant::now();
            self.obs
                .txn_us
                .push(t.duration_since(self.begun[app]).as_secs_f64() * 1e6);
            self.obs
                .commit_us
                .push(t.duration_since(self.commit_sent[app]).as_secs_f64() * 1e6);
        }
        let action = self.apps[app].on_reply(&reply);
        self.run_action(site, app, action);
    }

    fn run_action(&mut self, site: usize, app: usize, action: DriverAction) {
        match action {
            DriverAction::Submit(req) => {
                match req.op {
                    AppOp::Begin => self.begun[app] = Instant::now(),
                    AppOp::Commit => self.commit_sent[app] = Instant::now(),
                    _ => {}
                }
                self.push_task(site, Task::Input(Input::App(req)));
            }
            DriverAction::Think => self.push_task(site, Task::Think(app)),
            DriverAction::Idle => {}
        }
    }

    /// Runs the point: `Simulation::run`'s loop, event for event.
    pub fn run(&mut self, warmup: SimDuration, end: SimDuration) -> SimReport {
        let t0 = Instant::now();
        for i in 0..self.apps.len() {
            let site = self.apps[i].site.0 as usize;
            let action = self.apps[i].start();
            self.run_action(site, i, action);
        }
        let warmup_at = SimTime::ZERO + warmup;
        let end_at = SimTime::ZERO + end;
        let mut at_warmup: Option<Vec<(u64, u64)>> = None;
        while let Some(HeapItem { at, event, .. }) = self.events.pop() {
            if at > end_at {
                break;
            }
            self.obs.events += 1;
            self.now = at;
            if at_warmup.is_none() && self.now >= warmup_at {
                at_warmup = Some(self.apps.iter().map(|a| (a.commits, a.aborts)).collect());
            }
            match event {
                Event::CpuDone { site, after } => {
                    if let Some(app) = after {
                        let action = self.apps[app].after_think();
                        self.run_action(site, app, action);
                    }
                    self.run_next_task(site);
                }
                Event::Deliver { site, from, msg } => {
                    self.push_task(site, Task::Input(Input::Msg { from, msg }));
                }
                Event::DiskDone { site, req } => {
                    self.push_task(site, Task::Input(Input::DiskDone { req }));
                }
                Event::Timer { site, timer } => {
                    self.push_task(site, Task::Input(Input::TimerFired { timer }));
                }
            }
        }
        self.obs.loop_ns = t0.elapsed().as_nanos() as u64;
        let base =
            at_warmup.unwrap_or_else(|| self.apps.iter().map(|a| (a.commits, a.aborts)).collect());
        let commits: u64 = self
            .apps
            .iter()
            .zip(&base)
            .map(|(a, b)| a.commits - b.0)
            .sum();
        let aborts: u64 = self
            .apps
            .iter()
            .zip(&base)
            .map(|(a, b)| a.aborts - b.1)
            .sum();
        let window_secs = end.saturating_sub(warmup).as_secs_f64().max(1e-9);
        SimReport {
            throughput: commits as f64 / window_secs,
            commits,
            aborts,
            window_secs,
            counters: Counters::total(self.sites.iter().map(|s| s.stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{AppId, FileId, Oid, PageId, VolId};
    use pscc_core::{AppRequest, ReqId};

    fn app(op: AppOp) -> Input {
        Input::App(AppRequest {
            app: AppId(0),
            txn: None,
            op,
        })
    }

    #[test]
    fn kinds_cover_app_ops_messages_and_the_rest() {
        let oid = Oid::new(PageId::new(FileId::new(VolId(0), 0), 0), 0);
        assert_eq!(KINDS[kind_of(&app(AppOp::Begin))], "app_begin");
        assert_eq!(KINDS[kind_of(&app(AppOp::Read(oid)))], "app_read");
        assert_eq!(KINDS[kind_of(&app(AppOp::Commit))], "app_commit");
        let msg = |m: Message| Input::Msg {
            from: SiteId(1),
            msg: m,
        };
        let ok = kind_of(&msg(Message::CommitOk { req: ReqId(1) }));
        assert_eq!(KINDS[ok], "msg.commit_ok");
        assert_eq!(KINDS[kind_of(&msg(Message::Heartbeat))], "msg.other");
        for k in &KINDS[7..KINDS.len() - 1] {
            assert!(k.starts_with("msg."), "{k}");
        }
    }
}
