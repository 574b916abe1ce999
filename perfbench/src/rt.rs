//! The real-clock loop: a closed loop on `ThreadedCluster` over in-proc
//! mailboxes. Two peer sites own half the pages each; one client per
//! site runs seeded HOTCOLD transactions, both clients driven in turn
//! from this thread, so one transaction runs at a time. It gives the
//! `threaded.*` and `net.*` layer numbers of the traced
//! `des-peers-hotcold` run; its wall time follows thread wake-ups on
//! the host more than the program, so it carries no end-to-end metric.

use crate::stats::{median, percentile, Outcome, Tally};
use crate::{Checks, Measured};
use pscc_common::{AppId, Oid, Protocol, PsccError, SiteId, SystemConfig, VolId};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_sim::threaded::ThreadedCluster;
use pscc_sim::{TxnScript, WorkloadKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Pages owned by site 0; site 1 owns the rest of the 450.
const SPLIT: u32 = 225;
/// Transactions per set-up warm-up, alternating sites.
const WARMUP_TXNS: usize = 200;
/// Committed transactions per batch: `threaded.txn_us_p99` is the
/// median over batches, so one scheduling hiccup moves one batch.
const BATCH: usize = 1000;
/// Batches measured: a fixed count, so parent and change do the same work.
const BATCHES: usize = 3;
/// Wall seconds after which a stalled cluster is given up on.
const GIVE_UP_S: f64 = 60.0;
/// Objects read back per verification transaction.
const READBACK_CHUNK: usize = 100;

fn cfg() -> SystemConfig {
    SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    }
}

fn owners() -> OwnerMap {
    OwnerMap::Ranges(vec![(0, SPLIT, SiteId(0)), (SPLIT, 450, SiteId(1))])
}

fn owner(page: u32) -> u32 {
    u32::from(page >= SPLIT)
}

/// HOTCOLD with each client's hot range on its own site: about six reads
/// and two writes per transaction.
fn workload() -> WorkloadSpec {
    WorkloadSpec {
        kind: WorkloadKind::HotCold,
        trans_size: 2,
        page_locality: (2, 4),
        hot_acc_prob: 0.8,
        hot_write_prob: 0.3,
        cold_write_prob: 0.3,
        hot_range_pages: SPLIT,
        hicon_range_pages: SPLIT,
    }
}

/// The timed operations, by op and locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Begin,
    ReadLocal,
    ReadRemote,
    WriteLocal,
    WriteRemote,
    Commit,
}

/// Per-op real latencies in µs.
type OpTimes = BTreeMap<Op, Vec<f64>>;

struct Loop {
    cluster: ThreadedCluster,
    rngs: Vec<StdRng>,
    next: usize,
    /// Committed writes per object (the expected version counters).
    writes: BTreeMap<Oid, u64>,
}

fn outcome(e: &PsccError) -> Outcome {
    match e {
        PsccError::Aborted { .. } => Outcome::Aborted,
        PsccError::InvalidOperation(_) => Outcome::TimedOut,
        _ => Outcome::Refused,
    }
}

/// Runs `script` as one transaction of client `i` (site `i`, app `i`),
/// timing each op.
fn run_script(
    c: &ThreadedCluster,
    i: u32,
    script: &TxnScript,
    times: &mut OpTimes,
) -> Result<(), PsccError> {
    let (site, app) = (SiteId(i), AppId(i));
    let mut timed = |op: Op, t: Instant| {
        times
            .entry(op)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e6);
    };
    let t = Instant::now();
    let txn = c.begin(site, app)?;
    timed(Op::Begin, t);
    for &(oid, write) in script {
        let local = owner(oid.page.page) == i;
        let t = Instant::now();
        c.run_op(site, app, txn, AppOp::Read(oid))?;
        timed(if local { Op::ReadLocal } else { Op::ReadRemote }, t);
        if write {
            let t = Instant::now();
            c.run_op(site, app, txn, AppOp::Write { oid, bytes: None })?;
            timed(
                if local {
                    Op::WriteLocal
                } else {
                    Op::WriteRemote
                },
                t,
            );
        }
    }
    let t = Instant::now();
    c.run_op(site, app, txn, AppOp::Commit)?;
    timed(Op::Commit, t);
    Ok(())
}

impl Loop {
    fn spawn(seed: u64) -> Loop {
        Loop {
            cluster: ThreadedCluster::new(2, cfg(), owners()),
            rngs: (0..2)
                .map(|i| StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i)))
                .collect(),
            next: 0,
            writes: BTreeMap::new(),
        }
    }

    /// Runs the next client's next transaction; returns its outcome and
    /// begin → commit latency in µs.
    fn txn(&mut self, times: &mut OpTimes) -> (Outcome, f64) {
        let i = self.next;
        self.next = 1 - i;
        let script = workload().generate(i as u32, &cfg(), |p| VolId(owner(p)), &mut self.rngs[i]);
        let start = Instant::now();
        if let Err(e) = run_script(&self.cluster, i as u32, &script, times) {
            return (outcome(&e), 0.0);
        }
        let us = start.elapsed().as_secs_f64() * 1e6;
        for &(oid, write) in &script {
            if write {
                *self.writes.entry(oid).or_default() += 1;
            }
        }
        (Outcome::Committed, us)
    }

    /// Reads every written object back in fresh transactions and checks
    /// its version counter against the committed writes to it.
    fn read_back(&self, checks: &mut Checks) {
        let (site, app) = (SiteId(0), AppId(7));
        let objs: Vec<(&Oid, &u64)> = self.writes.iter().collect();
        let mut lost = 0usize;
        for chunk in objs.chunks(READBACK_CHUNK) {
            let read = self.cluster.begin(site, app).and_then(|txn| {
                let mut got = Vec::with_capacity(chunk.len());
                for (oid, _) in chunk {
                    match self.cluster.run_op(site, app, txn, AppOp::Read(**oid))? {
                        AppReply::Done { data: Some(d), .. } if d.len() >= 8 => {
                            got.push(u64::from_le_bytes(d[..8].try_into().expect("eight bytes")))
                        }
                        other => panic!("read-back of {oid:?} answered {other:?}"),
                    }
                }
                self.cluster.run_op(site, app, txn, AppOp::Commit)?;
                Ok(got)
            });
            match read {
                Ok(got) => {
                    lost += chunk
                        .iter()
                        .zip(&got)
                        .filter(|((_, want), have)| **want != **have)
                        .count();
                }
                Err(e) => checks.check(false, || format!("read-back transaction failed: {e:?}")),
            }
        }
        checks.check(lost == 0, || {
            format!("{lost} of {} written objects lost updates", objs.len())
        });
    }
}

/// Runs the loop for [`BATCHES`] batches of committed transactions:
/// its per-op layer numbers, transactions and checks.
pub fn layers(seed: u64) -> Measured {
    let mut m = Measured::new(Checks::default());
    let mut l = Loop::spawn(seed);
    let mut sink = OpTimes::new();
    for _ in 0..WARMUP_TXNS {
        l.txn(&mut sink);
    }

    let mut tally = Tally::default();
    let mut times = OpTimes::new();
    let mut txn_us = Vec::new();
    let mut batch_p99s = Vec::new();
    let start = Instant::now();
    while batch_p99s.len() < BATCHES && start.elapsed().as_secs_f64() < GIVE_UP_S {
        let (outcome, us) = l.txn(&mut times);
        tally.record(outcome);
        if outcome == Outcome::Committed {
            txn_us.push(us);
            if txn_us.len() % BATCH == 0 {
                let mut batch = txn_us[txn_us.len() - BATCH..].to_vec();
                batch.sort_by(f64::total_cmp);
                batch_p99s.push(percentile(&batch, 99.0));
            }
        }
    }
    let counters = l.cluster.total_stats();
    l.read_back(&mut m.checks);
    l.cluster.shutdown();
    m.checks.check(batch_p99s.len() == BATCHES, || {
        format!(
            "only {} transactions committed in {GIVE_UP_S} s, not {BATCHES} batches of {BATCH}",
            txn_us.len()
        )
    });
    m.attempted += tally.attempted();
    m.failed += tally.failed();
    eprintln!(
        "threaded loop: {} txns attempted, {} failed, {} objects read back in {:.3} s",
        tally.attempted(),
        tally.failed(),
        l.writes.len(),
        start.elapsed().as_secs_f64()
    );
    if batch_p99s.is_empty() {
        return m;
    }

    for v in times.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    let p50 = |op: Op| times.get(&op).map_or(0.0, |v| percentile(v, 50.0));
    let commit = times.get(&Op::Commit).map_or(&[][..], Vec::as_slice);
    m.put("threaded.begin_us_p50", p50(Op::Begin));
    m.put("threaded.read_local_us_p50", p50(Op::ReadLocal));
    m.put("threaded.read_remote_us_p50", p50(Op::ReadRemote));
    m.put("threaded.write_local_us_p50", p50(Op::WriteLocal));
    m.put("threaded.write_remote_us_p50", p50(Op::WriteRemote));
    m.put("threaded.commit_us_p50", p50(Op::Commit));
    m.put("threaded.commit_us_p99", percentile(commit, 99.0));
    m.put("threaded.txn_us_p99", median(&batch_p99s));
    m.put(
        "net.remote_extra_us",
        p50(Op::ReadRemote) - p50(Op::ReadLocal),
    );
    m.put("net.busy_retries", counters.busy_retries as f64);
    m.put("net.requests_shed", counters.requests_shed as f64);
    m.put("net.credits_stalled", counters.credits_stalled as f64);
    m.tail("threaded txn", &txn_us);
    m.tail("threaded commit", commit);
    m
}
