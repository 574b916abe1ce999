//! Real-thread integration: peer servers on OS threads over the
//! multi-path crossbeam transport, with genuinely nondeterministic
//! scheduling. Serializability must hold regardless.

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_sim::threaded::ThreadedCluster;

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

#[test]
fn threaded_counter_increments_serialize() {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    let cluster = ThreadedCluster::new(3, cfg, OwnerMap::Single(SiteId(0)));
    let x = oid(3, 0);

    // Two client threads hammer the same counter concurrently.
    let total_increments = 30u64;
    std::thread::scope(|s| {
        for site_no in [1u32, 2u32] {
            let cluster = &cluster;
            s.spawn(move || {
                let site = SiteId(site_no);
                let app = AppId(site_no);
                let mut done = 0;
                while done < total_increments / 2 {
                    let Ok(txn) = cluster.begin(site, app) else {
                        continue;
                    };
                    let ok = cluster
                        .run_op(site, app, txn, AppOp::Read(x))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: x,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
                    if ok.is_ok() {
                        done += 1;
                    }
                    // Aborted attempts retry.
                }
            });
        }
    });

    // Verify the final value through a fresh reader.
    let site = SiteId(1);
    let app = AppId(9);
    let txn = cluster.begin(site, app).unwrap();
    let reply = cluster.run_op(site, app, txn, AppOp::Read(x)).unwrap();
    let AppReply::Done { data: Some(d), .. } = reply else {
        panic!("read failed: {reply:?}")
    };
    assert_eq!(
        u64::from_le_bytes(d[0..8].try_into().unwrap()),
        total_increments,
        "increments lost under real threads"
    );
    let _ = cluster.run_op(site, app, txn, AppOp::Commit);
    let stats = cluster.total_stats();
    assert!(stats.commits >= total_increments);
    cluster.shutdown();
}

#[test]
fn threaded_peer_partition_transactions() {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    let owners = OwnerMap::Ranges(vec![(0, 225, SiteId(0)), (225, 450, SiteId(1))]);
    let cluster = ThreadedCluster::new(2, cfg, owners);

    // Cross-partition transactions from both peers, concurrently.
    std::thread::scope(|s| {
        for site_no in [0u32, 1u32] {
            let cluster = &cluster;
            s.spawn(move || {
                let site = SiteId(site_no);
                let app = AppId(site_no);
                let local = Oid::new(
                    PageId::new(FileId::new(VolId(site_no), 0), site_no * 225 + 5),
                    0,
                );
                let remote = Oid::new(
                    PageId::new(FileId::new(VolId(1 - site_no), 0), (1 - site_no) * 225 + 9),
                    0,
                );
                let mut done = 0;
                while done < 5 {
                    let Ok(txn) = cluster.begin(site, app) else {
                        continue;
                    };
                    let ok = cluster
                        .run_op(site, app, txn, AppOp::Read(local))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: local,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Read(remote)))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: remote,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
                    if ok.is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });

    // Each object was incremented 5 times by each peer.
    for site_no in [0u32, 1u32] {
        let site = SiteId(site_no);
        let app = AppId(7 + site_no);
        let o = Oid::new(
            PageId::new(FileId::new(VolId(site_no), 0), site_no * 225 + 5),
            0,
        );
        let txn = cluster.begin(site, app).unwrap();
        let AppReply::Done { data: Some(d), .. } =
            cluster.run_op(site, app, txn, AppOp::Read(o)).unwrap()
        else {
            panic!("read failed")
        };
        // Each peer's `local` object (page n*225+5) is written exactly 5
        // times by its own 5 committed transactions; the cross-partition
        // traffic targets different pages (offset 9).
        assert_eq!(u64::from_le_bytes(d[0..8].try_into().unwrap()), 5);
        let _ = cluster.run_op(site, app, txn, AppOp::Commit);
    }
    cluster.shutdown();
}

#[test]
fn threaded_rolling_restart_under_live_traffic() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    let cluster = ThreadedCluster::new(3, cfg, OwnerMap::Single(SiteId(0)));
    let x = oid(3, 0);
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);

    let outcome = std::thread::scope(|s| {
        let cluster = &cluster;
        let stop = &stop;
        let committed = &committed;
        // A driver hammers the owner's counter for the whole run,
        // tolerating the aborts of the drain/restart window.
        s.spawn(move || {
            let site = SiteId(2);
            let app = AppId(2);
            while !stop.load(Ordering::Relaxed) {
                let Ok(txn) = cluster.begin(site, app) else {
                    continue;
                };
                let ok = cluster
                    .run_op(
                        site,
                        app,
                        txn,
                        AppOp::Write {
                            oid: x,
                            bytes: None,
                        },
                    )
                    .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
                if ok.is_ok() {
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        // Let traffic flow, then roll the owner under it. Outcomes are
        // recorded and asserted only after the scope ends: a panic here
        // would leave `stop` unset and deadlock the scope's join.
        let wait_for = |target: u64, limit: Duration| {
            let deadline = Instant::now() + limit;
            while committed.load(Ordering::Relaxed) < target {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            true
        };
        let pre_ok = wait_for(3, Duration::from_secs(30));
        let before = cluster.probe(SiteId(0)).map(|p| p.epoch);
        let roll = cluster
            .spawn_rolling_restart(Duration::from_secs(20), vec![SiteId(0)])
            .join()
            .expect("supervisor thread");
        // Commits must resume against the restarted owner. The driver's
        // first attempts can burn reply timeouts on transactions the
        // restart killed, so the allowance is generous.
        let resumed_from = committed.load(Ordering::Relaxed);
        let post_ok = wait_for(resumed_from + 3, Duration::from_secs(60));
        stop.store(true, Ordering::Relaxed);
        (pre_ok, before, roll, post_ok)
    });
    let (pre_ok, before, roll, post_ok) = outcome;
    assert!(pre_ok, "no commits before the roll");
    let before = before.expect("owner probe before the roll");
    let epochs = roll.expect("roll converges");
    assert_eq!(epochs.len(), 1);
    assert!(
        epochs[0] > before,
        "owner epoch must advance across the roll ({before} -> {})",
        epochs[0]
    );
    assert!(post_ok, "no commits after the roll");

    // Zero committed work lost: the durable counter equals the number
    // of commit acknowledgements the driver observed. Site 1 sat idle
    // all run, so its first transaction can land in the post-restart
    // fence/rejoin window and abort — retry until the read goes through.
    let site = SiteId(1);
    let app = AppId(9);
    let deadline = Instant::now() + Duration::from_secs(30);
    let value = loop {
        let attempt = cluster
            .begin(site, app)
            .and_then(|txn| cluster.run_op(site, app, txn, AppOp::Read(x)));
        match attempt {
            Ok(AppReply::Done { data: Some(d), .. }) => {
                break u64::from_le_bytes(d[0..8].try_into().unwrap());
            }
            other => {
                assert!(
                    Instant::now() < deadline,
                    "verification read never succeeded, last: {other:?}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(
        value,
        committed.load(Ordering::Relaxed),
        "committed updates lost (or phantom) across the threaded roll"
    );
    cluster.shutdown();
}

#[test]
fn tcp_cluster_end_to_end() {
    // The full deployment stack: engine + frame codec + kernel TCP on
    // localhost. One server, two clients, concurrent counter increments.
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    let cluster = pscc_sim::threaded::ThreadedCluster::new_tcp(3, cfg, OwnerMap::Single(SiteId(0)));
    let x = oid(5, 0);
    let per_site = 5u64;
    std::thread::scope(|s| {
        for site_no in [1u32, 2u32] {
            let cluster = &cluster;
            s.spawn(move || {
                let site = SiteId(site_no);
                let app = AppId(site_no);
                let mut done = 0;
                while done < per_site {
                    let Ok(txn) = cluster.begin(site, app) else {
                        continue;
                    };
                    let ok = cluster
                        .run_op(site, app, txn, AppOp::Read(x))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: x,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
                    if ok.is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });
    let site = SiteId(2);
    let app = AppId(9);
    let txn = cluster.begin(site, app).unwrap();
    let AppReply::Done { data: Some(d), .. } =
        cluster.run_op(site, app, txn, AppOp::Read(x)).unwrap()
    else {
        panic!("read failed")
    };
    assert_eq!(
        u64::from_le_bytes(d[0..8].try_into().unwrap()),
        2 * per_site,
        "increments lost over TCP"
    );
    let _ = cluster.run_op(site, app, txn, AppOp::Commit);
    cluster.shutdown();
}

/// A transport that never goes quiet: whenever the real endpoint has
/// nothing, it hands the engine a `Heartbeat` (a no-op there).
struct Flooded(pscc_net::Endpoint<pscc_core::Message>);

impl pscc_net::Transport<pscc_core::Message> for Flooded {
    fn send(&self, to: SiteId, path: pscc_net::PathId, msg: pscc_core::Message) {
        self.0.send(to, path, msg);
    }

    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Option<pscc_net::Envelope<pscc_core::Message>> {
        self.0.recv_timeout(timeout).or(Some(pscc_net::Envelope {
            from: SiteId(1),
            to: SiteId(0),
            path: pscc_net::PathId(0),
            msg: pscc_core::Message::Heartbeat,
        }))
    }
}

#[test]
fn lock_wait_timeout_fires_under_steady_traffic() {
    use std::time::{Duration, Instant};

    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        initial_lock_timeout: pscc_common::SimDuration::from_millis(200),
        ..SystemConfig::small()
    };
    let net = pscc_net::InProcNetwork::with_overload(
        &[SiteId(0)],
        3,
        pscc_net::DEFAULT_MAILBOX_CAPACITY,
        pscc_core::Message::is_consistency,
    );
    let cluster = ThreadedCluster::with_transports(
        cfg,
        OwnerMap::Single(SiteId(0)),
        vec![(SiteId(0), Flooded(net.endpoint(SiteId(0))))],
    );
    let site = SiteId(0);
    let x = oid(3, 0);
    let write = AppOp::Write {
        oid: x,
        bytes: None,
    };
    let holder = cluster.begin(site, AppId(1)).unwrap();
    cluster
        .run_op(site, AppId(1), holder, write.clone())
        .unwrap();
    // The waiter queues behind the holder's EX lock; only its lock-wait
    // timer can end the wait, and the heartbeat flood never lets the
    // site's transport go idle.
    let waiter = cluster.begin(site, AppId(2)).unwrap();
    let started = Instant::now();
    let outcome = cluster.run_op(site, AppId(2), waiter, write);
    assert!(
        matches!(outcome, Err(pscc_common::PsccError::Aborted { txn, .. }) if txn == waiter),
        "lock-wait timeout starved: {outcome:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(10));
    cluster.shutdown();
}
