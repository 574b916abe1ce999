//! The DES workloads: a paper-scale figure point at its pinned seed and
//! at seeds derived from `--seed`, timed through `build_sim` +
//! `Simulation::run` (untraced) or through the [`Replica`] loop that
//! times every `handle` call (traced).

use crate::replica::{Replica, KINDS};
use crate::stats::{median, percentile, Shares, Tally};
use crate::{peak_rss_mib, Checks, Measured};
use bytes::BytesMut;
use pscc_common::{Counters, Protocol};
use pscc_core::Message;
use pscc_sim::experiment::{
    build_sim, paper_spec, run_point, run_point_observed, ExperimentSpec, Figure,
};
use pscc_sim::SimReport;
use std::hint::black_box;
use std::time::Instant;

/// The virtual-time output a point must reproduce at the default seed.
pub struct Pinned {
    /// Commits inside the measurement window.
    pub commits: u64,
    /// Aborted attempts inside the window.
    pub aborts: u64,
    /// Virtual committed txns per second.
    pub throughput: f64,
    /// Every engine counter, summed over all sites.
    pub counters: [u64; 45],
}

/// One paper-scale figure point.
pub struct Point {
    /// The figure it belongs to.
    pub figure: Figure,
    /// Its write probability.
    pub write_prob: f64,
    /// Nominal wall seconds of one plain run plus one replica run (2-core
    /// x86-64 box): `--seconds / pair_s` sets the sub-points per run, so
    /// parent and change measure the same points.
    pub pair_s: f64,
    /// Its report at `paper_spec`'s seed.
    pub pinned: Pinned,
}

impl Point {
    /// The spec of sub-point `j` of a run with `seed`, under PS-AA.
    /// Sub-point 0 is the pinned point (`paper_spec`'s seed) in every
    /// run; the others mix `seed` and `j` into that seed.
    pub fn spec(&self, seed: u64, j: u64) -> ExperimentSpec {
        let mut spec = paper_spec(self.figure, Protocol::PsAa, self.write_prob);
        if j > 0 {
            spec.seed ^= splitmix64(seed.wrapping_mul(1 << 16).wrapping_add(j));
        }
        spec
    }
}

/// Pinned counters in `Counters::fields` order: the first 24 given, the
/// rest (recovery, overload, migration and edge counters) zero.
const fn counters(first: [u64; 24]) -> [u64; 45] {
    let mut all = [0; 45];
    let mut i = 0;
    while i < first.len() {
        all[i] = first[i];
        i += 1;
    }
    all
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fig 13 (peer-servers, HOTCOLD, high locality), PS-AA, wp = 0.30.
pub const PEERS_HOTCOLD: Point = Point {
    figure: Figure::Fig13,
    write_prob: 0.30,
    pair_s: 10.0,
    pinned: Pinned {
        commits: 897,
        aborts: 6,
        throughput: 8.97,
        counters: counters([
            1051, 7, 3, 4, 47244, 12434, 30870, 2815, 7322, 116, 39, 30750, 84733, 163, 12430,
            372399, 12434, 7537, 10818, 169, 0, 0, 0, 4598,
        ]),
    },
};

/// Fig 8 (client-server, UNIFORM, low locality), PS-AA, wp = 0.02.
pub const CS_UNIFORM: Point = Point {
    figure: Figure::Fig8,
    write_prob: 0.02,
    pair_s: 2.8,
    pinned: Pinned {
        commits: 256,
        aborts: 0,
        throughput: 2.56,
        counters: counters([
            280, 0, 0, 0, 54335, 23047, 1951, 1826, 3492, 80, 13, 1871, 61, 62, 23037, 79702,
            23047, 14058, 1232, 19, 0, 0, 0, 1746,
        ]),
    },
};

/// Sub-points per untraced measurement, at the least.
const MIN_POINTS: u64 = 2;
/// `build_sim` calls timed before the measurement starts.
const SETUPS: usize = 21;
/// Per-site trace ring for the tracing-overhead ratio.
const TRACE_CAP: usize = 16_384;
/// Messages kept for the codec timings.
const CODEC_SAMPLES: u64 = 20_000;

fn same(a: &SimReport, b: &SimReport) -> bool {
    a.commits == b.commits
        && a.aborts == b.aborts
        && a.throughput.to_bits() == b.throughput.to_bits()
        && a.window_secs.to_bits() == b.window_secs.to_bits()
        && a.counters == b.counters
}

/// Output checks of one DES run. Every report of the pinned point must
/// equal the pinned one. A seed-derived point is compared with its own
/// plain run: the program is not deterministic at every seed (NOTES.md),
/// so there a difference is counted and shown, not failed.
#[derive(Default)]
struct Verdicts {
    checks: Checks,
    /// Reports compared, each from one run of a point.
    runs: u64,
    nondeterministic: u64,
}

impl Verdicts {
    fn pinned(&mut self, p: &Point, what: &str, r: &SimReport) {
        self.runs += 1;
        let counters = r.counters.fields().map(|(_, v)| v);
        self.checks.check(
            r.commits == p.pinned.commits
                && r.aborts == p.pinned.aborts
                && r.throughput == p.pinned.throughput
                && counters == p.pinned.counters,
            || {
                format!(
                    "{what} report differs from the pinned one: {} commits, {} aborts, {} txn/s, counters {:?}",
                    r.commits, r.aborts, r.throughput, counters
                )
            },
        );
    }

    /// Checks `got` (from `what`) against the plain run's `reference` of
    /// sub-point `j`.
    fn compare(&mut self, p: &Point, j: u64, what: &str, reference: &SimReport, got: &SimReport) {
        if j == 0 {
            self.pinned(p, what, got);
            return;
        }
        self.runs += 1;
        if !same(reference, got) {
            self.nondeterministic += 1;
            eprintln!(
                "nondeterministic point {j}: {what} gave {} commits, {} aborts ({}); plain run {} commits, {} aborts ({})",
                got.commits, got.aborts, got.counters, reference.commits, reference.aborts, reference.counters
            );
        }
    }

    fn into_measured(self) -> Measured {
        let failed = self.checks.failures.len() as u64;
        let mut m = Measured::new(self.checks);
        m.attempted = self.runs;
        m.failed = failed;
        m.put("sim.nondeterministic_runs", self.nondeterministic as f64);
        m
    }
}

/// The untraced measurement over `--seconds / pair_s` sub-points: each is
/// built with `build_sim` and run with `Simulation::run` (timed), then
/// replayed by the untimed replica, which stamps each transaction's
/// begin and commit in real time.
pub fn untraced(p: &Point, seed: u64, seconds: f64) -> Measured {
    let points = ((seconds / p.pair_s).round() as u64).max(MIN_POINTS);
    let mut v = Verdicts::default();
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let sim = black_box(build_sim(&p.spec(seed, 0)));
        setup.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let mut walls = Vec::new();
    let (mut txn_us, mut commit_us) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut commits = 0u64;
    for j in 0..points {
        let spec = p.spec(seed, j);
        let t = Instant::now();
        let mut sim = black_box(build_sim(&spec));
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let r = sim.run(spec.warmup, spec.end);
        walls.push(t.elapsed().as_secs_f64());
        drop(sim);
        if j == 0 {
            v.pinned(p, "plain", &r);
        }
        let mut rep = Replica::new(&spec, false, 0);
        v.compare(p, j, "replica", &r, &rep.run(spec.warmup, spec.end));
        txn_us.append(&mut rep.obs.txn_us);
        commit_us.append(&mut rep.obs.commit_us);
        tally.committed += r.commits;
        tally.aborted += r.aborts;
        commits += r.counters.commits;
    }
    txn_us.sort_by(f64::total_cmp);
    commit_us.sort_by(f64::total_cmp);
    eprintln!(
        "{points} points: {} commits, {} aborts in the windows; {} txn latency samples; walls {walls:.3?}",
        tally.committed,
        tally.aborted,
        txn_us.len()
    );
    let mut m = v.into_measured();
    m.put("setup_s", median(&setup));
    m.put("wall_s", median(&walls));
    m.put("peak_rss_mb", peak_rss_mib());
    m.put("txn_per_s", commits as f64 / walls.iter().sum::<f64>());
    m.put("txn_p50_us", percentile(&txn_us, 50.0));
    m.put("commit_p50_us", percentile(&commit_us, 50.0));
    m.put("commit_ratio", 1.0 - tally.failed_ratio());
    m.tail("txn", &txn_us);
    m.tail("commit", &commit_us);
    m
}

/// The traced measurement: the per-layer numbers of the run's first
/// seed-derived sub-point (of the pinned point at seed 0), after a plain
/// run of the pinned point.
pub fn traced(p: &Point, seed: u64, seconds: f64) -> Measured {
    let j = u64::from(seed != 0);
    let spec = p.spec(seed, j);
    let mut v = Verdicts::default();
    let t = Instant::now();
    let r0 = run_point(&spec).report;
    let plain_s = t.elapsed().as_secs_f64();
    if j == 0 {
        v.pinned(p, "plain", &r0);
    } else {
        v.pinned(p, "plain", &run_point(&p.spec(seed, 0)).report);
    }
    let t = Instant::now();
    let observed = run_point_observed(&spec, TRACE_CAP);
    let observed_s = t.elapsed().as_secs_f64();
    v.compare(p, j, "trace-on", &r0, &observed.point.report);
    drop(observed);

    let mut stamp = Replica::new(&spec, false, 0);
    v.compare(p, j, "replica", &r0, &stamp.run(spec.warmup, spec.end));
    let events = stamp.obs.events;
    drop(stamp);

    let start = Instant::now();
    let stride = (r0.counters.msgs_sent / CODEC_SAMPLES).max(1);
    let mut runs = 0u64;
    let (mut loop_ns, mut handle_ns) = (0u64, 0u64);
    let mut kind_ns = [0u64; KINDS.len()];
    let mut first = None;
    while runs == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut rep = Replica::new(&spec, true, if runs == 0 { stride } else { 0 });
        let r = rep.run(spec.warmup, spec.end);
        v.compare(p, j, "traced replica", &r0, &r);
        if j == 0 {
            v.checks.check(rep.obs.events == events, || {
                format!(
                    "traced replica processed {} events, untraced {events}",
                    rep.obs.events
                )
            });
        }
        runs += 1;
        loop_ns += rep.obs.loop_ns;
        handle_ns += rep.obs.handle_ns;
        for (acc, ns) in kind_ns.iter_mut().zip(rep.obs.kind_ns) {
            *acc += ns;
        }
        if first.is_none() {
            let sites = rep.sites();
            let tail = sites.iter().map(|s| s.checkpoint_age()).max().unwrap_or(0);
            let log_bytes: usize = sites.iter().map(|s| s.crash_image().log.len()).sum();
            first = Some((std::mem::take(&mut rep.obs), tail, log_bytes));
        }
    }
    let (obs, tail_records, log_bytes) = first.expect("at least one traced run");
    let shares = Shares::of(&kind_ns, handle_ns, loop_ns);
    v.checks.check(shares.closes(0.01), || {
        format!(
            "shares do not close: Σ kinds {} + self {} != 1",
            shares.parts.iter().sum::<f64>(),
            shares.rest
        )
    });
    eprintln!(
        "{runs} traced replica runs; plain run_point {plain_s:.3} s, observed {observed_s:.3} s"
    );

    let mut m = v.into_measured();
    m.put("sim.events", events as f64);
    m.put("sim.self_share", shares.rest);
    m.put(
        "sim.ns_per_event",
        (loop_ns - handle_ns.min(loop_ns)) as f64 / (events * runs).max(1) as f64,
    );
    m.put(
        "core.handle_share",
        handle_ns as f64 / loop_ns.max(1) as f64,
    );
    for (i, kind) in KINDS.iter().enumerate() {
        let calls = obs.kind_calls[i];
        m.put(&format!("core.{kind}.calls"), calls as f64);
        m.put(
            &format!("core.{kind}.us"),
            kind_ns[i] as f64 / 1e3 / (calls * runs).max(1) as f64,
        );
        m.put(&format!("core.{kind}.share"), shares.parts[i]);
    }
    put_counters(&mut m, &r0.counters);
    m.put("wal.forces", obs.log_forces as f64);
    m.put("wal.tail_records_max", tail_records as f64);
    m.put("wal.durable_log_mb", log_bytes as f64 / (1 << 20) as f64);
    m.put("storage.page_reads", obs.page_reads as f64);
    m.put("storage.page_writes", obs.page_writes as f64);
    m.put("obs.trace_on_ratio", observed_s / plain_s);
    codec(&mut m, &obs.sent);
    m
}

/// Protocol ratios and the lock-manager counters.
fn put_counters(m: &mut Measured, c: &Counters) {
    let commits = c.commits.max(1) as f64;
    m.put(
        "core.cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
    );
    m.put("core.msgs_per_commit", c.msgs_sent as f64 / commits);
    m.put(
        "core.callbacks_per_commit",
        c.callbacks_sent as f64 / commits,
    );
    m.put("core.adaptive_grants", c.adaptive_grants as f64);
    m.put("lockmgr.lock_waits", c.lock_waits as f64);
    m.put("lockmgr.deadlock_aborts", c.deadlock_aborts as f64);
    m.put("lockmgr.timeout_aborts", c.timeout_aborts as f64);
}

/// Times `pscc_net::codec` over the sampled messages, one frame per
/// buffer as a reader holding one frame sees it, checking that each
/// decodes to itself.
fn codec(m: &mut Measured, sent: &[Message]) {
    let t = Instant::now();
    let mut frames: Vec<BytesMut> = sent
        .iter()
        .map(|msg| {
            let mut buf = BytesMut::new();
            pscc_net::codec::encode_frame(msg, &mut buf).expect("engine messages encode");
            buf
        })
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    let bytes: usize = frames.iter().map(BytesMut::len).sum();
    let t = Instant::now();
    let decoded: Vec<Option<Message>> = frames
        .iter_mut()
        .map(|buf| pscc_net::codec::decode_frame(buf).expect("frames decode"))
        .collect();
    let decode_ns = t.elapsed().as_nanos() as f64;
    let round_trips = decoded.iter().zip(sent).all(|(d, s)| d.as_ref() == Some(s));
    m.checks.check(round_trips, || {
        "codec round trip changed a message".to_string()
    });
    let n = sent.len().max(1) as f64;
    m.put("net.codec.encode_ns", encode_ns / n);
    m.put("net.codec.decode_ns", decode_ns / n);
    m.put("net.codec.bytes_per_msg", bytes as f64 / n);
}
