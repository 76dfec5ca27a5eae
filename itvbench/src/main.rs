//! The repository benchmark. One command runs a named workload, checks
//! the system's outputs, and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) as one JSON line:
//!
//! ```text
//! itvbench --workload <vod-open|zap-admit|failover-sim> --seed <n>
//!          --seconds <s> --trace <0|1> [--short] [--inject-leak]
//! ```
//!
//! Each run measures all three user actions, each in a leg of the same
//! size, so every metric is present in every run. The named workload
//! adds its repeated set-up (reported as `setup_s`) and, for
//! `failover-sim`, same-seed repetitions of the simulator leg.
//! See README.md for the workloads, the metric map and the known movers.

mod layers;
mod real;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::{median, pct, us, us_to_ms};

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// Leaf bindings in `vod-open`'s name space (the trial's subscribers).
const SUBS: usize = 4_000;
/// Offered `zap-admit` load, ops/s, half channel changes and half name
/// updates: about a third of the two generator threads' closed-loop
/// capacity (550-600 ops/s measured on a 2-core host). At half capacity
/// (300 ops/s) queueing amplified every host slowdown: p50 spread 0.31
/// over five runs against 0.11 at this rate.
const ZAP_RATE: f64 = 200.0;
/// Samples every p99 needs per run.
const MIN_SAMPLES: u64 = 1_000;
/// Set-ups per run of the named workload; `setup_s` is their median.
/// The vod-open set-up takes seconds (it binds the subscriber names);
/// zap-admit's takes a tenth of a second and the simulator's about
/// 10 ms, so those are repeated more.
const VOD_SETUPS: usize = 3;
const ZAP_SETUPS: usize = 9;
const SIM_SETUPS: usize = 25;
/// Same-seed runs of the simulator leg on `failover-sim`.
const SIM_REPS: usize = 2;
/// Kills in the fail-over schedule.
const KILLS: usize = 8;
/// Settops in the real cluster (one generator thread each).
const SETTOPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    VodOpen,
    ZapAdmit,
    FailoverSim,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    short: bool,
    leak: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::VodOpen,
        seed: 1,
        seconds: 10,
        trace: false,
        short: false,
        leak: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val()?.as_str() {
                    "vod-open" => Workload::VodOpen,
                    "zap-admit" => Workload::ZapAdmit,
                    "failover-sim" => Workload::FailoverSim,
                    w => return Err(format!("unknown workload {w}")),
                })
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--short" => a.short = true,
            "--inject-leak" => a.leak = true,
            f => return Err(format!("unknown flag {f}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

/// Sizes of one run's legs.
struct Sizes {
    subs: usize,
    min_samples: u64,
    vod_setups: usize,
    zap_setups: usize,
    sim_setups: usize,
    kills: usize,
}

impl Sizes {
    fn of(short: bool) -> Sizes {
        if short {
            Sizes {
                subs: 400,
                min_samples: 200,
                vod_setups: 2,
                zap_setups: 3,
                sim_setups: 3,
                kills: 2,
            }
        } else {
            Sizes {
                subs: SUBS,
                min_samples: MIN_SAMPLES,
                vod_setups: VOD_SETUPS,
                zap_setups: ZAP_SETUPS,
                sim_setups: SIM_SETUPS,
                kills: KILLS,
            }
        }
    }
}

/// Counter readings around a real-runtime leg.
#[derive(Clone, Copy, Default)]
struct Counters {
    orb_calls: u64,
    ns_resolves: u64,
    commits: u64,
    conn_open: u64,
    view_changes: u64,
    cpu_us: u64,
    allocs: u64,
}

impl Counters {
    fn read(rig: &real::Rig) -> Counters {
        Counters {
            orb_calls: rig.counter("orb.client.calls"),
            ns_resolves: rig.counter("ns.server.resolves"),
            commits: rig.counter_max("ns.vsr.commits") + rig.counter_max("cm.vsr.commits"),
            conn_open: rig.cluster.net().counters().get("real.net.conn_open").copied().unwrap_or(0),
            view_changes: rig.counter("ns.vsr.view_changes") + rig.counter("cm.vsr.view_changes"),
            cpu_us: stats::cpu_time_us(),
            allocs: stats::allocs(),
        }
    }

    /// Deltas since `before`.
    fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            orb_calls: d(self.orb_calls, before.orb_calls),
            ns_resolves: d(self.ns_resolves, before.ns_resolves),
            commits: d(self.commits, before.commits),
            conn_open: d(self.conn_open, before.conn_open),
            view_changes: d(self.view_changes, before.view_changes),
            cpu_us: d(self.cpu_us, before.cpu_us),
            allocs: d(self.allocs, before.allocs),
        }
    }
}

fn ratio(n: u64, ops: u64) -> f64 {
    n as f64 / ops.max(1) as f64
}

/// A vod-open leg with its counter deltas.
struct VodLeg {
    out: real::VodOut,
    delta: Counters,
    /// Remote resolve samples at the leg's name-space size, µs.
    resolve_us: Vec<f64>,
    /// Open latencies of a short untraced warm-up segment (traced runs).
    untraced_open_us: Vec<u64>,
}

struct ZapLeg {
    out: real::ZapOut,
    delta: Counters,
    /// Remote resolve samples at the deployed name-space size, µs.
    resolve_us: Vec<f64>,
    live: usize,
}

/// Remote `NsHandle::resolve` round trips from a settop to a replica.
fn resolve_samples(rig: &real::Rig, n: usize) -> Vec<f64> {
    let ns = rig.settop_ns(0);
    (0..n)
        .map(|_| {
            let t = Instant::now();
            ns.resolve("svc/mms").expect("svc/mms resolves");
            t.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect()
}

fn vod_leg(rig: &real::Rig, budget: Duration, min: u64, trace: bool, leak: bool) -> VodLeg {
    let (resolve_us, untraced_open_us) = if trace {
        let pre = real::run_vod(rig, Duration::ZERO, 300, false);
        (resolve_samples(rig, 2000), pre.open_us)
    } else {
        (Vec::new(), Vec::new())
    };
    stats::count_allocs(trace);
    let before = Counters::read(rig);
    let out = real::run_vod(rig, budget, min, leak);
    let after = Counters::read(rig);
    stats::count_allocs(false);
    VodLeg {
        delta: after.since(&before),
        out,
        resolve_us,
        untraced_open_us,
    }
}

fn zap_leg(rig: &real::Rig, budget: Duration, min: u64, seed: u64, trace: bool, leak: bool) -> ZapLeg {
    let resolve_us = if trace { resolve_samples(rig, 2000) } else { Vec::new() };
    stats::count_allocs(trace);
    let before = Counters::read(rig);
    let out = real::run_zap(rig, ZAP_RATE, budget, min, seed, leak);
    let after = Counters::read(rig);
    stats::count_allocs(false);
    let live = rig.cm_replicas().first().map_or(0, |r| r.allocations().len());
    ZapLeg {
        delta: after.since(&before),
        out,
        resolve_us,
        live,
    }
}

/// Launches `n` rigs one after another, timing each, and keeps the last.
fn set_up(n: usize, subs: usize) -> Result<(real::Rig, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..n.max(1) {
        if let Some(old) = rig.take() {
            real::Rig::shutdown(old);
        }
        let t = Instant::now();
        rig = Some(real::Rig::launch(SETTOPS, subs)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((rig.expect("at least one set-up"), times))
}

struct Run {
    setup_s: Vec<f64>,
    vod: VodLeg,
    zap: ZapLeg,
    sims: Vec<sim::SimOut>,
    violations: Vec<String>,
}

fn run(a: &Args, sz: &Sizes) -> Result<Run, String> {
    let main_budget = Duration::from_secs(a.seconds);
    let mut setup_s = Vec::new();
    let mut violations = Vec::new();
    let is = |w| a.workload == w;

    // Real-runtime legs, always in this order: vod-open, then zap-admit.
    // The vod-open set-up binds thousands of names, and every RPC on the
    // real transport opens fresh TCP connections, so it leaves the host's
    // TIME_WAIT table at the level the workloads themselves sustain
    // (see README.md, known mover 3). Every timed leg therefore starts
    // from that same state, whatever the previous run did.
    let (rig, t) = set_up(if is(Workload::VodOpen) { sz.vod_setups } else { 1 }, sz.subs)?;
    if is(Workload::VodOpen) {
        setup_s = t;
    }
    let vod = vod_leg(&rig, main_budget, sz.min_samples, a.trace, a.leak && is(Workload::VodOpen));
    rig.shutdown();
    let (rig, t) = set_up(if is(Workload::ZapAdmit) { sz.zap_setups } else { 1 }, 0)?;
    if is(Workload::ZapAdmit) {
        setup_s = t;
    }
    let zap = zap_leg(&rig, main_budget, sz.min_samples, a.seed, a.trace, a.leak && is(Workload::ZapAdmit));
    rig.shutdown();
    violations.extend(vod.out.violations.iter().map(|v| format!("vod-open: {v}")));
    violations.extend(zap.out.violations.iter().map(|v| format!("zap-admit: {v}")));

    // The simulator leg. On its own workload it runs twice with the
    // same seed, and the two must agree exactly in their deterministic
    // fields. The count is fixed, not timed: each repetition leaves the
    // allocator's heap larger, so a count that followed the host's speed
    // made `peak_rss_mb` follow it too (74-87 MiB over ten runs).
    let leak = a.leak && is(Workload::FailoverSim);
    let reps = if is(Workload::FailoverSim) { SIM_REPS } else { 1 };
    let sims: Vec<sim::SimOut> = (0..reps).map(|_| sim::run(a.seed, 1, sz.kills, leak)).collect();
    if is(Workload::FailoverSim) {
        setup_s = (0..sz.sim_setups).map(|_| sim::setup_s(a.seed)).collect();
    }
    let first = sims[0].deterministic();
    if let Some(i) = sims.iter().position(|s| s.deterministic() != first) {
        violations.push(format!(
            "failover-sim: same-seed repetition {i} differs from the first (trace hash {:x} vs {:x})",
            sims[i].trace_hash, first.trace_hash
        ));
    }
    let s = &sims[0];
    if s.failed_admits > 0 {
        violations.push(format!("failover-sim: {} admissions never completed", s.failed_admits));
    }
    if s.lost > 0 || s.doubled > 0 || !s.audit_exact {
        violations.push(format!(
            "failover-sim: CM audit failed: {} lost, {} doubled, exact {}",
            s.lost, s.doubled, s.audit_exact
        ));
    }
    if s.reads_ok != s.reads {
        violations.push(format!("failover-sim: read availability {}/{}", s.reads_ok, s.reads));
    }
    if s.blackouts_s.iter().any(|b| !b.is_finite()) {
        violations.push("failover-sim: an update stream never recovered from a kill".into());
    }
    for (what, n) in [("vod-open", vod.out.open_us.len()), ("zap-admit", zap.out.zap_us.len()), ("zap-admit binds", zap.out.bind_us.len()), ("failover-sim", s.admit_us.len())] {
        if (n as u64) < sz.min_samples {
            violations.push(format!("{what}: only {n} latency samples"));
        }
    }
    Ok(Run {
        setup_s,
        vod,
        zap,
        sims,
        violations,
    })
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(r: &Run) -> Metrics {
    let s = &r.sims[0];
    let admit = us_to_ms(&s.admit_us);
    // Failed or refused share of each user action's calls, averaged
    // over the three actions.
    let vod_frac = ratio(r.vod.out.failed, r.vod.out.sessions);
    let zap_frac = ratio(r.zap.out.failed, r.zap.out.zaps + r.zap.out.ns_ops);
    let sim_frac = ratio(s.refused, s.attempts);
    let mut m = Metrics::new();
    m.insert("setup_s", (median(&r.setup_s), "s"));
    m.insert("failed_frac", ((vod_frac + zap_frac + sim_frac) / 3.0, "ratio"));
    m.insert("peak_rss_mb", (stats::peak_rss_mb(), "MiB"));
    m.insert("admit_p50_vms", (median(&admit), "vms"));
    m.insert("admit_p99_vms", (pct(&admit, 0.99), "vms"));
    m.insert("blackout_p50_vs", (median(&s.blackouts_s), "vs"));
    m.insert("blackout_max_vs", (s.blackouts_s.iter().cloned().fold(0.0, f64::max), "vs"));
    m
}

fn per_layer(a: &Args, r: &Run, sz: &Sizes) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let w = layers::wire();
    m.insert("wire.encode_ns.ticket", (w.ticket.0, "ns"));
    m.insert("wire.decode_ns.ticket", (w.ticket.1, "ns"));
    m.insert("wire.encode_ns.cm_prepare", (w.cm_prepare.0, "ns"));
    m.insert("wire.decode_ns.cm_prepare", (w.cm_prepare.1, "ns"));

    let o = layers::orb_and_net(2000);
    let (echo50, echo99) = layers::p50_p99(&o.echo_rtt_us);
    m.insert("orb.echo_rtt_us.p50", (echo50, "us"));
    m.insert("orb.echo_rtt_us.p99", (echo99, "us"));
    m.insert("orb.dispatch_ns", (o.dispatch_ns, "ns"));
    let (vod, zap) = (&r.vod, &r.zap);
    let opens = vod.out.sessions;
    let zops = zap.out.zaps + zap.out.ns_ops;
    let calls_open = ratio(vod.delta.orb_calls, opens);
    let calls_zap = ratio(zap.delta.orb_calls, zops);
    m.insert("orb.calls_per_open", (calls_open, "count"));
    m.insert("orb.calls_per_zap", (calls_zap, "count"));
    m.insert("net.tcp_rtt_us.64B", (o.tcp_64_us, "us"));
    m.insert("net.tcp_rtt_us.4KiB", (o.tcp_4k_us, "us"));
    m.insert(
        "net.conn_open_per_kop",
        (1000.0 * ratio(vod.delta.conn_open + zap.delta.conn_open, opens + zops), "count"),
    );

    let s = &r.sims[0];
    let (events, resumes, handoffs, _) = s.kernel;
    m.insert("kernel.events_per_admit", (ratio(events, s.admits), "count"));
    m.insert("kernel.msgs_per_admit", (ratio(s.msgs_sent, s.admits), "count"));
    m.insert("kernel.bytes_per_admit", (ratio(s.bytes_sent, s.admits), "B"));
    m.insert("kernel.switches_per_event", (ratio(resumes + handoffs, events), "ratio"));
    let ev_rate: Vec<f64> = r.sims.iter().map(|s| s.kernel.0 as f64 / s.wall_s).collect();
    m.insert("kernel.events_per_wall_s", (median(&ev_rate), "1/s"));
    let speed: Vec<f64> = r.sims.iter().map(|s| s.virt_s / s.wall_s).collect();
    m.insert("sim_vsec_per_s", (median(&speed), "vs/s"));
    // The same seed at 2 shards: identical schedule, wall-clock ratio.
    let kills = s.blackouts_s.len();
    let two = sim::run(a.seed, 2, kills, false);
    if !two.same_schedule(s) {
        return Err(format!(
            "failover-sim at 2 shards diverged from 1 shard (trace hash {:x} vs {:x})",
            two.trace_hash, s.trace_hash
        ));
    }
    m.insert("kernel.shard2_speedup", (s.wall_s / two.wall_s, "x"));

    let (res50, res99) = layers::p50_p99(&vod.resolve_us);
    let small50 = median(&zap.resolve_us);
    m.insert("ns.resolve_us.p50", (res50, "us"));
    m.insert("ns.resolve_us.p99", (res99, "us"));
    m.insert(
        "ns.resolve_us_per_1k_names",
        ((res50 - small50) / (sz.subs as f64 / 1000.0), "us"),
    );
    let n = layers::name(sz.subs);
    m.insert("ns.state_clone_us", (n.state_clone_us, "us"));
    m.insert("ns.state_resolve_ns", (n.state_resolve_ns, "ns"));
    m.insert("ns.cache_hit_ns", (n.cache_hit_ns, "ns"));
    let resolves_open = ratio(vod.delta.ns_resolves, opens);
    m.insert("ns.resolves_per_open", (resolves_open, "count"));
    // The wall-clock figures of the three user actions. On a small
    // shared host they drift with the host's speed from minute to
    // minute, too far to carry a bound, so they are reported here
    // (README.md, "Why wall-clock figures carry no bound").
    let open = us_to_ms(&vod.out.open_us);
    m.insert("open_p50_ms", (median(&open), "ms"));
    m.insert("open_p99_ms", (pct(&open, 0.99), "ms"));
    m.insert("sessions_per_s", (vod.out.measured as f64 / vod.out.wall_s, "1/s"));
    m.insert("zap_p50_ms", (median(&us_to_ms(&zap.out.zap_us)), "ms"));
    m.insert("bind_p50_ms", (median(&us_to_ms(&zap.out.bind_us)), "ms"));
    m.insert("zap_p99_ms", (pct(&us_to_ms(&zap.out.zap_us), 0.99), "ms"));
    m.insert("bind_p99_ms", (pct(&us_to_ms(&zap.out.bind_us), 0.99), "ms"));
    let (bind50, bind99) = layers::p50_p99(&us(&zap.out.bind_svc_us));
    m.insert("ns.bind_us.p50", (bind50, "us"));
    m.insert("ns.bind_us.p99", (bind99, "us"));

    let engine_ns = layers::vsr_engine_commit_ns(20_000);
    m.insert("vsr.engine_commit_ns", (engine_ns, "ns"));
    let commits_open = ratio(vod.delta.commits, opens);
    let commits_zap = ratio(zap.delta.commits, zops);
    m.insert("vsr.commits_per_open", (commits_open, "count"));
    m.insert("vsr.commits_per_zap", (commits_zap, "count"));
    m.insert("vsr.view_changes_per_kill", (ratio(s.view_changes, kills as u64), "count"));
    m.insert("vsr.superseded", (s.superseded as f64, "count"));

    let (alloc50, alloc99) = layers::p50_p99(&us(&zap.out.alloc_svc_us));
    m.insert("cm.allocate_us.p50", (alloc50, "us"));
    m.insert("cm.allocate_us.p99", (alloc99, "us"));
    m.insert("cm.release_us.p50", (median(&us(&zap.out.release_svc_us)), "us"));
    let apply_ns = layers::cm_table_apply_ns(zap.live);
    m.insert("cm.table_apply_ns", (apply_ns, "ns"));
    let (mms50, mms99) = layers::p50_p99(&us(&vod.out.mms_open_us));
    m.insert("mms.open_us.p50", (mms50, "us"));
    m.insert("mms.open_us.p99", (mms99, "us"));
    m.insert("mms.close_us.p50", (median(&us(&vod.out.close_us)), "us"));
    m.insert("mds.play_us.p50", (median(&us(&vod.out.play_us)), "us"));

    m.insert("proc.cpu_us_per_open", (ratio(vod.delta.cpu_us, opens), "us"));
    m.insert("proc.cpu_us_per_zap", (ratio(zap.delta.cpu_us, zops), "us"));
    m.insert("proc.allocs_per_open", (ratio(vod.delta.allocs, opens), "count"));
    m.insert("proc.allocs_per_zap", (ratio(zap.delta.allocs, zops), "count"));

    m.insert("gen.late_p99_ms", (pct(&us_to_ms(&zap.out.late_us), 0.99), "ms"));
    let traced = median(&us(&vod.out.open_us));
    let untraced = median(&us(&vod.untraced_open_us));
    m.insert("trace.overhead_pct", (100.0 * (traced / untraced - 1.0), "%"));

    // Residuals: end-to-end p50 minus the isolated cost of each layer on
    // the blocking path times its per-op count. Every ORB call pays one
    // echo round trip (transport, ORB, per-request thread, codec); every
    // NS read pays a state clone and an in-place resolve; every commit
    // pays the engine's prepare/ack bookkeeping and one table apply.
    let commit_us = (engine_ns + apply_ns) / 1000.0;
    let read_us = n.state_clone_us + n.state_resolve_ns / 1000.0;
    let open_layers = calls_open * echo50 + resolves_open * read_us + commits_open * commit_us;
    m.insert("residual_us.open", (traced - open_layers, "us"));
    let mut zap_ops = us(&zap.out.zap_us);
    zap_ops.extend(us(&zap.out.bind_us));
    let zap_layers = calls_zap * echo50 + commits_zap * commit_us;
    m.insert("residual_us.zap", (median(&zap_ops) - zap_layers, "us"));
    Ok(m)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(m: &Metrics) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("itvbench: {e}");
            std::process::exit(2);
        }
    };
    let sz = Sizes::of(a.short);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "itvbench: workload={:?} seed={} seconds={} trace={} short={} cores_used={cores} shards=1 commit={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.short,
        git_commit()
    );
    let r = match run(&a, &sz) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("itvbench: {e}");
            std::process::exit(1);
        }
    };
    for (leg, xs, d) in [
        ("vod-open opens", &r.vod.out.open_us, &r.vod.delta),
        ("zap-admit zaps", &r.zap.out.zap_us, &r.zap.delta),
        ("zap-admit binds", &r.zap.out.bind_us, &r.zap.delta),
    ] {
        let ms = us_to_ms(xs);
        eprintln!(
            "itvbench: {leg}: n={} p50={:.3} p90={:.3} p99={:.3} p99.9={:.3} max={:.3} ms; view changes {}",
            ms.len(),
            median(&ms),
            pct(&ms, 0.9),
            pct(&ms, 0.99),
            pct(&ms, 0.999),
            pct(&ms, 1.0),
            d.view_changes
        );
    }
    let attempted = r.vod.out.sessions + r.zap.out.zaps + r.zap.out.ns_ops + r.sims[0].admits;
    let failed = r.vod.out.failed + r.zap.out.failed + r.sims[0].failed_admits;
    if !r.violations.is_empty() {
        for v in &r.violations {
            eprintln!("itvbench: CHECK FAILED: {v}");
        }
        println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
        std::process::exit(1);
    }
    let m = if a.trace {
        match per_layer(&a, &r, &sz) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("itvbench: CHECK FAILED: {e}");
                println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
                std::process::exit(1);
            }
        }
    } else {
        end_to_end(&r)
    };
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&m)
    );
}
