//! The traced run: per-layer metrics.
//!
//! Untraced and traced passes alternate for the run's seconds, so
//! `trace.overhead_pct` compares passes taken under the same machine
//! conditions. Every traced pass must reproduce the untraced digest;
//! `fanin_observed_256` also runs with observers off, which must leave
//! its traffic digest unchanged. Counts come from the simulated results
//! and are deterministic for a seed; times come from spans, from extra
//! passes that step or snapshot the engine, and from the layer replay
//! drivers in [`crate::replay`].

use std::hint::black_box;
use std::time::Instant;

use netsim::Simulation;
use simcore::derive_seed;
use tcpstack::CcAlgorithm;

use crate::trace::Tracer;
use crate::workloads::{self, Cell, GridOutcome, Inputs, Outcome, STEP_SLICE};
use crate::{best_time, median, metric, out_dir, quantile, replay, Metric, Runner};

/// Replay sizes (operations per driver).
const QUEUE_OPS: u64 = 2_000_000;
const REARM_OPS: u64 = 500_000;
const ACKS_PER_CC: u64 = 200_000;
const HOST_BURSTS: u64 = 100_000;
const SWITCH_BURSTS: u64 = 200_000;
const OBS_RECORDS: u64 = 1_000_000;
const FLOW_DRAWS: u64 = 200_000;

/// Runs of each replay driver; the fastest counts, as for `wall_s`.
const REPLAY_RUNS: usize = 3;

fn fastest(mut run: impl FnMut() -> f64) -> f64 {
    (0..REPLAY_RUNS)
        .map(|_| run())
        .fold(f64::INFINITY, f64::min)
}

/// Snapshots timed per checkpoint measurement.
const CHECKPOINTS: usize = 5;

/// Times (ms) of [`CHECKPOINTS`] snapshots of a running simulation of
/// `cfg` after `events` events: the operation the harness supervisor
/// performs at its checkpoint cadence.
fn checkpoint_ms(cfg: netsim::SimConfig, events: u64) -> Result<Vec<f64>, String> {
    let mut running = Simulation::new(cfg).map_err(|e| e.to_string())?.start();
    while running.events_done() < events {
        if running.step_events(STEP_SLICE).map_err(|e| e.to_string())? {
            break;
        }
    }
    Ok((0..CHECKPOINTS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(running.checkpoint());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect())
}

/// `paper_grid`'s engine pass: repetition 0 of every cell driven
/// directly in [`STEP_SLICE`]-event slices (the supervisor's own
/// stepping), each slice a span and a queue sample. Its report must be
/// the one the harness produced for the same seed.
fn grid_engine_pass(
    runner: &mut Runner,
    cells: &[Cell],
    seed: u64,
    o: &GridOutcome,
    t: &mut Tracer,
) {
    for (c, s) in cells.iter().zip(&o.summaries) {
        let sc = &c.scenario;
        let opts = sc.opts.clone().seed(derive_seed(sc.fingerprint(), seed, 0));
        let report = iperf3sim::start_session(
            &sc.client,
            &sc.server,
            &sc.path,
            &opts,
            &sc.faults,
            sc.event_budget,
        )
        .map_err(|e| e.to_string())
        .and_then(|mut session| loop {
            let span = t.open("engine.step");
            let done = session.step_events(STEP_SLICE).map_err(|e| e.to_string())?;
            t.close(span);
            t.sample_queue(session.queue_health());
            if done {
                return session.finish().map_err(|e| e.to_string());
            }
        });
        let problems = match (report, s) {
            (Err(e), _) => vec![format!("{}: engine pass: {e}", sc.label)],
            (Ok(r), Ok(s))
                if s.reports
                    .first()
                    .is_some_and(|h| h.to_json() == r.to_json()) =>
            {
                vec![]
            }
            (Ok(_), _) => vec![format!(
                "{}: stepped report differs from the harness report",
                sc.label
            )],
        };
        runner.tally.op(problems);
    }
}

/// Deterministic layer counts of one traced pass.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    flows: u64,
    /// Bursts on the wire (for `paper_grid`: delivered bursts, the
    /// only burst count its reports carry).
    wire: u64,
    drops: u64,
    retx_ratio: f64,
    rto_events: u64,
    zc_fallback: f64,
    cancels: u64,
    peak_active: u64,
    peak_slots: u64,
    slab_slots: u64,
    telemetry_samples: u64,
    checkpoints: u64,
    paper_err_pct: f64,
    fct_range: (u64, u64),
}

fn counts(o: &Outcome, inputs: &Inputs) -> Counts {
    let mut c = Counts::default();
    match (o, inputs) {
        (Outcome::PaperGrid(g), Inputs::PaperGrid { cells, .. }) => {
            c.events = g.events;
            c.checkpoints = g.checkpoints;
            let (mut retr, mut pkts, mut zc, mut zc_cells, mut err, mut anchored) =
                (0u64, 0u64, 0.0, 0, 0.0, 0);
            for ((cell, s), anchor) in cells.iter().zip(&g.summaries).zip(&g.anchors) {
                let Ok(s) = s else { continue };
                let off = &cell.scenario.client.offload;
                for st in s.reports.iter().flat_map(|r| &r.streams) {
                    c.flows += 1;
                    c.wire += st.bytes.as_u64() / off.gso_max_size.as_u64().max(1);
                    pkts += st.bytes.packets_at_mtu(off.mtu);
                    retr += st.retr;
                }
                if cell.scenario.opts.zerocopy {
                    zc += s.zc_fallback;
                    zc_cells += 1;
                }
                if let Some(a) = anchor {
                    err += (s.mean_gbps() - a).abs() / a;
                    anchored += 1;
                }
            }
            c.retx_ratio = retr as f64 / pkts.max(1) as f64;
            c.drops = (c.retx_ratio * c.wire as f64) as u64;
            c.zc_fallback = zc / f64::from(zc_cells.max(1));
            c.paper_err_pct = 100.0 * err / f64::from(anchored.max(1));
        }
        (Outcome::Fanin(r), Inputs::Fanin { cfg }) => {
            c.events = r.events;
            c.flows = r.flows.len() as u64;
            c.wire = r.wire_sent;
            c.drops = r.total_drops();
            let off = &cfg.sender.offload;
            let wire_pkts = r.wire_sent * off.gso_max_size.packets_at_mtu(off.mtu);
            c.retx_ratio = r.total_retr() as f64 / wire_pkts.max(1) as f64;
            c.rto_events = r.flows.iter().map(|f| f.rto_events).sum();
            c.zc_fallback = r.zc_fallback_fraction();
            if let Some(tel) = &r.telemetry {
                c.telemetry_samples = tel
                    .flows
                    .iter()
                    .map(|f| f.samples.len() as u64)
                    .sum::<u64>()
                    + tel.host.samples.len() as u64;
            }
        }
        (Outcome::Fleet(rs), _) => {
            for r in rs {
                c.events += r.events;
                c.flows += r.flows_served;
                c.wire += r.wire_bursts;
                c.drops += r.drops;
                c.retx_ratio += r.retx_bursts as f64;
                c.rto_events += r.rto_events;
                c.cancels += r.timers_cancelled;
                c.peak_active = c.peak_active.max(r.peak_active as u64);
                c.peak_slots = c.peak_slots.max(r.peak_slots as u64);
                c.slab_slots = c.slab_slots.max(r.health.slab_slots as u64);
                let (lo, hi) = (r.fct.min().unwrap_or(1), r.fct.max().unwrap_or(1));
                c.fct_range = if c.fct_range == (0, 0) {
                    (lo, hi)
                } else {
                    (c.fct_range.0.min(lo), c.fct_range.1.max(hi))
                };
            }
            c.retx_ratio /= c.wire.max(1) as f64;
        }
        _ => unreachable!("an outcome always matches its inputs"),
    }
    c
}

fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        100.0 * (a - b) / b
    } else {
        0.0
    }
}

/// The traced run. Returns every per-layer metric.
pub fn traced_run(runner: &mut Runner, workload: &str, seed: u64, seconds: f64) -> Vec<Metric> {
    let inputs = runner.inputs;
    let mut t = Tracer::new();
    let fanin = matches!(inputs, Inputs::Fanin { .. });
    let (mut plain, mut traced, mut off) = (Vec::new(), Vec::new(), Vec::new());
    // Pass time scaled to one slice: the step time of the fleet loop,
    // which cannot be stepped.
    let mut scaled_step_ms = Vec::new();
    let (mut traced_events, mut traced_passes) = (0u64, 0u32);
    let (mut want, mut want_traffic) = (None, None);
    let mut last = None;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if let Some(p) = runner.pass(true, None) {
            runner.same_digest(want, p.digest, "untraced pass");
            want.get_or_insert(p.digest);
            want_traffic.get_or_insert(p.traffic);
            plain.push(p.parts);
        }
        if let Some(p) = runner.pass(true, Some(&mut t)) {
            runner.same_digest(want, p.digest, "traced pass");
            let wall_s: f64 = p.parts.iter().sum();
            traced_events += p.events;
            traced_passes += 1;
            scaled_step_ms.push(wall_s * 1e3 * STEP_SLICE as f64 / p.events.max(1) as f64);
            traced.push(p.parts.clone());
            last = Some(p);
        }
        if fanin {
            if let Some(p) = runner.pass(false, None) {
                runner.same_digest(want_traffic, p.traffic, "observers-off traffic");
                off.push(p.parts);
            }
        }
    }
    if let Some(d) = want {
        println!("digest {workload} seed={seed} {d}");
    }
    let Some(last) = last else {
        runner.tally.problem("no traced pass completed".into());
        return Vec::new();
    };
    let c = counts(&last.outcome, inputs);
    let pass_s = best_time(&traced);

    // Engine slices, checkpoints and harness time.
    if let (Inputs::PaperGrid { cells, seed }, Outcome::PaperGrid(o)) = (inputs, &last.outcome) {
        grid_engine_pass(runner, cells, *seed, o, &mut t);
    }
    let step_ms: Vec<f64> = match inputs {
        Inputs::Fleet { .. } => scaled_step_ms,
        _ => t
            .durations("engine.step")
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect(),
    };
    let mut checkpoint_replay = |cfg, events| {
        checkpoint_ms(cfg, events).unwrap_or_else(|e| {
            runner.tally.problem(format!("checkpoint replay: {e}"));
            Vec::new()
        })
    };
    let (rep_s, ckpt_ms) = match (inputs, &last.outcome) {
        (Inputs::PaperGrid { cells, .. }, Outcome::PaperGrid(o)) => {
            let reps = (cells.len() * o.reps) as f64 * f64::from(traced_passes);
            (
                t.total_ns("harness.cell") as f64 / 1e9 / reps,
                o.checkpoint_ms.clone(),
            )
        }
        (Inputs::Fanin { cfg }, _) => (pass_s, checkpoint_replay(cfg.clone(), c.events / 2)),
        // Control: the fleet loop has no snapshot API, so this times
        // snapshots of the observer-free fan-in simulation.
        (Inputs::Fleet { .. }, _) => (
            pass_s / 2.0,
            checkpoint_replay(workloads::fanin_config(seed, false), STEP_SLICE),
        ),
        _ => unreachable!("an outcome always matches its inputs"),
    };
    let queue_p50 = if c.slab_slots > 0 {
        c.slab_slots
    } else {
        t.queue_len.quantile(0.5).unwrap_or(1)
    };
    let queue_p99 = if c.slab_slots > 0 {
        c.slab_slots
    } else {
        t.queue_len.quantile(0.99).unwrap_or(1)
    };

    // Layer replays, shaped by this workload's own measurements.
    let cancel_ratio = c.cancels as f64 / c.events.max(1) as f64;
    let drop_ratio = c.drops as f64 / c.wire.max(1) as f64;
    let queue_ns = fastest(|| replay::queue_hold(queue_p50 as usize, QUEUE_OPS, seed));
    let mut replay_stale = 0;
    let cancel_ns = fastest(|| {
        let (ns, stale) = replay::timer_rearm(queue_p50 as usize, cancel_ratio, REARM_OPS, seed);
        replay_stale = stale;
        ns
    });
    // The fleet loop cannot be sampled mid-run; its tombstone peak comes
    // from the rearm replay at its own depth and cancel ratio.
    let stale_max = if cancel_ratio > 0.0 {
        t.stale_timers_max.max(replay_stale)
    } else {
        t.stale_timers_max
    };
    let ack_ns: Vec<(CcAlgorithm, f64)> = CcAlgorithm::ALL
        .iter()
        .map(|&cc| {
            (
                cc,
                fastest(|| replay::tcp_acks(cc, drop_ratio, ACKS_PER_CC, seed)),
            )
        })
        .collect();
    let grid_hosts = || match inputs {
        Inputs::PaperGrid { cells, .. } => cells
            .iter()
            .map(|c| (c.scenario.client.clone(), c.scenario.opts.zerocopy))
            .collect::<Vec<_>>(),
        _ => workloads::paper_cells()
            .into_iter()
            .map(|c| (c.scenario.client, c.scenario.opts.zerocopy))
            .collect(),
    };
    let hosts = match inputs {
        Inputs::Fanin { cfg } => vec![(cfg.sender.clone(), cfg.workload.zerocopy)],
        _ => grid_hosts(),
    };
    let host_ns = fastest(|| replay::host_bursts(&hosts, c.zc_fallback, HOST_BURSTS, seed));
    let ports: Vec<_> = match inputs {
        Inputs::PaperGrid { cells, .. } => cells
            .iter()
            .map(|c| replay::path_port(&c.scenario.path))
            .collect(),
        Inputs::Fanin { cfg } => vec![replay::path_port(&cfg.path)],
        Inputs::Fleet { steady, incast } => steady
            .classes
            .iter()
            .chain(&incast.classes)
            .map(|k| (k.buffer, k.bottleneck, false))
            .collect(),
    };
    let overload = 1.0 / (1.0 - drop_ratio.min(0.5));
    let fabric_ns = fastest(|| replay::switch_bursts(&ports, overload, SWITCH_BURSTS));
    let (fct_lo, fct_hi) = if c.fct_range == (0, 0) {
        (1, 100_000)
    } else {
        c.fct_range
    };
    let obs_ns = fastest(|| replay::obs_records(fct_lo, fct_hi, OBS_RECORDS, seed));
    let profiles = match inputs {
        Inputs::Fleet { steady, incast } => vec![steady.clone(), incast.clone()],
        _ => vec![
            workloads::fleet_steady_profile(seed),
            workloads::fleet_incast_profile(seed),
        ],
    };
    let flow_ns = fastest(|| replay::workload_draws(&profiles, FLOW_DRAWS));

    // Coverage: replayed cost per operation times the pass's own
    // operation counts, over the traced pass time.
    let fleet = matches!(inputs, Inputs::Fleet { .. });
    let mean_ack_ns = match inputs {
        // Every paper cell runs the default controller.
        Inputs::PaperGrid { .. } => ack_ns[0].1,
        _ => ack_ns.iter().map(|a| a.1).sum::<f64>() / ack_ns.len() as f64,
    };
    let acks = c.wire.saturating_sub(c.drops) as f64;
    let host_ops = if fleet { 0.0 } else { c.wire as f64 };
    let fleet_flows = if fleet { c.flows as f64 } else { 0.0 };
    let covered_ns = c.events as f64 * queue_ns
        + c.cancels as f64 * cancel_ns
        + acks * mean_ack_ns
        + host_ops * host_ns
        + c.wire as f64 * fabric_ns
        + fleet_flows * 3.0 * obs_ns
        + fleet_flows * flow_ns;
    let coverage_pct = 100.0 * covered_ns / (pass_s * 1e9).max(1.0);

    // Spans at exit, with self time per span name on stderr.
    let spans_path = out_dir().join(format!("spans_{workload}_seed{seed}.jsonl"));
    if let Err(e) = t.write(&spans_path) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }
    for (name, ns) in t.self_times() {
        eprintln!("perfbench: span {name}: self {:.3} s", ns as f64 / 1e9);
    }

    let mut m = vec![
        metric("engine.step_ms_p50", quantile(&step_ms, 0.5), "ms"),
        metric("engine.step_ms_p99", quantile(&step_ms, 0.99), "ms"),
        metric("engine.queue_len_p50", queue_p50 as f64, "count"),
        metric("engine.queue_len_p99", queue_p99 as f64, "count"),
        metric("engine.replay_ns_per_op", queue_ns, "ns"),
        metric("engine.cancel_ratio", cancel_ratio, "ratio"),
        metric("engine.stale_timers_max", stale_max as f64, "count"),
        metric("engine.replay_ns_per_cancel", cancel_ns, "ns"),
        metric("tcp.retx_ratio", c.retx_ratio, "ratio"),
        metric("tcp.rto_events", c.rto_events as f64, "count"),
    ];
    for (cc, ns) in &ack_ns {
        m.push(metric(
            format!("tcp.replay_ns_per_ack.{}", cc.name()),
            *ns,
            "ns",
        ));
    }
    m.extend([
        metric("host.replay_ns_per_burst", host_ns, "ns"),
        metric("host.zc_fallback_ratio", c.zc_fallback, "ratio"),
        metric("fabric.drop_ratio", drop_ratio, "ratio"),
        metric("fabric.replay_ns_per_burst", fabric_ns, "ns"),
        metric(
            "observers.overhead_pct",
            if fanin {
                pct_over(best_time(&plain), best_time(&off))
            } else {
                0.0
            },
            "%",
        ),
        metric(
            "observers.telemetry_samples",
            c.telemetry_samples as f64,
            "count",
        ),
        metric("workload.replay_ns_per_flow", flow_ns, "ns"),
        metric("obs.replay_ns_per_record", obs_ns, "ns"),
        metric("fleet.peak_active", c.peak_active as f64, "count"),
        metric("fleet.peak_slots", c.peak_slots as f64, "count"),
        metric("harness.rep_s", rep_s, "s"),
        metric("harness.checkpoint_ms", median(&ckpt_ms), "ms"),
        metric("harness.checkpoints", c.checkpoints as f64, "count"),
        metric("harness.paper_err_pct", c.paper_err_pct, "%"),
        metric(
            "alloc.per_event",
            t.allocs as f64 / traced_events.max(1) as f64,
            "1/event",
        ),
        metric(
            "alloc.bytes_per_event",
            t.alloc_bytes as f64 / traced_events.max(1) as f64,
            "B/event",
        ),
        metric(
            "trace.overhead_pct",
            pct_over(pass_s, best_time(&plain)),
            "%",
        ),
        metric("layers.coverage_pct", coverage_pct, "%"),
    ]);
    m
}
