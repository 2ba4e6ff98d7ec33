//! The three benchmark workloads: their inputs, built from the seed,
//! and one pass of each through the repository's public APIs.
//!
//! A pass returns an [`Outcome`]: the simulated results the output
//! checks and the digest read, plus the layer counts the traced run
//! reports. Nothing here compares against numbers captured from one
//! seed; the checks in [`crate::checks`] hold for every seed.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use harness::metrics::MetricsHub;
use harness::supervise::{Supervisor, DEFAULT_CHECKPOINT_EVERY};
use harness::{AmLightPath, EsnetPath, Scenario, TestHarness, TestSummary, Testbeds};
use iperf3sim::Iperf3Opts;
use linuxhost::{HostConfig, KernelVersion, SysctlConfig};
use netsim::{
    ArrivalProcess, Diurnal, FleetClass, FleetProfile, FleetResult, FleetSim, RunResult,
    RunningSim, SimConfig, Simulation, SizeDist, WorkloadSpec,
};
use simcore::{derive_seed, BitRate, Bytes, SimDuration};
use tcpstack::CcAlgorithm;

use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_grid", "fanin_observed_256", "fleet_churn"];

/// Events per `RunningSim::step_events` slice: the harness
/// supervisor's own stepping chunk.
pub const STEP_SLICE: u64 = 65_536;

/// Repetitions per `paper_grid` cell.
pub const GRID_REPS: usize = 1;

/// Flows in `fanin_observed_256`.
const FANIN_FLOWS: usize = 256;
/// Simulated seconds of `fanin_observed_256`.
const FANIN_SECS: u64 = 2;

/// Flows in the steady Poisson mix of `fleet_churn`.
const FLEET_FLOWS: u64 = 1_000_000;
/// Steady arrival rate (flows per simulated second).
const FLEET_RATE: f64 = 10_000.0;
/// Flows in the MMPP incast of `fleet_churn`.
const INCAST_FLOWS: u64 = 160_000;

/// One paper cell: the scenario and, where the paper prints one
/// number for it, that number in Gbps (the anchors `tests/calibration.rs`
/// and `tests/golden_shapes.rs` pin).
pub struct Cell {
    pub scenario: Scenario,
    pub anchor_gbps: Option<f64>,
}

/// The built inputs of one workload (one value per process, so the
/// variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    PaperGrid {
        cells: Vec<Cell>,
        seed: u64,
    },
    Fanin {
        cfg: SimConfig,
    },
    Fleet {
        steady: FleetProfile,
        incast: FleetProfile,
    },
}

/// A workload's results from one pass.
pub enum Outcome {
    PaperGrid(GridOutcome),
    Fanin(Box<RunResult>),
    Fleet(Vec<FleetResult>),
}

/// `paper_grid` results: one summary (or error) per cell, plus what
/// the harness metrics hub counted.
#[derive(Clone)]
pub struct GridOutcome {
    pub summaries: Vec<Result<TestSummary, String>>,
    pub anchors: Vec<Option<f64>>,
    pub reps: usize,
    pub events: u64,
    pub checkpoints: u64,
    pub past_clamps: u64,
    /// Durations of the supervisor's checkpoint spans (traced passes
    /// only).
    pub checkpoint_ms: Vec<f64>,
    pub hub: Arc<MetricsHub>,
}

fn lan_opts() -> Iperf3Opts {
    Iperf3Opts::new(3).omit(1)
}

fn wan_opts() -> Iperf3Opts {
    Iperf3Opts::new(8).omit(4)
}

/// The paper's headline cells.
pub fn paper_cells() -> Vec<Cell> {
    let intel68 = Testbeds::amlight_host(KernelVersion::L6_8);
    let intel65 = Testbeds::amlight_host(KernelVersion::L6_5);
    let amd68 = Testbeds::esnet_host(KernelVersion::L6_8);
    let amd515 = Testbeds::esnet_host(KernelVersion::L5_15);
    let wan104 = Testbeds::amlight_path(AmLightPath::Wan104ms);
    let zc50 = || wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0));
    let cell = |label: &str, host: HostConfig, path, opts, anchor| Cell {
        scenario: Scenario::symmetric(label, host, path, opts),
        anchor_gbps: anchor,
    };
    vec![
        cell(
            "intel_lan_default",
            intel68,
            Testbeds::amlight_path(AmLightPath::Lan),
            lan_opts(),
            Some(55.0),
        ),
        cell(
            "amd_lan_default",
            amd68.clone(),
            Testbeds::esnet_path(EsnetPath::Lan),
            lan_opts(),
            Some(42.0),
        ),
        cell(
            "intel_104ms_zc_fq50_optmem_3.25mb",
            intel65.clone().with_optmem(SysctlConfig::optmem_3_25_mb()),
            wan104.clone(),
            zc50(),
            Some(50.0),
        ),
        cell(
            "intel_104ms_zc_fq50_optmem_20kb",
            intel65.with_optmem(Bytes::kib(20)),
            wan104,
            zc50(),
            None,
        ),
        cell(
            "amd_wan_zc_fq40",
            amd68,
            Testbeds::esnet_path(EsnetPath::Wan),
            wan_opts().zerocopy().fq_rate(BitRate::gbps(40.0)),
            Some(40.0),
        ),
        cell(
            "esnet_wan_8x15g_k515",
            amd515,
            Testbeds::esnet_path(EsnetPath::Wan),
            wan_opts().parallel(8).fq_rate(BitRate::gbps(15.0)),
            Some(115.0),
        ),
        cell(
            "prod_dtn_8x10g_pause",
            Testbeds::prod_dtn_host(),
            Testbeds::prod_dtn_path(),
            wan_opts().parallel(8).fq_rate(BitRate::gbps(10.0)),
            None,
        ),
    ]
}

/// The `fanin_observed_256` configuration.
pub fn fanin_config(seed: u64, observers: bool) -> SimConfig {
    let host = Testbeds::fanin_host(FANIN_FLOWS);
    let mut workload = WorkloadSpec::parallel(FANIN_FLOWS, FANIN_SECS)
        .with_cc_mix(CcAlgorithm::ALL.to_vec())
        .with_seed(seed);
    if observers {
        workload = workload
            .with_telemetry(SimDuration::from_millis(1))
            .with_attribution();
    }
    SimConfig {
        sender: host.clone(),
        receiver: host,
        path: Testbeds::fanin_path(false).with_switch_buffer(Bytes::mib(8)),
        workload,
    }
}

fn wan_class(name: &str, cc: CcAlgorithm, pacing: bool, rtt_ms: u64, buffer: Bytes) -> FleetClass {
    FleetClass {
        name: name.into(),
        weight: 1,
        cc,
        pacing,
        rtt: SimDuration::from_millis(rtt_ms),
        bottleneck: BitRate::gbps(25.0),
        buffer,
    }
}

/// The steady four-class Poisson WAN mix of `fleet_churn`.
pub fn fleet_steady_profile(seed: u64) -> FleetProfile {
    let mut p = FleetProfile::new(
        "fleet_churn_steady",
        ArrivalProcess::Poisson {
            rate_per_sec: FLEET_RATE,
        },
        SizeDist::LogNormal {
            median_bytes: 256.0 * 1024.0,
            sigma: 0.5,
        },
    );
    p.seed = seed;
    p.max_flows = FLEET_FLOWS;
    p.duration = SimDuration::from_secs_f64(FLEET_FLOWS as f64 / FLEET_RATE);
    p.diurnal = Some(Diurnal {
        amplitude: 0.3,
        period_secs: 5.0,
    });
    p.classes = vec![
        wan_class("cubic_wan", CcAlgorithm::Cubic, false, 40, Bytes::mib(64)),
        wan_class("bbr_wan", CcAlgorithm::BbrV1, true, 70, Bytes::mib(64)),
        wan_class("htcp_lfn", CcAlgorithm::Htcp, false, 120, Bytes::mib(64)),
        wan_class("bbr3_metro", CcAlgorithm::BbrV3, true, 10, Bytes::mib(32)),
    ];
    p
}

/// The MMPP incast of `fleet_churn`: bursts of small transfers into
/// one shallow 320 KiB, 10 G top-of-rack port.
pub fn fleet_incast_profile(seed: u64) -> FleetProfile {
    let (calm_rate, burst_rate, calm_secs, burst_secs) = (2_000.0, 15_000.0, 0.045, 0.0015);
    let mean_rate = (calm_rate * calm_secs + burst_rate * burst_secs) / (calm_secs + burst_secs);
    let mut p = FleetProfile::new(
        "fleet_churn_incast",
        ArrivalProcess::Mmpp2 {
            calm_rate,
            burst_rate,
            mean_calm_secs: calm_secs,
            mean_burst_secs: burst_secs,
        },
        SizeDist::BoundedPareto {
            alpha: 1.2,
            min_bytes: 32 * 1024,
            max_bytes: 512 * 1024,
        },
    );
    p.seed = seed;
    p.max_flows = INCAST_FLOWS;
    p.duration = SimDuration::from_secs_f64(INCAST_FLOWS as f64 / mean_rate);
    p.burst = Bytes::kib(16);
    p.classes = vec![FleetClass {
        name: "incast_tor".into(),
        weight: 1,
        cc: CcAlgorithm::Cubic,
        pacing: false,
        rtt: SimDuration::from_micros(200),
        bottleneck: BitRate::gbps(10.0),
        buffer: Bytes::kib(320),
    }];
    p
}

/// Build a workload's inputs from the seed, then construct and start
/// (and so validate) every simulation one pass runs, plus the harness.
pub fn build(name: &str, seed: u64) -> Result<Inputs, String> {
    match name {
        "paper_grid" => {
            let cells = paper_cells();
            let h = grid_harness(seed);
            for c in &cells {
                let sc = &c.scenario;
                for rep in 0..h.repetitions {
                    let opts =
                        sc.opts
                            .clone()
                            .seed(derive_seed(sc.fingerprint(), seed, rep as u64));
                    iperf3sim::start_session(
                        &sc.client,
                        &sc.server,
                        &sc.path,
                        &opts,
                        &sc.faults,
                        sc.event_budget,
                    )
                    .map_err(|e| format!("{}: {e}", sc.label))?;
                }
            }
            Ok(Inputs::PaperGrid { cells, seed })
        }
        "fanin_observed_256" => {
            let cfg = fanin_config(seed, true);
            Simulation::new(cfg.clone())
                .map_err(|e| e.to_string())?
                .start();
            Ok(Inputs::Fanin { cfg })
        }
        "fleet_churn" => {
            let steady = fleet_steady_profile(seed);
            let incast = fleet_incast_profile(seed);
            fleet_sim(&steady)?;
            fleet_sim(&incast)?;
            Ok(Inputs::Fleet { steady, incast })
        }
        other => Err(format!(
            "unknown workload '{other}' (expected one of {NAMES:?})"
        )),
    }
}

/// The `paper_grid` harness: sequential, no cache, default checkpoint
/// cadence.
pub fn grid_harness(seed: u64) -> TestHarness {
    TestHarness::new(GRID_REPS)
        .sequential()
        .with_base_seed(seed)
        .with_supervisor(Supervisor::default().with_checkpoint_every(DEFAULT_CHECKPOINT_EVERY))
}

/// Run `cells` through one `run_batch` call with a fresh metrics hub
/// (the hub counts events and checkpoints; it writes nothing unless
/// asked to).
pub fn run_grid(
    cells: &[Cell],
    seed: u64,
    hub_dir: &std::path::Path,
) -> Result<GridOutcome, String> {
    let hub = Arc::new(MetricsHub::new(hub_dir).map_err(|e| format!("metrics hub: {e}"))?);
    let mut h = grid_harness(seed);
    h.supervisor = h.supervisor.clone().with_metrics(hub.clone());
    let scenarios: Vec<Scenario> = cells.iter().map(|c| c.scenario.clone()).collect();
    let summaries = h
        .run_batch(&scenarios)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let snap = hub.recorder().snapshot();
    let events = snap
        .hists
        .get("rep_sim_events")
        .map_or(0, |h| h.sum() as u64);
    let checkpoints = snap
        .counters
        .get("supervisor_checkpoints")
        .copied()
        .unwrap_or(0);
    let past_clamps = snap
        .gauges
        .get("engine_past_clamps")
        .map_or(0, |&v| v as u64);
    Ok(GridOutcome {
        summaries,
        anchors: cells.iter().map(|c| c.anchor_gbps).collect(),
        reps: h.repetitions,
        events,
        checkpoints,
        past_clamps,
        checkpoint_ms: Vec::new(),
        hub,
    })
}

/// One `paper_grid` pass: one `run_batch` call per cell (repetition
/// seeds depend only on the cell and the base seed, so the merged
/// outcome equals one batch of all cells), timing each cell. Under a
/// tracer each cell is a `harness.cell` span, and the supervisor's own
/// checkpoint spans are read back from the cell's metrics hub.
pub fn run_grid_cells(
    cells: &[Cell],
    seed: u64,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<(GridOutcome, Vec<f64>), String> {
    let mut merged: Option<GridOutcome> = None;
    let mut walls = Vec::with_capacity(cells.len());
    for c in cells {
        let one = std::slice::from_ref(c);
        let t0 = Instant::now();
        let mut o = match tracer.as_deref_mut() {
            None => run_grid(one, seed, dir)?,
            Some(t) => t.span("harness.cell", |_| run_grid(one, seed, dir))?,
        };
        walls.push(t0.elapsed().as_secs_f64());
        if tracer.is_some() {
            o.checkpoint_ms = hub_checkpoint_ms(&o.hub)?;
        }
        merged = Some(match merged {
            None => o,
            Some(mut m) => {
                m.summaries.append(&mut o.summaries);
                m.anchors.append(&mut o.anchors);
                m.events += o.events;
                m.checkpoints += o.checkpoints;
                m.past_clamps += o.past_clamps;
                m.checkpoint_ms.append(&mut o.checkpoint_ms);
                m
            }
        });
    }
    let merged = merged.ok_or_else(|| "paper_grid has no cells".to_string())?;
    Ok((merged, walls))
}

/// Durations (ms) of the `checkpoint` spans the supervisor recorded in
/// `hub`, read back from the span file the hub writes.
fn hub_checkpoint_ms(hub: &MetricsHub) -> Result<Vec<f64>, String> {
    hub.write_exposition()
        .map_err(|e| format!("metrics hub: {e}"))?;
    let path = hub.dir().join("spans.jsonl");
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let _ = std::fs::remove_file(&path);
    Ok(body
        .lines()
        .filter(|l| l.contains("\"name\":\"checkpoint\""))
        .filter_map(|l| l.split("\"dur\":").nth(1))
        .filter_map(|v| v.trim_end_matches('}').parse::<f64>().ok())
        .map(|s| s * 1e3)
        .collect())
}

/// Drive one `fanin_observed_256` run in step slices. The tracer (if
/// any) records one span per slice and samples the queue between
/// slices.
pub fn run_fanin(sim: Simulation, tracer: Option<&mut Tracer>) -> Result<RunResult, String> {
    let mut running = sim.start();
    step_to_end(&mut running, tracer)?;
    running.finish().map_err(|e| e.to_string())
}

/// Step `running` to completion in [`STEP_SLICE`]-event slices.
pub fn step_to_end(
    running: &mut RunningSim,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    loop {
        let span = tracer.as_deref_mut().map(|t| t.open("engine.step"));
        let done = running.step_events(STEP_SLICE).map_err(|e| e.to_string())?;
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.close(span);
            t.sample_queue(running.queue_health());
        }
        if done {
            return Ok(());
        }
    }
}

/// A fleet simulation of `p` under a safety watchdog only a livelock
/// can trip (the budget `ext_fleet` uses).
pub fn fleet_sim(p: &FleetProfile) -> Result<FleetSim, String> {
    let budget = p.max_flows.saturating_mul(400).saturating_add(10_000_000);
    FleetSim::new(p.clone())
        .map(|s| s.with_event_budget(budget))
        .map_err(|e| e.to_string())
}
