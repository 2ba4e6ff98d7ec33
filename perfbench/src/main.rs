//! `perfbench` — the simulator's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|fanin_observed_256|fleet_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs passes of it for
//! `--seconds` seconds of host time, checks every pass's simulated
//! output, and prints one JSON object as the last line of stdout:
//! end-to-end metrics with `--trace 0`, per-layer metrics from a
//! traced run with `--trace 1`. See `README.md` for the workloads, the
//! metrics and the predictions they stand for.

mod alloc;
mod checks;
mod layers;
mod replay;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use netsim::Simulation;

use checks::{Digest, Tally};
use trace::Tracer;
use workloads::{Inputs, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Length of one set-up round. A round builds the inputs again and
/// again and counts the time per build, so microsecond jitter averages
/// out inside it. `setup_s` is the median of one round timed from
/// process start and one before each untraced pass, so the rounds
/// sample the machine across the whole run.
const SETUP_ROUND_SECS: f64 = 0.02;
/// Passes per run at the least, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where the benchmark writes (the metrics hub's directory and the span
/// file): inside its own directory of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one pass measured and produced.
pub struct Pass {
    /// Host seconds of each timed part, in a fixed order: each
    /// `paper_grid` cell, the fan-in run, each fleet run.
    pub parts: Vec<f64>,
    pub events: u64,
    pub flows: u64,
    pub digest: Digest,
    /// Traffic-only digest (`fanin_observed_256`: unchanged by
    /// observers).
    pub traffic: Digest,
    pub outcome: Outcome,
}

/// The workload's time with interference filtered out: for each part,
/// its fastest time over `passes`, summed. Contention from other work
/// on the host only ever adds time, so the fastest repeat of a part is
/// the best estimate of its own cost.
pub fn best_time(passes: &[Vec<f64>]) -> f64 {
    let parts = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..parts)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.get(i))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// What the untraced passes of a run measured.
#[derive(Default)]
pub struct Passes {
    /// Each pass's part times.
    pub parts: Vec<Vec<f64>>,
    /// Events and flows of one pass (the same in every pass).
    pub events: u64,
    pub flows: u64,
    pub digest: Option<Digest>,
    /// Peak resident set once the first pass is done: later passes
    /// repeat the same work, so any growth after it is allocator
    /// history, not the workload.
    pub peak_rss_mb: f64,
}

/// Runs passes of one workload and checks them. Expected fleet byte
/// totals are recomputed once per `(profile, flows opened)`.
pub struct Runner<'a> {
    pub inputs: &'a Inputs,
    pub tally: Tally,
    expected_bytes: HashMap<(usize, u64), u64>,
}

impl<'a> Runner<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Runner {
            inputs,
            tally: Tally::default(),
            expected_bytes: HashMap::new(),
        }
    }

    /// One pass: build what the pass consumes, time the workload's body,
    /// then check the output. `observers` only affects
    /// `fanin_observed_256`. With a tracer the body is recorded as one
    /// pass span with the allocator counting.
    pub fn pass(&mut self, observers: bool, tracer: Option<&mut Tracer>) -> Option<Pass> {
        let run = match self.inputs {
            Inputs::PaperGrid { cells, seed } => {
                let dir = out_dir().join("hub");
                let o = match tracer {
                    None => workloads::run_grid_cells(cells, *seed, &dir, None),
                    Some(t) => t.pass("pass", |t| {
                        workloads::run_grid_cells(cells, *seed, &dir, Some(t))
                    }),
                };
                let (o, parts) = match o {
                    Ok(o) => o,
                    Err(e) => {
                        self.tally
                            .failed_ops((cells.len() * workloads::GRID_REPS) as u64, e);
                        return None;
                    }
                };
                self.tally.merge(checks::check_grid(&o));
                let flows = o
                    .summaries
                    .iter()
                    .flatten()
                    .flat_map(|s| &s.reports)
                    .map(|r| r.streams.len() as u64)
                    .sum();
                let digest = checks::grid_digest(&o);
                Pass {
                    parts,
                    events: o.events,
                    flows,
                    digest,
                    traffic: digest,
                    outcome: Outcome::PaperGrid(o),
                }
            }
            Inputs::Fanin { cfg } => {
                let mut cfg = cfg.clone();
                if !observers {
                    cfg.workload.telemetry = None;
                    cfg.workload.attribution = false;
                }
                let flows = cfg.workload.num_flows;
                let sim = match Simulation::new(cfg) {
                    Ok(s) => s,
                    Err(e) => {
                        self.tally.failed_ops(1, e.to_string());
                        return None;
                    }
                };
                let burst = sim.burst_size();
                let t0 = Instant::now();
                let r = match tracer {
                    None => workloads::run_fanin(sim, None),
                    Some(t) => t.pass("pass", |t| workloads::run_fanin(sim, Some(t))),
                };
                let wall_s = t0.elapsed().as_secs_f64();
                let r = match r {
                    Ok(r) => r,
                    Err(e) => {
                        self.tally.failed_ops(1, e);
                        return None;
                    }
                };
                self.tally
                    .op(checks::check_sim(&r, burst, flows, observers));
                Pass {
                    parts: vec![wall_s],
                    events: r.events,
                    flows: flows as u64,
                    digest: checks::sim_digest(&r),
                    traffic: checks::sim_traffic_digest(&r),
                    outcome: Outcome::Fanin(Box::new(r)),
                }
            }
            Inputs::Fleet { steady, incast } => {
                let profiles = [steady, incast];
                let sims: Result<Vec<_>, _> =
                    profiles.iter().map(|p| workloads::fleet_sim(p)).collect();
                let sims = match sims {
                    Ok(s) => s,
                    Err(e) => {
                        self.tally.failed_ops(2, e);
                        return None;
                    }
                };
                let mut tracer = tracer;
                let mut parts = Vec::with_capacity(sims.len());
                let mut rs = Vec::with_capacity(sims.len());
                for sim in sims {
                    let t0 = Instant::now();
                    rs.push(match tracer.as_deref_mut() {
                        None => sim.run(),
                        Some(t) => t.pass("pass", |t| t.span("fleet.run", |_| sim.run())),
                    });
                    parts.push(t0.elapsed().as_secs_f64());
                }
                let mut ok = Vec::new();
                for (i, (p, r)) in profiles.iter().zip(rs).enumerate() {
                    match r {
                        Ok(r) => {
                            let expected = *self
                                .expected_bytes
                                .entry((i, r.flows_opened))
                                .or_insert_with(|| checks::fleet_expected_bytes(p, r.flows_opened));
                            self.tally.op(checks::check_fleet(&r, expected));
                            ok.push(r);
                        }
                        Err(e) => self.tally.failed_ops(1, format!("{}: {e}", p.name)),
                    }
                }
                if ok.len() != profiles.len() {
                    return None;
                }
                let events = ok.iter().map(|r| r.events).sum();
                let flows = ok.iter().map(|r| r.flows_served).sum();
                let digest = checks::fleet_digest(&ok);
                Pass {
                    parts,
                    events,
                    flows,
                    digest,
                    traffic: digest,
                    outcome: Outcome::Fleet(ok),
                }
            }
        };
        Some(run)
    }

    /// Run passes until `seconds` of host time have gone and at least
    /// [`MIN_PASSES`] have run, calling `before_pass` before each; each
    /// pass's digest must match the first. Outcomes are dropped as soon
    /// as they are checked.
    pub fn passes(&mut self, seconds: f64, mut before_pass: impl FnMut()) -> Passes {
        let start = Instant::now();
        let mut out = Passes::default();
        let mut tries = 0;
        while tries < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            tries += 1;
            before_pass();
            if let Some(p) = self.pass(true, None) {
                self.same_digest(out.digest, p.digest, "pass");
                out.digest.get_or_insert(p.digest);
                (out.events, out.flows) = (p.events, p.flows);
                out.parts.push(p.parts);
                drop(p.outcome);
                if out.parts.len() == 1 {
                    out.peak_rss_mb = peak_rss_mb();
                }
            }
        }
        out
    }

    /// Record a problem unless `got` equals `want` (when there is one).
    pub fn same_digest(&mut self, want: Option<Digest>, got: Digest, what: &str) {
        if let Some(want) = want {
            if want != got {
                self.tally
                    .problem(format!("{what} digest {got} != {want} for the same seed"));
            }
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One set-up round from `t0`: build the workload's inputs (which
/// constructs and validates every simulation it runs) until
/// [`SETUP_ROUND_SECS`] have gone. Returns the last inputs and the time
/// per build.
fn setup_round(args: &Args, t0: Instant) -> Result<(Inputs, f64), String> {
    let mut builds = 0u32;
    loop {
        let inputs = workloads::build(&args.workload, args.seed)?;
        builds += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= SETUP_ROUND_SECS {
            return Ok((inputs, elapsed / f64::from(builds)));
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };

    let (inputs, first_setup) = match setup_round(&args, process_start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut setup_times = vec![first_setup];

    let mut runner = Runner::new(&inputs);
    let metrics = if args.trace {
        layers::traced_run(&mut runner, &args.workload, args.seed, args.seconds)
    } else {
        let p = runner.passes(args.seconds, || {
            if let Ok((_, s)) = setup_round(&args, Instant::now()) {
                setup_times.push(s);
            }
        });
        if let Some(d) = p.digest {
            println!("digest {} seed={} {d}", args.workload, args.seed);
        }
        let wall_s = best_time(&p.parts);
        let totals: Vec<f64> = p.parts.iter().map(|x| x.iter().sum()).collect();
        eprintln!(
            "perfbench: {} passes, pass wall_s median {:.4} min {:.4}, best parts {wall_s:.4}",
            totals.len(),
            median(&totals),
            quantile(&totals, 0.0),
        );
        let t = &runner.tally;
        vec![
            metric("wall_s", wall_s, "s"),
            metric("ns_per_event", wall_s * 1e9 / p.events.max(1) as f64, "ns"),
            metric("flows_per_s", p.flows as f64 / wall_s, "1/s"),
            metric("setup_s", median(&setup_times), "s"),
            metric("peak_rss_mb", p.peak_rss_mb, "MiB"),
            metric(
                "ok_ratio",
                1.0 - t.failed as f64 / t.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };
    for p in runner.tally.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", result_line(&runner.tally, &metrics));
    ExitCode::SUCCESS
}
