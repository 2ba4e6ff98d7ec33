//! Output checks and the simulated-output digest.
//!
//! Every check is an invariant that holds for any seed: conservation
//! and accounting identities between fields of one result, never a
//! number captured from one seed. An operation is one simulated run;
//! it fails if it returned an error or if any check on its result
//! fails.

use netsim::{FleetProfile, FleetResult, RunResult};
use simcore::Bytes;

use crate::workloads::GridOutcome;

/// Operations attempted and failed, with a line per problem found.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation with the problems its checks found.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Count `n` operations that all failed for one reason.
    pub fn failed_ops(&mut self, n: u64, problem: String) {
        self.attempted += n;
        self.failed += n;
        self.problems.push(problem);
    }

    /// Count a problem that is not tied to one operation (a digest
    /// mismatch between passes).
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// `paper_grid`: each cell's repetitions are its operations. A cell
/// fails whole if the batch returned an error for it; otherwise each
/// failed repetition, and each report without goodput, fails one.
pub fn check_grid(o: &GridOutcome) -> Tally {
    let mut t = Tally::default();
    if o.past_clamps > 0 {
        let ops = (o.summaries.len() * o.reps) as u64;
        t.failed_ops(
            ops,
            format!("paper_grid: {} past-clamped events", o.past_clamps),
        );
        return t;
    }
    for s in &o.summaries {
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                t.failed_ops(o.reps as u64, format!("paper_grid: {e}"));
                continue;
            }
        };
        if s.reports.len() + s.failed_reps.len() != o.reps {
            t.failed_ops(
                o.reps as u64,
                format!(
                    "{}: {} reports + {} failed reps != {} reps",
                    s.label,
                    s.reports.len(),
                    s.failed_reps.len(),
                    o.reps
                ),
            );
            continue;
        }
        for f in &s.failed_reps {
            t.op(vec![format!(
                "{}: failed rep seed {:#x}: {}",
                s.label, f.seed, f.error
            )]);
        }
        for r in &s.reports {
            let gbps = r.sum_bitrate().as_gbps();
            t.op(if gbps > 0.0 {
                vec![]
            } else {
                vec![format!("{}: goodput {gbps} Gbps", s.label)]
            });
        }
    }
    t
}

/// `fanin_observed_256`: conservation between delivered bytes and the
/// wire, and between each flow's telemetry intervals and its delivered
/// bytes (the run has no omit window, so the two count the same
/// bytes).
pub fn check_sim(r: &RunResult, burst: Bytes, flows: usize, observers: bool) -> Vec<String> {
    let mut p = Vec::new();
    if r.past_clamps != 0 {
        p.push(format!("{} past-clamped events", r.past_clamps));
    }
    if r.flows.len() != flows {
        p.push(format!("{} flow results for {flows} flows", r.flows.len()));
    }
    let delivered: u64 = r.flows.iter().map(|f| f.bytes.as_u64()).sum();
    let wire = r.wire_sent.saturating_mul(burst.as_u64());
    if delivered > wire {
        p.push(format!(
            "delivered {delivered} B > wire_sent {} x burst {burst}",
            r.wire_sent
        ));
    }
    if observers {
        match &r.telemetry {
            None => p.push("observers on but no telemetry".into()),
            Some(tel) => {
                if tel.flows.len() != r.flows.len() {
                    p.push(format!(
                        "{} telemetry traces for {} flows",
                        tel.flows.len(),
                        r.flows.len()
                    ));
                }
                for (trace, f) in tel.flows.iter().zip(&r.flows) {
                    let sum = trace.total_interval_bytes();
                    if sum != f.bytes {
                        p.push(format!(
                            "flow {}: interval bytes {sum} != delivered {}",
                            f.id, f.bytes
                        ));
                    }
                }
            }
        }
    }
    p
}

/// The bytes a fleet run must report: each opened flow's drawn burst
/// count times the burst size, recomputed from the profile.
pub fn fleet_expected_bytes(profile: &FleetProfile, flows_opened: u64) -> u64 {
    let fp = profile.fingerprint();
    let burst = profile.burst.as_u64();
    (0..flows_opened)
        .map(|id| profile.draw_flow(fp, id).bursts * burst)
        .sum()
}

/// `fleet_churn`: every opened flow served, bytes conserved against the
/// profile's own draws, one FCT sample per flow, ordered quantiles, and
/// a leak-free timer slab at the end.
pub fn check_fleet(r: &FleetResult, expected_bytes: u64) -> Vec<String> {
    let mut p = Vec::new();
    let name = &r.name;
    if r.past_clamps != 0 {
        p.push(format!("{name}: {} past-clamped events", r.past_clamps));
    }
    if r.flows_served != r.flows_opened {
        p.push(format!(
            "{name}: served {} of {} opened",
            r.flows_served, r.flows_opened
        ));
    }
    if r.total_bytes != expected_bytes {
        p.push(format!(
            "{name}: total_bytes {} != drawn {expected_bytes}",
            r.total_bytes
        ));
    }
    if r.fct.count() != r.flows_served {
        p.push(format!(
            "{name}: {} FCT samples for {} flows",
            r.fct.count(),
            r.flows_served
        ));
    }
    match (r.fct_us(0.5), r.fct_us(0.99), r.fct_us(0.999)) {
        (Some(a), Some(b), Some(c)) if a <= b && b <= c => {}
        q => p.push(format!(
            "{name}: FCT p50/p99/p999 out of order or missing: {q:?}"
        )),
    }
    match r.slowdown.min() {
        Some(m) if m >= 100 => {}
        m => p.push(format!("{name}: slowdown_x100 minimum {m:?} < 100")),
    }
    if r.late_dropped != 0 {
        p.push(format!(
            "{name}: {} late-dropped interval samples",
            r.late_dropped
        ));
    }
    let h = r.health;
    if h.slab_slots != h.free_slots || h.stale_timers != 0 {
        p.push(format!(
            "{name}: timer slab leaked ({} slots, {} free, {} stale)",
            h.slab_slots, h.free_slots, h.stale_timers
        ));
    }
    p
}

/// FNV-1a over the simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn str(self, s: &str) -> Self {
        s.bytes()
            .fold(self.u64(s.len() as u64), |d, b| d.u64(b as u64))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// `paper_grid` digest: events, then every stream's bytes and
/// retransmits of every repetition of every cell.
pub fn grid_digest(o: &GridOutcome) -> Digest {
    let mut d = Digest::new().u64(o.events);
    for s in o.summaries.iter().flatten() {
        d = d.str(&s.label);
        for r in &s.reports {
            for st in &r.streams {
                d = d.u64(st.bytes.as_u64()).u64(st.retr);
            }
        }
    }
    d
}

/// Traffic digest of a sim run: wire bursts, drops, and each flow's
/// delivered bytes and retransmits. Observers never change it.
pub fn sim_traffic_digest(r: &RunResult) -> Digest {
    let mut d = Digest::new().u64(r.wire_sent).u64(r.total_drops());
    for f in &r.flows {
        d = d.u64(f.bytes.as_u64()).u64(f.retr_packets);
    }
    d
}

/// Full sim digest: the traffic digest plus the event count.
pub fn sim_digest(r: &RunResult) -> Digest {
    sim_traffic_digest(r).u64(r.events)
}

/// Fleet digest: events, wire bursts, bytes and the FCT and slowdown
/// histogram buckets of each run.
pub fn fleet_digest(rs: &[FleetResult]) -> Digest {
    let mut d = Digest::new();
    for r in rs {
        d = d
            .str(&r.name)
            .u64(r.events)
            .u64(r.wire_bursts)
            .u64(r.total_bytes)
            .u64(r.flows_served);
        for (v, n) in r.fct.nonzero_buckets().chain(r.slowdown.nonzero_buckets()) {
            d = d.u64(v).u64(n);
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use netsim::{FleetSim, Simulation};

    /// A named way to corrupt a result.
    type Corruption<T> = (&'static str, Box<dyn Fn(&mut T)>);

    fn small_fleet(seed: u64) -> FleetProfile {
        let mut p = workloads::fleet_steady_profile(seed);
        p.max_flows = 3_000;
        p.duration = simcore::SimDuration::from_secs_f64(0.3);
        p
    }

    fn fleet_run(seed: u64) -> (FleetProfile, FleetResult) {
        let p = small_fleet(seed);
        let r = FleetSim::new(p.clone())
            .and_then(|s| s.run())
            .expect("small fleet runs");
        (p, r)
    }

    fn small_sim(seed: u64) -> (RunResult, Bytes) {
        let mut cfg = workloads::fanin_config(seed, true);
        cfg.workload.num_flows = 8;
        cfg.workload.duration = simcore::SimDuration::from_millis(300);
        let sim = Simulation::new(cfg).expect("valid");
        let burst = sim.burst_size();
        (sim.run().expect("runs"), burst)
    }

    #[test]
    fn fleet_checks_pass_and_reject_each_corruption() {
        let (p, r) = fleet_run(7);
        let expected = fleet_expected_bytes(&p, r.flows_opened);
        assert_eq!(check_fleet(&r, expected), Vec::<String>::new());

        let burst = p.burst.as_u64();
        let corruptions: Vec<Corruption<FleetResult>> = vec![
            (
                "one burst removed from total_bytes",
                Box::new(move |r| r.total_bytes -= burst),
            ),
            ("a flow left unserved", Box::new(|r| r.flows_served -= 1)),
            ("an extra FCT sample", Box::new(|r| r.fct.record(1))),
            (
                "an empty FCT histogram",
                Box::new(|r| r.fct = obs::HdrHistogram::new()),
            ),
            ("a slowdown below 1x", Box::new(|r| r.slowdown.record(99))),
            ("a late-dropped sample", Box::new(|r| r.late_dropped = 1)),
            ("a leaked slab slot", Box::new(|r| r.health.free_slots += 1)),
            ("a stale timer", Box::new(|r| r.health.stale_timers = 1)),
            ("a past clamp", Box::new(|r| r.past_clamps = 1)),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = r.clone();
            corrupt(&mut bad);
            assert!(
                !check_fleet(&bad, expected).is_empty(),
                "check missed: {what}"
            );
        }
    }

    #[test]
    fn sim_checks_pass_and_reject_each_corruption() {
        let (r, burst) = small_sim(3);
        assert_eq!(check_sim(&r, burst, 8, true), Vec::<String>::new());
        let corruptions: Vec<Corruption<RunResult>> = vec![
            (
                "one burst removed from a flow",
                Box::new(move |r| r.flows[0].bytes -= burst),
            ),
            ("wire count too small", Box::new(|r| r.wire_sent = 0)),
            (
                "a flow missing",
                Box::new(|r| {
                    r.flows.pop();
                }),
            ),
            ("telemetry dropped", Box::new(|r| r.telemetry = None)),
            ("a past clamp", Box::new(|r| r.past_clamps = 1)),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = r.clone();
            corrupt(&mut bad);
            assert!(
                !check_sim(&bad, burst, 8, true).is_empty(),
                "check missed: {what}"
            );
        }
    }

    #[test]
    fn grid_checks_pass_and_reject_each_corruption() {
        let mut cells = workloads::paper_cells();
        cells.truncate(2);
        for c in &mut cells {
            c.scenario.opts = iperf3sim::Iperf3Opts::new(1).omit(0);
        }
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let o = workloads::run_grid(&cells, 5, &dir).expect("grid runs");
        let _ = std::fs::remove_dir_all(&dir);
        let t = check_grid(&o);
        assert!(t.correct(), "{:?}", t.problems);
        assert_eq!(t.attempted, (cells.len() * o.reps) as u64);

        let mut bad = o.clone();
        bad.summaries[0] = Err("injected".into());
        assert_eq!(check_grid(&bad).failed, o.reps as u64, "an errored cell");

        let mut bad = o.clone();
        bad.past_clamps = 1;
        assert!(!check_grid(&bad).correct(), "a past clamp");

        let mut bad = o.clone();
        if let Ok(s) = &mut bad.summaries[1] {
            s.failed_reps.push(harness::FailedRep {
                seed: 1,
                error: "injected".into(),
                class: harness::supervise::ErrorClass::WatchdogLivelock,
                attempts: 1,
            });
        }
        assert!(!check_grid(&bad).correct(), "a failed repetition");

        let mut bad = o.clone();
        if let Ok(s) = &mut bad.summaries[1] {
            for st in &mut s.reports[0].streams {
                st.bitrate = simcore::BitRate::from_bps(0.0);
            }
        }
        assert!(!check_grid(&bad).correct(), "a report without goodput");
    }

    #[test]
    fn digests_follow_the_seed() {
        let (_, a) = fleet_run(11);
        let (_, b) = fleet_run(11);
        let (_, c) = fleet_run(12);
        assert_eq!(fleet_digest(std::slice::from_ref(&a)), fleet_digest(&[b]));
        assert_ne!(fleet_digest(&[a]), fleet_digest(&[c]));

        let (x, _) = small_sim(21);
        let (y, _) = small_sim(21);
        let (z, _) = small_sim(22);
        assert_eq!(sim_digest(&x), sim_digest(&y));
        assert_ne!(sim_digest(&x), sim_digest(&z));
    }
}
