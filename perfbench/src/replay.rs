//! Layer replay drivers.
//!
//! Each driver times calls into one layer's public API outside the
//! simulation, shaped by what the traced run measured on the workload
//! itself: the event queue at the workload's depth, the TCP sender and
//! receiver at its loss ratio, the host cost model with its hosts, the
//! switch at its port rates and buffers, and the samplers and
//! histograms with its profiles. Multiplying each per-operation time by
//! the in-run operation count and dividing by the traced engine time
//! gives `layers.coverage_pct`.
//!
//! A layer that a workload never calls is still replayed, on a control
//! shape (documented in `README.md`), so every replay time is measured
//! on every workload; the predictions say it must not move there.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use linuxhost::{CostModel, HostConfig, TxMode};
use nethw::{EnqueueOutcome, PathSpec, SharedBufferSwitch};
use netsim::{ArrivalSampler, FleetProfile};
use obs::{HdrHistogram, IntervalAggregator};
use simcore::{BitRate, Bytes, EventQueue, SimDuration, SimRng, SimTime, TimerId};
use tcpstack::{CcAlgorithm, SendSlot, TcpReceiver, TcpSender};

/// Nanoseconds per operation of `ops` operations timed from `start`.
fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `EventQueue` hold model at `depth` pending events: each operation
/// pops the earliest event and pushes one a random delay later.
/// Returns ns per pop+push pair.
pub fn queue_hold(depth: usize, ops: u64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let delay = |rng: &mut SimRng| SimDuration::from_nanos(rng.uniform_u64(1, 20_000_000));
    for i in 0..depth.max(1) as u64 {
        q.push(SimTime::ZERO + delay(&mut rng), i);
    }
    let start = Instant::now();
    for _ in 0..ops {
        let (t, ev) = q.pop().expect("the hold model keeps the queue at depth");
        q.push(t + delay(&mut rng), black_box(ev));
    }
    ns_per(start, ops)
}

/// Cancelable timers at `depth`: each operation cancels a pending timer
/// and schedules its replacement (a deadline rearm), and pops keep time
/// moving at the workload's `cancel_ratio` (cancels per event). Returns
/// ns per cancel+rearm and the most tombstones seen.
pub fn timer_rearm(depth: usize, cancel_ratio: f64, ops: u64, seed: u64) -> (f64, usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let delay = |rng: &mut SimRng| SimDuration::from_nanos(rng.uniform_u64(1_000, 200_000_000));
    let depth = depth.max(1);
    let mut ids: Vec<TimerId> = (0..depth as u64)
        .map(|i| q.schedule_timer(SimTime::ZERO + delay(&mut rng), i))
        .collect();
    // Pops per cancel that reproduce the workload's mix (none when the
    // workload never cancels: then this is a pure rearm loop).
    let pops_per_cancel = if cancel_ratio > 0.0 {
        (1.0 / cancel_ratio - 1.0).max(0.0)
    } else {
        0.0
    };
    let mut owed = 0.0;
    let mut stale_max = 0;
    let mut cancel_ns = 0u128;
    for k in 0..ops {
        let slot = rng.uniform_u64(0, depth as u64) as usize;
        let t0 = Instant::now();
        q.cancel_timer(ids[slot]);
        ids[slot] = q.schedule_timer(q.now() + delay(&mut rng), k);
        cancel_ns += t0.elapsed().as_nanos();
        owed += pops_per_cancel;
        while owed >= 1.0 {
            owed -= 1.0;
            if let Some((t, ev)) = q.pop() {
                let slot = (ev as usize) % depth;
                ids[slot] = q.schedule_timer(t + delay(&mut rng), ev);
            }
        }
        if k % 4096 == 0 {
            stale_max = stale_max.max(q.health().stale_timers);
        }
    }
    (cancel_ns as f64 / ops.max(1) as f64, stale_max)
}

/// One TCP sender/receiver pair with `cc`, bursts lost with probability
/// `loss`. Each operation is one ACK round: transmit what the window
/// allows, deliver the oldest burst, `TcpReceiver::on_burst`, read, and
/// `TcpSender::on_ack`. Returns ns per ACK.
pub fn tcp_acks(cc: CcAlgorithm, loss: f64, acks: u64, seed: u64) -> f64 {
    let burst = Bytes::kib(64);
    let mtu = Bytes::new(9000);
    let mut s = TcpSender::new(
        cc.build(mtu, mtu * 10),
        burst,
        mtu,
        Bytes::mib(512),
        Bytes::mib(512),
    );
    let mut r = TcpReceiver::new(burst, Bytes::mib(512));
    let mut rng = SimRng::seed_from_u64(seed);
    let mut wire: VecDeque<u64> = VecDeque::new();
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_micros(5);
    let mut done = 0;
    let start = Instant::now();
    while done < acks {
        while s.app_can_write() {
            s.app_wrote();
        }
        while let SendSlot::New(i) | SendSlot::Retransmit(i) = s.next_slot(now) {
            s.mark_transmitted(i, now);
            wire.push_back(i);
        }
        now += step;
        let Some(idx) = wire.pop_front() else {
            // Everything in flight was lost: the timeout path.
            s.on_rto(now);
            continue;
        };
        if rng.chance(loss) {
            continue;
        }
        let ack = r.on_burst(idx);
        while r.app_read() {}
        black_box(s.on_ack(ack.cum_ack, ack.acked_idx, ack.rwnd, now));
        done += 1;
    }
    ns_per(start, acks)
}

/// The host cost model's per-burst service calls (app TX, TX softirq,
/// RX softirq, app RX, ACK) for each host, `bursts` per host, with the
/// given zerocopy fallback share. Returns ns per burst.
pub fn host_bursts(hosts: &[(HostConfig, bool)], fallback: f64, bursts: u64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut total = 0.0;
    for (host, zerocopy) in hosts {
        let model = CostModel::new(host);
        let burst = host.offload.gso_max_size;
        let window = Bytes::mib(256);
        let start = Instant::now();
        let mut acc = SimDuration::ZERO;
        for _ in 0..bursts {
            let mode = match (zerocopy, rng.chance(fallback)) {
                (false, _) => TxMode::Copy,
                (true, false) => TxMode::Zerocopy,
                (true, true) => TxMode::ZerocopyFallback,
            };
            acc = acc
                + model.tx_app_service(burst, mode, window, &mut rng)
                + model.tx_softirq_service(burst, &mut rng)
                + model.rx_softirq_service(burst, &mut rng)
                + model.rx_app_service(burst, false, &mut rng)
                + model.ack_service(&mut rng);
        }
        black_box(acc);
        total += ns_per(start, bursts);
    }
    total / hosts.len().max(1) as f64
}

/// One switch port per path at its own buffer and rate, offered bursts
/// at `overload` times the port rate. Each operation is one `enqueue`
/// plus the `departed` calls it makes due. Returns ns per burst.
pub fn switch_bursts(ports: &[(Bytes, BitRate, bool)], overload: f64, bursts: u64) -> f64 {
    let burst = Bytes::kib(64);
    let mut total = 0.0;
    for &(buffer, rate, flow_control) in ports {
        let mut sw = SharedBufferSwitch::new(buffer, &[rate], flow_control);
        let gap = rate.mul_f64(overload).serialize_time(burst);
        let mut queued: VecDeque<SimTime> = VecDeque::new();
        let mut now = SimTime::ZERO;
        let start = Instant::now();
        for _ in 0..bursts {
            now += gap;
            while queued.front().is_some_and(|&t| t <= now) {
                queued.pop_front();
                sw.departed(0, burst);
            }
            if let EnqueueOutcome::Queued { departs_at } = sw.enqueue(0, burst, now) {
                queued.push_back(departs_at);
            }
        }
        black_box(sw.total_drops());
        total += ns_per(start, bursts);
    }
    total / ports.len().max(1) as f64
}

/// The ports a path's switch has in the simulator: its buffer, its
/// bottleneck rate, and whether it sends pause frames.
pub fn path_port(p: &PathSpec) -> (Bytes, BitRate, bool) {
    (p.switch_buffer, p.bottleneck, p.flow_control)
}

/// Fleet completions recorded the way the fleet loop records them: one
/// `HdrHistogram::record` and one `IntervalAggregator::record` per
/// value, values spread log-uniformly over `[lo, hi]`, time advancing
/// across interval boundaries. Returns ns per record.
pub fn obs_records(lo: u64, hi: u64, records: u64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let (llo, lhi) = ((lo.max(1) as f64).ln(), (hi.max(lo + 1) as f64).ln());
    let values: Vec<u64> = (0..4096)
        .map(|_| rng.uniform(llo, lhi).exp() as u64)
        .collect();
    let mut hist = HdrHistogram::new();
    let width = 1_000_000_000;
    let mut agg = IntervalAggregator::new(width);
    let start = Instant::now();
    for i in 0..records {
        let v = values[(i % 4096) as usize];
        let t = i * 10_000;
        hist.record(v);
        agg.record(t, "fct_us", v);
        if i % 65_536 == 0 {
            agg.seal_before(t.saturating_sub(width));
        }
    }
    black_box(agg.finish());
    black_box(hist.count());
    ns_per(start, records)
}

/// Per-flow workload draws: `draw_flow` plus `next_arrival` for each
/// flow of each profile. Returns ns per flow.
pub fn workload_draws(profiles: &[FleetProfile], flows: u64) -> f64 {
    let mut total = 0.0;
    for p in profiles {
        let fp = p.fingerprint();
        let mut sampler = ArrivalSampler::new(p, fp);
        let mut t = 0.0;
        let start = Instant::now();
        for id in 0..flows {
            black_box(p.draw_flow(fp, id));
            t = sampler.next_arrival(t);
        }
        black_box(t);
        total += ns_per(start, flows);
    }
    total / profiles.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_do_work_that_grows_with_count() {
        assert!(queue_hold(1000, 10_000, 1) > 0.0);
        let (ns, _) = timer_rearm(1000, 0.5, 10_000, 1);
        assert!(ns > 0.0);
        for cc in CcAlgorithm::ALL {
            assert!(tcp_acks(cc, 0.01, 5_000, 1) > 0.0, "{cc}");
        }
        let host = linuxhost::HostConfig::esnet_amd(linuxhost::KernelVersion::L6_8);
        assert!(host_bursts(&[(host, true)], 0.5, 1_000, 1) > 0.0);
        assert!(switch_bursts(&[(Bytes::mib(8), BitRate::gbps(100.0), false)], 1.1, 10_000) > 0.0);
        assert!(obs_records(100, 100_000, 10_000, 1) > 0.0);
    }

    #[test]
    fn tcp_replay_survives_heavy_loss() {
        for cc in CcAlgorithm::ALL {
            assert!(tcp_acks(cc, 0.3, 2_000, 9) > 0.0, "{cc}");
        }
    }
}
