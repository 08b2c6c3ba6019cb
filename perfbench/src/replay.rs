//! Layer replays for the traced mode: each drives one layer's public
//! functions, from outside the simulator, with inputs shaped like the
//! cell's own work, and reports nanoseconds per operation.
//!
//! Inputs are drawn before the clock starts, so a replay times only the
//! layer's calls. Operation counts are capped per cell ([`MAX_OPS`]) to
//! bound the traced run's length; the per-operation cost is what scales.

use cdnc_core::{SimConfig, SimReport, WorkloadPlan};
use cdnc_net::{Network, NodeId, Packet, PacketKind};
use cdnc_simcore::{Scheduler, SimDuration, SimRng, SimTime};
use cdnc_workload::{Catalog, Lookup, LruCache, ObjectId};
use std::hint::black_box;
use std::time::Instant;

/// Most operations one replay performs per cell.
pub const MAX_OPS: usize = 200_000;

/// Stand-in for the simulator's private event type: the replayed queue
/// moves payloads of this many bytes.
type Payload = [u64; 6];

/// Light (control) packet size, KB — the simulator's `LIGHT_PACKET_KB`.
const LIGHT_KB: f64 = 1.0;

/// Nanoseconds per `elapsed`/`ops`.
fn ns_per(t: Instant, ops: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `Scheduler::schedule_at` + `next` at a steady pending depth of `depth`:
/// every pop schedules one follow-up, as a handler does. Returns ns per
/// pop/schedule pair.
pub fn scheduler(depth: usize, ops: usize, rng: &mut SimRng) -> f64 {
    let depth = depth.max(1);
    let delays: Vec<SimDuration> =
        (0..ops.max(1)).map(|_| SimDuration::from_secs_f64(rng.exponential(1.0 / 10.0))).collect();
    let mut sched: Scheduler<Payload> = Scheduler::new();
    for (i, d) in delays.iter().cycle().take(depth).enumerate() {
        sched.schedule_at(SimTime::ZERO + *d, [i as u64; 6]);
    }
    let t = Instant::now();
    for d in &delays {
        let (now, ev) = sched.next().expect("the queue never drains");
        sched.schedule_at(now + *d, black_box(ev));
    }
    ns_per(t, delays.len())
}

/// `Network::send` on the cell's network with the cell's packet-kind mix
/// (from its report), between random endpoints, over the cell's horizon.
/// Returns ns per packet.
pub fn net_send(cfg: &SimConfig, report: &SimReport, net: &mut Network, rng: &mut SimRng) -> f64 {
    let counts: Vec<(PacketKind, u64)> =
        PacketKind::ALL.iter().map(|&k| (k, report.traffic.count_of(k))).collect();
    let total: u64 = counts.iter().map(|(_, c)| c).sum();
    if total == 0 || net.len() < 2 {
        return 0.0;
    }
    let ops = (total as usize).min(MAX_OPS);
    let weights: Vec<f64> = counts.iter().map(|(_, c)| *c as f64).collect();
    let object_kb = cfg.workload.as_ref().map_or(LIGHT_KB, |p| p.object_kb);
    let n = net.len();
    let packets: Vec<Packet> = (0..ops)
        .map(|_| {
            let kind = counts[rng.weighted_index(&weights)].0;
            let size = match kind {
                PacketKind::Update | PacketKind::UserResponse => cfg.update_packet_kb,
                PacketKind::OriginFetch => object_kb,
                _ => LIGHT_KB,
            };
            let src = rng.index(n);
            let dst = (src + 1 + rng.index(n - 1)) % n;
            Packet::new(kind, size, NodeId(src as u32), NodeId(dst as u32))
        })
        .collect();
    let step = cfg.horizon().as_micros() / ops as u64;
    let t = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        black_box(net.send(SimTime::from_micros(i as u64 * step), p));
    }
    ns_per(t, ops)
}

/// Requests between two fills: a miss's origin fetch lands this many
/// requests later, so concurrent requests for it become delayed hits.
const FILL_LAG: usize = 8;
/// One in this many hits on a live object is revalidated: the edge drops
/// its copy (`invalidate`) and refetches, as after an adopted update.
const REVALIDATE_EVERY: usize = 8;

/// Nanosecond costs of the request plane's two layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCost {
    /// `LruCache::request` plus the `fill`/`invalidate` calls it leads to,
    /// per request.
    pub cache_ns_per_request: f64,
    /// `Catalog::sample`, per sample.
    pub catalog_ns_per_sample: f64,
}

/// One edge cache fed by `Catalog::sample` under publish/perish churn at
/// the plan's ratio of churn events to requests.
pub fn workload(cfg: &SimConfig, plan: &WorkloadPlan, rng: &mut SimRng) -> WorkloadCost {
    let requests_hz = plan.request_rate_hz * cfg.users() as f64;
    let churn_every = (requests_hz / plan.churn_rate_hz.max(1e-9)).max(1.0) as usize;
    let mut catalog = Catalog::new(plan.catalog_size, plan.zipf_s, plan.live_slots());

    let t = Instant::now();
    for _ in 0..MAX_OPS {
        black_box(catalog.sample(rng));
    }
    let catalog_ns_per_sample = ns_per(t, MAX_OPS);

    let ids: Vec<ObjectId> = (0..MAX_OPS)
        .map(|i| {
            if i % churn_every == churn_every - 1 {
                catalog.churn(rng, SimTime::ZERO);
            }
            catalog.sample(rng)
        })
        .collect();
    let mut cache = LruCache::new(plan.cache_capacity, plan.mad_eviction);
    let mut pending: std::collections::VecDeque<ObjectId> = Default::default();
    let mut live_hits = 0usize;
    let now = SimTime::ZERO;
    let t = Instant::now();
    for (user, &id) in ids.iter().enumerate() {
        let user = user as u32;
        match cache.request(id, user, now) {
            Lookup::Hit { .. } if catalog.is_live(id.slot) => {
                live_hits += 1;
                if live_hits.is_multiple_of(REVALIDATE_EVERY) {
                    cache.invalidate(id);
                    if cache.request(id, user, now) == Lookup::Miss {
                        pending.push_back(id);
                    }
                }
            }
            Lookup::Hit { .. } | Lookup::Delayed => {}
            Lookup::Miss => pending.push_back(id),
        }
        if pending.len() > FILL_LAG {
            let done = pending.pop_front().expect("non-empty");
            black_box(cache.fill(done, 1, now));
        }
    }
    WorkloadCost { cache_ns_per_request: ns_per(t, ids.len()), catalog_ns_per_sample }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_core::{run, MethodKind, Scheme};
    use cdnc_trace::UpdateSequence;

    fn cfg() -> SimConfig {
        let updates = UpdateSequence::periodic(SimDuration::from_secs(30), SimTime::from_secs(120));
        let mut cfg =
            SimConfig::section4(Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }, updates);
        cfg.servers = 6;
        cfg.drain = SimDuration::from_secs(60);
        cfg.workload = Some(WorkloadPlan::default());
        cfg
    }

    #[test]
    fn replays_report_positive_costs() {
        let cfg = cfg();
        let report = run(&cfg);
        let mut rng = SimRng::seed_from_u64(3);
        assert!(scheduler(100, 1_000, &mut rng) > 0.0);
        let world = cdnc_geo::WorldBuilder::new(cfg.servers).seed(cfg.seed).build();
        let mut net = Network::from_world(&world, cfg.network, cfg.seed);
        assert!(net_send(&cfg, &report, &mut net, &mut rng) > 0.0);
        assert!(net.traffic().total_messages() > 0);
        let cost = workload(&cfg, cfg.workload.as_ref().expect("plan"), &mut rng);
        assert!(cost.cache_ns_per_request > 0.0 && cost.catalog_ns_per_sample > 0.0);
    }
}
