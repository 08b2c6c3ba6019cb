//! Traffic accounting.
//!
//! Three cost metrics from the paper:
//!
//! * **traffic cost, km·KB** (§4.3, following the paper's reference \[41\]):
//!   every delivered packet is charged `distance × size`;
//! * **message counts** split into *update* and *light* messages (§5.3);
//! * **network load, km** (§5.3, Fig. 23): total transmission distance per
//!   message class.

use crate::packet::{Packet, PacketKind, PACKET_KINDS};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Accumulated traffic statistics.
#[derive(Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    km_kb: f64,
    update_messages: u64,
    light_messages: u64,
    update_km: f64,
    light_km: f64,
    update_kb: f64,
    light_kb: f64,
    inter_isp_messages: u64,
    inter_isp_km_kb: f64,
    /// Messages per kind, indexed by `PacketKind as usize`.
    by_kind: [u64; PACKET_KINDS],
}

impl TrafficStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records a delivered packet that travelled `distance_km`.
    ///
    /// # Panics
    ///
    /// Panics if `distance_km` is negative or non-finite.
    pub fn record(&mut self, packet: &Packet, distance_km: f64) {
        self.record_with_isp(packet, distance_km, false);
    }

    /// Records a delivered packet, noting whether it crossed an ISP
    /// boundary (inter-ISP transit is the costly traffic class the paper's
    /// reference \[38\] prices; HAT's proximity clusters exist to avoid it).
    ///
    /// # Panics
    ///
    /// Panics if `distance_km` is negative or non-finite.
    pub fn record_with_isp(&mut self, packet: &Packet, distance_km: f64, crosses_isp: bool) {
        assert!(distance_km.is_finite() && distance_km >= 0.0, "bad distance: {distance_km}");
        self.km_kb += distance_km * packet.size_kb;
        if crosses_isp {
            self.inter_isp_messages += 1;
            self.inter_isp_km_kb += distance_km * packet.size_kb;
        }
        if packet.kind.is_update() {
            self.update_messages += 1;
            self.update_km += distance_km;
            self.update_kb += packet.size_kb;
        } else {
            self.light_messages += 1;
            self.light_km += distance_km;
            self.light_kb += packet.size_kb;
        }
        self.by_kind[packet.kind as usize] += 1;
    }

    /// Total traffic cost in km·KB (paper Fig. 16/17 metric).
    pub fn km_kb(&self) -> f64 {
        self.km_kb
    }

    /// Number of update (content-carrying) messages (paper Fig. 22 metric).
    pub fn update_messages(&self) -> u64 {
        self.update_messages
    }

    /// Number of light (control) messages.
    pub fn light_messages(&self) -> u64 {
        self.light_messages
    }

    /// Total messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.update_messages + self.light_messages
    }

    /// Kilometres travelled by update messages (paper Fig. 23 metric).
    pub fn update_km(&self) -> f64 {
        self.update_km
    }

    /// Kilometres travelled by light messages (paper Fig. 23 metric).
    pub fn light_km(&self) -> f64 {
        self.light_km
    }

    /// KB carried by update messages.
    pub fn update_kb(&self) -> f64 {
        self.update_kb
    }

    /// KB carried by light messages.
    pub fn light_kb(&self) -> f64 {
        self.light_kb
    }

    /// Messages that crossed an ISP boundary.
    pub fn inter_isp_messages(&self) -> u64 {
        self.inter_isp_messages
    }

    /// km·KB of traffic that crossed an ISP boundary (transit cost proxy).
    pub fn inter_isp_km_kb(&self) -> f64 {
        self.inter_isp_km_kb
    }

    /// Fraction of the total km·KB that crossed an ISP boundary.
    ///
    /// Note this is volume-weighted: a scheme that eliminates cheap
    /// short-haul traffic can *raise* its fraction while lowering its
    /// absolute transit cost. Compare [`TrafficStats::inter_isp_km_kb`]
    /// or [`TrafficStats::inter_isp_message_fraction`] for cost claims.
    pub fn inter_isp_fraction(&self) -> f64 {
        if self.km_kb <= 0.0 {
            0.0
        } else {
            self.inter_isp_km_kb / self.km_kb
        }
    }

    /// Fraction of messages that crossed an ISP boundary.
    pub fn inter_isp_message_fraction(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            self.inter_isp_messages as f64 / total as f64
        }
    }

    /// Count of messages of one protocol kind.
    pub fn count_of(&self, kind: PacketKind) -> u64 {
        self.by_kind[kind as usize]
    }

    /// Checkpoints the accumulator (floats bit-exact).
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.f64("traffic_km_kb", &mut self.km_kb)?;
        c.u64("traffic_update_messages", &mut self.update_messages)?;
        c.u64("traffic_light_messages", &mut self.light_messages)?;
        c.f64("traffic_update_km", &mut self.update_km)?;
        c.f64("traffic_light_km", &mut self.light_km)?;
        c.f64("traffic_update_kb", &mut self.update_kb)?;
        c.f64("traffic_light_kb", &mut self.light_kb)?;
        c.u64("traffic_inter_isp_messages", &mut self.inter_isp_messages)?;
        c.f64("traffic_inter_isp_km_kb", &mut self.inter_isp_km_kb)?;
        // Saved as a map of the non-zero kinds by wire name.
        let mut kinds: BTreeMap<String, u64> = if c.is_load() {
            BTreeMap::new()
        } else {
            self.named_counts().map(|(kind, n)| (kind.name().to_string(), n)).collect()
        };
        c.map("traffic_kinds", &mut kinds, |c, kind, count| {
            c.string("traffic_kind", kind)?;
            c.u64("traffic_kind_count", count)
        })?;
        if c.is_load() {
            self.by_kind = [0; PACKET_KINDS];
            for (name, count) in kinds {
                let kind = PacketKind::ALL
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| CkptError(format!("unknown packet kind {name:?}")))?;
                self.by_kind[kind as usize] = count;
            }
        }
        Ok(())
    }

    /// The kinds with a non-zero count, in wire-name order.
    fn named_counts(&self) -> impl Iterator<Item = (PacketKind, u64)> + '_ {
        let mut kinds = PacketKind::ALL;
        kinds.sort_unstable_by_key(|k| k.name());
        kinds.into_iter().map(|k| (k, self.by_kind[k as usize])).filter(|&(_, n)| n > 0)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.km_kb += other.km_kb;
        self.inter_isp_messages += other.inter_isp_messages;
        self.inter_isp_km_kb += other.inter_isp_km_kb;
        self.update_messages += other.update_messages;
        self.light_messages += other.light_messages;
        self.update_km += other.update_km;
        self.light_km += other.light_km;
        self.update_kb += other.update_kb;
        self.light_kb += other.light_kb;
        for (mine, theirs) in self.by_kind.iter_mut().zip(other.by_kind) {
            *mine += theirs;
        }
    }
}

/// Prints the per-kind counts as a map of the non-zero kinds by wire name,
/// in name order.
impl fmt::Debug for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct ByKind<'a>(&'a TrafficStats);
        impl fmt::Debug for ByKind<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.named_counts().map(|(k, n)| (k.name(), n))).finish()
            }
        }
        f.debug_struct("TrafficStats")
            .field("km_kb", &self.km_kb)
            .field("update_messages", &self.update_messages)
            .field("light_messages", &self.light_messages)
            .field("update_km", &self.update_km)
            .field("light_km", &self.light_km)
            .field("update_kb", &self.update_kb)
            .field("light_kb", &self.light_kb)
            .field("inter_isp_messages", &self.inter_isp_messages)
            .field("inter_isp_km_kb", &self.inter_isp_km_kb)
            .field("by_kind", &ByKind(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn update(size: f64) -> Packet {
        Packet::update(NodeId(0), NodeId(1), size)
    }

    #[test]
    fn km_kb_accumulates() {
        let mut t = TrafficStats::new();
        t.record(&update(2.0), 100.0);
        t.record(&update(3.0), 10.0);
        assert!((t.km_kb() - 230.0).abs() < 1e-9);
    }

    #[test]
    fn classification_counts() {
        let mut t = TrafficStats::new();
        t.record(&update(1.0), 50.0);
        t.record(&Packet::poll(NodeId(0), NodeId(1)), 50.0);
        t.record(&Packet::invalidation(NodeId(1), NodeId(0)), 50.0);
        assert_eq!(t.update_messages(), 1);
        assert_eq!(t.light_messages(), 2);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.update_km(), 50.0);
        assert_eq!(t.light_km(), 100.0);
        assert_eq!(t.count_of(PacketKind::Poll), 1);
        assert_eq!(t.count_of(PacketKind::Update), 1);
        assert_eq!(t.count_of(PacketKind::TreeMaintenance), 0);
    }

    #[test]
    fn inter_isp_accounting() {
        let mut t = TrafficStats::new();
        t.record_with_isp(&update(2.0), 100.0, true);
        t.record_with_isp(&update(3.0), 100.0, false);
        assert_eq!(t.inter_isp_messages(), 1);
        assert!((t.inter_isp_km_kb() - 200.0).abs() < 1e-9);
        assert!((t.inter_isp_fraction() - 200.0 / 500.0).abs() < 1e-9);
        let mut other = TrafficStats::new();
        other.record_with_isp(&update(1.0), 50.0, true);
        t.merge(&other);
        assert_eq!(t.inter_isp_messages(), 2);
        assert!((t.inter_isp_km_kb() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_inter_isp_fraction() {
        assert_eq!(TrafficStats::new().inter_isp_fraction(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = TrafficStats::new();
        let mut b = TrafficStats::new();
        let mut whole = TrafficStats::new();
        for i in 0..10 {
            let p = if i % 2 == 0 { update(1.0) } else { Packet::poll(NodeId(0), NodeId(1)) };
            let d = i as f64 * 10.0;
            whole.record(&p, d);
            if i < 5 {
                a.record(&p, d);
            } else {
                b.record(&p, d);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn kinds_are_named_in_debug_and_checkpoints() {
        let mut t = TrafficStats::new();
        t.record(&update(1.0), 0.0);
        t.record(&Packet::poll(NodeId(0), NodeId(1)), 0.0);
        t.record(&Packet::poll(NodeId(0), NodeId(1)), 0.0);
        t.record(&Packet::invalidation(NodeId(1), NodeId(0)), 0.0);
        // The non-zero kinds by wire name, in name order, as a map of
        // `String` keys prints.
        let debug = format!("{t:?}");
        assert!(debug.ends_with(r#"by_kind: {"invalidation": 1, "poll": 2, "update": 1} }"#));
        let mut c = Ckpt::save("test");
        t.ckpt(&mut c).unwrap();
        let text = c.finish();
        assert!(text.contains("traffic_kind=poll"), "{text}");
        let tampered = text.replace("traffic_kind=poll", "traffic_kind=bogus");
        let mut c = Ckpt::load(&tampered, "test").unwrap();
        assert!(TrafficStats::new().ckpt(&mut c).is_err(), "unknown kind rejected");
    }

    #[test]
    #[should_panic(expected = "bad distance")]
    fn negative_distance_rejected() {
        TrafficStats::new().record(&update(1.0), -1.0);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut t = TrafficStats::new();
        t.record_with_isp(&update(2.5), 123.456, true);
        t.record(&Packet::poll(NodeId(0), NodeId(1)), 7.0);
        t.record(&Packet::invalidation(NodeId(1), NodeId(0)), 0.125);
        let mut c = Ckpt::save("test");
        t.ckpt(&mut c).unwrap();
        let text = c.finish();
        let mut restored = TrafficStats::new();
        let mut c = Ckpt::load(&text, "test").unwrap();
        restored.ckpt(&mut c).unwrap();
        c.done().unwrap();
        assert_eq!(restored, t);
        assert_eq!(restored.km_kb().to_bits(), t.km_kb().to_bits());
    }
}
