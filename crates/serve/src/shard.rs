//! Consistent-hash sharding and per-peer circuit breaking.
//!
//! The gateway routes every compile by the pipeline *request key* (the
//! same content-addressed identity the daemons coalesce and cache on),
//! so repeated requests for one kernel land on the same backend and
//! its warm cache survives the gateway restarting or the cluster
//! changing size. [`HashRing`] implements classic consistent hashing
//! with virtual nodes: each peer owns [`VNODES`] pseudo-random points
//! on a `u64` ring, a key is owned by the first point clockwise from
//! its hash, and [`HashRing::replicas`] returns *all* peers in
//! clockwise order — the failover sequence a retry walks when the
//! owner is down. Adding or removing one peer therefore moves only the
//! arcs adjacent to that peer's points (~K/N of the keys), never keys
//! between two surviving peers.
//!
//! [`Breaker`] is the companion health gate: a tiny three-state
//! circuit breaker (closed → open after a run of failures, open →
//! half-open after a cooldown, half-open → closed on the next success)
//! fed by both the gateway's health prober and forwarding outcomes.
//! Ring membership itself never changes when a breaker opens — the
//! peer is only *skipped* during replica selection — so its keys come
//! straight back to it (cache intact) when it recovers.

use ptmap_trace::hash64;
use std::time::{Duration, Instant};

/// Virtual nodes per peer. 64 keeps the per-peer share within a few
/// percent of fair for small clusters while the ring stays tiny
/// (N × 64 points).
pub const VNODES: usize = 64;

/// A consistent-hash ring over a fixed peer list.
///
/// Construction sorts points by `(hash, peer)` — the peer name breaks
/// the (astronomically unlikely) hash tie — so the mapping is a pure
/// function of the peer *set*, independent of insertion order.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Peer names (addresses), in the order given at construction.
    peers: Vec<String>,
    /// `(point, peer index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring over `peers` (deduplicated; empty input yields an
    /// empty ring that owns nothing).
    pub fn new<S: AsRef<str>>(peers: &[S]) -> HashRing {
        let mut names: Vec<String> = peers.iter().map(|p| p.as_ref().to_string()).collect();
        names.sort();
        names.dedup();
        let mut points = Vec::with_capacity(names.len() * VNODES);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..VNODES {
                points.push((hash64(format!("{name}#{v}").as_bytes()), idx));
            }
        }
        points.sort_by(|a, b| (a.0, &names[a.1]).cmp(&(b.0, &names[b.1])));
        HashRing {
            peers: names,
            points,
        }
    }

    /// The peer names the ring was built over (sorted, deduplicated).
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Number of distinct peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when the ring has no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The owning peer of `key`, by index into [`HashRing::peers`].
    pub fn owner(&self, key: &str) -> Option<usize> {
        self.replicas(key).into_iter().next()
    }

    /// All peers in clockwise ring order starting at `key`'s owner:
    /// the failover sequence for this key. Every distinct peer appears
    /// exactly once.
    pub fn replicas(&self, key: &str) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let h = hash64(key.as_bytes());
        // First point at or after the key's hash (wrapping).
        let start = self.points.partition_point(|(p, _)| *p < h) % self.points.len();
        let mut seen = vec![false; self.peers.len()];
        let mut order = Vec::with_capacity(self.peers.len());
        for i in 0..self.points.len() {
            let (_, peer) = self.points[(start + i) % self.points.len()];
            if !seen[peer] {
                seen[peer] = true;
                order.push(peer);
                if order.len() == self.peers.len() {
                    break;
                }
            }
        }
        order
    }
}

/// Circuit-breaker states, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Ejected: requests are routed around the peer until the cooldown
    /// passes.
    Open,
    /// Probation after the cooldown: the next success closes the
    /// breaker, the next failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// The state's wire name (metrics label, `/cluster` field).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A three-state circuit breaker for one peer.
///
/// Not internally synchronized — the gateway wraps each breaker in a
/// mutex alongside the rest of its per-peer state.
#[derive(Debug, Clone)]
pub struct Breaker {
    state: BreakerState,
    /// Consecutive failures while closed.
    failures: u32,
    /// When an open breaker may move to half-open.
    retry_at: Option<Instant>,
    /// Failures (while closed) that open the breaker.
    threshold: u32,
    /// How long an open breaker waits before probation.
    cooldown: Duration,
}

impl Breaker {
    /// A closed breaker opening after `threshold` consecutive failures
    /// and re-probing after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            failures: 0,
            retry_at: None,
            threshold: threshold.max(1),
            cooldown,
        }
    }

    /// The current state, advancing open → half-open when the cooldown
    /// has passed.
    pub fn state(&mut self, now: Instant) -> BreakerState {
        if self.state == BreakerState::Open && self.retry_at.is_some_and(|at| now >= at) {
            self.state = BreakerState::HalfOpen;
            self.retry_at = None;
        }
        self.state
    }

    /// Whether a request may be sent to the peer right now (closed, or
    /// half-open probation).
    pub fn admits(&mut self, now: Instant) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Records a success. Returns the transition `(from, to)` if one
    /// happened (half-open → closed).
    pub fn record_success(&mut self, now: Instant) -> Option<(BreakerState, BreakerState)> {
        let from = self.state(now);
        self.failures = 0;
        match from {
            BreakerState::Closed => None,
            BreakerState::HalfOpen | BreakerState::Open => {
                // A success from open can only come from a request
                // admitted before the breaker tripped; treat it as
                // recovery either way.
                self.state = BreakerState::Closed;
                self.retry_at = None;
                Some((from, BreakerState::Closed))
            }
        }
    }

    /// Records a failure. Returns the transition `(from, to)` if one
    /// happened (closed → open at the threshold, half-open → open).
    pub fn record_failure(&mut self, now: Instant) -> Option<(BreakerState, BreakerState)> {
        let from = self.state(now);
        match from {
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.retry_at = Some(now + self.cooldown);
                    Some((from, BreakerState::Open))
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.retry_at = Some(now + self.cooldown);
                Some((from, BreakerState::Open))
            }
            BreakerState::Open => None,
        }
    }

    /// Consecutive failures observed while closed.
    pub fn consecutive_failures(&self) -> u32 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("sha256:deadbeef{i:04}")).collect()
    }

    #[test]
    fn ring_is_insertion_order_independent() {
        let a = HashRing::new(&["x:1", "y:2", "z:3"]);
        let b = HashRing::new(&["z:3", "x:1", "y:2"]);
        for key in keys(200) {
            assert_eq!(
                a.peers()[a.owner(&key).unwrap()],
                b.peers()[b.owner(&key).unwrap()],
                "owner of {key} differs across insertion orders"
            );
        }
    }

    #[test]
    fn ring_balances_within_reason() {
        let peers = ["a:1", "b:2", "c:3", "d:4"];
        let ring = HashRing::new(&peers);
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        let n = 4000;
        for key in keys(n) {
            *counts.entry(ring.owner(&key).unwrap()).or_default() += 1;
        }
        let fair = n / peers.len();
        for (peer, count) in counts {
            assert!(
                count > fair / 3 && count < fair * 3,
                "peer {peer} owns {count} of {n} keys (fair {fair})"
            );
        }
    }

    #[test]
    fn replicas_cover_all_peers_distinctly_starting_at_owner() {
        let ring = HashRing::new(&["a:1", "b:2", "c:3"]);
        for key in keys(50) {
            let reps = ring.replicas(&key);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
            assert_eq!(reps[0], ring.owner(&key).unwrap());
        }
    }

    #[test]
    fn single_join_moves_only_keys_to_the_new_peer() {
        let before = HashRing::new(&["a:1", "b:2", "c:3"]);
        let after = HashRing::new(&["a:1", "b:2", "c:3", "d:4"]);
        let mut moved = 0usize;
        let n = 2000;
        for key in keys(n) {
            let old = before.peers()[before.owner(&key).unwrap()].clone();
            let new = after.peers()[after.owner(&key).unwrap()].clone();
            if old != new {
                moved += 1;
                assert_eq!(new, "d:4", "{key} moved between surviving peers");
            }
        }
        // Expected share is n/4; allow generous variance.
        assert!(
            moved > n / 16 && moved < n / 2,
            "join moved {moved} of {n} keys"
        );
    }

    #[test]
    fn empty_and_single_peer_rings() {
        let empty = HashRing::new::<&str>(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.owner("k"), None);
        assert!(empty.replicas("k").is_empty());

        let one = HashRing::new(&["only:1"]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.owner("k"), Some(0));
        assert_eq!(one.replicas("k"), vec![0]);

        let duped = HashRing::new(&["only:1", "only:1"]);
        assert_eq!(duped.len(), 1, "duplicates collapse");
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let t0 = Instant::now();
        let mut b = Breaker::new(3, Duration::from_millis(100));
        assert_eq!(b.state(t0), BreakerState::Closed);
        assert!(b.admits(t0));

        assert_eq!(b.record_failure(t0), None);
        assert_eq!(b.record_failure(t0), None);
        assert_eq!(b.consecutive_failures(), 2);
        assert_eq!(
            b.record_failure(t0),
            Some((BreakerState::Closed, BreakerState::Open)),
            "third consecutive failure trips the breaker"
        );
        assert!(!b.admits(t0), "open breakers admit nothing");
        assert_eq!(b.record_failure(t0), None, "already open: no transition");

        // Cooldown passes: half-open probation admits one trial.
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        assert!(b.admits(t1));

        assert_eq!(
            b.record_success(t1),
            Some((BreakerState::HalfOpen, BreakerState::Closed))
        );
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn halfopen_failure_reopens() {
        let t0 = Instant::now();
        let mut b = Breaker::new(1, Duration::from_millis(50));
        assert_eq!(
            b.record_failure(t0),
            Some((BreakerState::Closed, BreakerState::Open))
        );
        let t1 = t0 + Duration::from_millis(60);
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        assert_eq!(
            b.record_failure(t1),
            Some((BreakerState::HalfOpen, BreakerState::Open)),
            "a failed probation re-opens"
        );
        // And the next cooldown re-probes again.
        let t2 = t1 + Duration::from_millis(60);
        assert_eq!(b.state(t2), BreakerState::HalfOpen);
        assert_eq!(
            b.record_success(t2),
            Some((BreakerState::HalfOpen, BreakerState::Closed))
        );
    }

    #[test]
    fn success_while_closed_resets_failure_run() {
        let t0 = Instant::now();
        let mut b = Breaker::new(3, Duration::from_millis(50));
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.record_success(t0), None);
        assert_eq!(b.consecutive_failures(), 0);
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Closed, "run was reset");
    }
}
