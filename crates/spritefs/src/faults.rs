//! The cluster's fault state, with one owner (DESIGN.md §10, §15).
//!
//! [`Faults`] holds every fact the fault paths read: server outages
//! (planned or by [`crate::Cluster::crash_server`]), partition cuts,
//! leases and revocations, the schedule and the drop RNG.
//! [`Faults::unreachable`] answers "can this client reach this server
//! now?" for RPC stalls, daemon flushes and SpriteSan alike. A run
//! without a plan carries the inert default, so it costs a few loads
//! and one store per RPC and never draws the RNG.

use sdfs_simkit::{SimDuration, SimRng, SimTime};
use sdfs_trace::FileId;

use crate::config::{retry_budget, FaultPlan, DROP_SEED, MAX_RETRIES};
use crate::metrics::fault;

/// A scheduled fault transition, precomputed from the [`FaultPlan`] and
/// consumed in (time, event) order by the event loop. `Reboot` sorts
/// before `Crash` so back-to-back outages of one server (reboot at `t`,
/// next crash also at `t`) stay well-formed; partition heals likewise
/// sort before same-instant cuts so a window that ends exactly when
/// another begins never sees both active at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FaultEvent {
    Reboot {
        server: u16,
    },
    /// `idx` indexes [`FaultPlan::partitions`].
    PartitionHeal {
        idx: usize,
    },
    /// `until` is the outage's scheduled reboot.
    Crash {
        until: SimTime,
        server: u16,
    },
    PartitionStart {
        idx: usize,
    },
}

/// The counters charged when a client cannot reach a server: RPCs that
/// stalled, the stall time, RPCs that outlasted the retry budget, and
/// write-backs the daemon queued.
pub(crate) struct Blocked {
    pub(crate) stalled: &'static str,
    pub(crate) stall_us: &'static str,
    pub(crate) failed: &'static str,
    pub(crate) queued: &'static str,
}

/// The server is down (crashed, not yet rebooted).
const SERVER_DOWN: Blocked = Blocked {
    stalled: fault::STALLED_RPCS,
    stall_us: fault::STALL_US,
    failed: fault::FAILED_RPCS,
    queued: fault::QUEUED_WRITEBACKS,
};

/// The client↔server edge is cut by a partition.
const EDGE_CUT: Blocked = Blocked {
    stalled: fault::PART_STALLED_RPCS,
    stall_us: fault::PART_STALL_US,
    failed: fault::PART_FAILED_RPCS,
    queued: fault::PART_QUEUED_WRITEBACKS,
};

/// How a server→client action fares ([`Faults::callback`]).
pub(crate) enum Callback {
    /// The target is reachable: the action goes through.
    Deliver,
    /// The target is behind a cut edge and its grant outlives the cut
    /// (or recovery is conservative): the action is queued for the heal
    /// and the requester waits this long.
    Wait(SimDuration),
    /// The target's lease lapses before the heal: the requester waits
    /// out what remains of it, then the server revokes the grant.
    Revoke(SimDuration),
}

/// The cluster's fault state (see the module docs).
#[derive(Debug)]
pub(crate) struct Faults {
    /// The plan in force (the default, inert plan when none was given).
    plan: FaultPlan,
    /// Seeded RNG driving per-RPC message drops (never OS entropy).
    rng: SimRng,
    /// Crash/reboot/partition transitions, sorted.
    events: Vec<(SimTime, FaultEvent)>,
    /// Index of the next unfired event.
    next_event: usize,
    /// Number of servers: the stride of the per-edge vectors below
    /// (edge index = `ci * num_servers + si`).
    num_servers: usize,
    /// Per-server outage while the server is down: when it crashed and
    /// its scheduled reboot ([`SimTime::MAX`] for a crash with none).
    down: Vec<Option<(SimTime, SimTime)>>,
    /// Per-edge cut depth (overlapping partitions may cut one edge
    /// more than once; the edge heals when the depth returns to zero).
    cut: Vec<u32>,
    /// Per-edge latest scheduled heal time among the active cuts:
    /// how long an RPC issued now would have to wait.
    cut_until: Vec<SimTime>,
    /// Per-edge lease expiry: the server trusts the client's cached
    /// grants on this edge until this instant. Renewed implicitly by
    /// every RPC that reaches the server, frozen while the edge is cut.
    lease_until: Vec<SimTime>,
    /// Per-edge files whose grants the server unilaterally revoked
    /// during the current partition; the client reasserts each on heal
    /// ([`crate::rpc::RpcKind::Reassert`]) under the lease protocol.
    revoked: Vec<Vec<FileId>>,
    /// Revoked grants outstanding over every edge.
    revocations: usize,
}

impl Faults {
    /// The fault state of a cluster of `num_clients` clients and
    /// `num_servers` servers under `plan` (the default plan for `None`).
    pub(crate) fn new(plan: Option<&FaultPlan>, num_clients: usize, num_servers: usize) -> Self {
        let plan = plan.cloned().unwrap_or_default();
        let mut events = Vec::new();
        for o in &plan.outages {
            let (until, server) = (o.reboot_at(), o.server);
            events.push((o.at, FaultEvent::Crash { until, server }));
            events.push((until, FaultEvent::Reboot { server }));
        }
        for (idx, p) in plan.partitions.iter().enumerate() {
            events.push((p.at, FaultEvent::PartitionStart { idx }));
            events.push((p.heal_at(), FaultEvent::PartitionHeal { idx }));
        }
        events.sort_unstable();
        let edges = num_clients * num_servers;
        let lease = SimTime::ZERO + plan.lease_ttl;
        Faults {
            plan,
            rng: SimRng::seed_from_u64(DROP_SEED),
            events,
            next_event: 0,
            num_servers,
            down: vec![None; num_servers],
            cut: vec![0; edges],
            cut_until: vec![SimTime::ZERO; edges],
            lease_until: vec![lease; edges],
            revoked: vec![Vec::new(); edges],
            revocations: 0,
        }
    }

    /// The per-edge index of the (client, server) pair.
    #[inline]
    fn edge(&self, ci: usize, si: usize) -> usize {
        ci * self.num_servers + si
    }

    /// Whether server `si` is down.
    #[inline]
    pub(crate) fn is_down(&self, si: usize) -> bool {
        self.down[si].is_some()
    }

    /// Whether client `ci` cannot reach server `si` right now: `None`
    /// when it can, else when the outage or cut ends and the counters
    /// that case charges. A down server takes precedence over a cut
    /// edge.
    #[inline]
    pub(crate) fn unreachable(&self, ci: usize, si: usize) -> Option<(SimTime, &'static Blocked)> {
        if let Some((_, until)) = self.down[si] {
            return Some((until, &SERVER_DOWN));
        }
        let e = self.edge(ci, si);
        (self.cut[e] > 0).then(|| (self.cut_until[e], &EDGE_CUT))
    }

    /// An RPC from client `ci` reached server `si` at `now`: it renews
    /// the edge's lease, and under a drop probability loses seeded
    /// transmissions. Returns how many it retransmitted, at most
    /// [`MAX_RETRIES`].
    #[inline]
    pub(crate) fn reached(&mut self, ci: usize, si: usize, now: SimTime) -> u32 {
        let e = self.edge(ci, si);
        self.lease_until[e] = now + self.plan.lease_ttl;
        let mut tries = 0;
        if self.plan.drop_prob > 0.0 {
            while tries < MAX_RETRIES && self.rng.chance(self.plan.drop_prob) {
                tries += 1;
            }
        }
        tries
    }

    /// How a server→client action from server `si` to client `target`
    /// fares at `now`. Only the edge matters: an action the server
    /// takes during its own outage rides the requester's stalled RPC,
    /// which is delivered once the server is back.
    pub(crate) fn callback(&self, target: usize, si: usize, now: SimTime) -> Callback {
        let e = self.edge(target, si);
        if self.cut[e] == 0 {
            Callback::Deliver
        } else if self.plan.conservative_recovery || self.lease_until[e] >= self.cut_until[e] {
            // Conservative baseline, or a lease that outlives the cut:
            // the action is queued for the heal and the requester waits,
            // bounded by its retry budget. Semantics are unchanged — the
            // simulator models the eventual delivery by executing the
            // action now and charging the wait.
            Callback::Wait(self.cut_until[e].since(now).min(retry_budget()))
        } else {
            // Lease protocol and the target's lease lapses before the
            // heal: wait out whatever remains of the lease, then revoke
            // the grant unilaterally.
            Callback::Revoke(self.lease_until[e].since(now).min(retry_budget()))
        }
    }

    /// Marks server `si` down from `now` until `until`. Returns `false`
    /// (and changes nothing) when it already is.
    pub(crate) fn crash(&mut self, si: usize, now: SimTime, until: SimTime) -> bool {
        if self.is_down(si) {
            return false;
        }
        self.down[si] = Some((now, until));
        true
    }

    /// Marks server `si` up again at `now`, returning how long it was
    /// down, or `None` when it was up.
    pub(crate) fn reboot(&mut self, si: usize, now: SimTime) -> Option<SimDuration> {
        self.down[si].take().map(|(since, _)| now.since(since))
    }

    /// Time of the next scheduled transition, if any remain.
    pub(crate) fn next_event_at(&self) -> Option<SimTime> {
        self.events.get(self.next_event).map(|&(at, _)| at)
    }

    /// Consumes the next scheduled transition.
    pub(crate) fn pop_event(&mut self) -> FaultEvent {
        self.next_event += 1;
        self.events[self.next_event - 1].1
    }

    /// Cuts every edge of partition `idx`, returning its (client,
    /// server) edges.
    pub(crate) fn start_partition(&mut self, idx: usize) -> &[(u16, u16)] {
        let p = &self.plan.partitions[idx];
        let heal_at = p.heal_at();
        for &(c, s) in &p.edges {
            let e = c as usize * self.num_servers + s as usize;
            self.cut[e] += 1;
            self.cut_until[e] = self.cut_until[e].max(heal_at);
        }
        &p.edges
    }

    /// Heals every edge of partition `idx` at `now`. Returns when the
    /// partition began and the edges it leaves fully healed (an edge
    /// an overlapping partition still cuts stays cut); a healed edge's
    /// lease clock restarts from `now`.
    pub(crate) fn heal_partition(
        &mut self,
        idx: usize,
        now: SimTime,
    ) -> (SimTime, Vec<(u16, u16)>) {
        let p = &self.plan.partitions[idx];
        let mut healed = Vec::new();
        for &(c, s) in &p.edges {
            let e = c as usize * self.num_servers + s as usize;
            self.cut[e] -= 1;
            if self.cut[e] == 0 {
                self.lease_until[e] = now + self.plan.lease_ttl;
                healed.push((c, s));
            }
        }
        (p.at, healed)
    }

    /// Whether a healed edge runs the conservative crash-style storm
    /// instead of the lease protocol.
    pub(crate) fn conservative_recovery(&self) -> bool {
        self.plan.conservative_recovery
    }

    /// Records that server `si` revoked client `ci`'s grant on `file`.
    pub(crate) fn revoke(&mut self, ci: usize, si: usize, file: FileId) {
        let e = self.edge(ci, si);
        if !self.revoked[e].contains(&file) {
            self.revoked[e].push(file);
            self.revocations += 1;
        }
    }

    /// Removes and returns the grants server `si` revoked from client
    /// `ci` during the partition that just healed.
    pub(crate) fn take_revoked(&mut self, ci: usize, si: usize) -> Vec<FileId> {
        let e = self.edge(ci, si);
        let files = std::mem::take(&mut self.revoked[e]);
        self.revocations -= files.len();
        files
    }

    /// Whether any client's grant on `file` at server `si` is
    /// currently revoked (lease lapsed behind a still-open cut). The
    /// server can no longer account for that client's operations — it
    /// keeps running behind the cut and its writes land synchronously
    /// when the overlay delivers them — so the file loses caching
    /// privileges for *everyone* until the heal drains the revocation
    /// list and the grant is reasserted or abandoned. With nothing
    /// revoked anywhere the answer costs one compare.
    #[inline]
    pub(crate) fn file_revoked(&self, si: usize, file: FileId) -> bool {
        self.revocations > 0
            && self
                .revoked
                .iter()
                .skip(si)
                .step_by(self.num_servers)
                .any(|files| files.contains(&file))
    }
}
