//! Deterministic fault injection for the distributed simulator.
//!
//! The paper's E6 experiment shows how execution models respond to
//! *performance* variability (slow cores). This module generalizes that
//! question to *hard* faults — the regime motivating task-based runtimes
//! in the strong-scaling-limit literature: rank fail-stop, transient
//! message loss and delay, counter-host outages, and unanswered steal
//! requests. Every fault is scheduled or drawn deterministically from
//! [`FaultPlan`] (seeded splitmix64 streams independent of the victim
//! RNG), so a run is exactly reproducible given `(costs, model, cfg,
//! plan)`.
//!
//! The degraded-mode story mirrors production runtimes:
//!
//! * **fail-stop** — a rank dies at a scheduled time; the task it is
//!   executing loses all partial progress and is orphaned together with
//!   any work still queued on the rank. After a heartbeat-style
//!   [`FaultPlan::detection_interval`], survivors redistribute the
//!   orphans through the `emx-balance` crate (see [`RecoveryPolicy`]) —
//!   the paper's load balancers double as the recovery path;
//! * **message faults** — counter fetches and steal requests may be
//!   dropped (retried after [`FaultPlan::rpc_timeout`]) or delayed;
//! * **counter outage** — the shared-counter host goes down and fetches
//!   stall until a backup host takes over after
//!   [`CounterOutage::failover`];
//! * **dead-victim steals** — a steal request to a rank that died but
//!   whose death is not yet detected gets no response; the thief times
//!   out and retries under exponential backoff instead of spinning.
//!   Once the detection interval elapses, thieves drop the rank from
//!   their believed-alive victim set and stop paying timeouts.
//!
//! This module owns the simulator's one event loop per model family
//! (static, shared counter, work stealing). [`crate::sim::simulate`] *is*
//! the fault-free plan of these loops, so a degraded run and its healthy
//! baseline differ only by the faults injected — same event order, same
//! victim draws until the first fault. Rank-failure bookkeeping is
//! skipped when the plan schedules no rank failure, which keeps the
//! fault-free path as fast as a dedicated loop. See `docs/FAULT_MODEL.md`
//! for the full contract.

use crate::eventq::{EventQueue, WorkTracker};
use crate::sim::{stretched, topo_levels, Ledger, SimConfig, SimModel, SimReport, SplitMix};
use emx_balance::prelude::{
    full_adjacency, rebalance, semi_matching, PersistenceConfig, Problem, SemiMatchConfig,
};
use emx_obs::{EventKind, MetricsRegistry};
use emx_sched::{random_victim, round_robin_victim, ChunkRule, VictimPolicy};
use std::collections::VecDeque;

/// A scheduled fail-stop failure of one simulated rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankFailure {
    /// Rank (simulated worker id) that dies.
    pub rank: usize,
    /// Simulated time (s) at which it fail-stops. Partial progress on
    /// the task running at that instant is lost.
    pub at: f64,
}

/// Outage of the shared-counter host with failover to a backup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterOutage {
    /// Outage start (s). Fetches arriving during the outage stall.
    pub at: f64,
    /// Time (s) until the backup counter host takes over; stalled
    /// fetches resume at `at + failover`.
    pub failover: f64,
}

/// How survivors redistribute a dead rank's orphaned tasks.
///
/// All three run the orphan set through `emx-balance`, so the fault
/// path exercises the paper's load-balancing machinery end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Contiguous blocks of orphans over survivors in rank order — the
    /// cheapest possible reassignment, ignores weights and loads.
    BlockSurvivors,
    /// Weighted semi-matching ([`semi_matching`]) of the orphans onto
    /// survivors, with each survivor's residual load modeled as a
    /// pinned phantom task so loaded survivors receive less.
    SemiMatching,
    /// Persistence-style rebalance ([`rebalance`]): orphans start as a
    /// naive single-survivor assignment and the rebalancer migrates the
    /// minimum weight needed to meet its imbalance target.
    Persistence,
}

impl RecoveryPolicy {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::BlockSurvivors => "block-survivors",
            RecoveryPolicy::SemiMatching => "semi-matching",
            RecoveryPolicy::Persistence => "persistence",
        }
    }
}

/// Deterministic fault schedule for one simulated run.
///
/// The default plan is fault-free — the plan [`crate::sim::simulate`]
/// runs; builder methods ([`FaultPlan::with_rank_failure`] etc.) switch
/// individual faults on.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the fault-fate RNG (message drop/delay draws). This is
    /// a *separate* splitmix64 stream from [`SimConfig::seed`]'s victim
    /// selection, so enabling message faults never perturbs victim
    /// choice.
    pub seed: u64,
    /// Scheduled fail-stop failures. Multiple entries for one rank keep
    /// the earliest.
    pub rank_failures: Vec<RankFailure>,
    /// Probability in `[0, 1)` that a counter fetch or steal request is
    /// silently dropped (retried after [`FaultPlan::rpc_timeout`]).
    pub drop_prob: f64,
    /// Probability in `[0, 1)` that a message is delayed by
    /// [`FaultPlan::delay`] instead of arriving on time.
    pub delay_prob: f64,
    /// Extra latency (s) applied to delayed messages.
    pub delay: f64,
    /// Optional shared-counter host outage (applies to the group-0
    /// counter under `GroupCounters`).
    pub counter_outage: Option<CounterOutage>,
    /// No-response deadline (s) for counter fetches and steal round
    /// trips: a dropped request or dead victim costs the sender this
    /// much waiting before it retries.
    pub rpc_timeout: f64,
    /// First exponential-backoff wait (s) after a failed steal. `0`
    /// (the default, and what [`crate::sim::simulate`] runs) disables
    /// backoff.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff wait per consecutive failure.
    pub backoff_factor: f64,
    /// Upper bound (s) on one backoff wait.
    pub backoff_max: f64,
    /// Heartbeat-style failure-detection time (s): orphans of a rank
    /// dying at `t` become redistributable at `t + detection_interval`.
    pub detection_interval: f64,
    /// Orphan redistribution policy.
    pub recovery: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xfa017,
            rank_failures: Vec::new(),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: 0.0,
            counter_outage: None,
            rpc_timeout: 100e-6,
            backoff_base: 0.0,
            backoff_factor: 2.0,
            backoff_max: 1e-3,
            detection_interval: 1e-3,
            recovery: RecoveryPolicy::SemiMatching,
        }
    }
}

impl FaultPlan {
    /// A plan injecting nothing: [`simulate_with_faults`] under this
    /// plan is [`crate::sim::simulate`].
    pub fn fault_free() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules no fault of any kind.
    pub fn is_fault_free(&self) -> bool {
        self.rank_failures.is_empty()
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.counter_outage.is_none()
    }

    /// Adds a fail-stop failure of `rank` at time `at` (s).
    pub fn with_rank_failure(mut self, rank: usize, at: f64) -> FaultPlan {
        self.rank_failures.push(RankFailure { rank, at });
        self
    }

    /// Schedules a counter-host outage starting at `at` with the given
    /// failover time (both seconds).
    pub fn with_counter_outage(mut self, at: f64, failover: f64) -> FaultPlan {
        self.counter_outage = Some(CounterOutage { at, failover });
        self
    }

    /// Enables transient message faults: requests dropped with
    /// probability `drop_prob`, delayed by `delay` seconds with
    /// probability `delay_prob`.
    pub fn with_message_faults(mut self, drop_prob: f64, delay_prob: f64, delay: f64) -> FaultPlan {
        self.drop_prob = drop_prob;
        self.delay_prob = delay_prob;
        self.delay = delay;
        self
    }

    /// Enables exponential backoff on failed steals: waits
    /// `base · factor^(k−1)` (capped at `max`) after the `k`-th
    /// consecutive failure.
    pub fn with_backoff(mut self, base: f64, factor: f64, max: f64) -> FaultPlan {
        self.backoff_base = base;
        self.backoff_factor = factor;
        self.backoff_max = max;
        self
    }

    /// Selects the orphan-redistribution policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> FaultPlan {
        self.recovery = policy;
        self
    }

    fn validate(&self, workers: usize) {
        for f in &self.rank_failures {
            assert!(f.rank < workers, "failed rank {} out of range", f.rank);
            assert!(f.at.is_finite() && f.at >= 0.0, "failure time invalid");
        }
        assert!(
            (0.0..1.0).contains(&self.drop_prob),
            "drop_prob outside [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&self.delay_prob),
            "delay_prob outside [0,1)"
        );
        assert!(self.delay >= 0.0, "delay must be non-negative");
        assert!(self.detection_interval >= 0.0, "detection_interval < 0");
        if self.drop_prob > 0.0 || !self.rank_failures.is_empty() {
            assert!(
                self.rpc_timeout > 0.0,
                "rpc_timeout must be positive when requests can go unanswered"
            );
        }
    }
}

/// Fault/recovery event counts of one degraded run.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Fault events that fired (rank deaths, dropped/delayed messages,
    /// counter outage).
    pub injected: u64,
    /// Rank failures the scheduler detected and acted upon.
    pub detected: u64,
    /// Tasks orphaned by rank deaths (a task re-orphaned by a second
    /// death counts again).
    pub orphaned: u64,
    /// Orphaned tasks re-executed to completion on survivors.
    pub recovered: u64,
    /// Tasks never executed (only possible when every rank that could
    /// run them died).
    pub lost: u64,
    /// Messages silently dropped (retried by the sender).
    pub dropped_messages: u64,
    /// Messages that arrived late by [`FaultPlan::delay`].
    pub delayed_messages: u64,
    /// Round trips abandoned after [`FaultPlan::rpc_timeout`] because a
    /// dead rank never responded.
    pub rpc_timeouts: u64,
    /// Counter-host failovers to the backup (0 or 1).
    pub counter_failovers: u64,
    /// Per-recovered-task latency (s) from the orphaning death to the
    /// completed re-execution.
    pub recovery_latency: Vec<f64>,
}

/// Result of a fault-injected simulation: the usual [`SimReport`] plus
/// fault accounting.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Performance report (makespan, busy, tasks, steals, …).
    pub sim: SimReport,
    /// Fault and recovery accounting.
    pub faults: FaultStats,
}

/// Runs `costs` under `model` with faults injected per `plan`.
///
/// Every model family has exactly one event loop, and this is its entry
/// point: [`crate::sim::simulate`] is this function under
/// [`FaultPlan::fault_free`]. The report's `assignment` names the worker
/// that completed each task (`u32::MAX` for a lost task), and with
/// [`SimConfig::events`] on every completed task emits one
/// start/end event pair — an execution cut short by a rank failure
/// emits none.
pub fn simulate_with_faults(
    costs: &[f64],
    model: &SimModel,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> FaultReport {
    assert!(cfg.workers > 0, "need at least one worker");
    plan.validate(cfg.workers);
    match model {
        SimModel::Static(owners) => faulty_static(costs, owners, cfg, plan),
        SimModel::Counter { chunk } => {
            faulty_counter(costs, ChunkRule::Fixed(*chunk), 1, None, cfg, plan)
        }
        SimModel::Guided { min_chunk } => faulty_counter(
            costs,
            ChunkRule::Tapering {
                k: 2,
                min: *min_chunk,
            },
            1,
            None,
            cfg,
            plan,
        ),
        SimModel::GroupCounters { groups, chunk } => faulty_counter(
            costs,
            ChunkRule::Fixed(*chunk),
            (*groups).max(1),
            None,
            cfg,
            plan,
        ),
        SimModel::HierCounters {
            chunk,
            node_size,
            parent_chunk,
        } => faulty_counter(
            costs,
            ChunkRule::Fixed(*chunk),
            cfg.workers.div_ceil((*node_size).max(1)),
            Some((*parent_chunk).max(1)),
            cfg,
            plan,
        ),
        SimModel::WorkStealing { steal_half } => faulty_stealing(
            costs,
            *steal_half,
            &[],
            None,
            VictimPolicy::Random,
            cfg,
            plan,
        ),
        SimModel::SeededStealing { owners, steal_half } => faulty_stealing(
            costs,
            *steal_half,
            &[],
            Some(owners),
            VictimPolicy::Random,
            cfg,
            plan,
        ),
        SimModel::HierarchicalStealing {
            steal_half,
            node_size,
            remote_factor,
        } => faulty_stealing(
            costs,
            *steal_half,
            &[((*node_size).max(1), remote_factor.max(1.0))],
            None,
            VictimPolicy::Random,
            cfg,
            plan,
        ),
        SimModel::TopologyStealing { steal_half } => faulty_stealing(
            costs,
            *steal_half,
            &topo_levels(&cfg.machine),
            None,
            VictimPolicy::Random,
            cfg,
            plan,
        ),
    }
}

/// Publishes the fault accounting of `report` into `metrics` under
/// `prefix` (e.g. `distsim.faults`): one counter per [`FaultStats`]
/// field and a histogram of recovery latency in nanoseconds.
pub fn publish_fault_metrics(metrics: &MetricsRegistry, prefix: &str, report: &FaultReport) {
    let f = &report.faults;
    let add = |name: &str, unit: &str, v: u64| {
        metrics.counter(&format!("{prefix}.{name}"), unit).add(v);
    };
    add("injected", "events", f.injected);
    add("detected", "events", f.detected);
    add("orphaned", "tasks", f.orphaned);
    add("recovered", "tasks", f.recovered);
    add("lost", "tasks", f.lost);
    add("dropped_messages", "messages", f.dropped_messages);
    add("delayed_messages", "messages", f.delayed_messages);
    add("rpc_timeouts", "events", f.rpc_timeouts);
    add("counter_failovers", "events", f.counter_failovers);
    let hist = metrics.histogram(&format!("{prefix}.recovery_latency"), "ns");
    for &lat in &f.recovery_latency {
        hist.record((lat * 1e9) as u64);
    }
}

/// Earliest scheduled death per worker of `p`; empty when the plan
/// schedules no rank failure (the loops then never look a death up).
fn death_times(p: usize, plan: &FaultPlan) -> Vec<Option<f64>> {
    if plan.rank_failures.is_empty() {
        return Vec::new();
    }
    let mut d: Vec<Option<f64>> = vec![None; p];
    for f in &plan.rank_failures {
        d[f.rank] = Some(d[f.rank].map_or(f.at, |x: f64| x.min(f.at)));
    }
    d
}

/// Assigns orphan tasks to survivors; returns, per orphan, an index
/// into the survivor list. `survivor_loads` are the survivors' residual
/// completion times (s).
fn assign_orphans(weights: &[f64], survivor_loads: &[f64], policy: RecoveryPolicy) -> Vec<usize> {
    let s = survivor_loads.len();
    assert!(s > 0, "no survivors to receive orphans");
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    match policy {
        RecoveryPolicy::BlockSurvivors => (0..n).map(|i| i * s / n).collect(),
        RecoveryPolicy::SemiMatching => {
            // Orphans may go anywhere; each survivor's residual load is
            // a phantom task pinned to it so the balancer sees current
            // imbalance.
            let base = survivor_loads.iter().cloned().fold(f64::INFINITY, f64::min);
            let mut w = weights.to_vec();
            let mut adj = full_adjacency(n, s);
            for (k, &load) in survivor_loads.iter().enumerate() {
                w.push((load - base).max(0.0));
                adj.push(vec![k as u32]);
            }
            let problem = Problem::new(w, s);
            let assignment = semi_matching(&problem, &adj, &SemiMatchConfig::default());
            assignment[..n].iter().map(|&x| x as usize).collect()
        }
        RecoveryPolicy::Persistence => {
            // Naive initial placement (everything on the least-loaded
            // survivor), then the persistence rebalancer migrates the
            // minimum to meet its imbalance target.
            let least = survivor_loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN load"))
                .map_or(0, |(k, _)| k);
            let previous = vec![least as u32; n];
            let problem = Problem::new(weights.to_vec(), s);
            let assignment = rebalance(&problem, &previous, &PersistenceConfig::default());
            assignment.iter().map(|&x| x as usize).collect()
        }
    }
}

/// The static family: each worker runs its owned tasks in order. A
/// rank that fail-stops orphans its residual list, which survivors run
/// after the failure is detected.
pub(crate) fn faulty_static(
    costs: &[f64],
    owners: &[u32],
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> FaultReport {
    assert_eq!(owners.len(), costs.len(), "assignment length mismatch");
    let p = cfg.workers;
    let m = &cfg.machine;
    let failures = !plan.rank_failures.is_empty();
    let death = death_times(p, plan);
    let mut clock = vec![0.0; p];
    let mut ledger = Ledger::new(costs.len(), cfg);
    let mut stats = FaultStats::default();
    // (task, origin rank) in task order.
    let mut orphans: Vec<(usize, usize)> = Vec::new();

    for (i, &w) in owners.iter().enumerate() {
        let w = w as usize;
        assert!(w < p, "owner out of range");
        let dur = stretched(costs[i], w, clock[w], cfg) + m.dispatch_overhead;
        let dies = if failures { death[w] } else { None };
        if let Some(dt) = dies.filter(|&dt| clock[w] >= dt || clock[w] + dur > dt) {
            // Dead, or killed mid-task: partial progress is lost and the
            // task is orphaned along with the rest of the list.
            ledger.busy[w] += (dt - clock[w]).max(0.0);
            clock[w] = clock[w].max(dt);
            orphans.push((i, w));
            continue;
        }
        ledger.run(w, i, clock[w], dur);
        clock[w] += dur;
    }

    if failures {
        stats.injected = death.iter().flatten().count() as u64;
        stats.orphaned = orphans.len() as u64;
        let survivors: Vec<usize> = (0..p).filter(|&w| death[w].is_none()).collect();
        if survivors.is_empty() {
            stats.lost = orphans.len() as u64;
        } else {
            // Heartbeat detection: every death is eventually noticed.
            stats.detected = stats.injected;
            let weights: Vec<f64> = orphans.iter().map(|&(i, _)| costs[i]).collect();
            let loads: Vec<f64> = survivors.iter().map(|&s| clock[s]).collect();
            let assign = assign_orphans(&weights, &loads, plan.recovery);
            for (k, &(i, origin)) in orphans.iter().enumerate() {
                let s = survivors[assign[k]];
                let dt = death[origin].expect("orphan origin died");
                // The replacement copy starts once the failure is
                // detected and the reassignment round trip completes.
                let start = clock[s].max(dt + plan.detection_interval + m.round_trip());
                let dur = stretched(costs[i], s, start, cfg) + m.dispatch_overhead;
                ledger.run(s, i, start, dur);
                clock[s] = start + dur;
                stats.recovered += 1;
                stats.recovery_latency.push(start + dur - dt);
            }
        }
    }

    let makespan = clock.iter().cloned().fold(0.0, f64::max);
    FaultReport {
        sim: ledger.report(makespan, 0, 0, 0),
        faults: stats,
    }
}

/// The shared-counter family: `groups` independent counters each serve
/// a worker group. With `refill: None` every counter statically owns a
/// block slice of the task range (the Counter/Guided/GroupCounters
/// models). With `refill: Some(block)` the counters are *leaves of a
/// hierarchical NXTVAL tree*: they start empty and claim `block`-task
/// ranges from a root counter on demand, so work balances globally
/// while the root is contacted only once per block. Each fetch claims
/// what `rule` dictates.
pub(crate) fn faulty_counter(
    costs: &[f64],
    rule: ChunkRule,
    groups: usize,
    refill: Option<usize>,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> FaultReport {
    rule.validate();
    let p = cfg.workers;
    let n = costs.len();
    let m = &cfg.machine;
    let groups = groups.min(p).max(1);
    let wgroup = |w: usize| w * groups / p;
    let mut group_size = vec![0usize; groups];
    for w in 0..p {
        group_size[wgroup(w)] += 1;
    }

    // Rank-failure bookkeeping is skipped when no rank can die.
    let failures = !plan.rank_failures.is_empty();
    let death = death_times(p, plan);
    let mut dead = vec![false; death.len()];
    // Workers scheduled to die whose death has not been processed yet —
    // while any exist, idle survivors park instead of retiring because
    // orphans may still appear.
    let mut undead = death.iter().flatten().count();
    // Live ranks per group: when a group's last rank dies, its whole
    // unclaimed range is orphaned onto the global recovery queue so
    // survivors in other groups can pick it up.
    let mut alive_in_group = group_size.clone();
    let mut stats = FaultStats::default();
    // A request reaching the outage-prone counter host at `start` while
    // it is down stalls until the backup host takes over.
    let mut outage_fired = false;
    let mut outage = |start: f64, stats: &mut FaultStats| -> f64 {
        match plan.counter_outage {
            Some(o) if start >= o.at && start < o.at + o.failover => {
                if !outage_fired {
                    outage_fired = true;
                    stats.injected += 1;
                    stats.counter_failovers += 1;
                }
                o.at + o.failover
            }
            _ => start,
        }
    };

    let mut ledger = Ledger::new(n, cfg);
    let mut fetches = 0u64;
    // Unclaimed range of each counter: a static block slice (no
    // refill), or empty-until-refilled from the root (hierarchical).
    let mut leaf_lo: Vec<usize>;
    let mut leaf_hi: Vec<usize>;
    if refill.is_some() {
        leaf_lo = vec![0; groups];
        leaf_hi = vec![0; groups];
    } else {
        leaf_lo = (0..groups).map(|g| g * n / groups).collect();
        leaf_hi = (0..groups).map(|g| (g + 1) * n / groups).collect();
    }
    let mut root_next = 0usize;
    let mut root_free = 0.0f64;
    let mut counter_free = vec![0.0f64; groups];
    let mut makespan = 0.0f64;
    let mut executed = 0usize;

    // Global orphan-recovery queue: survivors of any group drain it once
    // the originating failure is detected (`recovery_open`).
    let mut recovery: VecDeque<usize> = VecDeque::new();
    let mut recovery_open = f64::INFINITY;
    let mut orphan_death = vec![f64::NAN; if failures { n } else { 0 }];
    let mut parked: Vec<(usize, f64)> = Vec::new();
    let mut claim_buf: Vec<usize> = Vec::new();
    let mut fate = SplitMix::new(plan.seed ^ 0x0bad_cafe);

    // Queue of (arrival time at the group's counter, worker).
    let mut q = EventQueue::with_capacity(cfg.queue, p);
    for w in 0..p {
        q.push(m.latency, w);
    }

    while let Some((sent, w)) = q.pop() {
        if failures && dead[w] {
            continue;
        }
        let dies = if failures { death[w] } else { None };
        if let Some(dt) = dies.filter(|&dt| sent >= dt) {
            // Died while idle or in flight: it held no claimed tasks,
            // so nothing it owned is orphaned — but if it was the last
            // live rank of its group, the group's unclaimed range is.
            dead[w] = true;
            undead -= 1;
            stats.injected += 1;
            stats.detected += 1;
            let g = wgroup(w);
            alive_in_group[g] -= 1;
            if alive_in_group[g] == 0 && leaf_lo[g] < leaf_hi[g] {
                for od in &mut orphan_death[leaf_lo[g]..leaf_hi[g]] {
                    *od = dt;
                }
                recovery.extend(leaf_lo[g]..leaf_hi[g]);
                stats.orphaned += (leaf_hi[g] - leaf_lo[g]) as u64;
                recovery_open = recovery_open.min(dt + plan.detection_interval);
                leaf_lo[g] = leaf_hi[g];
            }
            // Wake parked survivors: either orphans just appeared for
            // them to claim, or no deaths remain pending and they can
            // retire.
            if !recovery.is_empty() || undead == 0 {
                for (pw, pt) in parked.drain(..) {
                    let wake = if recovery.is_empty() {
                        pt
                    } else {
                        recovery_open.max(pt)
                    };
                    q.push(wake, pw);
                }
            }
            continue;
        }
        let mut arrival = sent;
        // Transient message faults on the fetch request.
        if plan.drop_prob > 0.0 && fate.unit() < plan.drop_prob {
            stats.dropped_messages += 1;
            stats.injected += 1;
            q.push(arrival + plan.rpc_timeout, w);
            continue;
        }
        if plan.delay_prob > 0.0 && fate.unit() < plan.delay_prob {
            stats.delayed_messages += 1;
            stats.injected += 1;
            arrival += plan.delay;
        }
        let g = wgroup(w);
        // The group's counter host serializes its fetches.
        let mut start = arrival.max(counter_free[g]);
        if g == 0 && refill.is_none() {
            start = outage(start, &mut stats);
        }
        counter_free[g] = start + m.counter_service;
        fetches += 1;
        if leaf_lo[g] >= leaf_hi[g] {
            if let Some(block) = refill {
                if root_next < n {
                    // Dry leaf: forward one block claim to the root
                    // counter (an extra serialized round trip). In the
                    // hierarchical tree the *root* is the outage-prone
                    // shared host.
                    let root_start =
                        outage((counter_free[g] + m.latency).max(root_free), &mut stats);
                    root_free = root_start + m.counter_service;
                    fetches += 1;
                    let take = block.min(n - root_next);
                    leaf_lo[g] = root_next;
                    leaf_hi[g] = root_next + take;
                    root_next += take;
                    counter_free[g] = root_free + m.latency;
                }
            }
        }
        let response = counter_free[g] + m.latency;
        // The worker sent this fetch one network latency before it
        // reached the counter host.
        ledger.event(w, EventKind::CounterFetchStart, 0, sent - m.latency);
        ledger.event(w, EventKind::CounterFetchEnd, leaf_lo[g] as u64, response);

        // Claim: the worker's own counter first (a range), then the
        // recovery queue (into `claim_buf`).
        let mut leaf_claim = 0..0;
        if leaf_lo[g] < leaf_hi[g] {
            let remaining = leaf_hi[g] - leaf_lo[g];
            let begin = leaf_lo[g];
            leaf_lo[g] = begin + rule.claim(remaining, group_size[g]);
            leaf_claim = begin..leaf_lo[g];
        } else if !recovery.is_empty() {
            if response < recovery_open {
                // Orphans exist but the failure is not yet detected —
                // come back once it is.
                q.push(recovery_open, w);
                continue;
            }
            let chunk = rule.claim(recovery.len(), group_size[g]);
            claim_buf.extend((0..chunk).filter_map(|_| recovery.pop_front()));
        } else if undead > 0 {
            // Nothing to do now, but a rank is still scheduled to die —
            // park until its orphans (if any) appear.
            parked.push((w, response));
            continue;
        } else {
            continue; // range exhausted, no recovery work: retire
        }

        // Execute the claim, honoring a death before or during a task:
        // partial progress is lost, and that task and the rest of the
        // claim are orphaned.
        let mut claim = leaf_claim.chain(claim_buf.drain(..));
        let mut t = response;
        let mut died_at: Option<f64> = None;
        let first_orphan = recovery.len();
        for i in claim.by_ref() {
            let dur = stretched(costs[i], w, t, cfg) + m.dispatch_overhead;
            if let Some(dt) = dies.filter(|&dt| t >= dt || t + dur > dt) {
                ledger.busy[w] += (dt - t).max(0.0);
                t = t.max(dt);
                died_at = Some(dt);
                recovery.push_back(i);
                break;
            }
            ledger.run(w, i, t, dur);
            t += dur;
            executed += 1;
            if failures && !orphan_death[i].is_nan() {
                stats.recovered += 1;
                stats.recovery_latency.push(t - orphan_death[i]);
            }
        }
        recovery.extend(claim);
        makespan = makespan.max(t);
        if let Some(dt) = died_at {
            dead[w] = true;
            undead -= 1;
            stats.injected += 1;
            stats.detected += 1;
            for &i in recovery.range(first_orphan..) {
                orphan_death[i] = dt;
            }
            stats.orphaned += (recovery.len() - first_orphan) as u64;
            alive_in_group[g] -= 1;
            if alive_in_group[g] == 0 && leaf_lo[g] < leaf_hi[g] {
                // Last rank of the group: nobody is left to claim the
                // counter's remaining range, so orphan it globally too.
                for od in &mut orphan_death[leaf_lo[g]..leaf_hi[g]] {
                    *od = dt;
                }
                recovery.extend(leaf_lo[g]..leaf_hi[g]);
                stats.orphaned += (leaf_hi[g] - leaf_lo[g]) as u64;
                leaf_lo[g] = leaf_hi[g];
            }
            recovery_open = recovery_open.min(dt + plan.detection_interval);
            for (pw, pt) in parked.drain(..) {
                q.push(recovery_open.max(pt), pw);
            }
        } else {
            // Request the next chunk.
            q.push(t + m.latency, w);
        }
    }

    stats.lost = (n - executed) as u64;
    FaultReport {
        sim: ledger.report(makespan, 0, 0, fetches),
        faults: stats,
    }
}

/// Mutable per-rank liveness bookkeeping of the stealing loop, grouped
/// so [`die`] stays callable while the queues are borrowed elsewhere.
struct Liveness {
    /// Fail-stop flags, indexed by rank.
    dead: Vec<bool>,
    /// Live ranks in ascending rank order — the survivor set orphans are
    /// redistributed over. Updated immediately at death.
    alive_now: Vec<usize>,
    /// Ranks *believed* live by thieves, in ascending rank order: a dead
    /// rank stays in here (and keeps absorbing steal requests, which
    /// time out) until its death is detected.
    alive: Vec<usize>,
    /// Index of each rank in `alive` (valid only while the rank is in
    /// `alive`).
    alive_pos: Vec<usize>,
    /// Pending detections `(dt + detection_interval, rank)`, sorted by
    /// descending time so the next one pops from the back.
    detect: Vec<(f64, usize)>,
    /// Residual queued cost per rank, maintained incrementally so
    /// redistribution never rescans queues.
    qload: Vec<f64>,
}

impl Liveness {
    fn new(p: usize) -> Liveness {
        Liveness {
            dead: vec![false; p],
            alive_now: (0..p).collect(),
            alive: (0..p).collect(),
            alive_pos: (0..p).collect(),
            detect: Vec::new(),
            qload: vec![0.0; p],
        }
    }

    /// Removes ranks whose detection time has passed from the thieves'
    /// `alive` view.
    fn run_detections(&mut self, t: f64) {
        while self.detect.last().is_some_and(|&(due, _)| due <= t) {
            let (_, v) = self.detect.pop().expect("checked non-empty");
            let pos = self.alive_pos[v];
            self.alive.remove(pos);
            for k in pos..self.alive.len() {
                self.alive_pos[self.alive[k]] = k;
            }
        }
    }
}

/// The work-stealing family. `levels` lists nested locality domains,
/// innermost first, as `(domain size in workers, latency divisor)`: a
/// thief probes the innermost domain that still holds work and draws a
/// uniform victim there at `steal_latency / divisor`, falling back to a
/// global draw under `victim_policy` at full latency. An empty slice is
/// flat stealing; one level is [`SimModel::HierarchicalStealing`]; two
/// levels are the node/rack topology of [`SimModel::TopologyStealing`].
/// Deques are seeded from `seed_owners`, or block-wise (the static
/// baseline's initial locality).
pub(crate) fn faulty_stealing(
    costs: &[f64],
    steal_half: bool,
    levels: &[(usize, f64)],
    seed_owners: Option<&[u32]>,
    victim_policy: VictimPolicy,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> FaultReport {
    let p = cfg.workers;
    let n = costs.len();
    let m = &cfg.machine;

    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); p];
    match seed_owners {
        Some(owners) => {
            assert_eq!(owners.len(), n, "seed assignment length mismatch");
            for (i, &w) in owners.iter().enumerate() {
                assert!((w as usize) < p, "seed owner out of range");
                queues[w as usize].push_back(i);
            }
        }
        None => {
            for i in 0..n {
                queues[emx_sched::block_owner(i, n.max(1), p)].push_back(i);
            }
        }
    }
    // Rank-failure bookkeeping (liveness, queued load for orphan
    // placement, orphan accounting) is skipped when no rank can die:
    // the believed-alive victim set is then every rank, and the victim
    // draw indexes ranks directly.
    let failures = !plan.rank_failures.is_empty();
    let death = death_times(p, plan);
    let mut live = Liveness::new(death.len());
    if failures {
        for (w, q) in queues.iter().enumerate() {
            live.qload[w] = q.iter().map(|&i| costs[i]).sum();
        }
    }
    // Nonempty-queue counters per domain — O(1) "who still has work"
    // answers instead of O(P) scans per steal attempt.
    let level_sizes: Vec<usize> = levels.iter().map(|&(s, _)| s).collect();
    let mut tracker = WorkTracker::new(p, &level_sizes);
    for (w, q) in queues.iter().enumerate() {
        tracker.update(w, !q.is_empty());
    }
    let mut stats = FaultStats::default();
    let mut orphan_death = vec![f64::NAN; if failures { n } else { 0 }];
    // Pending redistributions `(due time, batch serial, orphans)`,
    // sorted by descending key so the earliest batch pops from the
    // back; the serial keeps same-time batches in death order.
    let mut redis: Vec<(f64, u64, Vec<usize>)> = Vec::new();
    let mut redis_ser = 0u64;
    let mut backoff_k = vec![0u32; p];
    // Stolen tasks in transit to each thief: they leave the victim's
    // queue at the steal decision but only become visible (and
    // stealable again) when the thief's arrival event fires. Without
    // this, two idle workers can pass the last task back and forth
    // forever, each re-stealing it before the other's arrival event
    // executes it — a deterministic livelock.
    let mut fly: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut flying = 0usize;

    let mut remaining = n;
    let mut ledger = Ledger::new(n, cfg);
    // Per-worker "hunting for work" state, for event emission only
    // (IdleStart on entering the hunt, StealSuccess/IdleEnd on leaving).
    let mut hunting = vec![false; p];
    let mut steals = 0u64;
    let mut attempts = 0u64;
    let mut makespan = 0.0f64;
    let mut rng = SplitMix::new(cfg.seed);
    // Round-robin victim selection scans per-worker (no RNG draw).
    let mut rr_attempts = vec![0u64; p];
    let mut fate = SplitMix::new(plan.seed ^ 0x0bad_cafe);

    let mut q = EventQueue::with_capacity(cfg.queue, p);
    for w in 0..p {
        q.push(0.0, w);
    }

    // One exponential-backoff wait after the k-th consecutive failure.
    let backoff = |k: u32| -> f64 {
        if plan.backoff_base <= 0.0 || k == 0 {
            0.0
        } else {
            (plan.backoff_base * plan.backoff_factor.powi(k as i32 - 1)).min(plan.backoff_max)
        }
    };

    while let Some((t, w)) = q.pop() {
        if failures {
            live.run_detections(t);
            // Redistribute any orphan batch whose detection time has
            // passed.
            while redis.last().is_some_and(|&(due, _, _)| due <= t) {
                let (_, _, orphans) = redis.pop().expect("checked non-empty");
                if live.alive_now.is_empty() {
                    continue; // unreachable: the popped worker is alive
                }
                stats.detected += 1;
                let weights: Vec<f64> = orphans.iter().map(|&i| costs[i]).collect();
                let loads: Vec<f64> = live.alive_now.iter().map(|&s| live.qload[s]).collect();
                let assign = assign_orphans(&weights, &loads, plan.recovery);
                for (k, &i) in orphans.iter().enumerate() {
                    let s = live.alive_now[assign[k]];
                    queues[s].push_back(i);
                    live.qload[s] += costs[i];
                    tracker.update(s, true);
                }
            }
            if live.dead[w] {
                continue;
            }
        }
        // Land any stolen haul that rode this worker's arrival event.
        // Landing precedes the death check so a thief killed mid-return
        // orphans the haul with the rest of its queue.
        if !fly[w].is_empty() {
            flying -= fly[w].len();
            for i in std::mem::take(&mut fly[w]) {
                if failures {
                    live.qload[w] += costs[i];
                }
                queues[w].push_back(i);
            }
            tracker.update(w, true);
        }
        let next = queues[w]
            .pop_front()
            .map(|i| (i, stretched(costs[i], w, t, cfg) + m.dispatch_overhead));
        let dies = if failures { death[w] } else { None };
        if let Some(dt) = dies.filter(|&dt| t >= dt || next.is_some_and(|(_, d)| t + d > dt)) {
            // Fail-stop, idle or mid-task: partial progress is lost, the
            // task rejoins the queue, and the queue is frozen and
            // orphaned; survivors redistribute it after the detection
            // interval.
            if let Some((i, _)) = next {
                ledger.busy[w] += (dt - t).max(0.0);
                queues[w].push_front(i);
            }
            die(
                w,
                dt,
                &mut live,
                &mut tracker,
                &mut queues,
                &mut orphan_death,
                &mut redis,
                &mut redis_ser,
                &mut stats,
                plan,
            );
            continue;
        }
        if let Some((i, dur)) = next {
            tracker.update(w, !queues[w].is_empty());
            ledger.run(w, i, t, dur);
            remaining -= 1;
            makespan = makespan.max(t + dur);
            if failures {
                live.qload[w] -= costs[i];
                if !orphan_death[i].is_nan() {
                    stats.recovered += 1;
                    stats.recovery_latency.push(t + dur - orphan_death[i]);
                }
            }
            backoff_k[w] = 0;
            q.push(t + dur, w);
            continue;
        }
        if !tracker.any() && redis.is_empty() && flying == 0 {
            // Nothing left to run or steal: every task has started, or
            // the rest died with no survivor to hand them to. Retire
            // instead of spinning forever on silent victims.
            if hunting[w] {
                ledger.event(w, EventKind::IdleEnd, 0, t);
                hunting[w] = false;
            }
            continue;
        }
        if !hunting[w] {
            ledger.event(w, EventKind::IdleStart, 0, t);
            hunting[w] = true;
        }
        attempts += 1;
        // Innermost locality domain that still holds work, if any: draw
        // a uniform victim there at the level's discounted latency.
        let mut pick: Option<(usize, f64)> = None;
        for (l, &(size, factor)) in levels.iter().enumerate() {
            let lo = w / size * size;
            let hi = (lo + size).min(p);
            if hi - lo > 1 && tracker.domain_has_work(l, w) {
                let span = hi - lo - 1;
                let mut v = lo + (rng.next() as usize) % span;
                if v >= w {
                    v += 1;
                }
                pick = Some((v, m.steal_latency / factor));
                break;
            }
        }
        // Otherwise a global draw over the ranks believed alive (every
        // rank while none can die; dead ranks keep getting hit until
        // their death is detected — those requests time out below).
        let (victim, latency) = pick.unwrap_or_else(|| {
            let (me, k) = if failures {
                (live.alive_pos[w], live.alive.len())
            } else {
                (w, p)
            };
            let v = if k < 2 {
                me
            } else {
                match victim_policy {
                    VictimPolicy::Random => random_victim(rng.next(), me, k),
                    VictimPolicy::RoundRobin => {
                        let v = round_robin_victim(me, rr_attempts[w], k);
                        rr_attempts[w] += 1;
                        v
                    }
                }
            };
            (if failures { live.alive[v] } else { v }, m.steal_latency)
        });
        ledger.event(w, EventKind::StealAttempt, victim as u64, t);
        // Transient faults on the steal request, and dead victims: no
        // response ever comes, and the thief abandons the round trip
        // after the timeout.
        let mut t_resolved = t + latency;
        let mut timed_out = false;
        if plan.drop_prob > 0.0 && fate.unit() < plan.drop_prob {
            stats.dropped_messages += 1;
            stats.injected += 1;
            timed_out = true;
        } else {
            if plan.delay_prob > 0.0 && fate.unit() < plan.delay_prob {
                stats.delayed_messages += 1;
                stats.injected += 1;
                t_resolved += plan.delay;
            }
            if failures && victim != w && death[victim].is_some_and(|dt| dt <= t_resolved) {
                stats.rpc_timeouts += 1;
                timed_out = true;
            }
        }
        let qlen = queues[victim].len();
        if !timed_out && victim != w && qlen > 0 {
            let take = if steal_half { qlen.div_ceil(2) } else { 1 };
            // Steal from the back (cold end), like Chase–Lev thieves.
            // The haul rides the return trip: it lands at the arrival
            // event, not in the thief's queue now.
            for _ in 0..take {
                if let Some(task) = queues[victim].pop_back() {
                    fly[w].push(task);
                    flying += 1;
                    if failures {
                        live.qload[victim] -= costs[task];
                    }
                }
            }
            tracker.update(victim, !queues[victim].is_empty());
            steals += 1;
            ledger.event(w, EventKind::StealSuccess, victim as u64, t_resolved);
            hunting[w] = false;
            backoff_k[w] = 0;
            q.push(t_resolved + take as f64 * m.steal_transfer, w);
            continue;
        }
        // Failed attempt.
        let failed_at = if timed_out {
            t + plan.rpc_timeout
        } else {
            t_resolved
        };
        ledger.event(w, EventKind::StealFail, victim as u64, failed_at);
        // Back off, but never retry an answered probe earlier than the
        // next event (or the next pending redistribution, which may be
        // the only future work source), so zero-latency machines cannot
        // livelock at a frozen timestamp.
        backoff_k[w] += 1;
        let mut retry = failed_at + backoff(backoff_k[w]);
        if !timed_out {
            retry = retry.max(q.peek_time().unwrap_or(t_resolved));
            if retry <= t {
                if let Some(&(due, _, _)) = redis.last() {
                    retry = retry.max(due);
                }
            }
        }
        q.push(retry, w);
    }

    stats.lost = remaining as u64;
    FaultReport {
        sim: ledger.report(makespan, steals, attempts, 0),
        faults: stats,
    }
}

/// Processes a fail-stop of `w` at `dt` in the stealing loop: freezes
/// the rank, orphans its queue, drops it from the survivor set, and
/// schedules both redistribution and thief-side detection after the
/// detection interval.
#[allow(clippy::too_many_arguments)]
fn die(
    w: usize,
    dt: f64,
    live: &mut Liveness,
    tracker: &mut WorkTracker,
    queues: &mut [VecDeque<usize>],
    orphan_death: &mut [f64],
    redis: &mut Vec<(f64, u64, Vec<usize>)>,
    redis_ser: &mut u64,
    stats: &mut FaultStats,
    plan: &FaultPlan,
) {
    live.dead[w] = true;
    stats.injected += 1;
    let orphans: Vec<usize> = std::mem::take(&mut queues[w]).into();
    live.qload[w] = 0.0;
    tracker.update(w, false);
    let pos = live
        .alive_now
        .binary_search(&w)
        .expect("dying rank is alive");
    live.alive_now.remove(pos);
    let due = dt + plan.detection_interval;
    let pos = live.detect.partition_point(|&(d, _)| d > due);
    live.detect.insert(pos, (due, w));
    stats.orphaned += orphans.len() as u64;
    for &i in &orphans {
        orphan_death[i] = dt;
    }
    if !orphans.is_empty() {
        let ser = *redis_ser;
        *redis_ser += 1;
        let pos = redis.partition_point(|&(d, s, _)| (d, s) > (due, ser));
        redis.insert(pos, (due, ser, orphans));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::sim::simulate;

    fn block_assignment(n: usize, p: usize) -> Vec<u32> {
        (0..n)
            .map(|i| emx_runtime::block_owner(i, n, p) as u32)
            .collect()
    }

    fn skewed(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64 * 1e-4).collect()
    }

    fn all_models(n: usize, p: usize) -> Vec<SimModel> {
        vec![
            SimModel::Static(block_assignment(n, p)),
            SimModel::Counter { chunk: 4 },
            SimModel::Guided { min_chunk: 2 },
            SimModel::GroupCounters {
                groups: 2,
                chunk: 4,
            },
            SimModel::WorkStealing { steal_half: true },
            SimModel::SeededStealing {
                owners: block_assignment(n, p),
                steal_half: false,
            },
            SimModel::HierarchicalStealing {
                steal_half: true,
                node_size: 2,
                remote_factor: 4.0,
            },
            SimModel::HierCounters {
                chunk: 2,
                node_size: 2,
                parent_chunk: 8,
            },
            SimModel::TopologyStealing { steal_half: true },
        ]
    }

    /// Fail-stop of two ranks plus lossy, late messages.
    fn chaos_plan(costs: &[f64], p: usize) -> FaultPlan {
        let total: f64 = costs.iter().sum();
        FaultPlan::fault_free()
            .with_rank_failure(1, 0.1 * total / p as f64)
            .with_rank_failure(4, 0.3 * total / p as f64)
            .with_message_faults(0.1, 0.1, 20e-6)
            .with_backoff(10e-6, 2.0, 1e-3)
    }

    #[test]
    fn fault_runs_record_the_completing_worker_of_every_task() {
        let costs = skewed(90);
        let p = 6;
        let cfg = SimConfig::new(p);
        let plan = chaos_plan(&costs, p);
        for model in all_models(90, p) {
            let r = simulate_with_faults(&costs, &model, &cfg, &plan);
            assert!(
                r.faults.orphaned > 0,
                "{}: the plan must bite",
                model.name()
            );
            assert_eq!(r.sim.assignment.len(), 90, "{}", model.name());
            let mut histogram = vec![0usize; p];
            for &w in r.sim.assignment.iter().filter(|&&w| w != u32::MAX) {
                histogram[w as usize] += 1;
            }
            assert_eq!(histogram, r.sim.tasks, "{}", model.name());
            let unowned = r.sim.assignment.iter().filter(|&&w| w == u32::MAX).count();
            assert_eq!(unowned as u64, r.faults.lost, "{}", model.name());
        }
    }

    #[test]
    fn fault_runs_pair_every_task_start_with_its_end() {
        let costs = skewed(90);
        let p = 6;
        let cfg = SimConfig {
            events: true,
            ..SimConfig::new(p)
        };
        let plan = chaos_plan(&costs, p);
        for model in all_models(90, p) {
            let r = simulate_with_faults(&costs, &model, &cfg, &plan);
            let mut ends = 0;
            for stream in &r.sim.events {
                let mut open: Option<u64> = None;
                for e in stream {
                    match e.kind {
                        EventKind::TaskStart => {
                            assert_eq!(open, None, "{}: nested task", model.name());
                            open = Some(e.arg);
                        }
                        EventKind::TaskEnd => {
                            assert_eq!(open.take(), Some(e.arg), "{}", model.name());
                            ends += 1;
                        }
                        _ => {}
                    }
                }
                assert_eq!(open, None, "{}: unclosed task", model.name());
            }
            assert_eq!(ends, r.sim.tasks.iter().sum::<usize>(), "{}", model.name());
        }
    }

    #[test]
    fn task_killed_mid_run_emits_no_event_pair() {
        // Worker 1 owns tasks 8..16, finishes two, and dies 0.5 s into
        // the third: its stream holds exactly the two completed pairs.
        let costs = vec![1.0; 32];
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            events: true,
            ..SimConfig::new(4)
        };
        let plan = FaultPlan::fault_free().with_rank_failure(1, 2.5);
        let model = SimModel::Static(block_assignment(32, 4));
        let r = simulate_with_faults(&costs, &model, &cfg, &plan);
        let args: Vec<(EventKind, u64)> = r.sim.events[1].iter().map(|e| (e.kind, e.arg)).collect();
        assert_eq!(
            args,
            vec![
                (EventKind::TaskStart, 8),
                (EventKind::TaskEnd, 8),
                (EventKind::TaskStart, 9),
                (EventKind::TaskEnd, 9),
            ]
        );
        assert_ne!(r.sim.assignment[10], 1, "the killed task ran elsewhere");
    }

    #[test]
    fn fail_stop_recovers_all_orphans_under_every_model() {
        let costs = skewed(96);
        let p = 6;
        let cfg = SimConfig::new(p);
        // Kill rank 3 early enough that it still holds work everywhere.
        let total: f64 = costs.iter().sum();
        let at = 0.2 * total / p as f64;
        for policy in [
            RecoveryPolicy::BlockSurvivors,
            RecoveryPolicy::SemiMatching,
            RecoveryPolicy::Persistence,
        ] {
            for model in all_models(96, p) {
                let plan = FaultPlan::fault_free()
                    .with_rank_failure(3, at)
                    .with_recovery(policy);
                let r = simulate_with_faults(&costs, &model, &cfg, &plan);
                assert_eq!(r.faults.lost, 0, "{} {}", model.name(), policy.name());
                assert_eq!(
                    r.faults.recovered,
                    r.faults.orphaned,
                    "{} {}",
                    model.name(),
                    policy.name()
                );
                assert_eq!(
                    r.sim.tasks.iter().sum::<usize>(),
                    96,
                    "{} {}: work not conserved",
                    model.name(),
                    policy.name()
                );
                assert!(r.sim.tasks[3] < 96);
                assert_eq!(
                    r.faults.recovery_latency.len() as u64,
                    r.faults.recovered,
                    "{}",
                    model.name()
                );
                assert!(
                    r.faults
                        .recovery_latency
                        .iter()
                        .all(|&l| l >= plan.detection_interval),
                    "{}: recovery cannot precede detection",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn static_fail_stop_orphans_the_residual_list() {
        let costs = vec![1.0; 32];
        let p = 4;
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(p)
        };
        // Worker 1 owns tasks 8..16 and dies after ~2 of them.
        let plan = FaultPlan::fault_free().with_rank_failure(1, 2.5);
        let r = simulate_with_faults(
            &costs,
            &SimModel::Static(block_assignment(32, p)),
            &cfg,
            &plan,
        );
        // 2 done before death, the in-flight third loses progress: 6 orphans.
        assert_eq!(r.faults.orphaned, 6);
        assert_eq!(r.faults.recovered, 6);
        assert_eq!(r.sim.tasks[1], 2);
        assert!(r.sim.makespan > 8.0, "survivors absorb the orphans");
    }

    #[test]
    fn fully_dead_group_orphans_its_range_to_other_groups() {
        // Workers 0,1 form group 0 (range 0..20), workers 2,3 group 1
        // (range 20..40). Killing all of group 0 must orphan group 0's
        // unclaimed range onto the global recovery queue — survivors in
        // group 1 finish it, so nothing is lost.
        let costs = vec![1.0; 40];
        let p = 4;
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(p)
        };
        let plan = FaultPlan::fault_free()
            .with_rank_failure(0, 2.5)
            .with_rank_failure(1, 2.5);
        let model = SimModel::GroupCounters {
            groups: 2,
            chunk: 2,
        };
        let r = simulate_with_faults(&costs, &model, &cfg, &plan);
        assert_eq!(r.faults.lost, 0, "dead group's range must be recovered");
        assert_eq!(r.faults.recovered, r.faults.orphaned);
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 40);
        assert!(
            r.sim.tasks[0] + r.sim.tasks[1] < 20,
            "group 0 died before finishing its range"
        );
        assert!(
            r.sim.tasks[2] + r.sim.tasks[3] > 20,
            "group 1 survivors must absorb group 0's residual work"
        );
    }

    #[test]
    fn counter_outage_stalls_then_fails_over() {
        let costs = vec![1e-3; 64];
        let cfg = SimConfig::new(4);
        let baseline = simulate(&costs, &SimModel::Counter { chunk: 2 }, &cfg);
        let plan = FaultPlan::fault_free().with_counter_outage(baseline.makespan * 0.3, 5e-3);
        let r = simulate_with_faults(&costs, &SimModel::Counter { chunk: 2 }, &cfg, &plan);
        assert_eq!(r.faults.counter_failovers, 1);
        assert_eq!(r.faults.lost, 0);
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 64);
        assert!(
            r.sim.makespan > baseline.makespan,
            "outage must cost time: {} vs {}",
            r.sim.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn message_drops_retry_until_done() {
        let costs = skewed(64);
        let cfg = SimConfig::new(4);
        for model in [
            SimModel::Counter { chunk: 2 },
            SimModel::WorkStealing { steal_half: true },
        ] {
            let plan = FaultPlan::fault_free().with_message_faults(0.3, 0.2, 50e-6);
            let r = simulate_with_faults(&costs, &model, &cfg, &plan);
            assert!(r.faults.dropped_messages > 0, "{}", model.name());
            assert!(r.faults.delayed_messages > 0, "{}", model.name());
            assert_eq!(r.faults.lost, 0, "{}", model.name());
            assert_eq!(r.sim.tasks.iter().sum::<usize>(), 64, "{}", model.name());
        }
    }

    #[test]
    fn dead_victim_steals_time_out_with_backoff() {
        let costs = skewed(64);
        let p = 4;
        let cfg = SimConfig::new(p);
        let total: f64 = costs.iter().sum();
        let mut plan = FaultPlan::fault_free()
            .with_rank_failure(2, 0.15 * total / p as f64)
            .with_backoff(20e-6, 2.0, 1e-3);
        // Slow detector: the dead rank stays in the thieves'
        // believed-alive victim set for the whole stealing phase, so
        // requests keep hitting it and timing out. (Once a death is
        // detected, thieves drop the rank and stop paying timeouts.)
        plan.detection_interval = 0.5;
        let r = simulate_with_faults(
            &costs,
            &SimModel::WorkStealing { steal_half: true },
            &cfg,
            &plan,
        );
        assert!(r.faults.rpc_timeouts > 0, "thieves must hit the dead rank");
        assert_eq!(r.faults.lost, 0);
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 64);
    }

    #[test]
    fn endgame_steal_ping_pong_terminates() {
        // Two of four ranks die early, leaving two idle survivors and a
        // dwindling task supply. With instantaneous steals the last
        // task used to bounce between the survivors forever — each
        // re-stole it from the other's queue before the other's arrival
        // event could execute it. In-flight hauls (tasks invisible
        // between the steal decision and the thief's arrival) make that
        // livelock structurally impossible; this pins the exact wedged
        // configuration from the fault-matrix verifier.
        let costs: Vec<f64> = (0..48)
            .map(|i| 1e-6 * (1.0 + (48 - i) as f64 / 8.0))
            .collect();
        let mut plan = FaultPlan::fault_free()
            .with_rank_failure(1, 2e-6)
            .with_rank_failure(3, 4e-6)
            .with_recovery(RecoveryPolicy::BlockSurvivors);
        plan.rpc_timeout = 50e-6;
        let cfg = SimConfig::new(4);
        let r = simulate_with_faults(
            &costs,
            &SimModel::WorkStealing { steal_half: true },
            &cfg,
            &plan,
        );
        assert_eq!(r.faults.lost, 0, "survivors must finish every task");
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 48);
    }

    #[test]
    fn all_ranks_dead_terminates_and_counts_lost() {
        let costs = vec![1.0; 40];
        let p = 4;
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(p)
        };
        let mut plan = FaultPlan::fault_free();
        for w in 0..p {
            plan = plan.with_rank_failure(w, 2.5);
        }
        for model in all_models(40, p) {
            let r = simulate_with_faults(&costs, &model, &cfg, &plan);
            let done = r.sim.tasks.iter().sum::<usize>();
            assert!(done < 40, "{}: nobody survives to finish", model.name());
            assert_eq!(r.faults.lost as usize, 40 - done, "{}", model.name());
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let costs = skewed(80);
        let cfg = SimConfig::new(5);
        let plan = FaultPlan::fault_free()
            .with_rank_failure(1, 0.01)
            .with_message_faults(0.1, 0.1, 20e-6)
            .with_backoff(10e-6, 2.0, 1e-3);
        for model in all_models(80, 5) {
            let a = simulate_with_faults(&costs, &model, &cfg, &plan);
            let b = simulate_with_faults(&costs, &model, &cfg, &plan);
            assert_eq!(a.sim.makespan, b.sim.makespan, "{}", model.name());
            assert_eq!(a.faults.recovered, b.faults.recovered, "{}", model.name());
            assert_eq!(
                a.faults.dropped_messages,
                b.faults.dropped_messages,
                "{}",
                model.name()
            );
        }
    }

    #[test]
    fn publish_metrics_snapshot_contains_fault_series() {
        let costs = skewed(48);
        let cfg = SimConfig::new(4);
        let plan = FaultPlan::fault_free().with_rank_failure(1, 1e-4);
        let r = simulate_with_faults(
            &costs,
            &SimModel::WorkStealing { steal_half: true },
            &cfg,
            &plan,
        );
        let metrics = MetricsRegistry::new();
        publish_fault_metrics(&metrics, "distsim.faults", &r);
        let snap = metrics.snapshot();
        assert!(snap.iter().any(|e| e.name == "distsim.faults.injected"));
        assert!(snap
            .iter()
            .any(|e| e.name == "distsim.faults.recovery_latency"));
    }

    #[test]
    fn coincident_fault_free_fetches_round_robin_instead_of_starving() {
        // On an ideal machine with zero-cost tasks every fetch response
        // lands at t = 0. The old `(time, worker)` heap key re-popped
        // worker 0 forever, handing it the whole range; insertion order
        // must round-robin the workers instead, through the public
        // fault entry point as well as through `simulate`.
        let costs = vec![0.0; 12];
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(4)
        };
        let r = simulate_with_faults(
            &costs,
            &SimModel::Counter { chunk: 1 },
            &cfg,
            &FaultPlan::fault_free(),
        );
        assert_eq!(r.sim.tasks, vec![3, 3, 3, 3]);
    }

    #[test]
    fn ten_thousand_ranks_with_half_failing_finish_without_blowup() {
        // Scale regression for the fault path: 10⁴ ranks, every even
        // rank fail-stops early, survivors absorb the orphans. The old
        // implementation rescanned all P queues per steal attempt and
        // rebuilt the survivor list per redistribution, which is
        // quadratic here; the tracker/liveness structures must keep
        // this a seconds-scale run even in debug builds.
        let p = 10_000;
        let n = 2 * p;
        let costs: Vec<f64> = (0..n).map(|i| ((i * 13) % 7 + 1) as f64 * 1e-4).collect();
        let mut cfg = SimConfig::new(p);
        cfg.machine.topology = Some(crate::machine::Topology::default());
        let mut plan = FaultPlan::fault_free().with_recovery(RecoveryPolicy::BlockSurvivors);
        for w in (0..p).step_by(2) {
            plan = plan.with_rank_failure(w, 1e-4 + w as f64 * 1e-8);
        }
        let t0 = std::time::Instant::now();
        let r = simulate_with_faults(
            &costs,
            &SimModel::TopologyStealing { steal_half: true },
            &cfg,
            &plan,
        );
        let elapsed = t0.elapsed();
        assert_eq!(r.faults.injected, (p / 2) as u64);
        assert_eq!(r.faults.lost, 0, "survivors must finish every task");
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), n);
        assert!((0..p).step_by(2).all(|w| r.sim.tasks[w] * 50 < n));
        assert!(
            elapsed < std::time::Duration::from_secs(90),
            "fault-path scale regression: {elapsed:?}"
        );
    }

    #[test]
    fn recovery_policies_land_orphans_on_distinct_survivor_sets() {
        // Sanity on assign_orphans itself: everything in range, and the
        // balanced policies spread load better than a single survivor.
        let weights: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let loads = vec![5.0, 0.0, 30.0];
        for policy in [
            RecoveryPolicy::BlockSurvivors,
            RecoveryPolicy::SemiMatching,
            RecoveryPolicy::Persistence,
        ] {
            let a = assign_orphans(&weights, &loads, policy);
            assert_eq!(a.len(), 20);
            assert!(a.iter().all(|&s| s < 3), "{}", policy.name());
            assert!(
                a.iter().collect::<std::collections::HashSet<_>>().len() > 1,
                "{} uses more than one survivor",
                policy.name()
            );
        }
    }
}
