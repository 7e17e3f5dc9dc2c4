//! Calendar-vs-heap oracle equivalence.
//!
//! The simulator's production event core is a bucketed calendar queue;
//! the binary heap is retained as the ordering oracle. Because every
//! event is keyed `(time, insertion sequence)` and both backends pop
//! the same total order, a simulation must be **bitwise identical**
//! under either backend — makespan to the last ULP, every per-worker
//! series, every trace, every profiling event, and all fault
//! accounting. This matrix pins that across the full policy roster,
//! fault scenarios, seeds, and scales (including coincident-timestamp
//! regimes on the ideal machine, where the old per-site heap keys
//! diverged).

use emx_distsim::machine::MachineModel;
use emx_distsim::prelude::*;
use emx_distsim::sim::SimModel;

fn roster(n: usize, p: usize) -> Vec<SimModel> {
    let owners: Vec<u32> = (0..n).map(|i| (i * p / n.max(1)) as u32).collect();
    vec![
        SimModel::Static(owners.clone()),
        SimModel::Counter { chunk: 3 },
        SimModel::Guided { min_chunk: 2 },
        SimModel::GroupCounters {
            groups: 2,
            chunk: 3,
        },
        SimModel::HierCounters {
            chunk: 2,
            node_size: 4,
            parent_chunk: 8,
        },
        SimModel::WorkStealing { steal_half: true },
        SimModel::SeededStealing {
            owners,
            steal_half: false,
        },
        SimModel::HierarchicalStealing {
            steal_half: true,
            node_size: 4,
            remote_factor: 4.0,
        },
        SimModel::TopologyStealing { steal_half: true },
    ]
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{label}: makespan diverged"
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.busy), bits(&b.busy), "{label}: busy diverged");
    assert_eq!(a.tasks, b.tasks, "{label}: task counts diverged");
    assert_eq!(a.steals, b.steals, "{label}: steals diverged");
    assert_eq!(
        a.steal_attempts, b.steal_attempts,
        "{label}: attempts diverged"
    );
    assert_eq!(
        a.counter_fetches, b.counter_fetches,
        "{label}: fetches diverged"
    );
    assert_eq!(a.assignment, b.assignment, "{label}: assignment diverged");
    assert_eq!(a.traces.len(), b.traces.len(), "{label}: trace shape");
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        let spans = |t: &[(f64, f64)]| {
            t.iter()
                .map(|&(s, e)| (s.to_bits(), e.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(spans(ta), spans(tb), "{label}: traces diverged");
    }
    assert_eq!(a.events, b.events, "{label}: event streams diverged");
}

fn run_pair(costs: &[f64], model: &SimModel, cfg: &SimConfig, label: &str) {
    let mut cal_cfg = cfg.clone();
    cal_cfg.queue = QueueKind::Calendar;
    let mut heap_cfg = cfg.clone();
    heap_cfg.queue = QueueKind::Heap;
    let a = simulate(costs, model, &cal_cfg);
    let b = simulate(costs, model, &heap_cfg);
    assert_reports_identical(&a, &b, label);
}

#[test]
fn healthy_roster_is_bitwise_identical_across_backends() {
    let n = 160;
    for p in [4, 16, 64] {
        for seed in [1u64, 0xdecaf, 0xffff_ffff_0000_0001] {
            let costs: Vec<f64> = (0..n).map(|i| ((i * 29) % 13 + 1) as f64 * 1e-5).collect();
            for model in roster(n, p) {
                let mut cfg = SimConfig::new(p);
                cfg.seed = seed;
                cfg.trace = true;
                cfg.events = true;
                cfg.machine.topology = Some(Topology::default());
                run_pair(
                    &costs,
                    &model,
                    &cfg,
                    &format!("{} p={p} seed={seed:#x}", model.name()),
                );
            }
        }
    }
}

#[test]
fn coincident_timestamp_regime_is_bitwise_identical() {
    // Zero-cost tasks on the ideal machine put every event at t = 0 —
    // the regime where tie-breaking decides the whole schedule.
    let costs = vec![0.0; 96];
    for model in roster(96, 8) {
        let mut cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(8)
        };
        cfg.trace = true;
        cfg.events = true;
        run_pair(&costs, &model, &cfg, &format!("ideal {}", model.name()));
    }
}

#[test]
fn cluster_scale_roster_is_bitwise_identical_across_backends() {
    // Hundreds of ranks with sub-microsecond costs drive the calendar
    // through thousands of sweep windows per run — the regime where an
    // accumulated floating-point window bound drifts from the
    // push-side bucket placement by ULPs and reorders events (the
    // historical divergence this test pins; membership is now decided
    // by the same `vbucket` computation that placed the event).
    let p = 256;
    let n = 2 * p;
    let costs: Vec<f64> = (0..n).map(|i| ((i * 13) % 7 + 1) as f64 * 1e-6).collect();
    for model in roster(n, p) {
        let mut cfg = SimConfig::new(p);
        cfg.machine = MachineModel::with_topology();
        run_pair(&costs, &model, &cfg, &format!("cluster {}", model.name()));
    }
}

#[test]
fn speculative_policy_is_bitwise_identical_across_backends() {
    // The Block-STM-style model runs through `simulate_policy`, not the
    // `SimModel` enum — cover its claim/validate event loop too.
    let costs: Vec<f64> = (0..128).map(|i| ((i * 7) % 5 + 1) as f64 * 1e-5).collect();
    let kind = PolicyKind::Speculative(emx_sched::SpecConfig {
        rng_seed: 0x5bec,
        conflict_pct: 25,
        window: 6,
    });
    let mut cal_cfg = SimConfig::new(8);
    cal_cfg.trace = true;
    cal_cfg.events = true;
    let mut heap_cfg = cal_cfg.clone();
    cal_cfg.queue = QueueKind::Calendar;
    heap_cfg.queue = QueueKind::Heap;
    let a = simulate_policy(&costs, &kind, &cal_cfg);
    let b = simulate_policy(&costs, &kind, &heap_cfg);
    assert_reports_identical(&a, &b, "speculative");
}

#[test]
fn faulty_roster_is_bitwise_identical_across_backends() {
    let n = 120;
    let p = 6;
    let costs: Vec<f64> = (1..=n).map(|i| i as f64 * 1e-5).collect();
    let total: f64 = costs.iter().sum();
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("fault-free", FaultPlan::fault_free()),
        (
            "fail-stop",
            FaultPlan::fault_free()
                .with_rank_failure(3, 0.2 * total / p as f64)
                .with_recovery(RecoveryPolicy::BlockSurvivors),
        ),
        (
            "messages",
            FaultPlan::fault_free().with_message_faults(0.2, 0.2, 30e-6),
        ),
        (
            "combined",
            FaultPlan::fault_free()
                .with_rank_failure(1, 0.1 * total / p as f64)
                .with_rank_failure(4, 0.3 * total / p as f64)
                .with_message_faults(0.1, 0.1, 20e-6)
                .with_backoff(10e-6, 2.0, 1e-3)
                .with_recovery(RecoveryPolicy::SemiMatching),
        ),
    ];
    for (pname, plan) in &plans {
        for model in roster(n, p) {
            let mut cal_cfg = SimConfig::new(p);
            cal_cfg.trace = true;
            cal_cfg.machine.topology = Some(Topology::default());
            let mut heap_cfg = cal_cfg.clone();
            cal_cfg.queue = QueueKind::Calendar;
            heap_cfg.queue = QueueKind::Heap;
            let a = simulate_with_faults(&costs, &model, &cal_cfg, plan);
            let b = simulate_with_faults(&costs, &model, &heap_cfg, plan);
            let label = format!("{} under {pname}", model.name());
            assert_reports_identical(&a.sim, &b.sim, &label);
            assert_eq!(a.faults.injected, b.faults.injected, "{label}: injected");
            assert_eq!(a.faults.orphaned, b.faults.orphaned, "{label}: orphaned");
            assert_eq!(a.faults.recovered, b.faults.recovered, "{label}: recovered");
            assert_eq!(a.faults.lost, b.faults.lost, "{label}: lost");
            assert_eq!(
                a.faults.rpc_timeouts, b.faults.rpc_timeouts,
                "{label}: timeouts"
            );
            let lat = |f: &FaultStats| {
                f.recovery_latency
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(lat(&a.faults), lat(&b.faults), "{label}: recovery latency");
        }
    }
}

/// FNV-1a over a stream of 64-bit words — a hash with a fixed
/// definition, so pinned digests stay valid across toolchains.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every field of a report: makespan and busy bits, task
/// counts, steal/attempt/fetch counters, assignment, traces and events.
fn report_digest(r: &SimReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(r.makespan.to_bits());
    for xs in [&r.busy, &r.comm] {
        h.word(xs.len() as u64);
        xs.iter().for_each(|x| h.word(x.to_bits()));
    }
    h.word(r.tasks.len() as u64);
    r.tasks.iter().for_each(|&t| h.word(t as u64));
    h.word(r.steals);
    h.word(r.steal_attempts);
    h.word(r.counter_fetches);
    h.word(r.assignment.len() as u64);
    r.assignment.iter().for_each(|&w| h.word(u64::from(w)));
    h.word(r.traces.len() as u64);
    for t in &r.traces {
        h.word(t.len() as u64);
        for &(s, e) in t {
            h.word(s.to_bits());
            h.word(e.to_bits());
        }
    }
    h.word(r.events.len() as u64);
    for stream in &r.events {
        h.word(stream.len() as u64);
        for e in stream {
            h.word(e.kind as u64);
            h.word(e.arg);
            h.word(e.t_ns);
        }
    }
    h.0
}

/// The golden cells: the nine models through `simulate`, plus the
/// registry policies the `SimModel` enum cannot express (guided-adaptive,
/// round-robin victims, a cyclic-seeded stealing policy) through
/// `simulate_policy`, at three scales and two victim seeds, with traces
/// and events on under time-varying speed.
fn golden_cells() -> Vec<(String, SimReport)> {
    use emx_runtime::Variability;
    use emx_sched::{SeedPartition, StealConfig, VictimPolicy};
    use std::time::Duration;
    let mut out = Vec::new();
    for p in [1usize, 8, 10_000] {
        let n = if p == 1 { 40 } else { 3 * p };
        let costs: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 23 + 1) as f64 * 1e-6 + (i % 5) as f64 * 3e-7)
            .collect();
        let policies = [
            PolicyKind::GuidedAdaptive { k: 3, min_chunk: 1 },
            PolicyKind::WorkStealing(StealConfig {
                victim: VictimPolicy::RoundRobin,
                ..StealConfig::default()
            }),
            PolicyKind::WorkStealing(StealConfig {
                seed: SeedPartition::Cyclic,
                steal_batch: false,
                ..StealConfig::default()
            }),
        ];
        for seed in [0xd15c_u64, 0x5eed_0002] {
            let mut cfg = SimConfig::new(p);
            cfg.machine = MachineModel::with_topology();
            cfg.variability = Variability::Sinusoidal {
                amplitude: 0.5,
                period: Duration::from_micros(40),
            };
            cfg.seed = seed;
            cfg.trace = true;
            cfg.events = true;
            for model in roster(n, p) {
                let label = format!("{} p={p} seed={seed:#x}", model.name());
                out.push((label, simulate(&costs, &model, &cfg)));
            }
            for (k, kind) in policies.iter().enumerate() {
                let label = format!("policy{k}:{} p={p} seed={seed:#x}", kind.name());
                out.push((label, simulate_policy(&costs, kind, &cfg)));
            }
        }
    }
    out
}

/// Digests of [`golden_cells`], recorded from the dedicated fault-free
/// loops that `simulate` ran before it became the fault-free case of
/// the fault loops. Any change to a fault-free report — one event, one
/// ULP — breaks the pin.
const GOLDEN: &[(&str, u64)] = &[
    ("static p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    ("counter p=1 seed=0xd15c", 0xecb049be8a965043),
    ("guided p=1 seed=0xd15c", 0x84704b2b0a6f228f),
    ("group-counters p=1 seed=0xd15c", 0xecb049be8a965043),
    ("hier-counters p=1 seed=0xd15c", 0xd58e9d5a77476991),
    ("work-stealing p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    ("seeded-stealing p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    ("hier-stealing p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    ("topo-stealing p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    (
        "policy0:guided-adaptive p=1 seed=0xd15c",
        0x87f054273172984d,
    ),
    ("policy1:work-stealing p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    ("policy2:work-stealing p=1 seed=0xd15c", 0xdc75933cca8a6e75),
    ("static p=1 seed=0x5eed0002", 0xdc75933cca8a6e75),
    ("counter p=1 seed=0x5eed0002", 0xecb049be8a965043),
    ("guided p=1 seed=0x5eed0002", 0x84704b2b0a6f228f),
    ("group-counters p=1 seed=0x5eed0002", 0xecb049be8a965043),
    ("hier-counters p=1 seed=0x5eed0002", 0xd58e9d5a77476991),
    ("work-stealing p=1 seed=0x5eed0002", 0xdc75933cca8a6e75),
    ("seeded-stealing p=1 seed=0x5eed0002", 0xdc75933cca8a6e75),
    ("hier-stealing p=1 seed=0x5eed0002", 0xdc75933cca8a6e75),
    ("topo-stealing p=1 seed=0x5eed0002", 0xdc75933cca8a6e75),
    (
        "policy0:guided-adaptive p=1 seed=0x5eed0002",
        0x87f054273172984d,
    ),
    (
        "policy1:work-stealing p=1 seed=0x5eed0002",
        0xdc75933cca8a6e75,
    ),
    (
        "policy2:work-stealing p=1 seed=0x5eed0002",
        0xdc75933cca8a6e75,
    ),
    ("static p=8 seed=0xd15c", 0x6a2a77380fee518b),
    ("counter p=8 seed=0xd15c", 0x5fc5836310e55e83),
    ("guided p=8 seed=0xd15c", 0x150d9002866209bc),
    ("group-counters p=8 seed=0xd15c", 0x59ee66da2cc7f0ef),
    ("hier-counters p=8 seed=0xd15c", 0xa1beed8db95efc51),
    ("work-stealing p=8 seed=0xd15c", 0xa690332fe278645e),
    ("seeded-stealing p=8 seed=0xd15c", 0xa690332fe278645e),
    ("hier-stealing p=8 seed=0xd15c", 0x72b98f83743380f4),
    ("topo-stealing p=8 seed=0xd15c", 0x80111886f4cace5d),
    (
        "policy0:guided-adaptive p=8 seed=0xd15c",
        0xddc2da4c822a7ff7,
    ),
    ("policy1:work-stealing p=8 seed=0xd15c", 0x080c8fe6ddfdb697),
    ("policy2:work-stealing p=8 seed=0xd15c", 0x307b83f280aee8cd),
    ("static p=8 seed=0x5eed0002", 0x6a2a77380fee518b),
    ("counter p=8 seed=0x5eed0002", 0x5fc5836310e55e83),
    ("guided p=8 seed=0x5eed0002", 0x150d9002866209bc),
    ("group-counters p=8 seed=0x5eed0002", 0x59ee66da2cc7f0ef),
    ("hier-counters p=8 seed=0x5eed0002", 0xa1beed8db95efc51),
    ("work-stealing p=8 seed=0x5eed0002", 0x43a25cb1da6a226b),
    ("seeded-stealing p=8 seed=0x5eed0002", 0x43a25cb1da6a226b),
    ("hier-stealing p=8 seed=0x5eed0002", 0xa10f1b04d5c003e9),
    ("topo-stealing p=8 seed=0x5eed0002", 0x984ffa4c1308f5d1),
    (
        "policy0:guided-adaptive p=8 seed=0x5eed0002",
        0xddc2da4c822a7ff7,
    ),
    (
        "policy1:work-stealing p=8 seed=0x5eed0002",
        0x080c8fe6ddfdb697,
    ),
    (
        "policy2:work-stealing p=8 seed=0x5eed0002",
        0x8e4efd58397abbe5,
    ),
    ("static p=10000 seed=0xd15c", 0xc8dfe694ccfd24eb),
    ("counter p=10000 seed=0xd15c", 0x67046795d3872992),
    ("guided p=10000 seed=0xd15c", 0xa6c4065d849dcc8e),
    ("group-counters p=10000 seed=0xd15c", 0xdde3c81c1ce04a1e),
    ("hier-counters p=10000 seed=0xd15c", 0x148817e83284eb4f),
    ("work-stealing p=10000 seed=0xd15c", 0x2cab427d27eb5bac),
    ("seeded-stealing p=10000 seed=0xd15c", 0x2cab427d27eb5bac),
    ("hier-stealing p=10000 seed=0xd15c", 0x765268e7a8a7e704),
    ("topo-stealing p=10000 seed=0xd15c", 0xfb8b9b09e25656f6),
    (
        "policy0:guided-adaptive p=10000 seed=0xd15c",
        0xa5911d38e200cc52,
    ),
    (
        "policy1:work-stealing p=10000 seed=0xd15c",
        0x671ebfa7ee81c446,
    ),
    (
        "policy2:work-stealing p=10000 seed=0xd15c",
        0x59780e4c716cfa71,
    ),
    ("static p=10000 seed=0x5eed0002", 0xc8dfe694ccfd24eb),
    ("counter p=10000 seed=0x5eed0002", 0x67046795d3872992),
    ("guided p=10000 seed=0x5eed0002", 0xa6c4065d849dcc8e),
    ("group-counters p=10000 seed=0x5eed0002", 0xdde3c81c1ce04a1e),
    ("hier-counters p=10000 seed=0x5eed0002", 0x148817e83284eb4f),
    ("work-stealing p=10000 seed=0x5eed0002", 0x15d10f50add6df33),
    (
        "seeded-stealing p=10000 seed=0x5eed0002",
        0x15d10f50add6df33,
    ),
    ("hier-stealing p=10000 seed=0x5eed0002", 0xb3d3f7e2ad92786c),
    ("topo-stealing p=10000 seed=0x5eed0002", 0x00ff18a882cb37e0),
    (
        "policy0:guided-adaptive p=10000 seed=0x5eed0002",
        0xa5911d38e200cc52,
    ),
    (
        "policy1:work-stealing p=10000 seed=0x5eed0002",
        0x671ebfa7ee81c446,
    ),
    (
        "policy2:work-stealing p=10000 seed=0x5eed0002",
        0x369f2b57c5b045bd,
    ),
];

#[test]
fn fault_free_reports_match_pinned_golden_digests() {
    let cells = golden_cells();
    let mismatches: Vec<String> = cells
        .iter()
        .enumerate()
        .filter(|(k, (label, r))| GOLDEN.get(*k) != Some(&(label.as_str(), report_digest(r))))
        .map(|(_, (label, r))| format!("    (\"{label}\", {:#018x}),", report_digest(r)))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} digests differ; actual:\n{}",
        mismatches.len(),
        cells.len(),
        mismatches.join("\n")
    );
    assert_eq!(GOLDEN.len(), cells.len(), "golden table size");
}
