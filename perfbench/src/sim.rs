//! The simulator workload: the nine-model roster on the production
//! calendar-queue event core, fault-free at 10⁵ ranks and with faults at
//! 10⁴ ranks, each cell checked against the binary-heap oracle.

use crate::{Ctx, Outcome, Setup, SplitMix};
use emx_chem::tasks::makespan_lower_bound;
use emx_distsim::machine::MachineModel;
use emx_distsim::prelude::*;
use std::time::Instant;

/// The nine models, by [`SimModel::name`].
pub const MODELS: &[&str] = &[
    "static",
    "counter",
    "guided",
    "group-counters",
    "hier-counters",
    "work-stealing",
    "seeded-stealing",
    "hier-stealing",
    "topo-stealing",
];

/// Tasks per simulated rank.
const TASKS_PER_RANK: usize = 2;

/// The nine-model roster of the simulator benchmark for `n` tasks on
/// `p` ranks.
fn roster(n: usize, p: usize) -> Vec<SimModel> {
    let owners: Vec<u32> = (0..n).map(|i| (i * p / n) as u32).collect();
    vec![
        SimModel::Static(owners.clone()),
        SimModel::Counter { chunk: 4 },
        SimModel::Guided { min_chunk: 2 },
        SimModel::GroupCounters {
            groups: 8,
            chunk: 4,
        },
        SimModel::HierCounters {
            chunk: 4,
            node_size: 32,
            parent_chunk: 32,
        },
        SimModel::WorkStealing { steal_half: true },
        SimModel::SeededStealing {
            owners,
            steal_half: true,
        },
        SimModel::HierarchicalStealing {
            steal_half: true,
            node_size: 32,
            remote_factor: 8.0,
        },
        SimModel::TopologyStealing { steal_half: true },
    ]
}

/// Inputs of one simulator workload.
struct Cells {
    costs: Vec<f64>,
    models: Vec<SimModel>,
    cfg: SimConfig,
    plan: FaultPlan,
    lower_bound: f64,
}

/// Task costs between 1 and 7 µs, drawn from the seed.
fn cells(ranks: usize, seed: u64, plan: impl FnOnce(&mut SplitMix, f64) -> FaultPlan) -> Cells {
    let n = ranks * TASKS_PER_RANK;
    let mut rng = SplitMix(seed);
    let costs: Vec<f64> = (0..n).map(|_| (1.0 + 6.0 * rng.unit()) * 1e-6).collect();
    let lower_bound = makespan_lower_bound(&costs, ranks);
    let mut cfg = SimConfig::new(ranks);
    cfg.machine = MachineModel::with_topology();
    cfg.seed = seed;
    let plan = plan(&mut rng, lower_bound);
    Cells {
        models: roster(n, ranks),
        costs,
        cfg,
        plan,
        lower_bound,
    }
}

/// One cell's result on one backend, inside a span named after the
/// simulator function it calls.
fn run(ctx: &Ctx, cells: &Cells, model: &SimModel, queue: QueueKind) -> FaultReport {
    let mut cfg = cells.cfg.clone();
    cfg.queue = queue;
    if cells.plan.is_fault_free() {
        ctx.tracer.span("distsim.simulate", || FaultReport {
            sim: simulate(&cells.costs, model, &cfg),
            faults: FaultStats::default(),
        })
    } else {
        ctx.tracer.span("distsim.simulate_with_faults", || {
            simulate_with_faults(&cells.costs, model, &cfg, &cells.plan)
        })
    }
}

/// Bitwise equality of two reports of one cell (the heap oracle check).
fn identical(a: &FaultReport, b: &FaultReport) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (x, y) = (&a.sim, &b.sim);
    let (f, g) = (&a.faults, &b.faults);
    x.makespan.to_bits() == y.makespan.to_bits()
        && bits(&x.busy) == bits(&y.busy)
        && x.tasks == y.tasks
        && (x.steals, x.steal_attempts, x.counter_fetches)
            == (y.steals, y.steal_attempts, y.counter_fetches)
        && x.assignment == y.assignment
        && (f.injected, f.detected, f.orphaned, f.recovered, f.lost)
            == (g.injected, g.detected, g.orphaned, g.recovered, g.lost)
        && (f.dropped_messages, f.delayed_messages, f.rpc_timeouts)
            == (g.dropped_messages, g.delayed_messages, g.rpc_timeouts)
        && bits(&f.recovery_latency) == bits(&g.recovery_latency)
}

/// Simulated events of one cell: executed tasks, counter fetches and
/// steal attempts.
fn events(r: &FaultReport) -> u64 {
    r.sim.tasks.iter().sum::<usize>() as u64 + r.sim.counter_fetches + r.sim.steal_attempts
}

/// Exact counts of one cell: events, steal attempts, dropped messages
/// and recovered tasks.
type Counts = (u64, u64, u64, u64);

/// One sample of one arm: each cell on the calendar core (timed), then
/// on the heap oracle with every check (outside the calendar timing).
/// Returns (calendar seconds per model, heap seconds, counts per model).
fn sample_arm(
    ctx: &Ctx,
    out: &mut Outcome,
    i: usize,
    cells: &Cells,
    arm: &str,
) -> (Vec<f64>, f64, Vec<Counts>) {
    let n = cells.costs.len();
    let track = if cells.plan.is_fault_free() { 0 } else { 2 };
    ctx.tracer.set_track(track, arm);
    let mut secs = Vec::with_capacity(cells.models.len());
    let reports: Vec<FaultReport> = ctx.tracer.span("sim.roster", || {
        cells
            .models
            .iter()
            .map(|model| {
                let t0 = Instant::now();
                let r = run(ctx, cells, model, QueueKind::Calendar);
                secs.push(t0.elapsed().as_secs_f64());
                r
            })
            .collect()
    });
    ctx.tracer
        .set_track(track + 1, &format!("{arm} heap-oracle"));
    let mut heap_s = 0.0;
    let mut counts = Vec::with_capacity(cells.models.len());
    for (model, r) in cells.models.iter().zip(&reports) {
        let t0 = Instant::now();
        let oracle = run(ctx, cells, model, QueueKind::Heap);
        heap_s += t0.elapsed().as_secs_f64();
        let executed: usize = r.sim.tasks.iter().sum();
        let same = identical(r, &oracle);
        out.check(
            executed == n
                && r.faults.lost == 0
                && r.sim.makespan >= cells.lower_bound
                && (r.sim.assignment.is_empty() || r.sim.assignment.len() == n)
                && same,
            || {
                format!(
                    "sample {i} {arm} {}: executed {executed}/{n}, lost {}, makespan {:e} vs bound {:e}, oracle match {same}",
                    model.name(),
                    r.faults.lost,
                    r.sim.makespan,
                    cells.lower_bound,
                )
            },
        );
        counts.push((
            events(r),
            r.sim.steal_attempts,
            r.faults.dropped_messages,
            r.faults.recovered,
        ));
    }
    (secs, heap_s, counts)
}

/// The faulty arm's plan: 1% of the ranks fail (fail-stop) at seeded
/// times within the makespan lower bound, 1% of messages are dropped
/// and 1% delayed by 20 µs.
fn fault_plan(rng: &mut SplitMix, ranks: usize, bound: f64) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: rng.next_u64(),
        ..FaultPlan::fault_free()
    }
    .with_message_faults(0.01, 0.01, 20e-6);
    for _ in 0..ranks / 100 {
        let rank = (rng.next_u64() % ranks as u64) as usize;
        plan = plan.with_rank_failure(rank, rng.unit() * bound);
    }
    plan
}

/// Fault-free arm size: 10⁵ ranks.
const RANKS: usize = 100_000;
/// Faulty arm size: 10⁴ ranks. At 10⁵ each stealing model takes
/// seconds with faults, as idle thieves probe until failure detection.
const FAULTY_RANKS: usize = 10_000;

/// `sim-roster`: the nine models fault-free at 10⁵ ranks through
/// `simulate`, and with faults at 10⁴ ranks through
/// `simulate_with_faults`, each cell checked against the heap oracle.
pub fn sim_roster(ctx: &Ctx) -> Outcome {
    let (mut setup, arms) = Setup::new(|| {
        [
            cells(RANKS, ctx.seed, |_, _| FaultPlan::fault_free()),
            cells(FAULTY_RANKS, ctx.seed, |rng, bound| {
                fault_plan(rng, FAULTY_RANKS, bound)
            }),
        ]
    });
    let labels = ["fault-free", "faulty"];
    let mut out = Outcome::default();
    for (cells, label) in arms.iter().zip(labels) {
        let names: Vec<&str> = cells.models.iter().map(|m| m.name()).collect();
        assert_eq!(names, MODELS, "roster order");
        out.notes.push(format!(
            "{label} arm: {} ranks, {} tasks, seed {}, {} rank failures, lower bound {:.6e} s",
            cells.cfg.workers,
            cells.costs.len(),
            ctx.seed,
            cells.plan.rank_failures.len(),
            cells.lower_bound
        ));
    }
    // Per arm (fault-free, faulty), over the traced samples: calendar
    // seconds per model and for the whole arm.
    let mut per_model: [Vec<Vec<f64>>; 2] = [
        vec![Vec::new(); MODELS.len()],
        vec![Vec::new(); MODELS.len()],
    ];
    let mut arm_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut heap = Vec::new();
    let mut ratios = Vec::new();
    let mut counts: [Option<Vec<Counts>>; 2] = [None, None];

    let (untraced, traced) = ctx.measure(&mut setup, |i, record| {
        let (mut cal_s, mut heap_s) = (0.0, 0.0);
        for (a, cells) in arms.iter().enumerate() {
            let (secs, h, c) = sample_arm(ctx, &mut out, i, cells, labels[a]);
            let reference = counts[a].get_or_insert_with(|| c.clone());
            out.check(*reference == c, || {
                format!(
                    "sample {i} {}: exact counts differ between samples",
                    labels[a]
                )
            });
            cal_s += secs.iter().sum::<f64>();
            heap_s += h;
            if ctx.tracer.is_on() {
                arm_s[a].push(secs.iter().sum());
                for (m, s) in secs.into_iter().enumerate() {
                    per_model[a][m].push(s);
                }
            }
        }
        if record && !ctx.tracer.is_on() {
            heap.push(heap_s);
            ratios.push(heap_s / cal_s);
        }
        cal_s
    });

    out.set_timing("time_s", "(calendar core, both arms)", &untraced.values);
    out.set_timing("ref_time_s", "(heap oracle, both arms)", &heap);
    out.set("speedup", crate::stats::median(&ratios));
    if ctx.trace {
        let [free, faulty] = counts.map(Option::unwrap_or_default);
        let total = |c: &[Counts], f: fn(&Counts) -> u64| c.iter().map(f).sum::<u64>() as f64;
        out.set_timing("distsim.sim_s", "", &arm_s[0]);
        out.set_timing("distsim.sim_faults_s", "", &arm_s[1]);
        out.set("distsim.events", total(&free, |c| c.0));
        out.set("distsim.faults_events", total(&faulty, |c| c.0));
        out.set("distsim.steal_attempts", total(&free, |c| c.1));
        out.set("faults.dropped_messages", total(&faulty, |c| c.2));
        out.set("faults.recovered", total(&faulty, |c| c.3));
        for (m, name) in MODELS.iter().enumerate() {
            let rate =
                |a: usize, c: &[Counts]| c[m].0 as f64 / crate::stats::median(&per_model[a][m]);
            out.set(format!("distsim.events_per_s.{name}"), rate(0, &free));
            out.set(
                format!("distsim.faults_events_per_s.{name}"),
                rate(1, &faulty),
            );
        }
    }
    out.headline(&setup.times, &untraced, &traced);
    out
}
