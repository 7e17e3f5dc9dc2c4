//! The two chemistry workloads: a converged SCF under work stealing
//! against its serial reference, and the whole policy roster at fine
//! grain with the profiling rings attached.

use crate::{Ctx, Outcome, Setup, SplitMix};
use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::{rhf_with, ScfConfig, ScfResult};
use emx_chem::screening::ScreenedPairs;
use emx_core::fockexec::ParallelFock;
use emx_linalg::Matrix;
use emx_runtime::{ExecutionReport, Executor, PolicyKind, StealConfig};
use std::f64::consts::TAU;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of every parallel arm.
pub const WORKERS: usize = 2;

/// Policies of the roster workload, by [`PolicyKind::name`].
pub const ROSTER_POLICIES: &[&str] = &[
    "serial",
    "static-block",
    "static-cyclic",
    "dynamic-counter",
    "guided",
    "work-stealing",
    "persistence-based",
];

/// Attribution categories reported per roster policy.
pub const BLAME: &[&str] = &["compute", "idle", "steal", "counter", "merge"];

/// Per-worker profiling-ring depth of the roster workload.
pub const RING_DEPTH: usize = 32 * 1024;

/// Two converged energies of one system must agree this closely.
const ENERGY_TOL: f64 = 1e-8;

/// Molecule, basis and screened pairs of one workload.
struct System {
    bm: BasisedMolecule,
    pairs: ScreenedPairs,
}

/// Seed of the one cluster geometry of each size that every run uses.
const GEOMETRY_SEED: u64 = 7;

/// `water_cluster(waters, GEOMETRY_SEED)` turned by a rotation and moved
/// by a shift of up to 5 Bohr per axis, both drawn from `seed`. Every
/// seed keeps the interatomic distances, so every seed's SCF does the
/// same work (the same iterations, and screened quartets within 0.5%)
/// while the coordinates that every integral sees change with the seed. A fresh cluster per seed would make the
/// work itself vary by about 10% from seed to seed.
fn cluster(waters: usize, seed: u64) -> Molecule {
    let mut rng = SplitMix(seed);
    // A uniform rotation from a uniform unit quaternion (Shoemake).
    let (u1, u2, u3) = (rng.unit(), rng.unit(), rng.unit());
    let (a, b) = ((1.0 - u1).sqrt(), u1.sqrt());
    let (t2, t3) = (TAU * u2, TAU * u3);
    let (w, x, y, z) = (a * t2.sin(), a * t2.cos(), b * t3.sin(), b * t3.cos());
    let r = [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - z * w),
            2.0 * (x * z + y * w),
        ],
        [
            2.0 * (x * y + z * w),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - x * w),
        ],
        [
            2.0 * (x * z - y * w),
            2.0 * (y * z + x * w),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ];
    let shift: [f64; 3] = std::array::from_fn(|_| 10.0 * rng.unit() - 5.0);
    let mut m = Molecule::water_cluster(waters, GEOMETRY_SEED);
    for atom in &mut m.atoms {
        let p = atom.position;
        atom.position =
            std::array::from_fn(|i| r[i][0] * p[0] + r[i][1] * p[1] + r[i][2] * p[2] + shift[i]);
    }
    m
}

fn system(waters: usize, basis: BasisSet, seed: u64, tau: f64) -> System {
    let bm = BasisedMolecule::assign(&cluster(waters, seed), basis);
    let pairs = ScreenedPairs::build(&bm, tau * 1e-2);
    System { bm, pairs }
}

/// ERI quartets one Fock build computes (exact; Schwarz screening only,
/// so every build of the SCF computes the same set).
fn quartets_per_build(pf: &ParallelFock, nbf: usize) -> u64 {
    let d = Matrix::zeros(nbf, nbf);
    let mut g = Matrix::zeros(nbf, nbf);
    let mut scratch = pf.scratch();
    (0..pf.ntasks())
        .map(|i| pf.execute_task_into(i, &d, &mut g, &mut scratch))
        .sum()
}

/// Runtime-layer totals over a set of parallel builds.
#[derive(Default)]
struct RuntimeTotals {
    busy_s: f64,
    capacity_s: f64,
    idle_s: f64,
    imbalance: Vec<f64>,
    steal_attempts: u64,
    steals: u64,
    counter_fetches: u64,
}

impl RuntimeTotals {
    fn add(&mut self, r: &ExecutionReport) {
        let busy: f64 = r.worker_stats.iter().map(|w| w.busy.as_secs_f64()).sum();
        self.busy_s += busy;
        self.capacity_s += r.wall.as_secs_f64() * r.workers as f64;
        self.idle_s += r.overhead().as_secs_f64();
        self.imbalance.push(r.busy_imbalance());
        self.steal_attempts += r.worker_stats.iter().map(|w| w.steal_attempts).sum::<u64>();
        self.steals += r.total_steals();
        self.counter_fetches += r.total_counter_fetches();
    }

    /// Publishes the totals as per-pass metrics (`passes` runs summed).
    fn publish(&self, out: &mut Outcome, passes: usize) {
        let per = 1.0 / passes.max(1) as f64;
        out.set(
            "runtime.utilization",
            if self.capacity_s > 0.0 {
                self.busy_s / self.capacity_s
            } else {
                0.0
            },
        );
        out.set("runtime.idle_s", self.idle_s * per);
        out.set(
            "runtime.busy_imbalance",
            crate::stats::median(&self.imbalance),
        );
        out.set("runtime.steal_attempts", self.steal_attempts as f64 * per);
        out.set(
            "runtime.steal_success",
            if self.steal_attempts > 0 {
                self.steals as f64 / self.steal_attempts as f64
            } else {
                0.0
            },
        );
        out.set("runtime.counter_fetches", self.counter_fetches as f64 * per);
    }
}

/// Span-derived numbers of one traced SCF: per-build durations and the
/// SCF span's self time (everything but the Fock builds).
fn scf_spans(ctx: &Ctx, mark: usize) -> (Vec<f64>, f64) {
    let spans = ctx.tracer.since(mark);
    let builds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "fock.build")
        .map(|s| s.secs())
        .collect();
    let scf: f64 = spans
        .iter()
        .filter(|s| s.name == "scf.rhf_with")
        .map(|s| s.secs())
        .sum();
    let nonfock = scf - builds.iter().sum::<f64>();
    (builds, nonfock)
}

fn phase_sums(r: &ScfResult) -> (f64, f64) {
    r.phase_timings.iter().fold((0.0, 0.0), |(d, g), p| {
        (d + p.diis.as_secs_f64(), g + p.diag.as_secs_f64())
    })
}

/// Per-layer numbers gathered from the traced SCFs of one arm.
#[derive(Default)]
struct ScfLayers {
    builds: Vec<f64>,
    nonfock: Vec<f64>,
    diis: Vec<f64>,
    diag: Vec<f64>,
    outside: Vec<f64>,
}

impl ScfLayers {
    fn publish(&self, out: &mut Outcome, quartets: u64) {
        if self.builds.is_empty() {
            return;
        }
        out.set_timing("fock.build_p50_s", "", &self.builds);
        let p50 = crate::stats::median(&self.builds);
        let (pct, tail) = crate::stats::tail(&self.builds);
        out.notes.push(format!(
            "fock.build_tail_s is p{pct} of {} builds",
            self.builds.len()
        ));
        out.set("fock.build_tail_s", tail);
        out.set("fock.quartets", quartets as f64);
        out.set("fock.quartets_per_s", quartets as f64 / p50);
        out.set_timing("scf.nonfock_s", "", &self.nonfock);
        out.set_timing("scf.diis_s", "", &self.diis);
        out.set_timing("linalg.diag_s", "", &self.diag);
        out.set_timing("fock.outside_region_s", "", &self.outside);
    }
}

/// `scf-h2o3-631gs`: RHF on a water trimer in 6-31G* at chunk 8, to
/// convergence, under work stealing on two workers (the headline arm)
/// and under `Serial` on the same task list (the reference arm).
pub fn scf_h2o3(ctx: &Ctx) -> Outcome {
    let cfg = ScfConfig::default();
    let chunk = 8;
    let basis = BasisSet::SixThirtyOneGStar;
    let (mut setup, sys) = Setup::new(|| {
        let sys = system(3, basis, ctx.seed, cfg.tau);
        black_box(ParallelFock::new(&sys.bm, &sys.pairs, cfg.tau, chunk).ntasks());
        sys
    });
    let pf = ParallelFock::new(&sys.bm, &sys.pairs, cfg.tau, chunk);
    let arms = [
        (
            "work-stealing",
            Executor::new(WORKERS, PolicyKind::WorkStealing(StealConfig::default())),
        ),
        ("serial", Executor::new(1, PolicyKind::Serial)),
    ];

    let mut out = Outcome::default();
    out.notes.push(format!(
        "(H2O)3 seed {} / {}: nbf {}, chunk {chunk}, {} tasks, {WORKERS} workers",
        ctx.seed,
        basis.name(),
        sys.bm.nbf,
        pf.ntasks()
    ));
    let mut times = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    let mut serial_energy: Option<f64> = None;
    let mut serial_iterations = 0;
    let mut layers = ScfLayers::default();
    let mut runtime = RuntimeTotals::default();
    let mut scfs = 0;

    let (untraced, traced) = ctx.measure(&mut setup, |i, record| {
        let mut results: [Option<(ScfResult, f64)>; 2] = [None, None];
        // Alternate which arm goes first, so drift hits both alike.
        for k in [i % 2, 1 - i % 2] {
            let (name, ex) = &arms[k];
            ctx.tracer.set_track(k as u32, name);
            let mark = ctx.tracer.mark();
            let mut reports = Vec::new();
            let mut outside = 0.0;
            let t0 = Instant::now();
            let r = ctx.tracer.span("scf.rhf_with", || {
                rhf_with(&sys.bm, &cfg, |p| {
                    ctx.tracer.span("fock.build", || {
                        let c0 = Instant::now();
                        let (g, rep) = pf.execute(p, ex);
                        outside += c0.elapsed().as_secs_f64() - rep.wall.as_secs_f64();
                        reports.push(rep);
                        g
                    })
                })
            });
            let secs = t0.elapsed().as_secs_f64();
            if ctx.tracer.is_on() && k == 0 {
                let (builds, nonfock) = scf_spans(ctx, mark);
                let (diis, diag) = phase_sums(&r);
                layers.builds.extend(builds);
                layers.nonfock.push(nonfock);
                layers.diis.push(diis);
                layers.diag.push(diag);
                layers.outside.push(outside);
                reports.iter().for_each(|rep| runtime.add(rep));
                scfs += 1;
            }
            results[k] = Some((r, secs));
        }
        let [Some((ws, ws_s)), Some((serial, serial_s))] = results else {
            unreachable!("both arms ran")
        };
        if record && !ctx.tracer.is_on() {
            times[0].push(ws_s);
            times[1].push(serial_s);
            ratios.push(serial_s / ws_s);
        }
        out.check(serial.converged && ws.converged, || {
            format!(
                "sample {i}: SCF did not converge (serial {}, ws {})",
                serial.converged, ws.converged
            )
        });
        out.check((ws.energy - serial.energy).abs() < ENERGY_TOL, || {
            format!(
                "sample {i}: work-stealing energy {} vs serial {}",
                ws.energy, serial.energy
            )
        });
        let reference = *serial_energy.get_or_insert(serial.energy);
        out.check(serial.energy.to_bits() == reference.to_bits(), || {
            format!(
                "sample {i}: serial energy {} differs from {reference}",
                serial.energy
            )
        });
        serial_iterations = serial.iterations;
        ws_s
    });

    out.set_timing("time_s", "(work-stealing SCF)", &times[0]);
    out.set_timing("ref_time_s", "(serial SCF)", &times[1]);
    out.set("speedup", crate::stats::median(&ratios));
    out.notes.push(format!(
        "converged energy {:.10} Ha in {serial_iterations} iterations",
        serial_energy.unwrap_or(f64::NAN)
    ));
    if ctx.trace {
        out.set("scf.iterations", serial_iterations as f64);
        layers.publish(&mut out, quartets_per_build(&pf, sys.bm.nbf));
        runtime.publish(&mut out, scfs);
    }
    out.headline(&setup.times, &untraced, &traced);
    out
}

/// The roster's policies for a task list with estimated `costs`: the
/// persistence plan is timed, as it is part of set-up.
fn roster_policies(costs: &[f64]) -> (Vec<PolicyKind>, f64) {
    let mut kinds = vec![PolicyKind::Serial];
    kinds.extend(PolicyKind::comparison_roster(1).into_iter().map(|(_, k)| k));
    let t0 = Instant::now();
    kinds.push(PolicyKind::persistence_from_costs(costs, WORKERS));
    let plan_s = t0.elapsed().as_secs_f64();
    (kinds, plan_s)
}

/// `roster-h2o4-sto3g-fine`: RHF on a water tetramer in STO-3G at chunk
/// 1 under every policy of the roster, each Fock build profiled.
pub fn roster_h2o4(ctx: &Ctx) -> Outcome {
    let cfg = ScfConfig::default();
    let chunk = 1;
    let basis = BasisSet::Sto3g;
    let mut plan_times = Vec::new();
    let (mut setup, (sys, kinds)) = Setup::new(|| {
        let sys = system(4, basis, ctx.seed, cfg.tau);
        let pf = ParallelFock::new(&sys.bm, &sys.pairs, cfg.tau, chunk);
        let (kinds, plan_s) = roster_policies(&pf.estimated_costs());
        plan_times.push(plan_s);
        (sys, kinds)
    });
    let pf = ParallelFock::new(&sys.bm, &sys.pairs, cfg.tau, chunk);
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    assert_eq!(names, ROSTER_POLICIES, "roster order");

    let mut out = Outcome::default();
    out.notes.push(format!(
        "(H2O)4 seed {} / {}: nbf {}, chunk {chunk}, {} tasks, {WORKERS} workers, ring depth {RING_DEPTH}",
        ctx.seed,
        basis.name(),
        sys.bm.nbf,
        pf.ntasks()
    ));
    let np = kinds.len();
    // Per-policy SCF times: [untraced, traced].
    let mut per_policy: [Vec<Vec<f64>>; 2] = [vec![Vec::new(); np], vec![Vec::new(); np]];
    let mut blame: Vec<Vec<[f64; 5]>> = vec![Vec::new(); np];
    let mut ratios = Vec::new();
    let mut serial_energy: Option<f64> = None;
    let mut serial_iterations = 0;
    let ws_index = names
        .iter()
        .position(|&n| n == "work-stealing")
        .expect("roster has work stealing");
    let mut layers = ScfLayers::default();
    let (mut events, mut builds, mut overwritten, mut profile_s) = (0u64, 0u64, 0u64, 0.0);
    let mut passes = 0;
    let mut parallel = RuntimeTotals::default();

    let (untraced, traced) = ctx.measure(&mut setup, |i, record| {
        let traced = ctx.tracer.is_on();
        let mut energies = vec![0.0; np];
        let t0 = Instant::now();
        ctx.tracer.set_track(0, "roster");
        ctx.tracer.span("roster", || {
            // Rotate the start of the roster from sample to sample, so
            // drift within a pass hits every policy alike.
            for k in (0..np).map(|j| (i + j) % np) {
                let kind = &kinds[k];
                ctx.tracer.set_track(k as u32 + 1, names[k]);
                let workers = if k == 0 { 1 } else { WORKERS };
                let mark = ctx.tracer.mark();
                let mut sums = [0.0; 5];
                let mut outside = 0.0;
                let mut reports = Vec::new();
                let s0 = Instant::now();
                let r = ctx.tracer.span("scf.rhf_with", || {
                    rhf_with(&sys.bm, &cfg, |p| {
                        ctx.tracer.span("fock.build", || {
                            let c0 = Instant::now();
                            let (g, rep, prof) =
                                pf.execute_profiled(p, workers, kind.clone(), RING_DEPTH);
                            let call = c0.elapsed().as_secs_f64();
                            let a = &prof.attribution;
                            let t = a.totals();
                            for (s, ns) in sums.iter_mut().zip([
                                t.compute_ns,
                                t.idle_ns,
                                t.steal_ns,
                                t.counter_ns,
                                t.merge_ns,
                            ]) {
                                *s += ns as f64 * 1e-9;
                            }
                            if traced {
                                let wall = a.wall_ns as f64 * 1e-9;
                                outside += wall - rep.wall.as_secs_f64();
                                profile_s += call - wall;
                                overwritten += a.overwritten;
                                events += prof.events.iter().map(|e| e.len() as u64).sum::<u64>()
                                    + a.overwritten;
                                builds += 1;
                            }
                            reports.push(rep);
                            g
                        })
                    })
                });
                if record {
                    per_policy[usize::from(traced)][k].push(s0.elapsed().as_secs_f64());
                }
                if traced {
                    blame[k].push(sums);
                }
                energies[k] = r.energy;
                out.check(r.converged, || {
                    format!("sample {i}: {} SCF did not converge", names[k])
                });
                if k == 0 {
                    serial_iterations = r.iterations;
                }
                if traced {
                    if k > 0 {
                        reports.iter().for_each(|rep| parallel.add(rep));
                    }
                    if k == ws_index {
                        let (b, nonfock) = scf_spans(ctx, mark);
                        let (diis, diag) = phase_sums(&r);
                        layers.builds.extend(b);
                        layers.nonfock.push(nonfock);
                        layers.diis.push(diis);
                        layers.diag.push(diag);
                        layers.outside.push(outside);
                    }
                }
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        if traced {
            passes += 1;
        }
        let reference = *serial_energy.get_or_insert(energies[0]);
        out.check(energies[0].to_bits() == reference.to_bits(), || {
            format!(
                "sample {i}: serial energy {} differs from {reference}",
                energies[0]
            )
        });
        for k in 1..np {
            out.check((energies[k] - energies[0]).abs() < ENERGY_TOL, || {
                format!(
                    "sample {i}: {} energy {} vs serial {}",
                    names[k], energies[k], energies[0]
                )
            });
        }
        if record && !traced {
            let last = |k: usize| *per_policy[0][k].last().expect("policy ran");
            let mean = (1..np).map(last).sum::<f64>() / (np - 1) as f64;
            ratios.push(last(0) / mean);
        }
        secs
    });

    out.headline(&setup.times, &untraced, &traced);
    drop(setup);
    out.set_timing("time_s", "(whole roster)", &untraced.values);
    out.set_timing(
        "ref_time_s",
        "(serial SCF in the roster)",
        &per_policy[0][0],
    );
    out.set("speedup", crate::stats::median(&ratios));
    out.notes.push(format!(
        "converged energy {:.10} Ha in {serial_iterations} iterations",
        serial_energy.unwrap_or(f64::NAN)
    ));
    if ctx.trace {
        for (k, name) in names.iter().enumerate() {
            out.set_timing(format!("sched.scf_s.{name}"), "", &per_policy[1][k]);
            for (c, cat) in BLAME.iter().enumerate() {
                let v: Vec<f64> = blame[k].iter().map(|b| b[c]).collect();
                out.set(format!("obs.{cat}_s.{name}"), crate::stats::median(&v));
            }
        }
        out.set("scf.iterations", serial_iterations as f64);
        layers.publish(&mut out, quartets_per_build(&pf, sys.bm.nbf));
        parallel.publish(&mut out, passes);
        out.set("obs.events_per_build", events as f64 / builds.max(1) as f64);
        out.set(
            "obs.ring_overwritten",
            overwritten as f64 / passes.max(1) as f64,
        );
        out.set("obs.profile_overhead_s", profile_s / passes.max(1) as f64);
        out.set_timing("balance.persistence_plan_s", "", &plan_times);
    }
    out
}
