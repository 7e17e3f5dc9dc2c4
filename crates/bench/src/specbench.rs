//! `reproduce speculate` measurement: the speculative (Block-STM)
//! incremental SCF against the sequential driver and a work-stealing
//! reference, stamped into `results/BENCH_spec.json`.
//!
//! Three drivers run the *same* ΔD incremental SCF to the same
//! convergence point — each is the one RHF loop
//! [`rhf_with`] with the [`IncrementalFock`] G strategy, and they
//! differ only in how one Fock build's tasks run:
//!
//! * the sequential [`rhf_incremental`] — the replay-equivalence
//!   baseline the speculative commit rule is defined against;
//! * [`rhf_incremental_speculative`] at 1/2/4/8 workers — each
//!   iteration's Fock build as one speculative block with interleaved
//!   epoch-refresh transactions (the conflict generator), so the
//!   stamped abort rate and wasted incarnations come from real
//!   read-set invalidations;
//! * a work-stealing reference that runs the identical chunk plan
//!   under [`Executor`] with [`PolicyKind::WorkStealing`] — the
//!   paper's headline dynamic policy, for the speculation-vs-stealing
//!   column.
//!
//! Walls are min-of-`samples` (paired: every driver measured the same
//! way on the same warmed process), so the stamped speedups compare
//! best-case walls, the standard convention of the repo's other
//! benches. `EMX_SPEC_SMOKE=1` shrinks the workload and worker sweep
//! for CI.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::fock::{FockBuilder, Screen};
use emx_chem::molecule::Molecule;
use emx_chem::scf::{rhf_incremental, rhf_with, IncrementalFock, ScfConfig, ScfResult};
use emx_chem::screening::ScreenedPairs;
use emx_chem::specscf::{rhf_incremental_speculative, SpeculativeStats};
use emx_linalg::Matrix;
use emx_runtime::{Executor, PolicyKind};
use std::time::Instant;

/// True when `EMX_SPEC_SMOKE` is set — CI's fast mode (H₂O/STO-3G,
/// two worker counts, single sample).
pub fn spec_smoke() -> bool {
    std::env::var("EMX_SPEC_SMOKE").is_ok()
}

/// One worker count's speculative measurement.
pub struct SpecBenchRow {
    /// Workers the speculative blocks ran on.
    pub workers: usize,
    /// Best-of-`samples` wall for the whole speculative SCF.
    pub wall_secs: f64,
    /// Wall of the work-stealing reference at the same worker count.
    pub stealing_wall_secs: f64,
    /// Speculation effort of the measured (best-wall) run.
    pub stats: SpeculativeStats,
    /// Final energy of the speculative run (deterministic — must be
    /// bit-identical across the whole worker sweep).
    pub energy: f64,
}

impl SpecBenchRow {
    /// Committed transactions per second of speculative wall.
    pub fn commits_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.stats.commits as f64 / self.wall_secs
        }
    }
}

/// Everything the `reproduce speculate` arm reports and stamps.
pub struct SpecBenchReport {
    /// Workload molecule label.
    pub molecule: String,
    /// Basis-set label.
    pub basis: String,
    /// Fock transactions per speculative block.
    pub nchunks: usize,
    /// Timed runs per configuration (walls are the minimum).
    pub samples: usize,
    /// SCF iterations to convergence (identical for every driver).
    pub iterations: usize,
    /// Best-of-`samples` wall of the sequential [`rhf_incremental`].
    pub serial_wall_secs: f64,
    /// Final energy of the sequential driver.
    pub serial_energy: f64,
    /// One row per measured worker count.
    pub rows: Vec<SpecBenchRow>,
}

impl SpecBenchReport {
    /// Speedup of the speculative SCF over the sequential driver at
    /// `workers`, or `None` if that worker count was not measured.
    pub fn speedup_vs_serial(&self, workers: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workers == workers)
            .map(|r| self.serial_wall_secs / r.wall_secs)
    }
}

/// The speculate workload: (H₂O)₂/STO-3G (the measured-cost dimer of
/// E3 — big enough that chunk bodies dwarf protocol overhead), or
/// H₂O/STO-3G under smoke.
fn spec_workload(smoke: bool) -> (BasisedMolecule, &'static str, &'static str) {
    if smoke {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        (bm, "H2O", "STO-3G")
    } else {
        let bm = BasisedMolecule::assign(&Molecule::water_cluster(2, 5), BasisSet::Sto3g);
        (bm, "(H2O)2", "STO-3G")
    }
}

/// The work-stealing reference: the same incremental SCF — the
/// [`IncrementalFock`] strategy of [`rhf_with`] — with each iteration's
/// Fock build run as `nchunks` contiguous chunk-tasks under
/// [`PolicyKind::WorkStealing`]. Per-worker partials merge in worker
/// order (not transaction order) — the usual reduction of the threaded
/// executor, which is exactly why its energies are only
/// FP-regrouping-close to the serial driver while the speculative
/// commit rule reproduces serial bit-for-bit.
fn rhf_incremental_stealing(
    bm: &BasisedMolecule,
    config: &ScfConfig,
    workers: usize,
    nchunks: usize,
) -> ScfResult {
    let nbf = bm.nbf;
    let pairs = ScreenedPairs::build(bm, config.tau * 1e-2);
    let fb = FockBuilder::new(bm, &pairs, config.tau);
    let tasks = fb.tasks(usize::MAX);
    let nchunks = nchunks.clamp(1, tasks.len().max(1));
    let ex = Executor::new(workers, PolicyKind::WorkStealing(Default::default()));

    let build = |d: &Matrix, screen: Screen<'_>, g: &mut Matrix| -> u64 {
        let (locals, report) = ex.run(
            nchunks,
            |_| (Matrix::zeros(nbf, nbf), fb.scratch(), 0u64),
            |c, (partial, scratch, q): &mut (Matrix, _, u64)| {
                let begin = c * tasks.len() / nchunks;
                let end = (c + 1) * tasks.len() / nchunks;
                for task in &tasks[begin..end] {
                    *q += fb.execute_with(task, screen, d, d, 0.5, partial, scratch);
                }
            },
        );
        assert_eq!(report.total_tasks_run(), nchunks);
        let mut quartets = 0;
        for (partial, _, q) in &locals {
            for (gi, pi) in g.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                *gi += pi;
            }
            quartets += q;
        }
        quartets
    };
    let mut strategy = IncrementalFock::new(&fb);
    rhf_with(bm, config, |p| strategy.next(p, build))
}

/// Runs the three drivers and collects the report. Full mode:
/// (H₂O)₂/STO-3G, workers 1/2/4/8, 3 samples, 12-chunk blocks.
/// Smoke: H₂O/STO-3G, workers 1/2, 1 sample, 6-chunk blocks.
pub fn speculate_measure(smoke: bool) -> SpecBenchReport {
    let (bm, molecule, basis) = spec_workload(smoke);
    let cfg = ScfConfig::default();
    let nchunks = if smoke { 6 } else { 12 };
    let samples = if smoke { 1 } else { 3 };
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    // Min-of-samples with one untimed warm-up run first.
    let min_wall = |run: &mut dyn FnMut() -> ScfResult| -> (f64, ScfResult) {
        let mut best = f64::INFINITY;
        let mut last = run();
        for _ in 0..samples {
            let t0 = Instant::now();
            last = run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, last)
    };

    let (serial_wall_secs, serial) = min_wall(&mut || rhf_incremental(&bm, &cfg).0);
    assert!(serial.converged, "serial incremental SCF must converge");

    let mut rows = Vec::new();
    for &w in worker_counts {
        let mut stats = SpeculativeStats::default();
        let (wall_secs, spec) = min_wall(&mut || {
            let (r, _, s) = rhf_incremental_speculative(&bm, &cfg, w, nchunks);
            stats = s;
            r
        });
        assert!(spec.converged, "speculative SCF must converge (P={w})");
        assert!(
            (spec.energy - serial.energy).abs() < 1e-12,
            "speculative energy {} departs from serial {}",
            spec.energy,
            serial.energy
        );
        let (stealing_wall_secs, steal) =
            min_wall(&mut || rhf_incremental_stealing(&bm, &cfg, w, nchunks));
        assert!(steal.converged, "stealing reference must converge (P={w})");
        rows.push(SpecBenchRow {
            workers: w,
            wall_secs,
            stealing_wall_secs,
            stats,
            energy: spec.energy,
        });
    }
    // The deterministic-commit rule makes the speculative energy a pure
    // function of the inputs: the whole sweep must agree bit-for-bit.
    for pair in rows.windows(2) {
        assert_eq!(
            pair[0].energy.to_bits(),
            pair[1].energy.to_bits(),
            "speculative energy must not depend on worker count"
        );
    }

    SpecBenchReport {
        molecule: molecule.into(),
        basis: basis.into(),
        nchunks,
        samples,
        iterations: serial.iterations,
        serial_wall_secs,
        serial_energy: serial.energy,
        rows,
    }
}

/// Renders the stamped `results/BENCH_spec.json`: schema + workload
/// identity, the serial baseline, and one row per worker count with
/// walls, both speedups, commit throughput and the abort accounting.
pub fn bench_spec_json(report: &SpecBenchReport, git: &str, smoke: bool) -> String {
    let mut rows = String::new();
    for (i, r) in report.rows.iter().enumerate() {
        let sep = if i + 1 < report.rows.len() { "," } else { "" };
        rows.push_str(&format!(
            "    {{\"workers\": {}, \"wall_secs\": {:.6}, \
             \"speedup_vs_serial\": {:.4}, \"stealing_wall_secs\": {:.6}, \
             \"speedup_vs_stealing\": {:.4}, \"commits_per_sec\": {:.1}, \
             \"commits\": {}, \"executions\": {}, \"aborts\": {}, \
             \"stalls\": {}, \"wasted_executions\": {}, \
             \"abort_rate\": {:.4}, \"blocks\": {}}}{sep}\n",
            r.workers,
            r.wall_secs,
            report.serial_wall_secs / r.wall_secs,
            r.stealing_wall_secs,
            r.stealing_wall_secs / r.wall_secs,
            r.commits_per_sec(),
            r.stats.commits,
            r.stats.executions,
            r.stats.aborts,
            r.stats.stalls,
            r.stats.wasted_executions(),
            r.stats.abort_rate(),
            r.stats.blocks,
        ));
    }
    format!(
        "{{\n  \"schema_version\": {},\n  \"experiment\": \"speculate\",\n  \
         \"git\": \"{}\",\n  \"smoke\": {},\n  \"molecule\": \"{}\",\n  \
         \"basis\": \"{}\",\n  \"nchunks\": {},\n  \"samples\": {},\n  \
         \"scf_iterations\": {},\n  \"serial_wall_secs\": {:.6},\n  \
         \"serial_energy\": {:.12},\n  \"speculative_energy\": {:.12},\n  \
         \"rows\": [\n{}  ]\n}}\n",
        emx_obs::SCHEMA_VERSION,
        git,
        smoke,
        report.molecule,
        report.basis,
        report.nchunks,
        report.samples,
        report.iterations,
        report.serial_wall_secs,
        report.serial_energy,
        report
            .rows
            .first()
            .map_or(report.serial_energy, |r| r.energy),
        rows
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_speculate_measures_and_balances() {
        let report = speculate_measure(true);
        assert_eq!(report.rows.len(), 2);
        assert!(report.serial_wall_secs > 0.0);
        for r in &report.rows {
            assert!(r.wall_secs > 0.0);
            assert!(r.stealing_wall_secs > 0.0);
            assert!(r.stats.commits > 0);
            assert_eq!(
                r.stats.executions,
                r.stats.commits + r.stats.aborts + r.stats.stalls,
                "P={}: abort accounting must balance",
                r.workers
            );
            assert!((r.energy - report.serial_energy).abs() < 1e-12);
        }
        assert!(report.speedup_vs_serial(1).is_some());
        assert!(report.speedup_vs_serial(64).is_none());
    }

    #[test]
    fn bench_spec_json_parses_and_carries_the_sweep() {
        let report = speculate_measure(true);
        let json = bench_spec_json(&report, "test", true);
        let v = emx_obs::Json::parse(&json).expect("stamped JSON parses");
        assert_eq!(
            v.get("experiment").and_then(|e| e.as_str()),
            Some("speculate")
        );
        let rows = v.get("rows").and_then(|r| r.as_arr()).expect("rows");
        assert_eq!(rows.len(), report.rows.len());
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(
                row.get("workers").and_then(|w| w.as_f64()),
                Some(r.workers as f64)
            );
            assert!(row.get("abort_rate").and_then(|a| a.as_f64()).is_some());
        }
    }
}
