//! Speculative incremental SCF: the ΔD Fock build as a Block-STM block.
//!
//! [`rhf_incremental`](crate::scf::rhf_incremental) rebuilds `G` from
//! the density *change* each iteration — which makes every iteration a
//! read-after-write hazard in disguise: the Fock tasks read the density
//! epoch the iteration was planned against, and any refresh of that
//! epoch invalidates work already in flight. This driver makes the
//! hazard explicit and hands it to `emx-spec`. It is not a second SCF
//! loop: it runs the one loop [`rhf_with`] with the [`IncrementalFock`]
//! G strategy (DIIS on, full rebuild every 8th build), and only the
//! strategy's task execution is speculative:
//!
//! * each iteration's Fock build becomes one speculative block of
//!   chunked **Fock transactions** (read the epoch marker at location
//!   0, compute a partial `ΔG` over a contiguous task range) with
//!   **epoch-refresh transactions** interleaved (read location 0,
//!   write it back bumped — the same density semantically, a new
//!   version physically);
//! * a Fock transaction that read the epoch before an earlier refresh
//!   committed fails validation, aborts, and re-executes against the
//!   refreshed version — real aborts, real wasted incarnations, all
//!   visible in the returned [`SpeculativeStats`];
//! * the commit rule orders partials in block order, so the assembled
//!   `G` — and therefore the SCF energy trajectory — is a pure
//!   function of the molecule and configuration, independent of worker
//!   count, interleaving, or how many aborts it took
//!   ([`emx_spec::execute_transactions`] commits bit-identically to
//!   serial replay).
//!
//! The partials are summed chunk-by-chunk rather than task-by-task, so
//! the energy agrees with [`rhf_incremental`](crate::scf::rhf_incremental)
//! to floating-point regrouping (well under 1e-12 Hartree for the study
//! workloads), and is *exactly* reproducible run to run.

use crate::basis::BasisedMolecule;
use crate::fock::{FockBuilder, Screen};
use crate::scf::{rhf_with, IncrementalFock, IncrementalStats, ScfConfig, ScfResult};
use crate::screening::ScreenedPairs;
use emx_linalg::Matrix;
use emx_spec::{execute_transactions, Stall, TxnCtx};

/// Speculation effort accumulated over a whole speculative SCF run.
#[derive(Debug, Clone, Default)]
pub struct SpeculativeStats {
    /// Workers the speculative blocks ran on.
    pub workers: usize,
    /// Transactions committed across all iterations (Fock + refresh).
    pub commits: usize,
    /// Execution attempts started, including aborted and stalled ones.
    pub executions: usize,
    /// Read-set invalidations that aborted an optimistic execution.
    pub aborts: usize,
    /// Attempts cut short by a stall on an aborted dependency.
    pub stalls: usize,
    /// Speculative blocks executed (one per SCF iteration).
    pub blocks: usize,
}

impl SpeculativeStats {
    /// Aborts per committed transaction.
    pub fn abort_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Executions that did not commit — the work speculation wasted.
    pub fn wasted_executions(&self) -> usize {
        self.executions.saturating_sub(self.commits)
    }
}

/// One transaction of an iteration's speculative Fock block.
enum SpecTxn {
    /// Bump the density-epoch marker at location 0: semantically the
    /// same density, a new version — the conflict generator.
    Refresh,
    /// Compute the partial `G` of tasks `[begin, end)` against the
    /// epoch read at location 0.
    Fock(usize, usize),
}

/// Chunks the task list and interleaves epoch refreshes: one refresh
/// ahead of every `REFRESH_STRIDE` Fock chunks (after the first), so
/// optimistic executions genuinely race a pending epoch write.
fn plan_block(ntasks: usize, nchunks: usize) -> Vec<SpecTxn> {
    const REFRESH_STRIDE: usize = 3;
    let nchunks = nchunks.clamp(1, ntasks.max(1));
    let mut plan = Vec::new();
    for c in 0..nchunks {
        if c > 0 && c % REFRESH_STRIDE == 0 {
            plan.push(SpecTxn::Refresh);
        }
        let begin = c * ntasks / nchunks;
        let end = (c + 1) * ntasks / nchunks;
        if begin < end {
            plan.push(SpecTxn::Fock(begin, end));
        }
    }
    plan
}

/// RHF with incremental Fock builds where every iteration's ΔG build
/// runs as a speculative Block-STM block on `workers` threads: the
/// [`IncrementalFock`] strategy of [`rhf_with`], whose `build` is one
/// [`execute_transactions`] block with the committed partials added in
/// block order.
///
/// Converges to the same state as
/// [`rhf_incremental`](crate::scf::rhf_incremental) (energies agree to
/// FP-regrouping precision, < 1e-12 Hartree on the study workloads) and
/// the result is deterministic for any worker count. `nchunks` sets the
/// Fock transactions per block — chunky transactions keep scheduler
/// overhead amortized; 8–16 is a good range.
pub fn rhf_incremental_speculative(
    bm: &BasisedMolecule,
    config: &ScfConfig,
    workers: usize,
    nchunks: usize,
) -> (ScfResult, IncrementalStats, SpeculativeStats) {
    assert!(workers > 0, "need at least one worker");
    let nbf = bm.nbf;
    let pairs = ScreenedPairs::build(bm, config.tau * 1e-2);
    let fb = FockBuilder::new(bm, &pairs, config.tau);
    let tasks = fb.tasks(usize::MAX);
    let plan = plan_block(tasks.len(), nchunks);
    let mut spec_stats = SpeculativeStats {
        workers,
        ..SpeculativeStats::default()
    };

    let mut build = |d: &Matrix, screen: Screen<'_>, g: &mut Matrix| -> u64 {
        // The block body: a pure function of its reads. The epoch read
        // orders every Fock chunk after the refreshes that committed
        // before it; the yield invites preemption between the read and
        // the compute so stale reads — and the aborts that repair them
        // — actually happen even on a single hardware thread.
        let body = |i: usize, ctx: &mut TxnCtx<u64>| -> Result<Option<(Matrix, u64)>, Stall> {
            let epoch = *ctx.read(0)?;
            match plan[i] {
                SpecTxn::Refresh => {
                    ctx.write(0, epoch + 1);
                    Ok(None)
                }
                SpecTxn::Fock(begin, end) => {
                    std::thread::yield_now();
                    let mut partial = Matrix::zeros(nbf, nbf);
                    let mut scratch = fb.scratch();
                    let q = tasks[begin..end]
                        .iter()
                        .map(|t| fb.execute_with(t, screen, d, d, 0.5, &mut partial, &mut scratch))
                        .sum();
                    Ok(Some((partial, q)))
                }
            }
        };
        let spec = execute_transactions(workers, vec![0u64], plan.len(), body);
        spec_stats.commits += spec.stats.commits;
        spec_stats.executions += spec.stats.executions;
        spec_stats.aborts += spec.stats.aborts;
        spec_stats.stalls += spec.stats.stalls;
        spec_stats.blocks += 1;

        // Add the committed partials in block order — the
        // deterministic-commit rule makes this sum independent of which
        // worker ran what and of how many incarnations it took.
        let mut quartets = 0;
        for (partial, q) in spec.outputs.into_iter().flatten() {
            for (gi, pi) in g.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                *gi += pi;
            }
            quartets += q;
        }
        quartets
    };
    let mut strategy = IncrementalFock::new(&fb);
    let result = rhf_with(bm, config, |p| strategy.next(p, &mut build));
    let stats = strategy.into_stats();
    (result, stats, spec_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSet;
    use crate::molecule::Molecule;
    use crate::scf::rhf_incremental;

    fn water() -> BasisedMolecule {
        BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g)
    }

    #[test]
    fn speculative_scf_matches_sequential_incremental() {
        let bm = water();
        let cfg = ScfConfig::default();
        let (seq, seq_stats) = rhf_incremental(&bm, &cfg);
        let (spec, spec_inc, stats) = rhf_incremental_speculative(&bm, &cfg, 2, 8);
        assert!(spec.converged);
        assert!(
            (spec.energy - seq.energy).abs() < 1e-12,
            "speculative {} vs sequential {}",
            spec.energy,
            seq.energy
        );
        assert_eq!(spec.iterations, seq.iterations);
        assert_eq!(
            spec_inc.quartets_per_iteration,
            seq_stats.quartets_per_iteration
        );
        assert!(stats.commits > 0);
        assert_eq!(stats.blocks, spec.iterations);
        assert_eq!(
            stats.executions,
            stats.commits + stats.aborts + stats.stalls,
            "abort accounting must balance"
        );
    }

    #[test]
    fn speculative_scf_is_deterministic_across_worker_counts() {
        let bm = water();
        let cfg = ScfConfig::default();
        let (one, _, s1) = rhf_incremental_speculative(&bm, &cfg, 1, 8);
        let (four, _, _) = rhf_incremental_speculative(&bm, &cfg, 4, 8);
        // The commit rule makes the result a pure function of the
        // inputs: identical trajectories bit for bit.
        assert_eq!(one.energy.to_bits(), four.energy.to_bits());
        assert_eq!(one.energy_history, four.energy_history);
        // One worker claims in block order: speculation never misfires.
        assert_eq!(s1.aborts, 0);
        assert_eq!(s1.stalls, 0);
    }

    #[test]
    fn block_plan_interleaves_refreshes_between_chunks() {
        let plan = plan_block(100, 8);
        let focks = plan
            .iter()
            .filter(|t| matches!(t, SpecTxn::Fock(_, _)))
            .count();
        let refreshes = plan
            .iter()
            .filter(|t| matches!(t, SpecTxn::Refresh))
            .count();
        assert_eq!(focks, 8);
        assert_eq!(refreshes, 2, "refresh ahead of chunks 3 and 6");
        // Chunks tile the task range exactly.
        let mut covered = 0;
        for t in &plan {
            if let SpecTxn::Fock(b, e) = t {
                assert_eq!(*b, covered);
                covered = *e;
            }
        }
        assert_eq!(covered, 100);
    }
}
