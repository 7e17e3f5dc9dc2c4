//! Unrestricted Hartree–Fock (UHF) for open-shell systems.
//!
//! Separate α and β orbital sets with spin Fock matrices
//!
//! ```text
//! Fᵅ = h + J(Pᵅ+Pᵝ) − K(Pᵅ),    Fᵝ = h + J(Pᵅ+Pᵝ) − K(Pᵝ)
//! ```
//!
//! built on the kernel's generalized J/K scatter
//! ([`FockBuilder::execute_with`]). For the execution-model study this
//! doubles the schedulable work per iteration (two Fock task sets) —
//! and it provides exact correctness anchors: a one-electron atom has
//! no two-electron energy at all, and spin-symmetry breaking at H₂
//! dissociation must recover exactly twice the atomic energy.

use crate::basis::BasisedMolecule;
use crate::fock::{FockBuilder, Screen};
use crate::oneint::{core_hamiltonian, overlap};
use crate::scf::ScfConfig;
use crate::screening::ScreenedPairs;
use emx_linalg::{jacobi_eigen, symmetric_orthogonalizer, Matrix};

/// Result of a UHF run.
#[derive(Debug, Clone)]
pub struct UhfResult {
    /// Total energy (electronic + nuclear), Hartree.
    pub energy: f64,
    /// Nuclear repulsion energy.
    pub nuclear_repulsion: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether convergence was reached.
    pub converged: bool,
    /// α orbital energies (ascending).
    pub eps_alpha: Vec<f64>,
    /// β orbital energies (ascending).
    pub eps_beta: Vec<f64>,
    /// α spin density `Pᵅ = Cᵅ_occ·Cᵅ_occᵀ` (no factor 2).
    pub density_alpha: Matrix,
    /// β spin density.
    pub density_beta: Matrix,
    /// ⟨S²⟩ expectation value (0 for a pure singlet, 0.75 for a pure
    /// doublet; the excess is spin contamination).
    pub s_squared: f64,
}

/// Spin density `P = C_occ·C_occᵀ` (α or β — no closed-shell factor 2).
pub fn spin_density(c: &Matrix, nocc: usize) -> Matrix {
    let n = c.rows();
    let mut p = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for o in 0..nocc {
                s += c[(i, o)] * c[(j, o)];
            }
            p[(i, j)] = s;
        }
    }
    p
}

/// Runs UHF with the given spin multiplicity `2S+1`.
///
/// # Panics
/// Panics when the electron count and multiplicity are inconsistent
/// (`n_e − (mult−1)` must be non-negative and even).
pub fn uhf(bm: &BasisedMolecule, multiplicity: usize, config: &ScfConfig) -> UhfResult {
    assert!(multiplicity >= 1, "multiplicity is 2S+1 ≥ 1");
    let nelec = bm.nelectrons();
    let excess = multiplicity - 1;
    assert!(
        nelec >= excess && (nelec - excess) % 2 == 0,
        "inconsistent electron count {nelec} for multiplicity {multiplicity}"
    );
    let nbeta = (nelec - excess) / 2;
    let nalpha = nbeta + excess;

    let s = overlap(bm);
    let h = core_hamiltonian(bm);
    let x = symmetric_orthogonalizer(&s).expect("overlap must be positive definite");
    let pairs = ScreenedPairs::build(bm, config.tau * 1e-2);
    let fb = FockBuilder::new(bm, &pairs, config.tau);
    let tasks = fb.tasks(usize::MAX);
    let nbf = bm.nbf;

    // Core guess for both spins; for same-occupancy spins, break the
    // α/β symmetry by mixing the α HOMO with the LUMO — without this a
    // UHF run can only ever find the (possibly unstable) RHF solution.
    let core_mos = {
        let hp = h.congruence(&x).expect("shapes");
        let e = jacobi_eigen(&hp, 1e-12, 100).expect("core diagonalization");
        x.matmul(&e.vectors).expect("shapes")
    };
    let mut c_alpha = core_mos.clone();
    let c_beta = core_mos;
    if nalpha == nbeta && nalpha > 0 && nalpha < nbf {
        let (homo, lumo) = (nalpha - 1, nalpha);
        let theta = 0.35f64;
        for r in 0..nbf {
            let (ch, cl) = (c_alpha[(r, homo)], c_alpha[(r, lumo)]);
            c_alpha[(r, homo)] = theta.cos() * ch + theta.sin() * cl;
            c_alpha[(r, lumo)] = -theta.sin() * ch + theta.cos() * cl;
        }
    }
    let mut p_a = spin_density(&c_alpha, nalpha);
    let mut p_b = spin_density(&c_beta, nbeta);

    let enuc = bm.nuclear_repulsion();
    let mut e_old = 0.0;
    let mut eps_alpha = Vec::new();
    let mut eps_beta = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let mut c_a = Matrix::zeros(nbf, nbf);
    let mut c_b = Matrix::zeros(nbf, nbf);

    let mut scratch = fb.scratch();
    for it in 0..config.max_iter * 2 {
        iterations = it + 1;
        let p_total = p_a.add(&p_b).expect("shapes");
        let mut g_a = Matrix::zeros(nbf, nbf);
        let mut g_b = Matrix::zeros(nbf, nbf);
        for t in &tasks {
            let s = Screen::Schwarz;
            fb.execute_with(t, s, &p_total, &p_a, 1.0, &mut g_a, &mut scratch);
            fb.execute_with(t, s, &p_total, &p_b, 1.0, &mut g_b, &mut scratch);
        }
        let f_a = h.add(&g_a).expect("shapes");
        let f_b = h.add(&g_b).expect("shapes");

        // E_elec = ½[Tr(Pᵀh) + Tr(Pᵅ Fᵅ) + Tr(Pᵝ Fᵝ)]
        let e_elec = 0.5
            * (p_total.dot(&h).expect("trace")
                + p_a.dot(&f_a).expect("trace")
                + p_b.dot(&f_b).expect("trace"));

        let solve = |f: &Matrix| {
            let fp = f.congruence(&x).expect("shapes");
            let e = jacobi_eigen(&fp, 1e-12, 100).expect("Fock diagonalization");
            (x.matmul(&e.vectors).expect("shapes"), e.values)
        };
        let (ca, ea) = solve(&f_a);
        let (cb, eb) = solve(&f_b);
        let pa_new = spin_density(&ca, nalpha);
        let pb_new = spin_density(&cb, nbeta);
        eps_alpha = ea;
        eps_beta = eb;
        c_a = ca;
        c_b = cb;

        let de = (e_elec + enuc - e_old).abs();
        let dp = p_a.max_abs_diff(&pa_new).max(p_b.max_abs_diff(&pb_new));
        e_old = e_elec + enuc;
        // Light damping stabilizes the symmetry-broken early iterations.
        let mix = if it < 4 { 0.5 } else { 1.0 };
        let damp = |new: &Matrix, old: &Matrix| {
            let mut m = new.scaled(mix);
            m.axpy(1.0 - mix, old).expect("shapes");
            m
        };
        p_a = damp(&pa_new, &p_a);
        p_b = damp(&pb_new, &p_b);
        if it > 3 && de < config.e_tol && dp < config.d_tol.max(1e-6) {
            converged = true;
            break;
        }
    }

    // ⟨S²⟩ = S(S+1) + n_β − Σ_{iα,jβ} |⟨iα|S|jβ⟩|² over occupied MOs.
    let sz = 0.5 * (nalpha as f64 - nbeta as f64);
    let mut overlap_sum = 0.0;
    if nalpha > 0 && nbeta > 0 {
        let cross = c_a
            .transpose()
            .matmul(&s)
            .expect("shapes")
            .matmul(&c_b)
            .expect("shapes");
        for i in 0..nalpha {
            for j in 0..nbeta {
                overlap_sum += cross[(i, j)] * cross[(i, j)];
            }
        }
    }
    let s_squared = sz * (sz + 1.0) + nbeta as f64 - overlap_sum;

    UhfResult {
        energy: e_old,
        nuclear_repulsion: enuc,
        iterations,
        converged,
        eps_alpha,
        eps_beta,
        density_alpha: p_a,
        density_beta: p_b,
        s_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, BasisedMolecule, Element};
    use crate::molecule::Molecule;
    use crate::scf::rhf;

    #[test]
    fn hydrogen_atom_is_exact_in_the_basis() {
        // One electron: no two-electron energy, so UHF equals the
        // lowest eigenvalue of the core Hamiltonian — and STO-3G
        // hydrogen is the textbook −0.4666 Eh.
        let mut m = Molecule::new();
        m.push(Element::H, [0.0; 3]);
        let bm = BasisedMolecule::assign(&m, BasisSet::Sto3g);
        let r = uhf(&bm, 2, &ScfConfig::default());
        assert!(r.converged);
        assert!((r.energy + 0.46658).abs() < 1e-4, "E = {}", r.energy);
        // A pure doublet: ⟨S²⟩ = 0.75 with zero contamination (no β
        // electrons at all).
        assert!((r.s_squared - 0.75).abs() < 1e-10, "S² = {}", r.s_squared);
    }

    #[test]
    fn closed_shell_uhf_matches_rhf_at_equilibrium() {
        // At the H₂ equilibrium distance the RHF solution is stable, so
        // UHF must collapse back onto it despite the broken guess.
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let r_rhf = rhf(&bm, &ScfConfig::default());
        let r_uhf = uhf(&bm, 1, &ScfConfig::default());
        assert!(r_uhf.converged);
        assert!(
            (r_uhf.energy - r_rhf.energy).abs() < 1e-6,
            "UHF {} vs RHF {}",
            r_uhf.energy,
            r_rhf.energy
        );
        assert!(r_uhf.s_squared.abs() < 1e-6, "S² = {}", r_uhf.s_squared);
    }

    #[test]
    fn h2_dissociation_breaks_spin_symmetry() {
        // The classic UHF result: at large separation the broken-symmetry
        // solution reaches 2·E(H atom) while RHF is ruined by its ionic
        // terms.
        let bm = BasisedMolecule::assign(&Molecule::h2(6.0), BasisSet::Sto3g);
        let r_rhf = rhf(&bm, &ScfConfig::default());
        let r_uhf = uhf(&bm, 1, &ScfConfig::default());
        assert!(r_uhf.converged, "UHF did not converge");
        let two_atoms = 2.0 * -0.46658;
        assert!(
            (r_uhf.energy - two_atoms).abs() < 5e-3,
            "UHF {} vs 2·E(H) {}",
            r_uhf.energy,
            two_atoms
        );
        assert!(
            r_uhf.energy < r_rhf.energy - 0.1,
            "symmetry breaking must pay off"
        );
        // Fully broken singlet: ⟨S²⟩ → 1 (half singlet, half triplet).
        assert!(r_uhf.s_squared > 0.8, "S² = {}", r_uhf.s_squared);
    }

    #[test]
    fn oh_radical_doublet() {
        let mut m = Molecule::new();
        m.push(Element::O, [0.0; 3]);
        m.push(Element::H, [0.0, 0.0, 0.9697 * crate::molecule::ANGSTROM]);
        let bm = BasisedMolecule::assign(&m, BasisSet::Sto3g);
        let r = uhf(&bm, 2, &ScfConfig::default());
        assert!(r.converged);
        // 9 electrons: 5α, 4β. UHF/STO-3G OH sits near −74.36 Eh.
        assert!((-75.0..-73.8).contains(&r.energy), "E = {}", r.energy);
        // Near-pure doublet with small contamination.
        assert!((0.74..0.80).contains(&r.s_squared), "S² = {}", r.s_squared);
        // α has one more occupied level than β below the gap.
        assert!(r.eps_alpha[4] < 0.0 && r.eps_beta[4] > r.eps_alpha[4]);
    }

    #[test]
    #[should_panic(expected = "inconsistent electron count")]
    fn bad_multiplicity_panics() {
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let _ = uhf(&bm, 2, &ScfConfig::default()); // 2 electrons can't be a doublet
    }

    #[test]
    fn spin_density_has_unit_trace_per_electron() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let r = uhf(&bm, 1, &ScfConfig::default());
        let s = crate::oneint::overlap(&bm);
        let tr_a = r.density_alpha.matmul(&s).unwrap().trace().unwrap();
        let tr_b = r.density_beta.matmul(&s).unwrap().trace().unwrap();
        assert!((tr_a - 5.0).abs() < 1e-8);
        assert!((tr_b - 5.0).abs() < 1e-8);
    }
}
