"""Tests for the independent reference routes.

The closed forms used here come from the exponential-orbital product
state: T = N zeta^2 / 2, a single orbital pair repulsion of 5 zeta / 8,
and a conditional density with zero score.  The grid cases are checked
against exact diagonalization on the same stencil.
"""

import numpy as np
import pytest

from corrsearch.domain import DomainError
from corrsearch.oracle import (
    Grid1DWavefunction,
    GridSearchResult,
    GridSystem1D,
    ProductWavefunction,
    direct_expectation_grid,
    direct_expectation_product,
    grid_coulomb_expectation,
    _ground_state,
    _lowest_eigenvalue,
    _sector_hamiltonian,
    soft_kernel,
    kinetic_matrix,
    lattice_fisher,
    lattice_gamma,
    lattice_weizsacker,
    pairwise_table,
    representable_inner_min,
    solve_two_particle_1d,
    system_from_density_values,
    system_from_wavefunction,
    verify_decomposition_grid,
    verify_decomposition_product,
)

HE_ZETA = 27.0 / 16.0


def soft_atom(x):
    return -2.0 / np.sqrt(x * x + 1.0)


# ---------------------------------------------------------------------------
# product state: direct expectations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "zeta,n,kinetic,interaction",
    [
        (1.0, 2, 1.0, 0.625),
        (HE_ZETA, 2, 2.84765625, 1.0546875),
        (1.0, 3, 1.5, 3 * 0.625),  # three identical pairs at N = 3
    ],
)
def test_product_expectations_closed_form(zeta, n, kinetic, interaction):
    direct = direct_expectation_product(ProductWavefunction(zeta, n))
    assert direct.kinetic == pytest.approx(kinetic, rel=1e-9)
    assert direct.interaction == pytest.approx(interaction, rel=1e-9)
    assert direct.internal == pytest.approx(kinetic + interaction, rel=1e-12)


def test_product_wavefunction_validation():
    with pytest.raises(DomainError):
        ProductWavefunction(zeta=0.0, n_electrons=2)
    with pytest.raises(DomainError):
        ProductWavefunction(zeta=1.0, n_electrons=1)


def literal_residual(rep, n):
    """The residual with the literal factor N - 1 in place of (N - 1)/2."""
    rhs = rep.weizsacker + rep.fisher + (n - 1) * rep.coulomb_expectation
    return abs(rep.lhs_internal - rhs)


@pytest.mark.parametrize("zeta,n", [(1.0, 2), (HE_ZETA, 2), (0.8, 3), (1.3, 4)])
def test_product_decomposition_residual_half_vanishes(zeta, n):
    rep = verify_decomposition_product(ProductWavefunction(zeta, n))
    assert rep.fisher == 0.0
    assert rep.residual <= 1e-10
    # with the doubled prefactor the two routes differ by exactly the
    # pair energy once per pair
    n_pairs = n * (n - 1) / 2
    assert literal_residual(rep, n) == pytest.approx(n_pairs * 5.0 * zeta / 8.0, rel=1e-8)


def test_product_weizsacker_equals_kinetic():
    # |grad phi| = zeta phi makes the density-gradient term carry all of T
    w = ProductWavefunction(HE_ZETA, 2)
    rep = verify_decomposition_product(w)
    direct = direct_expectation_product(w)
    assert rep.weizsacker == pytest.approx(direct.kinetic, rel=1e-10)


# ---------------------------------------------------------------------------
# 1D grid solver
# ---------------------------------------------------------------------------


def test_grid_wavefunction_normalization():
    w = solve_two_particle_1d(20, 5.0, soft_atom, symmetry="fermion")
    assert float(np.sum(w.psi**2) * w.h**2) == pytest.approx(1.0, rel=1e-12)
    rho = w.density()
    assert float(np.sum(rho) * w.h) == pytest.approx(2.0, rel=1e-12)
    f = w.conditional_table()
    np.testing.assert_allclose(f.sum(axis=1) * w.h, 1.0, rtol=1e-12)


def test_fermion_amplitude_vanishes_at_coincidence():
    w = solve_two_particle_1d(18, 5.0, soft_atom, symmetry="fermion")
    assert np.abs(np.diag(w.psi)).max() == 0.0
    assert np.abs(np.diag(w.conditional_table())).max() == 0.0


def test_grid_conditional_is_jointly_symmetric():
    # rho(x) f(x'|x) = 2 psi(x, x')^2 is symmetric for either sector
    for sym in ("fermion", "boson"):
        w = solve_two_particle_1d(16, 5.0, soft_atom, symmetry=sym)
        joint = w.density()[:, None] * w.conditional_table()
        assert np.abs(joint - joint.T).max() <= 1e-15


def test_fermion_ground_state_above_boson():
    def total(w):
        direct = direct_expectation_grid(w)
        rho = w.density()
        return direct.internal + float(np.sum(rho * soft_atom(w.x)) * w.h)

    ef = total(solve_two_particle_1d(24, 6.0, soft_atom, symmetry="fermion"))
    eb = total(solve_two_particle_1d(24, 6.0, soft_atom, symmetry="boson"))
    assert ef > eb


def test_solver_guards():
    with pytest.raises(DomainError):
        solve_two_particle_1d(3, 5.0, soft_atom)
    with pytest.raises(DomainError):
        solve_two_particle_1d(65, 5.0, soft_atom)
    with pytest.raises(DomainError):
        solve_two_particle_1d(16, 5.0, soft_atom, symmetry="anyon")


def test_grid_wavefunction_shape_guard():
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(DomainError):
        Grid1DWavefunction(x=x, psi=np.ones((4, 5)), softening=1.0)


@pytest.mark.parametrize(
    "x",
    [np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0]), np.array([0.0]), np.linspace(5.0, -5.0, 16)],
    ids=["uneven", "one-point", "decreasing"],
)
def test_grid_wavefunction_rejects_a_grid_its_h_misreads(x):
    # the wavefunction is normalized with h = x[1] - x[0], as the grid
    # system's lattice terms are: the same three grids must fail the same rule
    with pytest.raises(DomainError, match="grid"):
        Grid1DWavefunction(x=x, psi=np.ones((x.size, x.size)), softening=1.0)


# ---------------------------------------------------------------------------
# decomposition identity on the grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("symmetry", ["boson", "fermion"])
def test_sector_hamiltonian_matches_projected_product_space(symmetry):
    # the pair-list assembly against B^T H B, with H built by Kronecker
    # products on the M^2 product space and B the sector's basis columns
    m = 7
    rng = np.random.default_rng(7)
    kin = kinetic_matrix(m, 0.4)
    v = rng.standard_normal(m)
    w = rng.random((m, m))
    w = w + w.T
    sign = -1.0 if symmetry == "fermion" else 1.0
    ii, jj = np.triu_indices(m, k=1 if symmetry == "fermion" else 0)
    ham = np.kron(kin, np.eye(m)) + np.kron(np.eye(m), kin)
    ham += np.diag((v[:, None] + v[None, :] + w).ravel())
    basis = np.zeros((m * m, ii.size))
    for p, (i, j) in enumerate(zip(ii, jj)):
        basis[i * m + j, p] += 1.0 if i == j else np.sqrt(0.5)
        basis[j * m + i, p] += 0.0 if i == j else sign * np.sqrt(0.5)
    got = _sector_hamiltonian(kin, v[ii] + v[jj] + w[ii, jj], ii, jj, sign)
    np.testing.assert_allclose(got, basis.T @ ham @ basis, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("symmetry", ["boson", "fermion"])
def test_ground_state_matches_full_diagonalization(symmetry, m):
    # the solver's ground state (Lanczos plus inverse iteration) against
    # the lowest eigenpair of eigh on the same sector matrix
    x = np.linspace(-6.0, 6.0, m)
    sign = -1.0 if symmetry == "fermion" else 1.0
    ii, jj = np.triu_indices(m, k=1 if symmetry == "fermion" else 0)
    potential = soft_atom(x)[ii] + soft_atom(x)[jj] + soft_kernel(x, 1.0)[ii, jj]
    ham = _sector_hamiltonian(kinetic_matrix(m, x[1] - x[0]), potential, ii, jj, sign)
    values, vectors = np.linalg.eigh(ham)
    vec = _ground_state(ham)
    assert abs(vec @ ham @ vec - values[0]) <= 1e-12 * abs(values[0])
    assert abs(np.linalg.eigvalsh(ham)[0] - values[0]) <= 1e-12 * abs(values[0])
    assert vec[np.argmax(np.abs(vec))] > 0.0
    want = vectors[:, 0] * np.sign(vectors[np.argmax(np.abs(vectors[:, 0])), 0])
    np.testing.assert_allclose(vec, want, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("m", [16, 32, 48, 64])
@pytest.mark.parametrize("symmetry", ["boson", "fermion"])
def test_lanczos_lowest_eigenvalue_matches_eigvalsh(symmetry, m):
    x = np.linspace(-6.0, 6.0, m)
    sign = -1.0 if symmetry == "fermion" else 1.0
    ii, jj = np.triu_indices(m, k=1 if symmetry == "fermion" else 0)
    potential = soft_atom(x)[ii] + soft_atom(x)[jj] + soft_kernel(x, 1.0)[ii, jj]
    ham = _sector_hamiltonian(kinetic_matrix(m, x[1] - x[0]), potential, ii, jj, sign)
    want = np.linalg.eigvalsh(ham)[0]
    assert abs(_lowest_eigenvalue(ham) - want) <= 1e-10 * abs(want)


def test_lanczos_raises_when_its_residual_never_converges():
    # at tol = 0 the residual must vanish exactly, which rounding prevents
    a = np.random.default_rng(3).standard_normal((12, 12))
    with pytest.raises(np.linalg.LinAlgError, match="Lanczos"):
        _lowest_eigenvalue(a + a.T, tol=0.0)


@pytest.mark.parametrize("m", [4, 16, 32, 64])
@pytest.mark.parametrize("symmetry", ["boson", "fermion"])
def test_grid_decomposition_closes_at_rounding(symmetry, m):
    # the verifier reads <T> off the solver's own Laplacian and the
    # right-hand side off its link form, so the identity holds to
    # rounding in both sectors at every resolution; the doubled
    # prefactor leaves the whole <V_ee> over
    w = solve_two_particle_1d(m, 6.0, soft_atom, symmetry=symmetry)
    rep = verify_decomposition_grid(w)
    assert rep.residual <= 1e-12
    assert literal_residual(rep, 2) > 0.1


def test_lattice_gamma_matches_verifier_terms():
    w = solve_two_particle_1d(16, 5.0, soft_atom, symmetry="fermion")
    rep = verify_decomposition_grid(w)
    system = system_from_wavefunction(w)
    value = lattice_gamma(system, w.conditional_table())
    assert value == pytest.approx(rep.fisher + 0.5 * rep.coulomb_expectation, rel=1e-12)


@pytest.mark.parametrize("symmetry", ["boson", "fermion"])
@pytest.mark.parametrize("m,extent", [(16, 5.0), (32, 6.0)])
def test_lattice_terms_match_solver_energies(symmetry, m, extent):
    # the link form is the solver's own quadratic form rewritten in
    # (rho, f): Weizsacker + Fisher is <T> of the three-point Dirichlet
    # Laplacian, and the half-prefactor Coulomb part is <V_ee>
    w = solve_two_particle_1d(m, extent, soft_atom, symmetry=symmetry)
    kin = kinetic_matrix(m, w.h)
    kinetic = float(np.sum(w.psi * (kin @ w.psi + w.psi @ kin))) * w.h**2
    system = system_from_wavefunction(w)
    f = w.conditional_table()
    lattice_kinetic = lattice_weizsacker(w.x, system.rho) + lattice_fisher(
        w.x, system.rho, f
    )
    assert abs(lattice_kinetic - kinetic) <= 1e-12
    coulomb = 0.5 * grid_coulomb_expectation(w.x, system.rho, f, w.softening)
    assert abs(coulomb - direct_expectation_grid(w).interaction) <= 1e-12
    assert lattice_gamma(system, f) == pytest.approx(
        lattice_fisher(w.x, system.rho, f) + coulomb, rel=1e-14
    )


# ---------------------------------------------------------------------------
# grid systems and the parametric table
# ---------------------------------------------------------------------------


def test_system_from_density_values_normalizes():
    x = np.linspace(-5.0, 5.0, 16)
    system = system_from_density_values(x, np.full(16, 0.37))
    assert float(np.sum(system.rho) * system.h) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainError):
        system_from_density_values(x, np.zeros(16))


def test_grid_system_guards():
    x = np.linspace(-5.0, 5.0, 70)
    with pytest.raises(DomainError):
        GridSystem1D(x=x, rho=np.ones_like(x))
    x = np.linspace(-5.0, 5.0, 16)
    with pytest.raises(DomainError):
        GridSystem1D(x=x, rho=-np.ones_like(x))


@pytest.mark.parametrize(
    "x",
    [np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0]), np.array([0.0]), np.linspace(5.0, -5.0, 16)],
    ids=["uneven", "one-point", "decreasing"],
)
def test_grid_system_rejects_a_grid_its_h_misreads(x):
    # h is x[1] - x[0]: an uneven grid would give every lattice term the
    # wrong spacing, one point has no spacing, and a decreasing grid a negative one
    with pytest.raises(DomainError, match="grid"):
        system_from_density_values(x, np.ones_like(x))


def criterion_6_systems():
    """The uniform, solver-extracted and Gaussian densities on M = 16."""
    x = np.linspace(-5.0, 5.0, 16)
    solved = solve_two_particle_1d(16, 5.0, soft_atom, symmetry="fermion")
    return {
        name: system_from_density_values(x, rho)
        for name, rho in (
            ("uniform", np.ones_like(x)),
            ("extracted", solved.density()),
            ("gaussian", np.exp(-0.5 * x * x)),
        )
    }


@pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0])
def test_pairwise_table_is_feasible(gamma):
    for name, system in criterion_6_systems().items():
        table = pairwise_table(system, gamma)
        joint = system.rho[:, None] * table
        assert np.abs(joint - joint.T).max() <= 1e-12
        np.testing.assert_allclose(joint.sum(axis=1) * system.h, system.rho, atol=1e-12)
        assert np.abs(np.diag(table)).max() == 0.0
        assert np.all(table[~np.eye(16, dtype=bool)] > 0.0)
        if gamma == 0.0 and name == "uniform":
            off = table[~np.eye(16, dtype=bool)]
            np.testing.assert_allclose(off, 1.0 / (15 * system.h), rtol=1e-12)


# ---------------------------------------------------------------------------
# representable search
# ---------------------------------------------------------------------------


def test_representable_search_returns_representable_table():
    x = np.linspace(-5.0, 5.0, 16)
    system = system_from_density_values(x, np.exp(-0.5 * x * x))
    result = representable_inner_min(system, n_restarts=2, seed=0)
    assert isinstance(result, GridSearchResult)
    assert result.converged
    assert result.value == min(result.restart_values)
    f = result.f_table
    joint = system.rho[:, None] * f
    assert np.abs(joint - joint.T).max() <= 1e-12
    assert np.all(f >= 0.0)
    assert np.abs(np.diag(f)).max() == 0.0
    np.testing.assert_allclose(f.sum(axis=1) * system.h, 1.0, rtol=1e-10)


def test_representable_search_reaches_extracted_value_from_other_starts():
    # no start is the extracted table, yet every start ends at its value:
    # the solver's conditional is the constrained minimum at its density
    w = solve_two_particle_1d(16, 5.0, soft_atom, symmetry="fermion")
    system = system_from_wavefunction(w)
    extracted = lattice_gamma(system, w.conditional_table())
    result = representable_inner_min(system, n_restarts=2, seed=3)
    assert result.init_value is None
    assert len(result.restart_values) == 3
    for value in result.restart_values:
        assert abs(value - extracted) <= 1e-9


def test_representable_search_lower_bounds_parametric_family():
    x = np.linspace(-5.0, 5.0, 16)
    system = system_from_density_values(x, np.ones_like(x))
    gammas = np.geomspace(0.05, 10.0, 12)
    parametric = min(lattice_gamma(system, pairwise_table(system, g)) for g in gammas)
    result = representable_inner_min(
        system, f_init=pairwise_table(system, 1.0), n_restarts=2, seed=0
    )
    assert result.converged
    assert result.value <= parametric + 1e-9


def test_representable_search_without_init_has_no_decrease():
    x = np.linspace(-4.0, 4.0, 12)
    system = system_from_density_values(x, np.ones_like(x))
    result = representable_inner_min(system, n_restarts=1, seed=1)
    assert result.init_value is None
    assert result.decrease_from_init is None


def test_representable_search_seeded_start_never_loses():
    # the search keeps the best of all starts, so seeding it with any
    # representable table can only match or beat that table
    x = np.linspace(-4.0, 4.0, 12)
    system = system_from_density_values(x, np.ones_like(x))
    init = pairwise_table(system, 2.0)
    result = representable_inner_min(system, f_init=init, n_restarts=2, seed=2)
    assert result.init_value == pytest.approx(lattice_gamma(system, init), rel=1e-12)
    assert result.value <= result.init_value + 1e-12
    assert result.decrease_from_init >= 0.0


def test_representable_search_is_deterministic():
    x = np.linspace(-4.0, 4.0, 12)
    system = system_from_density_values(x, 1.0 + 0.5 * np.cos(x))
    init = pairwise_table(system, 2.0)
    a = representable_inner_min(system, f_init=init, n_restarts=2, seed=5)
    b = representable_inner_min(system, f_init=init, n_restarts=2, seed=5)
    assert a.value == b.value
    assert a.restart_values == b.restart_values
    assert a.init_value == b.init_value
    np.testing.assert_array_equal(a.f_table, b.f_table)
    assert a.decrease_from_init >= 0.0


def test_representable_search_rejects_unrepresentable_input():
    x = np.linspace(-3.0, 3.0, 8)
    # one site holding more than half the mass has no symmetric pair table
    heavy = system_from_density_values(x, np.array([10.0] + [1.0] * 7))
    with pytest.raises(DomainError, match="marginal"):
        representable_inner_min(heavy, n_restarts=0)
    system = system_from_density_values(x, np.ones_like(x))
    start = np.ones((8, 8))
    start[0, 1] = start[1, 0] = 0.0
    with pytest.raises(DomainError, match="positive"):
        representable_inner_min(system, f_init=start, n_restarts=0)
