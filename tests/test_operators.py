import itertools
import math
import re
import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwalk.operators import (
    WALK_KINDS,
    CoinProfile,
    Lattice,
    WalkSpec,
    _disorder_draws,
    _parity_matrix,
    build_walk_operator,
    disorder_offset,
    parity_even,
    symmetric_frame,
)
from ptwalk.spectrum import _structure

PI = math.pi


def loop_interfaces(profile, lattice):
    """The bond centres where the base angles change, found site by
    site around the ring: the slow oracle."""
    x = lattice.positions()
    t1, t2 = profile.base_angles(x)
    cuts = []
    for i in range(lattice.num_sites):
        j = (i + 1) % lattice.num_sites
        if t1[i] != t1[j] or t2[i] != t2[j]:
            cuts.append(x[i] + 0.5)
    return cuts


def homogeneous_spec(kind="three_step", n=40, theta1=0.3, theta2=0.2,
                     gamma=0.0, **kw):
    profile = CoinProfile.homogeneous(theta1, theta2, **kw)
    return WalkSpec(kind=kind, lattice=Lattice(n),
                    profile=profile, gamma=gamma)


class TestLattice:
    def test_centering(self):
        lat = Lattice(5)
        assert lat.x_min == -2
        assert lat.positions().tolist() == [-2, -1, 0, 1, 2]

    def test_parity_partner_periodic_wraps(self):
        lat = Lattice(6)  # x in [-2, 3]
        partner = lat.parity_partner(lat.positions())
        # 3 has no mirror inside [-2, 3]; it wraps onto itself mod 6
        assert partner.tolist() == [2, 1, 0, -1, -2, 3]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Lattice(1)


class TestCoinProfile:
    def test_inner_outer_boundary_is_strict(self):
        p = CoinProfile.inner_outer((0.1, 0.2), (0.3, 0.4), half_width=3)
        t1, _ = p.base_angles(np.array([-3, -2, 0, 2, 3]))
        assert t1.tolist() == [0.3, 0.1, 0.1, 0.1, 0.3]

    def test_left_right_includes_zero_on_the_left(self):
        p = CoinProfile.left_right((0.1, 0.2), (0.3, 0.4))
        t1, _ = p.base_angles(np.array([-1, 0, 1]))
        assert t1.tolist() == [0.1, 0.1, 0.3]

    def test_interfaces_inner_outer(self):
        p = CoinProfile.inner_outer((0.1, 0.2), (0.3, 0.4), half_width=3)
        # inner means |x| < 3 strictly, so the cuts sit at +-2.5
        assert p.interfaces(Lattice(11)) == [-2.5, 2.5]

    def test_interfaces_left_right_periodic_has_wrap_cut(self):
        p = CoinProfile.left_right((0.1, 0.2), (0.3, 0.4))
        cuts = p.interfaces(Lattice(10))  # x in [-4, 5]
        assert cuts == [0.5, 5.5]

    @pytest.mark.parametrize("n", [10, 11])
    @pytest.mark.parametrize("profile", [
        CoinProfile.homogeneous(0.1, 0.2),
        CoinProfile.inner_outer((0.1, 0.2), (0.3, 0.4), half_width=3),
        # the outer region is the single site at the wrap, or none
        CoinProfile.inner_outer((0.1, 0.2), (0.3, 0.4), half_width=5),
        CoinProfile.left_right((0.1, 0.2), (0.3, 0.4)),
        # only theta2 changes across the cut
        CoinProfile.left_right((0.1, 0.2), (0.1, 0.4)),
    ], ids=["homogeneous", "inner_outer", "inner_outer-wide",
            "left_right", "left_right-theta2"])
    def test_interfaces_match_the_site_loop(self, profile, n):
        lattice = Lattice(n)
        assert profile.interfaces(lattice) == loop_interfaces(profile, lattice)

    def test_missing_b_pair_rejected(self):
        with pytest.raises(ValueError):
            CoinProfile("left_right", 0.1, 0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["theta1_a", "theta2_a", "theta1_b",
                                       "theta2_b", "delta",
                                       "disorder_amplitude"])
    def test_non_finite_parameter_rejected(self, field, value):
        # a NaN disorder_amplitude would pass the nonnegative check, and
        # a NaN or infinite angle would reach the eigensolver
        fields = {"theta1_a": 0.1, "theta2_a": 0.2, "theta1_b": 0.3,
                  "theta2_b": 0.4, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            CoinProfile("left_right", **fields)

    @pytest.mark.parametrize("fields,message", [
        ({"disorder_amplitude": 1e308},
         "2 * disorder_amplitude must be finite, got inf"),
        ({"theta2_a": 1e308, "delta": 1e308},
         "theta2_a + delta must be finite, got inf"),
        ({"theta2_b": -1e308, "delta": -1e308},
         "theta2_b + delta must be finite, got -inf"),
    ], ids=["disorder-range", "theta2_a-delta", "theta2_b-delta"])
    def test_overflowing_sum_rejected(self, fields, message):
        # each field is finite, but the draw range or the shifted coin
        # would be infinite and the walk NaN
        fields = {"theta1_a": 0.1, "theta2_a": 0.2, "theta1_b": 0.3,
                  "theta2_b": 0.4, **fields}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoinProfile("left_right", **fields)

    def test_largest_disorder_range_is_finite(self):
        # the largest amplitude whose range 2 * amplitude is finite
        amplitude = sys.float_info.max / 2
        CoinProfile.homogeneous(0.1, 0.2, disorder_amplitude=amplitude)
        draws = _disorder_draws(3, np.arange(-5, 6), 1, amplitude)
        assert np.isfinite(draws).all()
        assert np.abs(draws).max() <= amplitude


class TestDisorderOffset:
    def test_reproducible(self):
        a = disorder_offset(3, -7, 1, 0.1)
        assert disorder_offset(3, -7, 1, 0.1) == a

    def test_bounded(self):
        vals = [disorder_offset(0, x, s, 0.05)
                for x in range(-20, 21) for s in range(3)]
        assert max(abs(v) for v in vals) < 0.05

    def test_negative_sites_distinct(self):
        # regression: an int >= 2**63 in a plain list is run through
        # float64 by numpy and every negative site collapses onto one
        # counter value
        vals = [disorder_offset(7, x, 0, 1.0) for x in range(-10, 0)]
        assert len(set(vals)) == 10

    @given(st.integers(0, 2**32), st.integers(-500, 500),
           st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_slot_and_site_keyed(self, seed, x, slot):
        v = disorder_offset(seed, x, slot, 0.3)
        assert v == disorder_offset(seed, x, slot, 0.3)
        assert abs(v) <= 0.3
        assert v != disorder_offset(seed + 1, x, slot, 0.3)

    @pytest.mark.parametrize("seed", [0, 5, 7, 2**63 + 3, 2**64 - 1])
    def test_whole_lattice_draw_matches_single_draws(self, seed):
        # x = -1 wraps to 2**64 - 1, and its counter carries into word 1;
        # sites wholly below 0, from 0 up, -1 and 0 alone, and out of
        # order around the carry
        sites = [np.arange(-400, 401), np.arange(-9, -1), np.arange(7),
                 np.array([-1]), np.array([0]), np.array([-3, 5, 0, -1, 2])]
        for x, slot in itertools.product(sites, range(3)):
            for amplitude in (0.1, 0.001, 0.314):
                singles = [disorder_offset(seed, xi, slot, amplitude)
                           for xi in x]
                assert np.array_equal(
                    _disorder_draws(seed, x, slot, amplitude), singles)

    def test_effective_angles_add_one_draw_per_site_and_slot(self):
        profile = CoinProfile.inner_outer((0.4, 0.1), (-0.6, 0.2), 5,
                                          delta=0.05, disorder_amplitude=0.2,
                                          disorder_seed=11)
        spec = WalkSpec(kind="three_step_perturbed_disordered",
                        lattice=Lattice(21), profile=profile)
        x = spec.lattice.positions()
        t1, t2 = profile.base_angles(x)
        base = (t1, t2 + 0.05, t2)
        for slot, (theta, clean) in enumerate(zip(spec.effective_angles(x),
                                                  base)):
            loop = [c + disorder_offset(11, xi, slot, 0.2)
                    for xi, c in zip(x, clean)]
            assert np.array_equal(theta, loop)


class TestWalkSpec:
    def test_delta_needs_perturbed_kind(self):
        with pytest.raises(ValueError):
            homogeneous_spec(kind="three_step", delta=0.05)
        homogeneous_spec(kind="three_step_perturbed", delta=0.05)

    def test_disorder_needs_disordered_kind(self):
        with pytest.raises(ValueError):
            homogeneous_spec(kind="three_step_perturbed",
                             disorder_amplitude=0.1)

    def test_effective_angles_delta_only_on_first_slot(self):
        spec = homogeneous_spec(kind="three_step_perturbed", delta=0.05)
        x = spec.lattice.positions()
        t1, t2f, t2s = spec.effective_angles(x)
        assert np.allclose(t2f - t2s, 0.05)
        assert np.allclose(t1, 0.3)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite"):
            WalkSpec("three_step", Lattice(11),
                     CoinProfile.homogeneous(0.1, 0.2), gamma=gamma)

    def test_two_step_is_an_unknown_kind(self):
        # the paper's walk is the three-step one; no other protocol exists
        with pytest.raises(ValueError, match="unknown walk kind 'two_step'"):
            homogeneous_spec(kind="two_step")

    @pytest.mark.parametrize("n", [100, 101])
    def test_inner_region_leaves_an_outer_site(self, n):
        def spec(half_width):
            profile = CoinProfile.inner_outer((0.1, 0.2), (0.3, 0.4),
                                              half_width)
            return WalkSpec("three_step", Lattice(n), profile)

        widest = spec(n // 2)
        assert len(widest.profile.interfaces(widest.lattice)) == 2
        with pytest.raises(ValueError, match="leaves no outer site"):
            spec(n // 2 + 1)


class TestBuildOperator:
    def test_unitary_at_gamma_zero(self):
        op = build_walk_operator(homogeneous_spec())
        prod = op.matrix @ op.matrix.T
        assert np.max(np.abs(prod - np.eye(op.dim))) < 1e-12

    def test_real_entries(self):
        op = build_walk_operator(homogeneous_spec(gamma=0.1))
        assert op.matrix.dtype == np.float64

    def test_bandwidth(self):
        spec = homogeneous_spec(n=30)
        op = build_walk_operator(spec)
        m = op.matrix
        n = spec.lattice.num_sites
        for i in range(n):
            for j in range(n):
                d = min(abs(i - j), n - abs(i - j))
                if d > 3:
                    blk = m[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert not blk.any()

    def test_nonunitary_at_gamma(self):
        op = build_walk_operator(homogeneous_spec(gamma=0.1))
        prod = op.matrix @ op.matrix.T
        assert np.max(np.abs(prod - np.eye(op.dim))) > 1e-3

    def test_symmetric_kind_matches_conjugated_three_step(self):
        base = build_walk_operator(homogeneous_spec(gamma=0.1))
        sym = build_walk_operator(homogeneous_spec(
            kind="three_step_symmetric", gamma=0.1))
        assert sym.frame == "symmetric"
        via_frame = symmetric_frame(base)
        assert np.allclose(sym.matrix, via_frame.matrix, atol=1e-13)

    @pytest.mark.parametrize("kind,frame", [
        ("three_step_perturbed_disordered", "stepwise"),
        ("three_step_perturbed_disordered", "symmetric"),
        ("three_step_symmetric", "symmetric"),
    ])
    def test_inverse(self, kind, frame):
        kw = ({"delta": 0.05, "disorder_amplitude": 0.2, "disorder_seed": 3}
              if kind.endswith("disordered") else {})
        op = build_walk_operator(homogeneous_spec(kind=kind, n=21, gamma=0.1,
                                                  **kw))
        if frame == "symmetric":
            op = symmetric_frame(op)
        assert op.frame == frame
        inverse = op.inverse.toarray()
        assert np.abs(inverse @ op.matrix - np.eye(op.dim)).max() < 1e-13
        assert np.abs(np.linalg.inv(op.matrix) - inverse).max() < 1e-12

    @pytest.mark.parametrize("kind", WALK_KINDS)
    def test_indices_sorted(self, kind):
        # later sparse products sum in index order; a reader that sorts
        # in place must not change what they sum to
        op = build_walk_operator(homogeneous_spec(kind=kind, n=21, gamma=0.1))
        rows = np.split(op.sparse.indices, op.sparse.indptr[1:-1])
        assert all(np.all(np.diff(row) > 0) for row in rows)


def skew_parity(lattice):
    """K = parity x i sigma2, a form the walk keeps: U K U^T = K.

    i sigma2 = sigma3 sigma1, so K is ``parity x sigma3`` times T =
    sigma1 on every site.  The relation holds in either frame, whatever
    gamma and delta, whenever parity maps the coin angles onto
    themselves; it makes 1/lambda an eigenvalue with lambda.
    """
    return _parity_matrix(lattice)[:, np.arange(lattice.dim) ^ 1].tocsr()


class TestSkewParity:
    def test_is_parity_times_i_sigma2(self):
        lattice = Lattice(9)
        K = skew_parity(lattice).toarray()
        P = np.abs(_parity_matrix(lattice).toarray())
        i_sigma2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(K, P @ np.kron(np.eye(9), i_sigma2))

    @pytest.mark.parametrize("frame", ["stepwise", "symmetric"])
    @pytest.mark.parametrize("amplitude,kept", [(0.0, True), (0.1, False)])
    def test_kept_without_disorder(self, frame, amplitude, kept):
        profile = CoinProfile.inner_outer((0.4 * PI, 0.1 * PI),
                                          (-0.2 * PI, 0.3 * PI), 5, delta=0.05,
                                          disorder_amplitude=amplitude)
        spec = WalkSpec(kind="three_step_perturbed_disordered",
                        lattice=Lattice(21), profile=profile, gamma=0.1)
        op = build_walk_operator(spec)
        if frame == "symmetric":
            op = symmetric_frame(op)
        K = skew_parity(spec.lattice).toarray()
        residual = np.abs(op.matrix @ K @ op.matrix.T - K).max()
        assert (residual < 1e-12) == kept


# (kind, delta, disorder amplitude): every variant a kind accepts
VARIANTS = [("three_step", 0.0, 0.0), ("three_step_symmetric", 0.0, 0.0),
            ("three_step_perturbed", 0.0, 0.0),
            ("three_step_perturbed", 0.05, 0.0),
            *[("three_step_perturbed_disordered", delta, amplitude)
              for delta in (0.0, 0.05) for amplitude in (0.0, 0.1)]]
LAYOUTS = {
    "homogeneous": lambda **kw: CoinProfile.homogeneous(0.3, 0.2, **kw),
    "inner_outer": lambda **kw: CoinProfile.inner_outer(
        (0.4 * PI, 0.1 * PI), (-0.6 * PI, 0.2 * PI), 5, **kw),
    "left_right": lambda **kw: CoinProfile.left_right(
        (0.4 * PI, 0.1 * PI), (-0.6 * PI, 0.2 * PI), **kw),
}
STRUCTURE_GRID = [
    WalkSpec(kind=kind, lattice=Lattice(n), gamma=gamma,
             profile=LAYOUTS[layout](delta=delta, disorder_amplitude=amplitude,
                                     disorder_seed=3))
    for n in (20, 21, 40, 41) for layout in LAYOUTS
    for kind, delta, amplitude in VARIANTS for gamma in (0.0, 0.1, -0.3)
]


def numeric_structure(spec):
    """The label of ``spectrum._structure`` from the relations measured
    on the operator, each within 1e-10 of its Frobenius norm; PT and
    TRS-dagger come from the dense oracle in the symmetric frame."""
    op = build_walk_operator(spec)
    U = op.sparse
    tol = 1e-10 * scipy.sparse.linalg.norm(U)

    def holds(residual):
        return scipy.sparse.linalg.norm(residual) <= tol

    if holds(U.T @ U - scipy.sparse.identity(op.dim)):
        return "orthogonal"
    _, res = dense_symmetry_residuals(symmetric_frame(op))
    if res["pt"] is not None and max(res["pt"], res["trs_dagger"]) <= tol:
        return "pt-fold"
    K = skew_parity(spec.lattice)
    return "skew" if holds(U @ K @ U.T - K) else "general"


class TestStructure:
    """The solver's structure, read from the recipe, against the
    relations the operator satisfies."""

    @pytest.mark.parametrize("spec", STRUCTURE_GRID, ids=[
        f"{s.kind}-{s.profile.layout}-n{s.lattice.num_sites}-g{s.gamma}"
        f"-d{s.profile.delta}-r{s.profile.disorder_amplitude}"
        for s in STRUCTURE_GRID])
    def test_matches_the_relations(self, spec):
        assert _structure(spec) == numeric_structure(spec)

    def test_grid_reaches_every_structure(self):
        assert {_structure(s) for s in STRUCTURE_GRID} == {
            "orthogonal", "pt-fold", "skew", "general"}


def site_loop_parity(lattice):
    """Dense parity x sigma3, placed site by site."""
    x = lattice.positions()
    partner = lattice.parity_partner(x)
    P = np.zeros((lattice.dim, lattice.dim))
    for xi, xp in zip(x, partner):
        i, j = 2 * (xi - lattice.x_min), 2 * (xp - lattice.x_min)
        P[j, i], P[j + 1, i + 1] = 1.0, -1.0
    return P


def dense_symmetry_residuals(op):
    """Residuals of the four symmetry relations on the dense matrix, with
    the parity operator placed site by site: the slow oracle.

    Relations, with U the walk matrix in the symmetric frame (in the
    stepwise frame the symmetry operators acquire position-dependent
    dressings and the plain relations fail spuriously):

    * ``pt``          PT U* PT^-1 U = I       (PT = parity x sigma3)
    * ``trs_dagger``  T U^T T^-1 = U          (T = sigma1 on every site)
    * ``phs_dagger``  U* = U                  (conjugation alone)
    * ``chiral``      Gamma U+ Gamma^-1 = U   (Gamma = sigma1 on every site)

    Returns the Frobenius norm of U and the Frobenius norm of each
    residual, None for ``pt`` when parity does not map the effective
    coin angles onto themselves, since the relation is then not posed.
    """
    assert op.frame == "symmetric"
    U = op.matrix
    lattice = op.spec.lattice
    x = lattice.positions()
    partner = lattice.parity_partner(x)
    T = np.kron(np.eye(lattice.num_sites), [[0.0, 1.0], [1.0, 0.0]])
    res = {
        "trs_dagger": np.linalg.norm(T @ U.T @ T - U),
        "phs_dagger": np.linalg.norm(U.conj() - U),
        "chiral": np.linalg.norm(T @ U.conj().T @ T - U),
        "pt": None,
    }
    P = site_loop_parity(lattice)
    if all(np.array_equal(a, a[np.searchsorted(x, partner)])
           for a in op.spec.effective_angles(x)):
        res["pt"] = np.linalg.norm(P @ U.conj() @ P @ U - np.eye(op.dim))
    return np.linalg.norm(U), res


class TestSymmetries:
    def check(self, spec):
        """Which relations hold within 1e-10 of the norm of U, None
        where one is not posed."""
        op = symmetric_frame(build_walk_operator(spec))
        norm, residuals = dense_symmetry_residuals(op)
        return {name: None if res is None else bool(res < 1e-10 * norm)
                for name, res in residuals.items()}

    @pytest.mark.parametrize("lattice", [
        Lattice(5), Lattice(6), Lattice(40), Lattice(41),
    ], ids=repr)
    def test_parity_matrix_matches_site_loop(self, lattice):
        P = _parity_matrix(lattice)
        assert np.array_equal(P.toarray(), site_loop_parity(lattice))

    def test_homogeneous_has_all_four(self):
        assert self.check(homogeneous_spec(gamma=0.1)) == {
            "pt": True, "trs_dagger": True, "phs_dagger": True,
            "chiral": True}

    def test_inner_outer_keeps_pt(self):
        spec = WalkSpec(
            kind="three_step", lattice=Lattice(41),
            profile=CoinProfile.inner_outer((0.4 * PI, 0.1 * PI),
                                            (-0.2 * PI, 0.3 * PI),
                                            half_width=8),
            gamma=0.1)
        assert self.check(spec)["pt"]

    def test_left_right_breaks_parity_but_not_phs(self):
        spec = WalkSpec(
            kind="three_step", lattice=Lattice(40),
            profile=CoinProfile.left_right((0.4 * PI, 0.1 * PI),
                                           (-0.2 * PI, 0.3 * PI)),
            gamma=0.1)
        holds = self.check(spec)
        # not a verdict: x -> -x does not map the coin profile to itself
        assert holds["pt"] is None
        assert holds["phs_dagger"]

    def test_left_right_keeps_trs_dagger(self):
        # the theta2 coins agree, so T U^T T = U needs no mirror
        spec = WalkSpec(
            kind="three_step", lattice=Lattice(40),
            profile=CoinProfile.left_right((0.4 * PI, 0.1 * PI),
                                           (-0.2 * PI, 0.3 * PI)),
            gamma=0.1)
        assert self.check(spec)["trs_dagger"]

    @pytest.mark.parametrize("lattice", [
        Lattice(5), Lattice(6), Lattice(40), Lattice(41),
    ], ids=repr)
    def test_parity_even_basis(self, lattice):
        E = parity_even(lattice).toarray()
        P = _parity_matrix(lattice).toarray()
        T = np.kron(np.eye(lattice.num_sites), [[0, 1], [1, 0]])
        assert E.shape == (lattice.dim, lattice.num_sites)
        assert np.array_equal(P @ E, E)
        # T anticommutes with P: it carries the +1 sector onto the -1 one,
        # and the two together are an orthonormal basis
        assert np.array_equal(P @ T @ E, -T @ E)
        basis = np.hstack([E, T @ E])
        assert np.allclose(basis.T @ basis, np.eye(lattice.dim), atol=1e-15)

    def test_delta_breaks_chiral_not_phs(self):
        spec = homogeneous_spec(kind="three_step_perturbed", delta=0.05,
                                gamma=0.1)
        holds = self.check(spec)
        assert holds["phs_dagger"]
        assert holds["chiral"] is False


class TestSublattice:
    def test_spectrum_closes_under_negation(self):
        op = build_walk_operator(homogeneous_spec(gamma=0.1))
        evals = np.linalg.eigvals(op.matrix)
        # every eigenvalue's negative is also an eigenvalue
        for lam in evals:
            assert np.min(np.abs(evals + lam)) < 1e-10

