import collections

import numpy as np
import pytest
import scipy.linalg as sla

import platelab as pl
from platelab import assembly, verifier
from platelab.errors import AlphaOutOfRange, BoundViolated

from conftest import disk_setup


def test_k_alpha_reference_values():
    assert verifier.k_alpha_ref(0.25) == pytest.approx(9.0 / 6.5625, rel=1e-14)
    assert verifier.k_alpha_ref(0.0) == pytest.approx(1.0)
    # diverges as alpha -> 1/2
    assert verifier.k_alpha_ref(0.499) > 100.0


def test_gamma_alpha_values():
    assert verifier.gamma_alpha(0.5) == pytest.approx(1.0, abs=1e-15)
    assert verifier.gamma_alpha(0.0) == 0.0
    a = np.linspace(0.01, 0.5, 50)
    g = (40 * a**2 - 16 * a**4) / 9
    assert np.all((g > 0) & (g <= 1 + 1e-15))


def test_cross_term_bound_value():
    assert verifier.cross_term_bound(1.0, 0.25, 9.0 / 16.0) == pytest.approx(
        18.0, abs=1e-12)


def test_default_n_sweep():
    assert verifier.default_n_sweep(1.0 / 64) == [8, 16, 32, 64]
    assert verifier.default_n_sweep(1.0 / 20) == [8, 16, 20]
    assert verifier.default_n_sweep(1.0 / 128) == [8, 16, 32, 64, 128]


def test_hardy_sweep_nonincreasing(disk32):
    grad = assembly.assemble_weighted(disk32.grid, disk32.mask, None,
                                      "grad", 0.0, 1)
    rep = verifier.estimate_hardy_constant(
        grad, disk32.grid, disk32.mask, disk32.dist, "hardy_grad",
        n_sweep=(4, 8, 16, 32))
    vals = [c for _, c in rep.n_sweep]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert rep.constant_hat == vals[-1]
    assert rep.constant_hat > 0


def test_hardy_plain_constant_above_quarter(disk64):
    grad = assembly.assemble_weighted(disk64.grid, disk64.mask, None,
                                      "grad", 0.0, 1)
    rep = verifier.estimate_hardy_constant(
        grad, disk64.grid, disk64.mask, disk64.dist, "hardy_grad",
        n_sweep=(8, 16, 32, 64))
    # continuum best constant for the clamped class is 1/4; the discrete
    # estimate must not fall below it
    assert rep.constant_hat >= 0.25


def test_hardy_unknown_kind(disk32):
    with pytest.raises(ValueError):
        verifier.estimate_hardy_constant(disk32.Q0, disk32.grid, disk32.mask,
                                         disk32.dist, "nope")


def test_hardy_weak_pair_reported(disk32):
    # weak_pair is (c_inf, rms residual) of the law fitted to the sweep;
    # three levels determine the law's three parameters
    rep = verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
        n_sweep=(8, 16, 32))
    assert rep.weak_pair == verifier._fit_log_law(rep.n_sweep)
    assert rep.weak_pair[1] <= 1e-10
    assert rep.weak_sweep == ()
    # two levels do not determine it
    rep = verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
        n_sweep=(8, 16))
    assert rep.weak_pair is None
    assert not rep.weak_stabilized


def test_hardy_assembles_each_weight_once(disk32, monkeypatch):
    calls = []
    weighted = verifier.assemble_weighted
    monkeypatch.setattr(verifier, "assemble_weighted", lambda *a, **k:
                        calls.append(a[-1]) or weighted(*a, **k))
    verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "hardy_grad",
        n_sweep=(4, 8, 16))
    assert calls == [4, 8, 16]


def test_hardy_weak_stabilized_flag(disk32):
    def report(n_sweep):
        return verifier.estimate_hardy_constant(
            disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
            n_sweep=n_sweep)

    # three levels leave no level out to check the fit with
    assert not report((8, 16, 32)).weak_stabilized
    # on the grid the leave-one-out limits spread from -1.83 to -2.39
    rep = report((4, 8, 16, 32))
    assert rep.weak_pair is not None
    assert not rep.weak_stabilized
    # with 1/n far below the smallest interior distance d_n barely moves,
    # so every leave-one-out limit lies within 0.02% of the fit's
    rep = report((2**20, 2**21, 2**22, 2**23))
    assert rep.weak_stabilized
    c_inf = rep.weak_pair[0]
    for i in range(4):
        loo = rep.n_sweep[:i] + rep.n_sweep[i + 1:]
        assert verifier._fit_log_law(loo)[0] == pytest.approx(c_inf,
                                                              rel=2e-4)


def _hardy_setup(domain, h):
    grid, mask = pl.build_grid(domain, h)
    dist = pl.euclidean_from_sdf(domain, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    pencils = {"hardy_grad": grad, "rellich_mass": Q0, "rellich_grad": Q0}
    return grid, mask, dist, pencils


# the default sweeps have 2, 3, 4 and 3 levels on these grids
@pytest.mark.parametrize("domain,h", [(pl.disk(1.0), 1 / 16),
                                      (pl.disk(1.0), 1 / 32),
                                      (pl.disk(1.0), 1 / 40),
                                      (pl.rectangle(2.0, 1.0), 1 / 20)],
                         ids=["disk16", "disk32", "disk40", "rect20"])
def test_hardy_matches_a_solve_per_level(domain, h):
    # the sweep through one LU equals a solve with its own LU per level,
    # and weak_pair is the fit of that sweep
    grid, mask, dist, pencils = _hardy_setup(domain, h)
    for kind, A in pencils.items():
        rep = verifier.estimate_hardy_constant(A, grid, mask, dist, kind)
        order, power = verifier._HARDY_POWERS[kind]
        sweep = tuple(
            (n, float(pl.lowest_eigenpairs(A, assembly.assemble_weighted(
                grid, mask, dist, order, power, n), m=1).values[0]))
            for n in verifier.default_n_sweep(h))
        assert rep.n_sweep == sweep
        assert rep.constant_hat == sweep[-1][1]
        assert rep.weak_pair == (verifier._fit_log_law(sweep)
                                 if len(sweep) >= 3 else None)


def _hardy_call_counts(monkeypatch):
    # factor and lowest_eigenpairs calls of each pencil on the h = 1/40 disk
    grid, mask, dist, pencils = _hardy_setup(pl.disk(1.0), 1 / 40)
    calls = collections.Counter()
    for name in ("factor", "lowest_eigenpairs"):
        fn = getattr(verifier, name)
        monkeypatch.setattr(verifier, name, lambda *a, fn=fn, name=name, **k:
                            calls.update([name]) or fn(*a, **k))
    n_sweep = verifier.default_n_sweep(grid.h)
    assert len(n_sweep) == 4
    counts = []
    for kind, A in pencils.items():
        calls.clear()
        verifier.estimate_hardy_constant(A, grid, mask, dist, kind)
        counts.append(dict(calls))
    return n_sweep, counts


def test_hardy_factors_each_pencil_once(monkeypatch):
    # one LU of A per pencil, shared by every level n
    _, counts = _hardy_call_counts(monkeypatch)
    assert [c.get("factor") for c in counts] == [1, 1, 1]


def test_hardy_solves_each_level_once(monkeypatch):
    # one eigensolve per level n and no other
    n_sweep, counts = _hardy_call_counts(monkeypatch)
    assert [c.get("lowest_eigenpairs") for c in counts] == [len(n_sweep)] * 3


LAWS = [(c_inf, C, b) for c_inf in (0.1, 0.25, 9 / 16, 1.0)
        for C, b in ((10.0, 0.5), (3.0, -1.5), (25.0, 4.0))]


@pytest.mark.parametrize("c_inf, C, b", LAWS)
def test_fit_log_law_recovers_synthetic_laws(c_inf, C, b):
    points = [(n, c_inf + C / (np.log(n) + b) ** 2)
              for n in (8, 16, 32, 64, 128)]
    rng = np.random.default_rng(0)
    for order in (range(5), rng.permutation(5), rng.permutation(5)):
        pts = [points[i] for i in order]
        fit = verifier._fit_log_law(pts)
        assert fit[0] == pytest.approx(c_inf, abs=1e-10)
        assert fit[1] <= 1e-10
        assert verifier._fit_log_law(pts[:3])[0] == pytest.approx(c_inf,
                                                                 abs=1e-10)


def test_fit_log_law_on_the_continuum_hardy_values():
    # the continuum hardy_grad constants of the unit disk, from a 1-D
    # radial P1 solve (graded mesh, 2e4 elements): the law's limit lies
    # near the weak constant 1/4 and moves toward it as small n drop out
    table = [(8, 1.7461), (16, 1.1842), (32, 0.8831), (64, 0.7060),
             (128, 0.5939)]
    assert verifier._fit_log_law(table)[0] == pytest.approx(0.2314, abs=1e-3)
    assert verifier._fit_log_law(table[1:])[0] == pytest.approx(0.2434,
                                                                abs=1e-3)


def test_decay_lhs_monotone_in_n(disk32):
    rep = verifier.verify_decay(disk32.spec, 0, 0.25, disk32.dist,
                                disk32.grid, disk32.mask,
                                n_sweep=(4, 8, 16, 32))
    vals = [v for _, v in rep.n_sweep]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert rep.lhs == vals[-1]
    assert rep.rhs == pytest.approx(
        disk32.spec.values[0] ** (1 + 0.25 / 2), rel=1e-6)


def test_decay_blowup_flags(disk32):
    rep = verifier.verify_decay(disk32.spec, 0, 0.6, disk32.dist,
                                disk32.grid, disk32.mask,
                                n_sweep=(8, 16, 32))
    assert rep.flagged_alpha
    assert rep.blowup
    with pytest.raises(AlphaOutOfRange):
        verifier.verify_decay(disk32.spec, 0, 1.5, disk32.dist,
                              disk32.grid, disk32.mask)
    with pytest.raises(ValueError):
        verifier.verify_decay(disk32.spec, 0, 0.25, disk32.dist,
                              disk32.grid, disk32.mask, n_sweep=(0, 8))


def test_decay_matches_assembled_weighted_forms(disk32):
    # reference: the three weighted integrals as assembled sparse forms
    grid, mask, dist = disk32.grid, disk32.mask, disk32.dist
    u = disk32.spec.vectors[:, 0]
    Dxx, Dyy, Dxy, _, _ = assembly.interior_difference_ops(grid, mask)
    alpha = 0.3
    rep = verifier.verify_decay(disk32.spec, 0, alpha, dist, grid, mask,
                                n_sweep=(8, 32))
    for n, lhs in rep.n_sweep:
        W = assembly.assemble_weighted(grid, mask, dist, "mass", 2 * alpha, n)
        hess = sum(wr * float((D @ u) @ (W.matrix @ (D @ u)))
                   for wr, D in ((1.0, Dxx), (1.0, Dyy), (2.0, Dxy)))
        grad = assembly.assemble_weighted(grid, mask, dist, "grad",
                                          2 + 2 * alpha, n)(u)
        mass = assembly.assemble_weighted(grid, mask, dist, "mass",
                                          4 + 2 * alpha, n)(u)
        assert lhs == pytest.approx(hess + grad + mass, rel=1e-10)


def test_decay_rhs_matches_dense_spectrum():
    # rhs = ||H u|| ||H^(a/2) u|| for H = mass^-1 Q0, both norms taken over
    # the full dense spectrum of the h = 1/16 disk
    disk = disk_setup(1.0 / 16)
    assert disk.mask.count == 793
    lam, V = sla.eigh(disk.Q0.matrix.toarray(), disk.mass.matrix.toarray())
    u = disk.spec.vectors[:, 0]
    c2 = (V.T @ (disk.mass.matrix @ u)) ** 2
    for alpha in (0.1, 0.3):
        rep = verifier.verify_decay(disk.spec, 0, alpha, disk.dist,
                                    disk.grid, disk.mask)
        dense = np.sqrt(lam**2 @ c2) * np.sqrt(lam**alpha @ c2)
        assert rep.rhs == pytest.approx(dense, rel=1e-9)


def test_decay_increment_grows_with_alpha(disk32):
    incs = []
    for a in (0.1, 0.4, 0.7):
        rep = verifier.verify_decay(disk32.spec, 0, a, disk32.dist,
                                    disk32.grid, disk32.mask,
                                    n_sweep=(16, 32))
        (_, lo), (_, hi) = rep.n_sweep
        incs.append((hi - lo) / lo)
    assert incs[0] < incs[1] < incs[2]


def test_witnesses_reproducible_and_normalized(disk32):
    w1, l1 = verifier.make_witnesses(disk32.spec, disk32.dist, disk32.grid,
                                     disk32.mask, seed=42)
    w2, l2 = verifier.make_witnesses(disk32.spec, disk32.dist, disk32.grid,
                                     disk32.mask, seed=42)
    assert l1 == l2 == ["phi_1", "phi_2", "phi_3", "phi_4", "phi_5",
                        "bump_1", "bump_2", "bump_3"]
    for a, b in zip(w1, w2):
        assert np.array_equal(a, b)
    for u in w1:
        norm = np.sqrt(disk32.spec.b_inner(u, u))
        assert norm == pytest.approx(1.0, rel=1e-6)


def test_probe_p_alpha_positive_margin(disk32):
    witnesses, labels = verifier.make_witnesses(
        disk32.spec, disk32.dist, disk32.grid, disk32.mask)
    rep = verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                                 witnesses, labels=labels, mask=disk32.mask)
    assert rep.margin > 0
    assert rep.k_used == pytest.approx(1.05 * verifier.k_alpha_ref(0.25))
    assert rep.kprime_used >= 1.0
    assert rep.rhs >= rep.lhs
    assert len(rep.per_witness_margin) == len(witnesses)
    assert min(rep.per_witness_margin) == pytest.approx(rep.margin)
    with pytest.raises(AlphaOutOfRange):
        verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.5,
                               witnesses, mask=disk32.mask)


def test_probes_require_mask(disk32):
    witnesses, _ = verifier.make_witnesses(disk32.spec, disk32.dist,
                                           disk32.grid, disk32.mask)
    with pytest.raises(TypeError, match="mask"):
        verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                               witnesses)
    base = verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                                  witnesses, mask=disk32.mask)
    with pytest.raises(TypeError, match="mask"):
        verifier.probe_perturbation(base, disk32.Q0, disk32.mass,
                                    disk32.dist, 0.0, 1.0, 1.0, witnesses)


@pytest.mark.parametrize("n_sweep", [(0, 8), (-4, 8), ()])
def test_every_probe_rejects_levels_below_one(disk32, n_sweep):
    # d + 1/n is undefined for n = 0 and no regularization for n < 0
    witnesses, _ = verifier.make_witnesses(disk32.spec, disk32.dist,
                                           disk32.grid, disk32.mask)
    base = verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                                  witnesses, mask=disk32.mask)
    with pytest.raises(ValueError, match="n >= 1"):
        verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                               witnesses, n_sweep=n_sweep, mask=disk32.mask)
    with pytest.raises(ValueError, match="n >= 1"):
        verifier.probe_perturbation(base, disk32.Q0, disk32.mass,
                                    disk32.dist, 0.0, 1.0, 1.0, witnesses,
                                    n_sweep=n_sweep, mask=disk32.mask)
    with pytest.raises(ValueError, match="n >= 1"):
        verifier.verify_decay(disk32.spec, 0, 0.25, disk32.dist,
                              disk32.grid, disk32.mask, n_sweep=n_sweep)
    with pytest.raises(ValueError, match="n >= 1"):
        verifier.estimate_hardy_constant(
            disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
            n_sweep=n_sweep)


def test_cross_term_constant_in_theory_window(disk32):
    witnesses, _ = verifier.make_witnesses(disk32.spec, disk32.dist,
                                           disk32.grid, disk32.mask)
    c_hat = verifier.measure_cross_term_constant(
        disk32.dist, 0.25, witnesses, disk32.grid, disk32.mask, Q0=disk32.Q0)
    # the closed-form ceiling at (c2, A, B) = (1, 1/4, 9/16) is 18
    assert 0.0 < c_hat <= verifier.cross_term_bound(1.0, 0.25, 9.0 / 16.0)


def test_probe_perturbation_zero_delta_matches_base(disk32):
    witnesses, labels = verifier.make_witnesses(
        disk32.spec, disk32.dist, disk32.grid, disk32.mask)
    base = verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                                  witnesses, labels=labels, mask=disk32.mask)
    rep = verifier.probe_perturbation(base, disk32.Q0, disk32.mass,
                                      disk32.dist, 0.0, 1.0, 1.0, witnesses,
                                      labels=labels, mask=disk32.mask)
    assert rep.k_used == pytest.approx(base.k_used, rel=1e-15)
    assert rep.margin == pytest.approx(base.margin, rel=1e-10)


def test_probe_perturbation_inflates_k_and_keeps_margin(disk32):
    witnesses, labels = verifier.make_witnesses(
        disk32.spec, disk32.dist, disk32.grid, disk32.mask)
    base = verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                                  witnesses, labels=labels, mask=disk32.mask)
    tilde = assembly.perturb_coeffs(pl.bilaplacian(), 0.01, seed=42)
    Qt = assembly.assemble_Q(disk32.grid, disk32.mask, tilde)
    lam = assembly.ellipticity_window(tilde)
    c_hat = verifier.measure_cross_term_constant(
        disk32.dist, 0.25, witnesses, disk32.grid, disk32.mask, Q0=disk32.Q0)
    rep = verifier.probe_perturbation(base, Qt, disk32.mass, disk32.dist,
                                      tilde.delta_norm, lam,
                                      c_hat, witnesses, labels=labels,
                                      mask=disk32.mask)
    expect_k = base.k_used / (1.0 - (1.0 + c_hat * base.k_used)
                              * tilde.delta_norm / lam)
    assert rep.k_used == pytest.approx(expect_k, rel=1e-12)
    assert rep.k_used > base.k_used
    assert rep.margin > 0


def test_probe_perturbation_hypothesis_violation(disk32):
    witnesses, _ = verifier.make_witnesses(disk32.spec, disk32.dist,
                                           disk32.grid, disk32.mask)
    base = verifier.probe_P_alpha(disk32.Q0, disk32.mass, disk32.dist, 0.25,
                                  witnesses, mask=disk32.mask)
    hyp = 1.0 / (1.0 + 1.0 * base.k_used)
    with pytest.raises(BoundViolated):
        verifier.probe_perturbation(base, disk32.Q0, disk32.mass,
                                    disk32.dist, 2.0 * hyp, 1.0, 1.0,
                                    witnesses, mask=disk32.mask)
