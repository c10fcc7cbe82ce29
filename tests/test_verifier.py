import collections

import numpy as np
import pytest
import scipy.linalg as sla

import platelab as pl
from platelab import assembly, spectral, verifier
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
        n_sweep=(4, 8, 16, 32), mass=disk32.mass)
    vals = [c for _, c in rep.n_sweep]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert rep.constant_hat == vals[-1]
    assert rep.constant_hat > 0


def test_hardy_plain_constant_above_quarter(disk64):
    grad = assembly.assemble_weighted(disk64.grid, disk64.mask, None,
                                      "grad", 0.0, 1)
    rep = verifier.estimate_hardy_constant(
        grad, disk64.grid, disk64.mask, disk64.dist, "hardy_grad",
        n_sweep=(8, 16, 32, 64), mass=disk64.mass)
    # continuum best constant for the clamped class is 1/4; the discrete
    # estimate must not fall below it
    assert rep.constant_hat >= 0.25


def test_hardy_unknown_kind(disk32):
    with pytest.raises(ValueError):
        verifier.estimate_hardy_constant(disk32.Q0, disk32.grid, disk32.mask,
                                         disk32.dist, "nope", mass=disk32.mass)


def test_hardy_weak_pair_reported(disk32):
    rep = verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
        n_sweep=(8, 16), mass=disk32.mass)
    assert rep.weak_pair is not None
    c, shift = rep.weak_pair
    assert c > 0 and shift in verifier.WEAK_SHIFTS
    assert len(rep.weak_sweep) == 2


def test_hardy_assembles_each_weight_once(disk32, monkeypatch):
    # the weak scan reuses the n-sweep's weights at n_lo and n_hi
    calls = []
    weighted = verifier.assemble_weighted
    monkeypatch.setattr(verifier, "assemble_weighted",
                        lambda *a: calls.append(a[-1]) or weighted(*a))
    verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "hardy_grad",
        n_sweep=(4, 8, 16), mass=disk32.mass)
    assert calls == [4, 8, 16]


def test_hardy_weak_stabilized_flag(disk32):
    # default shifts never meet the 2% test on disk32: the capped value is
    # reported and flagged as not stabilized
    rep = verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
        mass=disk32.mass)
    assert rep.weak_pair[1] == 2.0**10
    assert not rep.weak_stabilized
    # with 1/n far below the smallest interior distance d_n barely moves
    # between the two levels, so the scan stops at the first shift
    rep = verifier.estimate_hardy_constant(
        disk32.Q0, disk32.grid, disk32.mask, disk32.dist, "rellich_mass",
        n_sweep=(2**20, 2**21), mass=disk32.mass)
    assert rep.weak_pair[1] == 1.0
    assert rep.weak_stabilized


def _scan_every_shift(A, grid, mask, dist, kind, n_sweep=None, *, mass,
                      seed=42):
    """Reference weak scan: factor and solve each shift in ascending order
    until the first one that meets the stability test."""
    order, power = verifier._HARDY_POWERS[kind]
    n_sweep = verifier._n_levels(n_sweep, grid.h)
    op = spectral.factor(A)
    sweep = []
    weights = {}
    for n in n_sweep:
        weights[n] = assembly.assemble_weighted(grid, mask, dist, order,
                                                power, n)
        spec = pl.lowest_eigenpairs(A, weights[n], m=1, seed=seed, OPinv=op)
        sweep.append((n, float(spec.values[0])))
    n_hi, n_lo = n_sweep[-1], n_sweep[-2]
    for shift in verifier.WEAK_SHIFTS:
        As = assembly.FormMatrix((A.matrix + shift * mass.matrix).tocsr())
        ops = spectral.factor(As)
        c_hi = float(pl.lowest_eigenpairs(As, weights[n_hi], m=1, seed=seed,
                                          OPinv=ops).values[0])
        c_lo = float(pl.lowest_eigenpairs(As, weights[n_lo], m=1, seed=seed,
                                          OPinv=ops).values[0])
        weak_stabilized = (abs(c_lo - c_hi)
                           <= verifier.WEAK_STABILITY_TOL * abs(c_hi))
        if weak_stabilized:
            break
    return verifier.HardyReport(
        kind=kind, constant_hat=sweep[-1][1], n_sweep=tuple(sweep),
        weak_pair=(c_hi, shift), weak_sweep=((n_lo, c_lo), (n_hi, c_hi)),
        weak_stabilized=weak_stabilized)


def _hardy_setup(domain, h):
    grid, mask = pl.build_grid(domain, h)
    dist = pl.euclidean_from_sdf(domain, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    pencils = {"hardy_grad": grad, "rellich_mass": Q0, "rellich_grad": Q0}
    return grid, mask, dist, pencils, mass


# below h = 1/40 on these domains the bounds rule out every shift below the
# cap; at h = 1/40 some are solved at n_lo and ruled out by that value
@pytest.mark.parametrize("domain,h", [(pl.disk(1.0), 1 / 16),
                                      (pl.disk(1.0), 1 / 32),
                                      (pl.disk(1.0), 1 / 40),
                                      (pl.rectangle(2.0, 1.0), 1 / 20)],
                         ids=["disk16", "disk32", "disk40", "rect20"])
def test_hardy_weak_scan_matches_every_shift(domain, h):
    grid, mask, dist, pencils, mass = _hardy_setup(domain, h)
    for kind, A in pencils.items():
        rep = verifier.estimate_hardy_constant(A, grid, mask, dist, kind,
                                               mass=mass)
        assert rep == _scan_every_shift(A, grid, mask, dist, kind, mass=mass)


def test_hardy_weak_scan_stops_at_a_middle_shift():
    # With the lattice mass the top-two ratio grows with the shift on the
    # shipped domains, so a scan stops at its first shift or never.  A
    # shift by Q0, whose minimizers vanish like d^2 at the boundary, makes
    # the ratio fall with the shift instead.
    # Scaling Q0 by 2^-12 is exact, so the shifts 2^0 ... 2^10 of it are
    # 2^-12 ... 2^-2 of Q0, bit for bit.
    grid, mask, dist, pencils, _ = _hardy_setup(pl.disk(1.0), 1 / 16)
    A, Q0 = pencils["hardy_grad"], pencils["rellich_mass"]
    mass = assembly.FormMatrix(Q0.matrix * 2.0**-12)
    kw = dict(n_sweep=(512, 1024), mass=mass)
    rep = verifier.estimate_hardy_constant(A, grid, mask, dist,
                                           "hardy_grad", **kw)
    assert rep.weak_stabilized
    assert rep.weak_pair[1] == 2.0**9   # 2^-3 of Q0
    assert rep == _scan_every_shift(A, grid, mask, dist, "hardy_grad", **kw)


def test_hardy_weak_scan_bounds_hold():
    # every shift solved: c_hi lies below the Rayleigh quotients of the
    # other solves' eigenvectors, and c_lo above the chord from shift 0 to
    # the cap, as concavity in the shift promises
    grid, mask, dist, pencils, mass = _hardy_setup(pl.disk(1.0), 1 / 16)
    shifts = [2.0**j for j in range(0, 11)]
    eta = verifier.WEAK_RULE_OUT_MARGIN
    for kind in ("rellich_mass", "hardy_grad"):
        A = pencils[kind]
        order, power = verifier._HARDY_POWERS[kind]
        W = [assembly.assemble_weighted(grid, mask, dist, order, power, n)
             for n in verifier.default_n_sweep(grid.h)[-2:]]
        solves = {}   # shift -> ((c_lo, v_lo), (c_hi, v_hi))
        for s in [0.0] + shifts:
            As = assembly.FormMatrix((A.matrix + s * mass.matrix).tocsr())
            ops = spectral.factor(As)
            solves[s] = [
                (float(spec.values[0]), spec.vectors[:, 0]) for spec in
                (pl.lowest_eigenpairs(As, Wn, m=1, OPinv=ops) for Wn in W)]
        (c_lo0, _), _ = solves[0.0]
        (c_lo_cap, _), _ = solves[shifts[-1]]
        for s in shifts:
            (c_lo, _), (c_hi, _) = solves[s]
            upper = min((A(v) + s * mass(v)) / W[1](v)
                        for t, pair in solves.items() if t != s
                        for _, v in pair)
            chord = c_lo0 + (c_lo_cap - c_lo0) * s / shifts[-1]
            assert c_hi <= upper
            assert c_lo >= (1.0 - eta) * chord


def test_hardy_weak_scan_factors_few_shifts(disk32, monkeypatch):
    # on the h = 1/32 disk the bounds rule out every shift below the cap
    calls = []
    factor = verifier.factor
    monkeypatch.setattr(verifier, "factor",
                        lambda A: calls.append(1) or factor(A))
    grad = assembly.assemble_weighted(disk32.grid, disk32.mask, None,
                                      "grad", 0.0, 1)
    for kind, A in (("hardy_grad", grad), ("rellich_mass", disk32.Q0),
                    ("rellich_grad", disk32.Q0)):
        calls.clear()
        verifier.estimate_hardy_constant(A, disk32.grid, disk32.mask,
                                         disk32.dist, kind, mass=disk32.mass)
        assert len(calls) <= 3


def test_hardy_weak_scan_solves_n_hi_only_when_needed(monkeypatch):
    # on the h = 1/40 disk each pencil makes 4 plain solves and 2 at the
    # cap; 5 more shifts over the three pencils are solved at n_lo, and
    # each c_lo rules its shift out without the n_hi solve
    grid, mask, dist, pencils, mass = _hardy_setup(pl.disk(1.0), 1 / 40)
    calls = collections.Counter()
    for name in ("factor", "lowest_eigenpairs"):
        fn = getattr(verifier, name)
        monkeypatch.setattr(verifier, name, lambda *a, fn=fn, name=name, **k:
                            calls.update([name]) or fn(*a, **k))
    for kind, A in pencils.items():
        verifier.estimate_hardy_constant(A, grid, mask, dist, kind, mass=mass)
    assert calls["lowest_eigenpairs"] == 23
    assert calls["factor"] <= 11


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
            n_sweep=n_sweep, mass=disk32.mass)


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
