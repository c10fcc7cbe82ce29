from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import platelab as pl
from platelab import assembly, finsler, spectral
from platelab.errors import EllipticityLost, NotElliptic
from platelab.geometry import difference_ops
from test_spectral import _callers


def _single_node_setup():
    # 3x3 interior lattice patch with exactly one interior node
    dom = pl.disk(0.4)
    grid, mask = pl.build_grid(dom, 0.5, min_interior=1)
    assert mask.count == 1
    return grid, mask


def test_q0_isolated_node_value():
    grid, mask = _single_node_setup()
    h = grid.h
    Q0 = assembly.assemble_Q0(grid, mask)
    u = np.array([1.0])
    # rows at all lattice nodes: center (4/h^2)^2 plus four side rows (1/h^2)^2
    assert Q0(u) == pytest.approx(20.0 / h**2)


def test_grad_forms_isolated_node_row_sets():
    grid, mask = _single_node_setup()
    u = np.array([1.0])
    # power 0 sums every lattice row: the four neighbour rows each give
    # (1/2h)^2 * h^2, and the dof's own row has a zero centred gradient
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    assert grad(u) == 1.0
    # a singular weight sums the dof's own row only
    half = finsler.DistanceField(
        grid=grid, d=np.full((grid.ny, grid.nx), 0.5), n_reg=1)
    weighted = assembly.assemble_weighted(grid, mask, half, "grad", 2.0, 1)
    assert weighted(u) == 0.0


def test_every_difference_op_goes_through_the_seam():
    # the clamped closure (which dof columns a difference row reads) is
    # chosen in one function; lattice arrays take the full-lattice stencils
    src = Path(assembly.__file__).resolve().parent
    found = [c for p in sorted(src.glob("*.py"))
             for c in _callers(p, "difference_ops")]
    assert found == [("assembly", "dof_difference_ops"),
                     ("geometry", "lattice_derivative_norms")]


def test_q_isolated_node_hessian_tensor():
    grid, mask = _single_node_setup()
    h = grid.h
    hess_tensor = finsler.CoefficientField("hess", np.diag([1.0, 1.0, 2.0]))
    Q = assembly.assemble_Q(grid, mask, hess_tensor)
    u = np.array([1.0])
    # center 8/h^4, four side rows 4/h^4, four cross rows 2*(1/(4h^2))^2 each
    assert Q(u) == pytest.approx(12.5 / h**2)


def test_q_bilaplacian_equals_q0_bitwise():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 24)
    Q0 = assembly.assemble_Q0(grid, mask)
    Q = assembly.assemble_Q(grid, mask, pl.bilaplacian())
    d = (Q.matrix - Q0.matrix)
    assert d.nnz == 0


def test_q0_consistency_smooth_field():
    # u = sin^2(pi x)sin^2(pi y) (flat to first order at the boundary) on the
    # unit square: integral of (lap u)^2 = 2 pi^4
    errs = []
    for h in (1.0 / 32, 1.0 / 64):
        dom = pl.rectangle(1.0, 1.0)
        grid, mask = pl.build_grid(dom, h)
        xs, ys = (mask.restrict(c) + 0.5 for c in grid.meshgrid())
        u = np.sin(np.pi * xs) ** 2 * np.sin(np.pi * ys) ** 2
        Q0 = assembly.assemble_Q0(grid, mask)
        errs.append(abs(Q0(u) - 2 * np.pi**4) / (2 * np.pi**4))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_forms_positive_definite(disk32):
    rng = np.random.default_rng(3)
    for A in (disk32.Q0, disk32.mass):
        for _ in range(4):
            v = rng.standard_normal(disk32.mask.count)
            assert A(v) > 0


def test_bilinear_consistency(disk32):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(disk32.mask.count)
    v = rng.standard_normal(disk32.mask.count)
    grid, mask = disk32.grid, disk32.mask
    Dxx, Dyy, _, _, _ = difference_ops(grid)
    L = (Dxx + Dyy)[:, mask.nodes]
    direct = grid.h**2 * float((L @ u) @ (L @ v))
    assert disk32.Q0(u, v) == pytest.approx(direct, rel=1e-10)


def test_weighted_mass_power_values():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 16)
    W0 = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    assert np.allclose(W0.matrix.diagonal(), grid.h**2)
    const_dist = finsler.DistanceField(
        grid=grid, d=np.full((grid.ny, grid.nx), 0.5), n_reg=1)
    W4 = assembly.assemble_weighted(grid, mask, const_dist, "mass", 4.0, 10**9)
    assert np.allclose(W4.matrix.diagonal(), grid.h**2 * 16.0, rtol=1e-6)


def test_weighted_monotone_in_n():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 16)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(mask.count)
    prev = None
    for n in (4, 8, 16):
        val = assembly.assemble_weighted(grid, mask, dist, "mass", 2.0, n)(v)
        if prev is not None:
            assert val >= prev
        prev = val


def test_principal_submatrix_is_form_restriction():
    dom = pl.disk(1.0)
    h = 1.0 / 24
    grid, mask = pl.build_grid(dom, h)
    Q = assembly.assemble_Q(grid, mask, pl.product(np.diag([2.0, 1.0])))
    X, Y = grid.meshgrid()
    sub_int = dom.sdf(X, Y) < -0.25
    Qs = assembly.principal_submatrix(Q, mask, sub_int)
    # assemble directly on the eroded mask over the same lattice
    from platelab.geometry import GridMask
    mask2 = GridMask(sub_int)
    Q2 = assembly.assemble_Q(grid, mask2, pl.product(np.diag([2.0, 1.0])))
    a = Qs.matrix.tocoo()
    b = Q2.matrix.tocoo()
    # bit-exact restriction
    da = sp.csr_matrix((a.data, (a.row, a.col)), shape=a.shape)
    db = sp.csr_matrix((b.data, (b.row, b.col)), shape=b.shape)
    diff = da - db
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_ellipticity_window_identity_and_scaling(disk32):
    win = assembly.ellipticity_window(disk32.Q0, disk32.Q0)
    assert win.lambda_ell == pytest.approx(1.0, abs=1e-8)
    Q3 = assembly.FormMatrix((3.0 * disk32.Q0.matrix).tocsr(), disk32.Q0.h,
                             3.0 * finsler._BILAPLACIAN_M)
    win3 = assembly.ellipticity_window(Q3, disk32.Q0)
    assert win3.lambda_ell == pytest.approx(3.0, rel=1e-8)
    # a form without its Voigt matrix has no symbol, and no eigensolve
    # stands in for it; the reference form must be the bilaplacian's
    bare = assembly.FormMatrix(Q3.matrix, Q3.h)
    for Q, Q0 in ((bare, disk32.Q0), (disk32.Q0, Q3)):
        with pytest.raises(ValueError):
            assembly.ellipticity_window(Q, Q0)


def test_ellipticity_window_product_tensor(disk32):
    Q = assembly.assemble_Q(disk32.grid, disk32.mask,
                            pl.product(np.diag([2.0, 1.0])))
    win = assembly.ellipticity_window(Q, disk32.Q0)
    # the symbol minimum of (2 x^2 + y^2)^2 / |xi|^4 is 1
    assert win.lambda_ell == pytest.approx(1.0, rel=0.05)


# (domain, base operator, delta, seed) of the window's perturbed pencils
_WINDOW_CASES = {
    "rect_aniso": (pl.rectangle(2.0, 1.0),
                   pl.diagonal([[16.0, 0.0], [0.0, 1.0]]), 0.01, 42),
    "disk": (pl.disk(1.0), pl.bilaplacian(), 0.1, 0),
}


def _window_pencil(case, h):
    domain, base, delta, seed = _WINDOW_CASES[case]
    grid, mask = pl.build_grid(domain, h)
    tilde = assembly.perturb_coeffs(base, delta, seed=seed)
    return (assembly.assemble_Q(grid, mask, tilde),
            assembly.assemble_Q0(grid, mask))


def test_ellipticity_window_matches_dense_pencil():
    # the symbol bound holds on every mask, and the pencil's lowest
    # eigenvalue comes down to it at first order in h (gaps 2.2e-2, 1.15e-2,
    # 8.6e-3 on rect_aniso and 2.1e-2, 1.5e-2, 1.1e-2 on the disk)
    for case in _WINDOW_CASES:
        for h in (1.0 / 8, 1.0 / 12, 1.0 / 16):
            Qt, Q0 = _window_pencil(case, h)
            ref = sla.eigh(Qt.matrix.toarray(), Q0.matrix.toarray(),
                           eigvals_only=True)[0]
            gap = ref - assembly.ellipticity_window(Qt, Q0).lambda_ell
            assert 0.1 * h < gap < 0.2 * h


def test_ellipticity_window_solve_count(monkeypatch):
    calls = []
    for mod, name in ((spectral, "factor"), (spla, "splu"), (spla, "eigsh")):
        monkeypatch.setattr(mod, name, lambda *a, **k: calls.append(name))
    assembly.ellipticity_window(*_window_pencil("rect_aniso", 1.0 / 32))
    assert calls == []


def _continuum_window(M):
    """min over |xi| = 1 of q(xi) / |xi|^4 on 200001 directions."""
    t = np.linspace(0.0, np.pi, 200001)
    return float(finsler.quartic_symbol(M, np.cos(t), np.sin(t)).min())


def test_ellipticity_window_is_the_continuum_symbol_minimum():
    # for these perturbations the infimum sits at the ray limit theta -> 0,
    # so it is the continuum window, for every h
    for case, (_, base, delta, seed) in _WINDOW_CASES.items():
        r = _continuum_window(assembly.perturb_coeffs(base, delta, seed).M)
        for h in (1.0 / 8, 1.0 / 16):
            win = assembly.ellipticity_window(*_window_pencil(case, h))
            assert win.lambda_ell == pytest.approx(r, abs=1e-6)


def test_ellipticity_window_follows_the_lattice_below_the_continuum():
    # bilaplacian + delta = 0.1 at seed 25: the lattice symbol ratio dips to
    # 0.97749 at a grid-scale theta, below the continuum window 0.99924, and
    # the pencil's lowest eigenvalue (0.97756 at h = 1/16) follows it
    tilde = assembly.perturb_coeffs(pl.bilaplacian(), 0.1, seed=25)
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 16)
    Qt = assembly.assemble_Q(grid, mask, tilde)
    Q0 = assembly.assemble_Q0(grid, mask)
    win = assembly.ellipticity_window(Qt, Q0)
    assert win.lambda_ell < _continuum_window(tilde.M) - 0.02
    ref = sla.eigh(Qt.matrix.toarray(), Q0.matrix.toarray(),
                   eigvals_only=True)[0]
    assert win.lambda_ell <= ref <= win.lambda_ell + 1e-4


def test_lattice_symbol_rejects_a_continuum_elliptic_tensor():
    # s^T M s = x^4 + y^4 on the continuum, but at theta = (pi, pi) the
    # lattice symbol is s_h = (4, 4, 0) / h^2 and q_h = -32 / h^4 (c = 2),
    # or -6.4 / h^4 (c = 1.2: the form on the h = 1/8 disk has the
    # eigenvalue -400, which eight random Ritz vectors do not find)
    t = np.linspace(0.0, np.pi, 1001)
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 8)
    for c in (2.0, 1.2):
        M = np.array([[1.0, -c, 0.0], [-c, 1.0, 0.0], [0.0, 0.0, 2 * c]])
        q = finsler.quartic_symbol(M, np.cos(t), np.sin(t))
        assert np.allclose(q, np.cos(t) ** 4 + np.sin(t) ** 4)
        with pytest.raises(NotElliptic):
            assembly.assemble_Q(grid, mask,
                                finsler.CoefficientField("custom", M))


def test_perturbation_norm_is_delta():
    # perturb_coeffs promises ||M~ - M|| = delta in the orthonormal Hessian
    # basis, which T = diag(1, 1, 1/sqrt 2) maps the Voigt storage to
    base = pl.bilaplacian()
    pert = assembly.perturb_coeffs(base, 0.01, seed=0)
    assert pert.delta_norm == 0.01
    T = np.diag([1.0, 1.0, 1.0 / np.sqrt(2.0)])
    dM = T @ (pert.M - base.M) @ T
    assert np.max(np.abs(np.linalg.eigvalsh(dM))) == pytest.approx(
        0.01, rel=1e-12)


def test_perturbed_field_keeps_symmetries():
    pert = assembly.perturb_coeffs(pl.bilaplacian(), 0.05, seed=7)
    for (i, j, k, l) in [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)]:
        a = pert.tensor_entry(i, j, k, l)
        assert a == pytest.approx(pert.tensor_entry(j, i, k, l))
        assert a == pytest.approx(pert.tensor_entry(k, l, i, j))


def test_perturbed_window_close_to_identity(disk32):
    # |s_h^T dM s_h| <= delta |T^-1 s_h|^2 <= delta (X^2 + Y^2)^2 = delta q0_h
    for delta in (0.01, 0.1, 0.5):
        for seed in range(8):
            pert = assembly.perturb_coeffs(pl.bilaplacian(), delta, seed=seed)
            Q = assembly.assemble_Q(disk32.grid, disk32.mask, pert)
            win = assembly.ellipticity_window(Q, disk32.Q0)
            assert 1 - delta - 1e-12 <= win.lambda_ell <= 1 + delta + 1e-12


def test_perturb_zero_is_identity():
    base = pl.bilaplacian()
    assert assembly.perturb_coeffs(base, 0.0, seed=0) is base


def test_perturb_ellipticity_lost():
    killed = False
    for seed in range(10):
        try:
            assembly.perturb_coeffs(pl.bilaplacian(), 2.5, seed=seed)
        except EllipticityLost:
            killed = True
            break
    assert killed


def test_perturb_rejects_a_lattice_nonpositive_symbol():
    # diag(16, 1) + delta = 1.5 at seed 30 keeps a positive continuum
    # symbol, but its lattice symbol ratio dips to -1.7e-3: assemble_Q would
    # refuse the form, so the perturbation is refused when it is drawn
    with pytest.raises(EllipticityLost):
        assembly.perturb_coeffs(pl.diagonal([[16.0, 0.0], [0.0, 1.0]]), 1.5,
                                seed=30)

