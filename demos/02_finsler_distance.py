"""Operator-induced Finsler distance to the boundary.

The quartic symbol of a fourth-order tensor defines a dual metric
p*(xi) = (sum a_ijkl xi_i xi_j xi_k xi_l)^(1/4).  On a convex domain the
induced distance to the boundary is the minimum over unit normals nu of
(h(nu) - nu . x) / p*(nu), h the domain's support function: the exact
solution of the eikonal equation p*(grad d) = 1, which the upwind residual
below checks on the grid.  For the bilaplacian this is the ordinary
Euclidean distance; anisotropic tensors stretch it directionally.
"""
import numpy as np

import platelab as pl


def main():
    h = 1.0 / 64
    rect = pl.rectangle(2.0, 1.0)
    grid, mask = pl.build_grid(rect, h)

    print("rectangle 2 x 1, grid h = 1/64")
    for name, coeffs in (("bilaplacian", pl.bilaplacian()),
                         ("diagonal a = diag(16, 1)",
                          pl.diagonal(np.array([[16.0, 0.0], [0.0, 1.0]])))):
        dist = pl.finsler_distance(rect, grid, mask, coeffs)
        euclid = pl.euclidean_from_sdf(rect, grid, mask)
        c1, c2 = pl.equivalence_constants(dist, euclid)
        res = pl.eikonal_residual(dist, coeffs)
        d_e = euclid.interior_values()
        far = d_e > 3.0 * h
        px = pl.dual_metric(coeffs, np.array([1.0, 0.0]))
        py = pl.dual_metric(coeffs, np.array([0.0, 1.0]))
        print(f"\n  {name}")
        print(f"    p*(e_x) = {px:.3f}, p*(e_y) = {py:.3f}")
        print(f"    d(center) = {dist.d[grid.ny // 2, grid.nx // 2]:.4f}  "
              f"(Euclidean distance to nearest face: 0.5)")
        print(f"    equivalence constants  c1 = {c1:.4f}, c2 = {c2:.4f}")
        print(f"    eikonal residual (nodes beyond 3h): median = "
              f"{np.median(res[far]):.2e}, within 5h: "
              f"{np.mean(res[far] <= 5 * h):.1%}")
    print("\nWith a = diag(16, 1) the metric speed doubles along x, so the")
    print("left/right faces look twice as close; the center becomes")
    print("equidistant from all four faces in the Finsler geometry.")


if __name__ == "__main__":
    main()
