"""The form inequality Q(d_n^-a u) <= k Q(u, d_n^-2a u) + k' ||u||^2.

For a in (0, 1/2) the inequality holds with the sharp inflation constant
k(a) = 9 / ((1 - 4a^2)(9 - 4a^2)).  The probe checks it over a finite witness
set (low eigenfunctions plus smooth bumps) with k = 1.05 k(a), picking the
smallest power-of-two k' that makes every margin nonnegative.  A small
coefficient perturbation is then absorbed by inflating k to
k~ = k / (1 - (1 + c k) ||a~ - a|| / lambda~).
"""
import platelab as pl
from platelab import assembly, verifier


def main():
    dom = pl.disk(1.0)
    h = 1.0 / 64
    grid, mask = pl.build_grid(dom, h)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = pl.lowest_eigenpairs(Q0, mass, m=5)
    witnesses = verifier.make_witnesses(spec, dist)

    print("unit disk, h = 1/64, 8 witnesses "
          "(5 eigenfunctions + 3 smooth bumps)\n")
    print(f"{'alpha':>6} {'k(a)':>8} {'k used':>8} {'k_prime':>8} "
          f"{'min margin':>11}")
    base = {}
    for a in (0.1, 0.25, 0.4):
        rep = verifier.probe_P_alpha(Q0, mass, dist, a, witnesses)
        base[a] = rep
        print(f"{a:6.2f} {rep.k_alpha_ref:8.4f} {rep.k_used:8.4f} "
              f"{rep.kprime_used:8.1f} {rep.margin:11.4f}")

    delta = 0.01
    tilde = assembly.perturb_coeffs(pl.bilaplacian(), delta, seed=42)
    Qt = assembly.assemble_Q(grid, mask, tilde)
    lambda_tilde = assembly.ellipticity_window(tilde)
    print(f"\nperturbed tensor, ||a~ - a|| = {delta}")
    print(f"lower ellipticity constant of the perturbed form: "
          f"lambda~ = {lambda_tilde:.4f}")
    a = 0.25
    c_hat = verifier.measure_cross_term_constant(dist, a, witnesses, Q0=Q0)
    print(f"measured cross-term constant c_hat = {c_hat:.4f} "
          f"(closed-form ceiling at (1, 1/4, 9/16): "
          f"{verifier.cross_term_bound(1.0, 0.25, 9.0 / 16.0):.0f})")
    rep = verifier.probe_perturbation(base[a], Qt, mass, dist, delta,
                                      lambda_tilde, c_hat, witnesses)
    print(f"inflated k~ = {rep.k_used:.4f} (was {base[a].k_used:.4f}); "
          f"min margin = {rep.margin:.4f}")


if __name__ == "__main__":
    main()
