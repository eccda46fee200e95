"""Genus-1 walkthrough: the three bases, their Gram determinants, and the
lattice facts tying them together.  Run as `python3 demos/torus_certificates.py [p]`."""

import sys

from skeinlat.cli import genus1_cert
from skeinlat.lattice import OLattice, lattice_equal, saturate
from skeinlat.torus import (
    TQFTParams,
    basis_e,
    basis_omega,
    basis_v,
    det_w_certificate,
    s_matrix,
    twist_matrix,
)


def main(p: int) -> None:
    params = TQFTParams.for_prime(p)
    ctx, d = params.ctx, params.d
    print(f"p = {p}: d = {d} colors, ring Z[zeta_{ctx.n}] of degree {ctx.phi}")

    for name in ("e", "omega", "v"):
        cert = genus1_cert(params, name)  # the entry verify-all prints
        tag = "unit" if cert["unit"] else f"(1-q)^{cert['associate_exponent']} times a unit"
        print(f"  {name}-basis gram determinant: {tag}")

    cert = det_w_certificate(params)
    print(f"  det of the omega-orbit matrix: (1-q)^{cert['associate_exponent']} times a unit")

    w_lat = OLattice.from_vectors(ctx, basis_omega(params))
    v_lat = OLattice.from_vectors(ctx, basis_v(params))
    print(f"  twist-orbit lattice equals v-power lattice: {lattice_equal(w_lat, v_lat)}")

    report = saturate(ctx, basis_e(params), [twist_matrix(params), s_matrix(params)])
    print(
        f"  e-basis seed under {{t, S}}: stabilized after {report.iterations} "
        f"growth round(s), reaches the v-power lattice: "
        f"{lattice_equal(report.lattice, v_lat)}"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
