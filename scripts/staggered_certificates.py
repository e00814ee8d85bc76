#!/usr/bin/env python3
"""Staggered-exposure resistance certificates and the DiD comparison.

For each (N, G) the script builds the staggered treatment pattern, computes
the exact effective resistances between unit 1 and time T in the treatment
and control graphs, checks them against their closed-form bounds, and shows
that the flow estimator identifies the (1, T) effect even though no
length-3 donor path exists for a difference-in-differences contrast.
"""

import argparse
import math

import numpy as np

from flowcomplete import (
    PanelData,
    did_grid,
    estimate_effects,
    staggered_exposure_certificate,
)
from flowcomplete.patterns import staggered_exposure_pattern


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=str, nargs="+",
                        default=["64:4", "64:8", "128:8"],
                        help="N:G pairs")
    args = parser.parse_args()

    for case in args.cases:
        n_units, groups = (int(x) for x in case.split(":"))
        certificate = staggered_exposure_certificate(n_units, groups)
        treatment = staggered_exposure_pattern(n_units, groups)
        panel = PanelData(outcomes=np.zeros((n_units, n_units)),
                          treatment=treatment)
        did = float(did_grid(panel)[0, n_units - 1])
        report = estimate_effects(panel)
        print(f"N={n_units} G={groups}")
        print(f"  R1 exact {certificate.r1_exact:.5f}  bound {certificate.r1_bound:.5f}")
        print(f"  R0 exact {certificate.r0_exact:.5f}  bound {certificate.r0_bound:.5f}")
        print(f"  DiD at (1, T): "
              f"{'no length-3 path' if math.isnan(did) else did}")
        print(f"  flow estimator identifies (1, T): "
              f"{bool(report.identifiable[0, n_units - 1])}")


if __name__ == "__main__":
    main()
