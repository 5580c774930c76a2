"""Observed weak-* continuity of the measures in the parameter.

Cylinder masses vary continuously in psi.  Numerically, we hold a cylinder
family fixed, refine a dyadic grid on the parameter box, and watch the
largest adjacent-grid measure difference shrink with the step size.
"""

from ietskew.instances import build_instance, load_instance
from ietskew.maharam import continuity_profile, default_cylinder_family, dyadic_grids

for name in ("golden_triple", "genus2_rank2"):
    built = build_instance(load_instance(name))
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=4)
    grids = dyadic_grids(built.phi.m)
    profiles = continuity_profile(built.floor, cylinders, grids)
    print(f"== {name}: {len(cylinders)} fixed cylinders at level 4")
    for profile in profiles:
        points = profile.masses.shape[0]
        print(
            f"   step {profile.step:<5}: {points:>3} grid points, "
            f"observed modulus {profile.modulus:.6e}"
        )
    drop = profiles[0].modulus / profiles[-1].modulus
    print(f"   modulus shrank by a factor {drop:.2f} across the refinements")
    print()
