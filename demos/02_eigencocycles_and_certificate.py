"""Integer eigencocycles and the aperiodicity certificate.

A loop supports a periodic-type skew-product exactly when its transposed
matrix fixes an integer vector.  This script inspects the packaged loops,
shows the fixed cocycles, and runs the common-prefix certificate: repeated
induction until every tower word starts with the same alphabet-covering
prefix, whose floor-cocycle differences are the values of phi.  Their Smith
invariant factors, all 1, show that they generate the full lattice.
"""

from ietskew.cocycles import amplify_for_common_prefix
from ietskew.instances import build_instance, load_instance, packaged_names
from ietskew.skew import check_periodic_type, eigencocycles

for name in packaged_names():
    built = build_instance(load_instance(name))
    a = built.tower.matrix
    basis = eigencocycles(a)
    print(f"== {name}: d = {built.tower.d}, fixed-vector rank m = {len(basis)}")
    for vec in basis:
        print(f"   A^T-fixed vector {list(vec)}")
    phi = built.phi
    print(f"   working cocycle phi = {[list(v) for v in phi.values]}")
    print(f"   A^T phi = phi: {check_periodic_type(a, phi)}")

    cert = amplify_for_common_prefix(built.loop, phi)
    print(
        f"   certificate: loop repeated {cert.exponent}x, common prefix {cert.prefix_length + 1}"
        f" letters, min height {cert.q_min}"
    )
    print(f"   prefix letters cover the alphabet: {sorted(set(cert.prefix_letters))}")
    print(f"   Smith invariant factors of the generators: {cert.factors}")
    print(f"   verdict (full lattice, hence aperiodic cocycle): {cert.verdict}")
    print()
