"""Z^m-valued skew-products over interval exchange transformations.

The package builds periodic-type skew-products from Rauzy loops, codes them
as adic systems on stationary Bratteli diagrams, certifies aperiodicity of
the induced shift cocycle, and evaluates Maharam measures of cylinder sets
in closed form from the Perron data of the level-counting matrix M(lambda),
whose exact Laurent powers M(t)^k count the level-k paths by cocycle sum.
"""

__version__ = "0.1.0"
