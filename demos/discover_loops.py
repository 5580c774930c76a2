"""Search Rauzy loops for integer 1-eigenvectors of the transposed matrix.

Enumerates every move sequence up to a length bound starting from a fixed
irreducible pair, keeps the sequences that close up into a loop, and tests
ker(A^T - I) over the integers.  Loops with nontrivial kernels support
periodic-type skew-products; the packaged instances came out of exactly
this search, picked for small Perron eigenvalues so the exhaustive test
layers stay fast.
"""

import argparse
from itertools import product

from ietskew.algebra import integer_kernel
from ietskew.iet import IetCombinatorics, RauzyLoop, compose_loop, rauzy_step


def search(top, bottom, maxlen):
    start = IetCombinatorics(tuple(top), tuple(bottom))
    d = start.d
    found = []
    for length in range(2, maxlen + 1):
        for seq in product("tb", repeat=length):
            comb = start
            for move in seq:
                comb, *_ = rauzy_step(comb, move)
            if comb != start:
                continue
            try:
                loop = RauzyLoop(start, seq)
            except ValueError:
                continue  # matrix never becomes positive
            a = loop.period_matrix
            kernel = integer_kernel(
                [[a[j][i] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
            )
            if kernel:
                tower = compose_loop(loop, 1)
                found.append((sum(tower.q), length, len(kernel), seq, kernel))
    found.sort()
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3, choices=(3, 4))
    parser.add_argument("--maxlen", type=int, default=10)
    parser.add_argument("--keep", type=int, default=8)
    args = parser.parse_args()

    top = tuple(range(1, args.d + 1))
    bottom = tuple(range(args.d, 0, -1))
    print(f"searching loops of length <= {args.maxlen} at {top}/{bottom}")
    hits = search(top, bottom, args.maxlen)
    print(f"{len(hits)} loops with nontrivial kernels; smallest by total height:")
    for total_q, length, rank, seq, kernel in hits[: args.keep]:
        print(
            f"  len {length:2d} loop {''.join(seq):<14} sum(q) = {total_q:4d} "
            f"m = {rank}  kernel {kernel}"
        )


if __name__ == "__main__":
    main()
