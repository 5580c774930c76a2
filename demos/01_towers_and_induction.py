"""Rauzy towers from a loop, cross-checked against direct simulation.

Builds the packaged 3-interval instance, composes its induction loop into
return words and the incidence matrix, and confirms the combinatorics by
simulating the exchange map with 48-digit fixed-point arithmetic.
"""

from ietskew.iet import IetCombinatorics, RauzyLoop, compose_loop, pf_lengths, simulate_return_times
from ietskew.instances import build_instance, load_instance

built = build_instance(load_instance("golden_triple"))
tower = built.tower
print(f"instance: {built.name}")
print(f"top order    : {built.loop.start.top}")
print(f"bottom order : {built.loop.start.bottom}")
print(f"loop moves   : {''.join(built.loop.steps)}")
print()
print("one traversal of the loop gives the tower system:")
for j, (word, q) in enumerate(zip(tower.words, tower.q), start=1):
    print(f"  tower {j}: height {q}, word {tuple(word)}")
print(f"incidence matrix rows: {[list(r) for r in tower.matrix]}")
print(f"column sums reproduce the heights: {[sum(c) for c in zip(*tower.matrix)]}")
print()

lengths = built.lengths
print(f"Perron-Frobenius eigenvalue: {lengths.alpha:.12f}")
print(f"self-similar interval lengths: {[round(x, 9) for x in lengths.lengths]}")
print()

print("direct simulation of the exchange map (no loop combinatorics):")
for level in (1, 2, 3):
    q, words = simulate_return_times(built.loop.start, lengths, level)
    composed = compose_loop(built.loop, level)
    match = "agrees" if (q, words) == (composed.q, composed.words) else "DISAGREES"
    print(f"  level {level}: heights {q} -> {match} with substitution words")
print()

print("two intervals with the golden ratio: return times are Fibonacci")
comb2 = IetCombinatorics((1, 2), (2, 1))
loop2 = RauzyLoop(comb2, ("t", "b"))
lengths2 = pf_lengths(compose_loop(loop2, 1).matrix)
for level in (1, 2, 3, 4):
    q, _ = simulate_return_times(comb2, lengths2, level)
    print(f"  level {level}: q = {q}")
