#!/usr/bin/env python3
"""Prime-constellation machinery: admissibility, minimal diameters, sieving.

Shows why {0,2,4} can never repeat as a prime pattern, searches for the
tightest possible k-prime clusters, and sieves a range for real instances.
"""

from tupletfrob import OffsetPattern, classify, find_tuplets, is_admissible, smallest_diameter

print("=== admissibility ===")
for offsets in ((0, 2, 6), (0, 2, 4), (0, 2, 6, 8), (0, 6, 12)):
    pattern = OffsetPattern(offsets)
    report = is_admissible(pattern)
    if report.admissible:
        print(f"{pattern}: admissible")
    else:
        print(f"{pattern}: blocked — offsets cover every class mod {report.witness_prime} "
              f"(residues {list(report.residues_at_witness)})")
print("a blocked pattern hits a multiple of the witness prime at every start,")
print("so it can only occur among the first few primes, like (3,5,7).")

print()
print("=== smallest admissible diameter s(k) ===")
for k in range(2, 8):
    s, patterns = smallest_diameter(k)
    print(f"s({k}) = {s:2d}: {', '.join(str(p) for p in patterns)}")

print()
print("=== sieving for instances ===")
for offsets, hi in (((0, 2, 6), 200), ((0, 2, 6, 8), 2000), ((0, 2, 6, 8, 12), 25000)):
    pattern = OffsetPattern(offsets)
    found = find_tuplets(pattern, 2, hi)
    starts = [t.p for t in found]
    print(f"{pattern} below {hi}: {len(found)} instances, starting at {starts}")

print()
print("=== classifying instances into parametric families ===")
pattern = OffsetPattern((0, 2, 6, 8))
for tuplet in find_tuplets(pattern, 2, 1500):
    family_id, k = classify(tuplet.p, pattern)
    print(f"  {tuplet.primes} -> family {family_id}, k = {k}")
print("the two quadruplet families alternate with the residue of p mod 4.")
