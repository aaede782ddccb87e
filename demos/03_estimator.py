"""Expected window cost: the 1 + p * (m - 1) model against measurements.

On uniform random text over sigma letters, the anchor matches a random
text byte with probability 1/sigma. The model charges the full m - 1
remaining comparisons after every anchor hit, so it is exact for m <= 2
(for m = 1 a window costs one comparison, for m = 2 a single secondary
comparison cannot stop early) and an upper bound for longer patterns,
where verification stops at the first mismatch.
"""
import random

from fbas import SearchQuery, char_probability, expected_comparisons, fbas_search

rng = random.Random(7)
sigma = 4
n = 200_000
text = bytes(rng.choices(b"abcd", k=n))

print(f"uniform text: n={n}, alphabet size {sigma}")
print(f"observed probability of 'b': {char_probability(text, 'b'):.4f} "
      f"(ideal {1 / sigma})\n")

# Patterns ending with distinct letters; 'b' is always the anchor
# (rarest by the built-in table among a, b, c, d).
print(f"{'pattern':10} {'m':>2} {'model':>7} {'measured':>9} {'windows':>8}")
for pattern in ("ab", "cab", "acab", "adcab", "addcab"):
    m = len(pattern)
    model = expected_comparisons(1 / sigma, m).expected_comparisons
    outcome = fbas_search(SearchQuery(text, pattern))
    mean = outcome.comparisons / outcome.alignments
    print(f"{pattern:10} {m:>2} {model:>7.3f} {mean:>9.4f} {outcome.alignments:>8}")

print("\nm = 2 sits on the model; longer patterns fall below it because"
      "\nverification stops at the first mismatching byte.")
