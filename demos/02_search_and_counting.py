"""The four matchers on one text, with their comparison counts.

Every matcher returns the same byte offsets; they differ only in how
many text-byte vs pattern-byte equality tests they needed. The counts
alone show the anchor-first fail-fast effect: a window whose anchor
misses costs exactly one comparison.
"""
from fbas import Mode, SearchQuery, bmh_search, fbas_search, kmp_search, naive_search

text = ("mi ritrovai per una selva oscura, che la diritta via era smarrita; "
        "e poi la selva oscura torno nei sogni")
pattern = "oscura"

# 1. All matchers agree on positions; counts tell the efficiency story.
query = SearchQuery(text, pattern, Mode.ALL_MATCHES)
print(f"searching {pattern!r} in a {len(query.text)}-byte text\n")
for name, matcher in (("naive", naive_search), ("kmp", kmp_search),
                      ("bmh", bmh_search), ("fbas", fbas_search)):
    outcome = matcher(query)
    print(f"  {name:5}  positions={outcome.positions}  "
          f"comparisons={outcome.comparisons:4}  alignments={outcome.alignments}")

# 2. Why fbas is cheaper: most windows die on the single anchor test.
outcome = fbas_search(query)
anchor = outcome.anchor
print(f"\nfbas tests {chr(anchor.character)!r} (pattern index {anchor.index}, "
      f"score {anchor.score}) first in every window")
misses = outcome.alignments - outcome.anchor_hits
hit_cost = outcome.comparisons - misses
print(f"fbas examined {outcome.alignments} windows; "
      f"anchor matched in {outcome.anchor_hits} of them")
print(f"  {misses} anchor misses x 1 comparison = {misses}")
print(f"  {outcome.anchor_hits} anchor hits cost the other {hit_cost} comparisons, "
      f"{len(outcome.positions)} of them full matches of {len(pattern)} each")

# 3. bmh and fbas share one walk, so they visit the same windows; fbas
# only spends less on each.
bmh = bmh_search(query)
print(f"\nbmh examined {bmh.alignments} windows too "
      f"(same count: {bmh.alignments == outcome.alignments})")
print(f"bmh spent {bmh.comparisons} comparisons vs fbas {outcome.comparisons} "
      "on those same windows")

# 4. First-match mode stops at the first occurrence.
first = fbas_search(SearchQuery(text, pattern, Mode.FIRST_MATCH))
print(f"\nfirst-match mode: positions={first.positions}, "
      f"comparisons={first.comparisons}")
