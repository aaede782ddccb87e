"""The four matchers on one text, with their comparison counts.

Every matcher returns the same byte offsets; they differ only in how
many text-byte vs pattern-byte equality tests they needed. The window
traces show the anchor-first fail-fast effect directly.
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
outcome = fbas_search(query, record_windows=True)
anchor = outcome.anchor
print(f"\nfbas tests {chr(anchor.character)!r} (pattern index {anchor.index}, "
      f"score {anchor.score}) first in every window")
print(f"fbas examined {outcome.alignments} windows; "
      f"anchor matched in {outcome.anchor_hits} of them")
print("first ten windows (position, cost, anchor hit):")
for pos, cost, hit in outcome.windows[:10]:
    print(f"  pos {pos:3}  cost {cost}  hit {hit}")

# A window that misses the anchor costs exactly 1; a full match costs
# exactly len(pattern): the anchor comparison is never repeated.
cost_at = {pos: cost for pos, cost, _ in outcome.windows}
print(f"\nmatched window at pos {outcome.positions[0]} cost: "
      f"{cost_at[outcome.positions[0]]} (= pattern length {len(pattern)})")

# 3. bmh and fbas share the shift rule, so they visit identical windows.
bmh = bmh_search(query, record_windows=True)
same = [w[0] for w in bmh.windows] == [w[0] for w in outcome.windows]
print(f"\nbmh visited the same alignment sequence: {same}")
print(f"bmh spent {bmh.comparisons} comparisons vs fbas {outcome.comparisons} "
      "on those same windows")

# 4. First-match mode stops at the first occurrence.
first = fbas_search(SearchQuery(text, pattern, Mode.FIRST_MATCH))
print(f"\nfirst-match mode: positions={first.positions}, "
      f"comparisons={first.comparisons}")
