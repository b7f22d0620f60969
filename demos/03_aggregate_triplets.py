"""Combining many validated triples into one estimate.

The search usually certifies several triples, each contributing six
ordered control pairs, and pairs shared by many triples deserve more
weight.  Two aggregation strategies are available:

* frequency-weighted average of per-pair moment fits (the default), with
  either a stacked sandwich variance or a row-resampling bootstrap;
* majority vote: spend all the data on the single most frequent pair.

Run:  python3 demos/03_aggregate_triplets.py
"""

import numpy as np

from negcontrol import (
    builtin_graph,
    enumerate_pairs,
    generate,
    ground_truth_dncts,
    majority_vote_estimate,
    weighted_estimate,
)

spec = builtin_graph("simple", strength="weak", seed=31)
truth, true_delta = ground_truth_dncts(spec)
data = generate(spec, n=4000, seed=np.random.SeedSequence(32))

print(f"true effect: {true_delta:.4f}")
print(f"validated triples (ground truth): {sorted(truth)}")
print()

# ---------------------------------------------------------------------
# Both triples share the pair {Z3, Z4}, so it shows up four times in the
# ordered-pair table while every other pair shows up twice.
# ---------------------------------------------------------------------
table = enumerate_pairs(truth)
print(f"{table.total_pairs} distinct ordered pairs, "
      f"{table.total_frequency} slots (6 per triple):")
for pair, freq in table.entries:
    print(f"  ({pair.z}, {pair.w})  x{freq}")
print()

# ---------------------------------------------------------------------
# Frequency-weighted aggregate with the stacked sandwich variance, which
# accounts for the correlation between per-pair fits computed on the same
# rows.
# ---------------------------------------------------------------------
weighted = weighted_estimate(data, table, "T", "O")
print(
    f"frequency-weighted: {weighted.delta_hat:.4f}  se {weighted.se:.4f}  "
    f"95% CI [{weighted.ci_low:.4f}, {weighted.ci_high:.4f}]"
)

# The bootstrap alternative resamples rows, refits every pair, and reads
# the spread of the aggregate; seeded, so reruns match byte for byte.
boot = weighted_estimate(
    data, table, "T", "O", ci_method="bootstrap", bootstrap_draws=200, seed=0
)
print(f"bootstrap variant:  {boot.delta_hat:.4f}  se {boot.se:.4f}  "
      f"({boot.method})")

# ---------------------------------------------------------------------
# Majority vote picks the most frequent unordered pair -- {Z3, Z4} here --
# and fits only that one.
# ---------------------------------------------------------------------
vote = majority_vote_estimate(data, table, "T", "O")
winner = vote.per_pair[0][0]
print(
    f"majority vote:      {vote.delta_hat:.4f}  se {vote.se:.4f}  "
    f"(winning pair ({winner.z}, {winner.w}))"
)
print()

for name, result in (
    ("weighted", weighted),
    ("bootstrap", boot),
    ("majority", vote),
):
    hit = result.ci_low <= true_delta <= result.ci_high
    print(f"  {name:9s} CI covers the truth: {hit}")
