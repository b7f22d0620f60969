"""A small Monte Carlo study: does validation actually pay off?

Three strategies face the same simulated datasets:

* naive    -- regress the outcome on the treatment, ignore confounding;
* random   -- pick a control triplet once, without validation, and use it
              everywhere (what an analyst guessing controls might do);
* dance    -- search for validated triples first, then aggregate them.

The harness reports bias, Monte Carlo vs estimated SEs, 95% interval
coverage, and a detection ROC for the search itself.  Everything is
seeded: rerunning this script reproduces the tables byte for byte.

Run:  python3 demos/04_replication_study.py      (about 15 seconds)
"""

from negcontrol import StudyConfig, run_study

config = StudyConfig(
    graph="complex",          # 7 candidates, 5 nuisance edges
    strength="weak",
    sample_sizes=(500, 3000),
    replications=100,
    master_seed=7,
)
result = run_study(config)

print(f"true effect {result.true_delta:.4f}; "
      f"{len(result.true_dncts)} structurally valid triples "
      f"out of {len(result.details[500]['triples'])} candidates")
print()

header = (
    f"{'method':8s} {'n':>5s} {'bias':>8s} {'bias%':>7s} "
    f"{'mc se':>7s} {'est se':>7s} {'cover':>6s} {'fail':>4s}"
)
print(header)
print("-" * len(header))
for m in result.metrics:
    print(
        f"{m.method:8s} {m.n:5d} {m.bias:+8.4f} "
        f"{m.proportion_bias_pct:+6.2f}% {m.mc_se:7.4f} "
        f"{m.mean_estimated_se:7.4f} {m.coverage_95:6.2f} {m.failures:4d}"
    )
print()

# ---------------------------------------------------------------------
# Detection quality: how well does min-p over the six tetrad tests rank
# truly valid triples above invalid ones?
# ---------------------------------------------------------------------
for n in config.sample_sizes:
    print(f"detection AUC at n={n}: {result.auc[n]:.3f}")
print()

# A few ROC points at n=3000 around the working level 1/n.
points = [p for p in result.roc if p.n == 3000]
points.sort(key=lambda p: p.alpha)
print("alpha        tpr    fpr   (n=3000)")
for p in points[:: max(1, len(points) // 6)]:
    print(f"{p.alpha:9.2e} {p.tpr:6.2f} {p.fpr:6.2f}")
print()

naive = next(m for m in result.metrics if m.method == "naive" and m.n == 3000)
random = next(m for m in result.metrics if m.method == "random" and m.n == 3000)
dance = next(m for m in result.metrics if m.method == "dance" and m.n == 3000)
print(
    f"at n=3000 the validated pipeline cuts |bias| from "
    f"{abs(naive.bias):.4f} (naive) / {abs(random.bias):.4f} (random) "
    f"to {abs(dance.bias):.4f}, with {dance.coverage_95:.0%} coverage."
)
