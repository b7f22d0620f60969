"""Tests for pair enumeration and the two triplet-level aggregators."""

from __future__ import annotations

import os
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negcontrol import aggregate
from negcontrol._fork import map_parts
from negcontrol.data import Dataset, covariance
from negcontrol.errors import (
    BootstrapDegenerateError,
    EmptyDnctListError,
    SingularMomentMatrixError,
    UnknownVariableError,
)
from negcontrol.estimate import (
    _ROW_BLOCK,
    DELTA_INDEX,
    NcPair,
    _fit_stack,
    _stacked_columns,
    design_matrices,
    gmm_linear_ate,
    per_observation_moments,
    sandwich_cov,
    solve_linear_moments,
)
from negcontrol.aggregate import (
    PairFrequencyTable,
    _bootstrap_se,
    _pair_table,
    _resampled_moments,
    enumerate_pairs,
    majority_vote_estimate,
    weighted_estimate,
)
from negcontrol.simulate import ground_truth_dncts
from test_data import needs_fork


@pytest.fixture(scope="module")
def simple_truth(simple_spec):
    dncts, delta = ground_truth_dncts(simple_spec)
    return dncts, delta


def test_enumerate_pairs_counts_and_order():
    table = enumerate_pairs([("b", "a", "c"), ("a", "b", "d")])
    # Two triples contribute 12 ordered-pair slots over 10 distinct pairs;
    # (a, b) and (b, a) appear in both triples.
    assert table.total_frequency == 12
    assert table.total_pairs == 10
    assert table.frequency(NcPair("a", "b")) == 2
    assert table.frequency(NcPair("b", "a")) == 2
    assert table.frequency(NcPair("a", "c")) == 1
    assert table.frequency(NcPair("c", "d")) == 0
    keys = [(pair.z, pair.w) for pair, _ in table.entries]
    assert keys == sorted(keys)


def test_enumerate_pairs_frequency_conservation():
    rng = np.random.default_rng(61)
    names = [f"z{i}" for i in range(9)]
    for trial in range(25):
        k = int(rng.integers(1, 7))
        dncts = [tuple(rng.choice(names, size=3, replace=False)) for _ in range(k)]
        table = enumerate_pairs(dncts)
        assert table.total_frequency == 6 * k


def test_enumerate_pairs_empty():
    with pytest.raises(EmptyDnctListError):
        enumerate_pairs([])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_table_of_index_triples_matches_enumerate_pairs(data):
    # dance builds its table from the report's index triples; names that
    # no triple holds must not move a pair, a count or a weight
    k = data.draw(st.integers(3, 9))
    names = sorted(data.draw(st.lists(st.text(min_size=1, max_size=3),
                                      min_size=k, max_size=k, unique=True)))
    every = list(combinations(range(k), 3))
    rows = np.array(sorted(data.draw(st.lists(st.sampled_from(every),
                                              min_size=1, unique=True))),
                    dtype=np.intp)
    table = _pair_table(rows, names)
    reference = enumerate_pairs([[names[i] for i in row] for row in rows])
    # the same pairs in the same order with the same counts, so the same
    # weights: each pair's count over their sum
    assert table.entries == reference.entries
    assert all(type(freq) is int for _, freq in table.entries)


def test_pair_table_of_no_triples_raises():
    with pytest.raises(EmptyDnctListError):
        _pair_table(np.empty((0, 3), dtype=np.intp), ["a", "b", "c"])


def test_weighted_estimate_invariant_under_triple_reordering(
    simple_data, simple_truth
):
    dncts, _ = simple_truth
    forward = weighted_estimate(simple_data, enumerate_pairs(dncts), "T", "O")
    backward = weighted_estimate(
        simple_data, enumerate_pairs(list(reversed(dncts))), "T", "O"
    )
    assert forward == backward


def test_weighted_estimate_single_triple(simple_data, simple_truth):
    dncts, _ = simple_truth
    table = enumerate_pairs([dncts[0]])
    result = weighted_estimate(simple_data, table, "T", "O")
    assert result.method == "weighted_sandwich"
    assert len(result.per_pair) == 6
    weights = [w for _, _, w in result.per_pair]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert all(w == pytest.approx(1.0 / 6.0, abs=1e-12) for w in weights)
    # The point estimate is the plain average of the six per-pair fits.
    singles = [
        gmm_linear_ate(simple_data, pair, "T", "O").delta_hat
        for pair, _, _ in result.per_pair
    ]
    assert result.delta_hat == pytest.approx(np.mean(singles), abs=1e-12)
    assert result.ci_low == pytest.approx(result.delta_hat - 1.96 * result.se)
    assert result.ci_high == pytest.approx(result.delta_hat + 1.96 * result.se)


def test_weighted_estimate_close_to_truth(simple_data, simple_truth):
    dncts, true_delta = simple_truth
    result = weighted_estimate(simple_data, enumerate_pairs(dncts), "T", "O")
    assert result.delta_hat == pytest.approx(true_delta, abs=4 * result.se)


def test_weighted_per_pair_matches_single_fits(simple_data, simple_truth):
    dncts, _ = simple_truth
    result = weighted_estimate(simple_data, enumerate_pairs(dncts), "T", "O")
    for pair, est, _ in result.per_pair:
        single = gmm_linear_ate(simple_data, pair, "T", "O")
        assert est.delta_hat == pytest.approx(single.delta_hat, abs=1e-12)
        # both come from the one stacked fit and its blocked sandwich
        assert est.se == single.se


def _stacked_sandwich_variance(data, per_pair, covariates):
    """omega' V omega the long way: block-diagonal inverse Jacobian, the full
    cross-pair meat, and omega holding each weight at its delta entry."""
    inverses, moments = [], []
    for pair, _, _ in per_pair:
        q, m, y = design_matrices(data, pair, "T", "O", covariates)
        theta, a_n = solve_linear_moments(q, m, y, pair=pair)
        inverses.append(np.linalg.inv(a_n))
        moments.append(per_observation_moments(q, m, y, theta))
    dim = inverses[0].shape[0]
    total = dim * len(inverses)
    inv_blocks = np.zeros((total, total))
    omega = np.zeros(total)
    for k, (inv, (_, _, weight)) in enumerate(zip(inverses, per_pair)):
        inv_blocks[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = inv
        omega[k * dim + DELTA_INDEX] = weight
    g_all = np.hstack(moments)
    meat = g_all.T @ g_all / data.n
    v = inv_blocks @ meat @ inv_blocks.T / data.n
    return float(omega @ v @ omega)


# weights are over the ordered pairs, the only pair space
@pytest.mark.parametrize("pair_space", ["ordered"])
@pytest.mark.parametrize("case", ["first", "second", "both", "covariate"])
def test_weighted_sandwich_matches_stacked_reference(
    simple_data, simple_truth, case, pair_space
):
    dncts, _ = simple_truth
    triples, covariates = {
        "first": (dncts[:1], ()),
        "second": (dncts[1:], ()),
        "both": (dncts, ()),
        "covariate": ([("Z2", "Z3", "Z4")], ("Z1",)),
    }[case]
    result = weighted_estimate(
        simple_data, enumerate_pairs(triples), "T", "O",
        covariates=covariates,
    )
    expected = _stacked_sandwich_variance(
        simple_data, result.per_pair, covariates
    )
    assert result.se == pytest.approx(np.sqrt(expected), rel=1e-10)


def _resampled_draws(data, per_pair, draws, seed):
    """Bootstrap draws by resampling rows into copies of each design, with
    per-slot streams and redraws on a singular resample; returns the draws
    and the number of redraws."""
    designs = [
        design_matrices(data, pair, "T", "O") for pair, _, _ in per_pair
    ]
    weights = np.array([weight for _, _, weight in per_pair])
    out, redraws = [], 0
    for slot in range(draws):
        for attempt in range(10):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, slot, attempt))
            )
            idx = rng.integers(0, data.n, size=data.n)
            try:
                deltas = [
                    solve_linear_moments(q[idx], m[idx], y[idx])[0]
                    for q, m, y in designs
                ]
            except SingularMomentMatrixError:
                redraws += 1
                continue
            out.append(float(weights @ np.array(deltas)[:, DELTA_INDEX]))
            break
    return np.array(out), redraws


def _sparse_control_data():
    # The control c is nonzero in one row only, so every resample that
    # misses that row makes the pairs holding c singular and is redrawn.
    rng = np.random.default_rng(17)
    values = rng.normal(size=(60, 5))
    values[:, 4] = 0.0
    values[7, 4] = 1.5
    return Dataset(("T", "O", "a", "b", "c"), values), [("a", "b", "c")]


@pytest.mark.parametrize("case", ["simple", "sparse_control"])
def test_weighted_bootstrap_matches_resampling_reference(
    simple_data, simple_truth, case
):
    if case == "simple":
        data, dncts = simple_data, simple_truth[0]
    else:
        data, dncts = _sparse_control_data()
    table = enumerate_pairs(dncts)
    draws, seed = 40, 5
    boot, redraws = _resampled_draws(
        data, weighted_estimate(data, table, "T", "O").per_pair, draws, seed
    )
    assert len(boot) == draws
    if case == "sparse_control":
        assert redraws >= draws // 5
    normal = weighted_estimate(
        data, table, "T", "O", ci_method="bootstrap",
        bootstrap_draws=draws, seed=seed,
    )
    assert normal.se == pytest.approx(np.std(boot, ddof=1), rel=1e-10)
    percentile = weighted_estimate(
        data, table, "T", "O", ci_method="bootstrap",
        bootstrap_ci="percentile", bootstrap_draws=draws, seed=seed,
    )
    assert percentile.ci_low == pytest.approx(
        np.quantile(boot, 0.025), rel=1e-10
    )
    assert percentile.ci_high == pytest.approx(
        np.quantile(boot, 0.975), rel=1e-10
    )


def test_weighted_bootstrap_deterministic(simple_data, simple_truth):
    dncts, _ = simple_truth
    table = enumerate_pairs(dncts)
    kwargs = dict(
        ci_method="bootstrap", bootstrap_draws=60, seed=9,
    )
    one = weighted_estimate(simple_data, table, "T", "O", **kwargs)
    two = weighted_estimate(simple_data, table, "T", "O", **kwargs)
    assert one == two
    assert one.method == "weighted_bootstrap_normal"
    other_seed = weighted_estimate(simple_data, table, "T", "O", seed=10, **{
        k: v for k, v in kwargs.items() if k != "seed"
    })
    assert other_seed.se != one.se
    # Same point estimate regardless of how the interval is built.
    assert other_seed.delta_hat == one.delta_hat


def test_weighted_bootstrap_percentile(simple_data, simple_truth):
    dncts, _ = simple_truth
    table = enumerate_pairs(dncts)
    result = weighted_estimate(
        simple_data, table, "T", "O",
        ci_method="bootstrap", bootstrap_ci="percentile", bootstrap_draws=80,
        seed=3,
    )
    assert result.method == "weighted_bootstrap_percentile"
    assert result.ci_low < result.delta_hat < result.ci_high


def test_weighted_bootstrap_agrees_with_sandwich(simple_data, simple_truth):
    dncts, _ = simple_truth
    table = enumerate_pairs(dncts)
    sand = weighted_estimate(simple_data, table, "T", "O")
    boot = weighted_estimate(
        simple_data, table, "T", "O", ci_method="bootstrap",
        bootstrap_draws=200, seed=1,
    )
    assert boot.delta_hat == sand.delta_hat
    assert boot.se == pytest.approx(sand.se, rel=0.35)


def test_weighted_validates_arguments(simple_data, simple_truth):
    dncts, _ = simple_truth
    table = enumerate_pairs(dncts)
    with pytest.raises(ValueError):
        weighted_estimate(simple_data, table, "T", "O", ci_method="exact")
    with pytest.raises(ValueError):
        weighted_estimate(
            simple_data, table, "T", "O",
            ci_method="bootstrap", bootstrap_ci="bca",
        )
    with pytest.raises(ValueError):
        weighted_estimate(
            simple_data, table, "T", "O",
            ci_method="bootstrap", bootstrap_draws=1,
        )


def test_weighted_rejects_draw_count_before_fitting():
    # pair (a, c) is singular (c is constant), but the draw count is
    # rejected before any pair is fitted
    values = np.random.default_rng(3).normal(size=(200, 5))
    values[:, 4] = 5.0
    data = Dataset(("T", "O", "a", "b", "c"), values)
    table = enumerate_pairs([("a", "b", "c")])
    with pytest.raises(SingularMomentMatrixError):
        weighted_estimate(data, table, "T", "O")
    with pytest.raises(ValueError, match="at least 2 draws"):
        weighted_estimate(data, table, "T", "O", ci_method="bootstrap",
                          bootstrap_draws=1)


@pytest.mark.parametrize("option, value", [
    ("bootstrap_draws", 5.0), ("bootstrap_draws", True),
    ("bootstrap_draws", "5"), ("seed", -1), ("seed", True), ("seed", 1.5),
    ("seed", None),
])
def test_weighted_bootstrap_rejects_a_count_or_seed_that_is_no_integer(
        simple_data, option, value):
    # a float count failed inside range() with an unnamed TypeError, and a
    # negative seed only at the first draw
    table = enumerate_pairs([("Z1", "Z3", "Z4")])
    with pytest.raises(ValueError, match=option):
        weighted_estimate(simple_data, table, "T", "O", ci_method="bootstrap",
                          **{option: value})


def test_weighted_bootstrap_takes_numpy_integers(simple_data):
    table = enumerate_pairs([("Z1", "Z3", "Z4")])
    plain = weighted_estimate(simple_data, table, "T", "O",
                              ci_method="bootstrap", bootstrap_draws=9,
                              seed=4)
    assert weighted_estimate(
        simple_data, table, "T", "O", ci_method="bootstrap",
        bootstrap_draws=np.int32(9), seed=np.uint8(4)) == plain
    # the sandwich reads no seed
    assert weighted_estimate(simple_data, table, "T", "O", seed=-1) == (
        weighted_estimate(simple_data, table, "T", "O"))


def _boot_inputs(data, dncts):
    """The used centred columns, their layout and the weights that
    ``weighted_estimate`` hands to ``_bootstrap_se``."""
    table = enumerate_pairs(dncts)
    pairs = [pair for pair, _ in table.entries]
    freqs = np.array([freq for _, freq in table.entries], dtype=float)
    weights = freqs / freqs.sum()
    layout = _stacked_columns(data, pairs, "T", "O")
    *_, xc, local = _fit_stack(data._centred, layout, weights, pairs=pairs)
    return xc, local, weights


def _counting_parts(mp):
    """The ``map_parts`` results of every ``_bootstrap_se`` call from here
    on, one list of parts each."""
    calls = []

    def counting(parts, here, child, receive):
        calls.append(map_parts(parts, here, child, receive))
        return calls[-1]

    mp.setattr(aggregate, "map_parts", counting)
    return calls


@needs_fork
@pytest.mark.parametrize("draws", [5, 17, 40])
def test_bootstrap_draws_do_not_depend_on_the_split(simple_data, simple_truth,
                                                    monkeypatch, draws):
    xc, layout, weights = _boot_inputs(simple_data, simple_truth[0])
    calls = _counting_parts(monkeypatch)
    runs = []
    for k in (1, 2, 3):
        monkeypatch.setattr(aggregate, "_workers", lambda k=k: k)
        runs.append(_bootstrap_se(xc, layout, weights, draws, 7).tobytes())
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # 5 draws stay in this process on any CPU count; 17 and 40 split
    assert [len(parts) for parts in calls] == (
        [1, 1, 1] if draws == 5 else [1, 2, 3])


def _exit_3(part):
    os._exit(3)


@needs_fork
def test_bootstrap_reruns_the_part_of_a_failed_child(simple_data,
                                                     simple_truth,
                                                     monkeypatch):
    xc, layout, weights = _boot_inputs(simple_data, simple_truth[0])
    monkeypatch.setattr(aggregate, "_workers", lambda: 1)
    serial = _bootstrap_se(xc, layout, weights, 17, 3)
    monkeypatch.setattr(aggregate, "_workers", lambda: 3)
    monkeypatch.setattr(
        aggregate, "map_parts",
        lambda parts, here, child, receive: map_parts(parts, here, _exit_3,
                                                      receive))
    assert _bootstrap_se(xc, layout, weights, 17, 3).tobytes() == (
        serial.tobytes())


def _degenerate_inputs():
    """Three controls, each nonzero in one row of 60: a resample that
    misses any of those rows makes a pair singular, as about three in four
    do, so some slots fail all ten attempts."""
    rng = np.random.default_rng(17)
    values = rng.normal(size=(60, 5))
    values[:, 2:] = 0.0
    values[[3, 8, 13], [2, 3, 4]] = 1.5
    data = Dataset(("T", "O", "a", "b", "c"), values)
    return _boot_inputs(data, [("a", "b", "c")])


@needs_fork
def test_bootstrap_names_the_degenerate_slot_of_a_child(monkeypatch):
    xc, layout, weights = _degenerate_inputs()
    monkeypatch.setattr(aggregate, "_workers", lambda: 1)
    with pytest.raises(BootstrapDegenerateError, match="slot 12 "):
        _bootstrap_se(xc, layout, weights, 20, 1)
    # slots 0-9 run here and 10-19 in a child, which fails at slot 12;
    # the part runs again here and raises what the serial loop raises
    calls = _counting_parts(monkeypatch)
    monkeypatch.setattr(aggregate, "_workers", lambda: 2)
    with pytest.raises(BootstrapDegenerateError, match="slot 12 "):
        _bootstrap_se(xc, layout, weights, 20, 1)
    assert [part is None for part in calls[0]] == [False, True]


@pytest.mark.parametrize("n", [_ROW_BLOCK // 8, _ROW_BLOCK,
                               2 * _ROW_BLOCK + 77])
def test_resampled_moments_match_the_weighted_deviations(n):
    # below one row block, exactly one, and a partial last block
    rng = np.random.default_rng(n)
    xc = rng.normal(size=(n, 4)) @ rng.normal(size=(4, 4)) * [1, 1e3, 1e-3, 5]
    xc -= xc.mean(axis=0)
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    dev = xc - counts @ xc / n
    dev *= np.sqrt(counts)[:, None]
    buffer = np.empty((2, 4, min(n, _ROW_BLOCK)))
    np.testing.assert_allclose(
        _resampled_moments(np.ascontiguousarray(xc.T), counts, buffer),
        dev.T @ dev / n, rtol=1e-12)


def _first_singular_pair(data, pairs):
    """The per-pair loop: the first of ``pairs`` whose correlation-scale
    system has a condition number that is not finite or above 1e12, and
    that number, on the moments ``weighted_estimate`` reads."""
    moments = data._centred[2] / data.n
    sd = np.sqrt(np.diag(moments))
    sd[sd == 0.0] = 1.0
    for pair in pairs:
        (q,), (m,), _ = _stacked_columns(data, [pair], "T", "O")
        corr = moments[np.ix_(q, m)] / np.outer(sd[q], sd[m])
        cond = float(np.linalg.cond(corr))
        if not cond <= 1e12:
            return pair, cond
    return None, None


@pytest.mark.parametrize("ci_method", ["sandwich", "bootstrap"])
def test_stacked_solve_reports_first_singular_pair(ci_method):
    # c is T plus noise at 1e-12 of its scale, so every pair holding c is
    # near-singular with a finite condition number; the first of them in
    # pair order sits mid-list, after fits that succeed
    rng = np.random.default_rng(11)
    values = rng.normal(size=(500, 6))
    values[:, 1] += values[:, 0]
    values[:, 4] = values[:, 0] + 1e-12 * rng.normal(size=500)
    data = Dataset(("T", "O", "a", "b", "c", "d"), values)
    table = enumerate_pairs([("a", "b", "d"), ("b", "c", "d")])
    pairs = [pair for pair, _ in table.entries]
    pair, cond = _first_singular_pair(data, pairs)
    assert 0 < pairs.index(pair) < len(pairs) - 1
    assert np.isfinite(cond)
    with pytest.raises(SingularMomentMatrixError) as info:
        weighted_estimate(data, table, "T", "O", ci_method=ci_method,
                          bootstrap_draws=5)
    assert info.value.pair == pair
    assert info.value.cond == cond


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_weighted_ses_across_row_block_boundary(offset):
    # n just below, at and one past the block size of the influence sums,
    # with a covariate so that every system is 3 x 3
    n = _ROW_BLOCK + offset
    rng = np.random.default_rng(23)
    values = rng.normal(size=(n, 6))
    values[:, 0] += values[:, 2:].sum(axis=1)  # T
    values[:, 1] += 0.5 * values[:, 0] + values[:, 2:].sum(axis=1)  # O
    data = Dataset(("T", "O", "a", "b", "c", "x"), values)
    result = weighted_estimate(
        data, enumerate_pairs([("a", "b", "c")]), "T", "O", covariates=("x",)
    )
    assert len(result.per_pair) == 6
    influence = np.zeros(n)
    for pair, est, weight in result.per_pair:
        q, m, y = design_matrices(data, pair, "T", "O", ("x",))
        theta, a_n = solve_linear_moments(q, m, y, pair=pair)
        var = sandwich_cov(a_n, per_observation_moments(q, m, y, theta))
        assert est.se == pytest.approx(
            np.sqrt(var[DELTA_INDEX, DELTA_INDEX]), rel=1e-12
        )
        g = per_observation_moments(q, m, y, theta)
        influence += weight * (g @ np.linalg.inv(a_n)[DELTA_INDEX])
    assert result.se == pytest.approx(np.linalg.norm(influence) / n, rel=1e-12)


def test_weighted_sandwich_memory_stays_below_one_n_by_p_matrix():
    # 30 ordered pairs on 300 000 rows: an n x P matrix of float64 is 72 MB,
    # and the row-blocked influence sums never form one
    n, controls = 300_000, ("a", "b", "c", "d", "e", "f")
    rng = np.random.default_rng(5)
    values = rng.normal(size=(n, 2 + len(controls)))
    values[:, 0] += values[:, 2:].sum(axis=1)
    values[:, 1] += values[:, 2:].sum(axis=1)
    data = Dataset(("T", "O", *controls), values)
    table = enumerate_pairs(
        [(a, b, c) for i, a in enumerate(controls)
         for j, b in enumerate(controls[i + 1:], i + 1)
         for c in controls[j + 1:]]
    )
    assert table.total_pairs == 30
    tracemalloc.start()
    try:
        weighted_estimate(data, table, "T", "O")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * table.total_pairs * 8 / 2


def test_majority_vote_tie_breaks_lexicographically(simple_data, simple_truth):
    dncts, _ = simple_truth
    # A single triple gives all three unordered pairs frequency 2, so the
    # winner must be the lexicographically smallest pair with z < w.
    triple = dncts[0]
    result = majority_vote_estimate(simple_data, enumerate_pairs([triple]), "T", "O")
    assert result.method == "majority_vote"
    assert len(result.per_pair) == 1
    pair = result.per_pair[0][0]
    assert (pair.z, pair.w) == (triple[0], triple[1])
    single = gmm_linear_ate(simple_data, pair, "T", "O")
    assert result.delta_hat == single.delta_hat
    assert result.se == single.se


def test_majority_vote_prefers_most_frequent(simple_data, simple_truth):
    dncts, _ = simple_truth
    # Both benchmark triples share the pair {Z3, Z4}, which therefore has
    # combined frequency 4 while every other pair has 2.
    result = majority_vote_estimate(simple_data, enumerate_pairs(dncts), "T", "O")
    pair = result.per_pair[0][0]
    assert (pair.z, pair.w) == ("Z3", "Z4")


@pytest.mark.parametrize("covariates, error", [
    (("Z2",), ValueError),
    (("T",), ValueError),
    (("O",), ValueError),
    (("nope",), UnknownVariableError),
])
def test_weighted_rejects_overlapping_or_unknown_roles(
    simple_data, covariates, error
):
    table = enumerate_pairs([("Z2", "Z3", "Z4")])
    with pytest.raises(error):
        weighted_estimate(simple_data, table, "T", "O", covariates=covariates)


# ---------------------------------------------------------------------------
# hand-built frequency tables
# ---------------------------------------------------------------------------


def _table(*entries):
    return PairFrequencyTable(tuple((NcPair(z, w), freq)
                                    for z, w, freq in entries))


def test_majority_vote_sums_both_orientations(simple_data):
    # (Z1, Z4) is the most frequent ordered pair, but {Z2, Z3} wins on the
    # sum of its two orientations, 2 + 4 against 5 + 0; it is fitted with
    # the smaller name as z though (Z3, Z2) carries more of its count
    table = _table(("Z1", "Z4", 5), ("Z2", "Z3", 2), ("Z3", "Z2", 4),
                   ("Z4", "Z3", 1))
    result = majority_vote_estimate(simple_data, table, "T", "O")
    ((pair, est, weight),) = result.per_pair
    assert (pair, weight) == (NcPair("Z2", "Z3"), 1.0)
    assert est == gmm_linear_ate(simple_data, pair, "T", "O")
    assert (result.delta_hat, result.se) == (est.delta_hat, est.se)


def test_majority_vote_tie_goes_to_the_smallest_pair(simple_data):
    # three pairs tie at 3; the smallest, {Z1, Z4}, is listed last and
    # only in its reverse orientation
    table = _table(("Z3", "Z4", 3), ("Z3", "Z2", 1), ("Z2", "Z3", 2),
                   ("Z2", "Z4", 1), ("Z4", "Z1", 3))
    result = majority_vote_estimate(simple_data, table, "T", "O")
    assert result.per_pair[0][0] == NcPair("Z1", "Z4")


def test_weighted_keeps_the_table_order(simple_data):
    # not the row-major order enumerate_pairs gives
    table = _table(("Z4", "Z2", 3), ("Z3", "Z1", 1), ("Z1", "Z3", 2))
    result = weighted_estimate(simple_data, table, "T", "O")
    assert [(pair, weight) for pair, _, weight in result.per_pair] == [
        (NcPair("Z4", "Z2"), 0.5), (NcPair("Z3", "Z1"), 1 / 6),
        (NcPair("Z1", "Z3"), 2 / 6)]
    for pair, est, _ in result.per_pair:
        single = gmm_linear_ate(simple_data, pair, "T", "O")
        assert (est.delta_hat, est.se) == (single.delta_hat, single.se)


@pytest.mark.parametrize("aggregate", [weighted_estimate,
                                       majority_vote_estimate])
def test_aggregators_reject_an_empty_table(simple_data, aggregate):
    with pytest.raises(EmptyDnctListError):
        aggregate(simple_data, PairFrequencyTable(()), "T", "O")


@pytest.mark.parametrize("freq", [0, -1, 1.0, 2.5, True, "2", None,
                                  np.float64(2.0)])
def test_table_rejects_a_frequency_that_is_no_positive_integer(freq):
    with pytest.raises(ValueError, match="positive integer"):
        _table(("Z2", "Z3", freq), ("Z3", "Z4", 2))


def test_table_rejects_a_repeated_pair():
    # counted twice, it was fitted twice and summed by the majority vote
    with pytest.raises(ValueError, match="appear once"):
        _table(("Z1", "Z3", 1), ("Z1", "Z3", 2))


def test_table_takes_numpy_integers(simple_data):
    table = _table(("Z2", "Z3", np.int64(1)), ("Z3", "Z4", np.int32(3)))
    result = weighted_estimate(simple_data, table, "T", "O")
    assert [weight for *_, weight in result.per_pair] == [0.25, 0.75]
