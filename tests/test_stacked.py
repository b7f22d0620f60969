"""Stacked kernels against their slices.

A study pass runs the centring, the search's Wishart scan, the moment
solve and the sandwich on R datasets at once, each kernel with a leading
stack axis.  Every dataset of a stack must get the bits it gets alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from negcontrol.aggregate import enumerate_pairs, weighted_estimate
from negcontrol.data import Dataset, _centre, _covariance_entries, covariance
from negcontrol.errors import SingularMomentMatrixError
from negcontrol.estimate import (
    NcPair,
    _fit_stack,
    _layout,
    _sandwich_se,
    _solve_centred,
    _used_columns,
    gmm_linear_ate,
)
from negcontrol.search import _search_plan, _sub_tests
from negcontrol.simulate import _generate_stack, builtin_graph, generate

NAMES = ("T", "O", "a", "b", "c", "d", "x")

sizes = pytest.mark.parametrize("n", [1000, 3000, 9000])
stacks = pytest.mark.parametrize("r", [1, 2, 5])


def _values(r, n):
    """``r`` datasets of ``n`` rows over ``NAMES``: T and O driven by the
    other columns, every column with its own scale and offset."""
    rng = np.random.default_rng((r, n))
    values = rng.normal(size=(r, n, len(NAMES)))
    values[..., 0] += values[..., 2:].sum(axis=-1)
    values[..., 1] += 0.5 * values[..., 0] + values[..., 2:].sum(axis=-1)
    values *= 10.0 ** rng.integers(-3, 4, size=len(NAMES))
    return values + rng.uniform(-1e3, 1e3, size=len(NAMES))


def _bits(*arrays) -> list:
    return [np.asarray(array).tobytes() for array in arrays]


def _plan(pairs) -> tuple:
    """The ``NcPair`` list ``pairs`` as sorted names and index arrays
    (z, w) into them."""
    names = sorted({name for pair in pairs for name in (pair.z, pair.w)})
    return (names, [names.index(pair.z) for pair in pairs],
            [names.index(pair.w) for pair in pairs])


@stacks
@sizes
def test_centring_matches_each_dataset(n, r):
    values = _values(r, n)
    values[-1, :, 4] = 5.0  # a constant column in the last dataset
    xc, means, gram = _centre(values)
    for i in range(r):
        alone = Dataset(NAMES, values[i])._centred
        assert _bits(xc[i], means[i], gram[i]) == _bits(*alone)
    assert not xc[-1, :, 4].any()


@stacks
@sizes
def test_wishart_scan_matches_each_covariance(n, r):
    values = _values(r, n)
    cov = _covariance_entries(_centre(values)[2], n)
    names, rows, alpha = _search_plan(NAMES, NAMES[2:], "T", "O", n, None)
    plan = (NAMES.index, names, rows, "T", "O", alpha)
    stacked = _sub_tests(cov, n, *plan)
    assert stacked[0].shape == (r, len(rows), 6)
    for i in range(r):
        alone = covariance(Dataset(NAMES, values[i]))
        assert _bits(cov[i]) == _bits(alone.entries)
        assert (_bits(*(column[i] for column in stacked))
                == _bits(*_sub_tests(alone.entries, n, *plan)))


def _all_pairs():
    return [NcPair(z, w) for z in "abcd" for w in "abcd" if z != w]


@stacks
@sizes
def test_solve_matches_each_system_and_names_each_first_singular(n, r):
    values = _values(r, n)
    rng = np.random.default_rng(5)
    if r > 1:  # c is T plus noise at 1e-14 of its spread: near-singular
        t = values[1, :, 0]
        values[1, :, 4] = t + 1e-14 * t.std() * rng.normal(size=n)
    if r > 2:  # b is twice T: singular
        values[2, :, 3] = 2.0 * values[2, :, 0]
    moments = _centre(values)[2] / n
    pairs = _all_pairs()
    qs, ms, y = _layout(NAMES.index, *_plan(pairs), "T", "O", ("x",))
    errors = []
    beta, inv = _solve_centred(moments, qs, ms, y, pairs, errors)
    assert len(errors) == r
    assert [error is not None for error in errors] == [0 < i < 3
                                                       for i in range(r)]
    for i in range(r):
        try:
            alone = _solve_centred(moments[i], qs, ms, y, pairs)
        except SingularMomentMatrixError as exc:
            error = errors[i]
            assert (str(error), error.pair, error.cond) == (
                str(exc), exc.pair, exc.cond)
            # the member's other systems are solved as they are alone
            ok = np.array([z != "cb"[i - 1] and w != "cb"[i - 1]
                           for z, w in ((p.z, p.w) for p in pairs)])
            alone = _solve_centred(moments[i], qs[ok], ms[ok], y)
            assert _bits(beta[i][ok], inv[i][ok]) == _bits(*alone)
        else:
            assert errors[i] is None
            assert _bits(beta[i], inv[i]) == _bits(*alone)
    if r > 1:  # without a list, the first failing member raises
        with pytest.raises(SingularMomentMatrixError) as info:
            _solve_centred(moments, qs, ms, y, pairs)
        assert str(info.value) == str(errors[1])


@stacks
@sizes
@pytest.mark.parametrize("case", ["lone", "subset"])
def test_sandwich_matches_each_dataset(n, r, case):
    # a lone system, padded; and the pairs of one triple with a covariate,
    # which read a subset of the columns
    values = _values(r, n)
    if case == "lone":
        pairs, covariates = [NcPair("a", "b")], ()
    else:
        pairs = [pair for pair, _ in enumerate_pairs([("a", "b", "d")])
                 .entries]
        covariates = ("x",)
    weights = np.full(len(pairs), 1.0 / len(pairs))
    plan = _plan(pairs)
    layout = _layout(NAMES.index, *plan, "T", "O", covariates)
    centred = _centre(values)
    beta, inv = _solve_centred(centred[2] / n, *layout)
    xc, local = _used_columns(centred[0], layout)
    assert xc.shape[-1] == (4 if case == "lone" else 6)  # c is not read
    ses, weighted = _sandwich_se(xc, local, beta, inv, 1, weights)
    fits = _fit_stack(centred, NAMES.index, *plan, weights,
                      ("T", "O", covariates))
    for i in range(r):
        data = Dataset(NAMES, values[i])
        alone_xc, alone_local = _used_columns(data._centred[0], layout)
        alone = _solve_centred(data._centred[2] / n, *layout)
        assert _bits(xc[i], *local) == _bits(alone_xc, *alone_local)
        assert (_bits(ses[i], weighted[i])
                == _bits(*_sandwich_se(alone_xc, alone_local, *alone, 1,
                                       weights)))
        # the public fits read the same bits
        if case == "lone":
            est = gmm_linear_ate(data, pairs[0], "T", "O")
            expected = est.delta_hat, est.se
            got = fits[3][i], fits[2][i][0]
            # a lone system's average takes its own SE
            assert _bits(fits[4][i]) == _bits(est.se)
        else:
            est = weighted_estimate(data, enumerate_pairs([("a", "b", "d")]),
                                    "T", "O", covariates)
            expected = est.delta_hat, est.se
            got = fits[3][i], fits[4][i]
        assert _bits(*got) == _bits(*expected)


@stacks
@pytest.mark.parametrize("family", ["gaussian", "binary"])
def test_generated_stack_matches_each_seed(r, family):
    spec = builtin_graph("complex", family=family, seed=(3, 7))
    seeds = [np.random.SeedSequence((3, 101, 1000, k)) for k in range(r)]
    names, values = _generate_stack(spec, 1000, seeds)
    for i, seed in enumerate(seeds):
        data = generate(spec, 1000, np.random.SeedSequence(seed.entropy))
        assert names == data.variable_names
        assert values[i].tobytes() == data.values.tobytes()


def _used_columns_by_unique(xc, layout):
    """``_used_columns`` as first written, on ``np.unique``."""
    qs, ms, y = layout
    used = np.unique(np.concatenate([qs.ravel(), ms.ravel(), [y]]))
    if len(used) == xc.shape[-1]:
        return xc, layout
    qs, ms, y = (np.searchsorted(used, pos) for pos in (qs, ms, y))
    return xc[..., used], (qs, ms, int(y))


@pytest.mark.parametrize("seed", range(20))
def test_used_columns_match_unique(seed):
    # random layouts over 3 to 12 columns, some reading every column
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 13))
    pairs, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    xc = rng.normal(size=(2, 7, p))
    layout = (rng.integers(0, p, size=(pairs, d)),
              rng.integers(0, p, size=(pairs, d)), int(rng.integers(p)))
    got_xc, got = _used_columns(xc, layout)
    ref_xc, ref = _used_columns_by_unique(xc, layout)
    assert (got_xc is xc) == (ref_xc is xc)
    assert _bits(got_xc, *got[:2]) == _bits(ref_xc, *ref[:2])
    assert [a.dtype for a in got[:2]] == [a.dtype for a in ref[:2]]
    assert type(got[2]) is type(ref[2]) and got[2] == ref[2]
