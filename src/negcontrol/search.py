"""Validation and brute-force search for disconnected negative-control
triplets.

A candidate triple {X, Y, Z} qualifies (relative to treatment T and outcome
O) when six subcovariance determinants all vanish:

    ({X,Y},{Z,T})  ({X,Z},{Y,T})  ({Z,Y},{X,T})
    ({X,Y},{Z,O})  ({X,Z},{Y,O})  ({Z,Y},{X,O})

The six-test set is closed under permutations of the triple, so verdicts do
not depend on the order candidates are written in; triples are canonicalized
(sorted) before testing.

Every search runs through one kernel, ``_sub_tests``: ``find_nc``,
``dnct_validate`` and ``dance`` through ``_report``, and each pass of a
replication study on its stack of covariance matrices.  It lays out the
six sub-tests of every triple and runs them in one batched pass on the
correlation matrix (``tetrad._wishart_batch``), so verdicts do not depend
on the scale of any column.  ``tetrad.wishart_test`` is the scalar
reference that pass is tested against.

One run plan, ``_search_plan``, checks the roles and the level before
any work, for every search, for ``dance`` and for ``run_study``.

The results land in one columnar ``FindNcReport``: the sorted candidate
names, a (T, 3) array of each triple's indices into them, and (T, 6)
arrays of the six sub-tests' statistics.  A sub-test vanishes when its
p-value exceeds the report's alpha.  The ``DnctVerdict`` and
``TetradResult`` objects of ``all_verdicts`` are built from those arrays on
first access.  The report's JSON is streamed straight from them in blocks
of ``_JSON_BLOCK`` triples, each block one ``%`` of a fixed template, so
the text is byte-identical to ``json.dumps`` of ``to_json_dict`` and the
writer's memory does not grow with the report.  Formatting the numbers
holds the interpreter lock, so the verdict list is cut into runs of whole
blocks, one per CPU and at least ``_FORK_BLOCKS`` blocks each, and
``_fork.map_parts`` formats the runs after the first in forked children.
This process streams the first run and then copies each child's text, in
order.  Every run is formatted by the same templates, so the bytes do not
depend on the split; a run whose child sent nothing is formatted here, and
a child that failed once its text began to go out raises
``ChildProcessError``.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from json.encoder import encode_basestring_ascii

import numpy as np

from ._fork import _copy_payload, _workers, map_parts
from .data import CovMatrix, Dataset, covariance
from .errors import TooFewCandidatesError, UnknownVariableError
from .estimate import _check_distinct
from .tetrad import TetradResult, TetradSpec, _wishart_batch

__all__ = [
    "Triple",
    "canonical_triple",
    "DnctVerdict",
    "FindNcReport",
    "triple_specs",
    "dnct_validate",
    "find_nc",
]

Triple = tuple[str, str, str]

# Positions within the triple (x, y, z) of the variables a, b, c of the
# sub-tests ({a,b},{c,T}) and ({a,b},{c,O}), in ``triple_specs`` order.
_PAIR_ROWS = ((0, 1, 2), (0, 2, 1), (2, 1, 0))


def canonical_triple(candidate) -> Triple:
    """Sorted tuple form of a candidate triple; validates distinctness."""
    triple = tuple(sorted(candidate))
    if len(triple) != 3 or len(set(triple)) != 3:
        raise ValueError(f"a candidate triple needs 3 distinct names: {candidate}")
    return triple


def triple_specs(candidate, treatment: str, outcome: str) -> list[TetradSpec]:
    """The six tetrads that certify a candidate triple, in fixed order."""
    triple = canonical_triple(candidate)
    if treatment in triple or outcome in triple:
        raise ValueError(
            f"candidate triple {candidate} must exclude treatment and outcome"
        )
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    return [
        TetradSpec((triple[a], triple[b]), (triple[c], role))
        for role in (treatment, outcome)
        for a, b, c in _PAIR_ROWS
    ]


@dataclass(frozen=True)
class DnctVerdict:
    """All six sub-test results for one candidate triple.

    ``passed`` is True only when every sub-test vanishes.  An inapplicable
    sub-test (degenerate variance) counts as not vanishing; its result
    carries sigma_hat = 0 and p_value = 0.
    """

    candidate: Triple
    passed: bool
    sub_results: tuple[TetradResult, ...]

    @property
    def min_p(self) -> float:
        """Smallest sub-test p-value; the triple passes at any alpha below it."""
        return min(r.p_value for r in self.sub_results)


_COLUMNS = ("triples", "d_hat", "sigma_hat", "w", "p")


def _bits(array: np.ndarray) -> tuple:
    """What report equality compares of an array: dtype, shape and bytes,
    with every NaN made the same NaN."""
    if array.dtype.kind == "f":
        array = np.where(np.isnan(array), np.nan, array)
    return array.dtype.str, array.shape, array.tobytes()


def _numbers(array: np.ndarray, nonfinite) -> list[str]:
    """The JSON text of every entry of ``array``, row-major: its
    ``float.__repr__``, as ``json`` writes a finite float, or for an
    infinite or NaN entry what ``nonfinite`` makes of it."""
    values = array.ravel().tolist()
    texts = list(map(float.__repr__, values))
    for i in np.flatnonzero(~np.isfinite(array.ravel())).tolist():
        texts[i] = nonfinite(values[i])
    return texts


# Triples per block of the streamed report.  Blocks of 128 to 512 wrote a
# 4 060-triple report equally fast (2 vCPUs), 1 024 and above more slowly;
# the writer's memory is about three blocks' text, 0.4 MB at 256.
_JSON_BLOCK = 256
# blocks per forked process in _write_json: into a new file, 4 060 triples
# wrote in 21.9 ms as one run and 17.3 ms as two, 2 024 (8 blocks) in 11.9
# against 9.1 ms, 969 (4 blocks) in 5.7 against 4.7 ms and 680 (3 blocks)
# in 4.6 against 4.8 ms (2 vCPUs, a 140 MB process: the fork copies its
# page tables)
_FORK_BLOCKS = 4

_BOOLS = np.array(["false", "true"], dtype=object)


def _block_texts(one: str, blocks, opened: bool = False):
    """The text of the items of a JSON list that are the template ``one``
    filled with each row of the (t, k) object arrays ``blocks``, t at most
    ``_JSON_BLOCK``: one ``%`` per block, made only when the text before
    it has been taken.  Each block's text comes after the list's opening
    bracket, or after a comma once an item is ``opened``."""
    full = ",\n".join([one] * _JSON_BLOCK)
    for fields in blocks:
        t = len(fields)
        if t == 0:
            continue
        yield ",\n" if opened else "[\n"
        template = full[:t * (len(one) + 2) - 2]
        yield template % tuple(fields.ravel().tolist())
        opened = True


def _write_list(write, one: str, blocks, close: str) -> None:
    """Write the JSON list of ``_block_texts(one, blocks)`` closing at
    indentation ``close``."""
    opened = False
    for text in _block_texts(one, blocks):
        write(text)
        opened = True
    write(f"\n{close}]" if opened else "[]")


def _runs(t: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of whole ``_JSON_BLOCK``s that cut ``t``
    triples into runs of about equal length, the first no shorter than the
    others, one per process and each at least ``_FORK_BLOCKS`` blocks: one
    range below twice that."""
    blocks = -(-t // _JSON_BLOCK)
    k = max(1, min(_workers(), blocks // _FORK_BLOCKS))
    cuts = [min(-(-i * blocks // k) * _JSON_BLOCK, t) for i in range(k + 1)]
    return list(zip(cuts, cuts[1:]))


@dataclass(frozen=True, eq=False)
class FindNcReport:
    """Search output, kept as columns.

    Row t of ``triples`` holds the indices into the sorted ``candidates``
    of the t-th triple tested, in lexicographic order of the triples; row
    t of ``d_hat``, ``sigma_hat``, ``w`` and ``p`` holds its six sub-tests
    in ``triple_specs`` order, and a sub-test vanishes when ``p`` exceeds
    ``alpha_used``.  An inapplicable sub-test has ``sigma_hat = 0``,
    ``p = 0`` and ``w = +-inf``.  Two reports are equal when their names
    and alpha are equal and their arrays bit-equal, NaN equal to NaN.
    ``to_json`` collects what ``_write_json`` streams in blocks of
    ``_JSON_BLOCK`` triples; the command line streams it to its output.
    """

    treatment: str
    outcome: str
    alpha_used: float
    candidates: tuple[str, ...]
    triples: np.ndarray
    d_hat: np.ndarray
    sigma_hat: np.ndarray
    w: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_used", float(self.alpha_used))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        for name in _COLUMNS:
            column = np.array(getattr(self, name))
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def _key(self) -> tuple:
        return self.treatment, self.outcome, self.alpha_used, self.candidates

    def __eq__(self, other):
        if not isinstance(other, FindNcReport):
            return NotImplemented
        return self._key() == other._key() and all(
            _bits(getattr(self, name)) == _bits(getattr(other, name))
            for name in _COLUMNS
        )

    def __hash__(self):
        return hash((self._key(), self.triples.tobytes()))

    @property
    def vanishes(self) -> np.ndarray:
        """Per sub-test: is its p-value above ``alpha_used``?"""
        return self.p > self.alpha_used

    @property
    def passed(self) -> np.ndarray:
        """Per triple: do all six sub-tests vanish?"""
        return self.vanishes.all(axis=1)

    @property
    def min_p(self) -> np.ndarray:
        """Per triple: the smallest sub-test p-value."""
        return self.p.min(axis=1)

    @cached_property
    def dncts(self) -> tuple[Triple, ...]:
        """The triples that passed, in lexicographic order."""
        names = self.candidates
        return tuple(
            tuple(names[i] for i in row)
            for row in self.triples[self.passed].tolist()
        )

    @cached_property
    def all_verdicts(self) -> tuple[DnctVerdict, ...]:
        """One ``DnctVerdict`` per triple, built from the columns."""
        names = self.candidates
        rows = zip(
            self.triples.tolist(), self.passed.tolist(), self.d_hat.tolist(),
            self.sigma_hat.tolist(), self.w.tolist(), self.p.tolist(),
            self.vanishes.tolist(),
        )
        verdicts = []
        for row, passed, *columns in rows:
            triple = tuple(names[i] for i in row)
            specs = triple_specs(triple, self.treatment, self.outcome)
            results = tuple(
                TetradResult(spec=spec, d_hat=d_hat, sigma_hat=sigma,
                             w_stat=w, p_value=p, alpha=self.alpha_used,
                             vanishes=vanishes)
                for spec, d_hat, sigma, w, p, vanishes in zip(specs, *columns)
            )
            verdicts.append(DnctVerdict(triple, passed, results))
        return tuple(verdicts)

    def to_json_dict(self) -> dict:
        """The report as a JSON document; the reference ``to_json`` must
        reproduce."""
        return {
            "treatment": self.treatment,
            "outcome": self.outcome,
            "alpha": self.alpha_used,
            "dncts": [list(t) for t in self.dncts],
            "verdicts": [
                {
                    "triple": list(v.candidate),
                    "passed": v.passed,
                    "tests": [
                        {
                            "left": list(r.spec.left),
                            "right": list(r.spec.right),
                            # inapplicable tests carry an infinite statistic;
                            # JSON has no representation for it
                            "w": (
                                r.w_stat
                                if math.isfinite(r.w_stat)
                                else None
                            ),
                            "p": r.p_value,
                        }
                        for r in v.sub_results
                    ],
                }
                for v in self.all_verdicts
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``,
        written straight from the columns by the streaming writer."""
        text = io.StringIO()
        self._write_json(text.write)
        return text.getvalue()

    def _write_json(self, write, pad: str = "") -> None:
        """Stream ``to_json`` to ``write``, for a report nested at
        indentation ``pad``: every line after the first is prefixed with
        it.  The lists go out in blocks of ``_JSON_BLOCK`` triples, each
        formatted by one ``%`` and written before the next is made, so
        memory does not grow with the report; the verdict list's runs
        after the first are formatted by forked children."""
        key, item = pad + "  ", pad + "    "
        test = item + "    "
        names = np.array(
            [encode_basestring_ascii(name) for name in self.candidates],
            dtype=object,
        )
        treatment = encode_basestring_ascii(self.treatment)
        outcome = encode_basestring_ascii(self.outcome)
        roles = np.array([treatment] * 3 + [outcome] * 3, dtype=object)
        passed = self.passed
        starts = range(0, len(self.triples), _JSON_BLOCK)
        write(f'{{\n{key}"alpha": {json.dumps(self.alpha_used)},\n'
              f'{key}"dncts": ')
        _write_list(
            write,
            f"{item}[\n{item}  %s,\n{item}  %s,\n{item}  %s\n{item}]",
            (names[self.triples[s:s + _JSON_BLOCK][passed[s:s + _JSON_BLOCK]]]
             for s in starts),
            key,
        )
        write(f',\n{key}"outcome": {outcome},\n'
              f'{key}"treatment": {treatment},\n{key}"verdicts": ')
        one_test = (
            f'{test}{{\n{test}  "left": [\n{test}    %s,\n{test}    %s\n'
            f'{test}  ],\n{test}  "p": %s,\n{test}  "right": [\n'
            f'{test}    %s,\n{test}    %s\n{test}  ],\n{test}  "w": %s\n'
            f'{test}}}'
        )
        one_verdict = (
            f'{item}{{\n{item}  "passed": %s,\n{item}  "tests": [\n'
            + ",\n".join([one_test] * 6)
            + f'\n{item}  ],\n{item}  "triple": [\n{item}    %s,\n'
            f'{item}    %s,\n{item}    %s\n{item}  ]\n{item}}}'
        )
        self._write_verdicts(write, one_verdict, names, roles, passed)
        write(f"\n{key}]" if len(self.triples) else "[]")
        write(f"\n{pad}}}")

    def _write_verdicts(self, write, one: str, names, roles,
                        passed) -> None:
        """Write the verdict list up to its closing bracket, in
        ``_runs`` of whole blocks: this process streams the first run as
        ``_write_list`` does while forked children format the others, and
        then copies each child's text through ``write``, in order.  A child
        that sent nothing has its run formatted here; one that failed once
        its text began to be written raises ``ChildProcessError``."""

        def texts(run):
            start, stop = run
            return _block_texts(
                one,
                (self._verdict_fields(names, roles, passed, s, s + _JSON_BLOCK)
                 for s in range(start, stop, _JSON_BLOCK)),
                opened=start > 0,
            )

        def here(run):
            for text in texts(run):
                write(text)
            return True

        runs = _runs(len(self.triples))
        later, redone = iter(runs[1:]), []

        def copy(fd):
            run = next(later)
            copied = _copy_payload(fd,
                                   lambda piece: write(str(piece, "ascii")))
            if copied is None:  # the child failed before sending
                redone.append(run)
                return here(run)
            if not copied:
                raise ChildProcessError("a forked part of the report ended "
                                        "early")
            return True

        done = map_parts(runs, here,
                         lambda run: "".join(texts(run)).encode("ascii"), copy)
        if any(not ok and run not in redone for ok, run in zip(done, runs)):
            raise ChildProcessError("a forked part of the report failed")

    def _verdict_fields(self, names, roles, passed, start: int,
                        stop: int) -> np.ndarray:
        """The (t, 40) object array that fills the verdict template for
        triples ``start:stop``: each row holds ``passed``, then the six
        sub-tests' (left a, left b, p, right c, role, w), then the
        triple's names."""
        triple = names[self.triples[start:stop]]
        t = len(triple)
        members = triple[:, np.array(_PAIR_ROWS * 2)]
        tests = np.empty((t, 6, 6), dtype=object)
        tests[..., :2] = members[..., :2]
        tests[..., 2] = np.array(_numbers(self.p[start:stop], json.dumps),
                                 dtype=object).reshape(t, 6)
        tests[..., 3] = members[..., 2]
        tests[..., 4] = roles
        tests[..., 5] = np.array(
            _numbers(self.w[start:stop], lambda value: "null"),
            dtype=object).reshape(t, 6)
        return np.concatenate(
            [_BOOLS[passed[start:stop].astype(np.intp)][:, None],
             tests.reshape(t, 36), triple],
            axis=1,
        )


def _sub_tests(entries, n: int, index_of, names, triples: np.ndarray,
               treatment: str, outcome: str, alpha: float):
    """The six sub-tests of every row of ``triples``, a (T, 3) array of
    increasing indices into the sorted ``names``, on the covariance
    ``entries`` (..., p, p) of ``n`` rows whose columns ``index_of``
    places: ``_wishart_batch``'s d_hat, sigma_hat, w and p, each
    (..., T, 6) in ``triple_specs`` order.  Every search runs here."""
    members = np.array([index_of(name) for name in names],
                       dtype=np.intp)[triples]
    quads = np.empty((len(triples), 6, 4), dtype=np.intp)
    quads[:, :, :3] = members[:, np.array(_PAIR_ROWS * 2)]
    quads[:, :3, 3] = index_of(treatment)
    quads[:, 3:, 3] = index_of(outcome)
    return tuple(
        column.reshape(*column.shape[:-1], len(triples), 6)
        for column in _wishart_batch(entries, quads.reshape(-1, 4), n, alpha)
    )


def _report(cov: CovMatrix, n: int, plan, treatment: str,
            outcome: str) -> FindNcReport:
    """The report of the run plan ``plan = (names, triples, alpha)`` of
    ``_search_plan`` on the covariance ``cov`` of ``n`` rows."""
    names, triples, alpha = plan
    return FindNcReport(treatment, outcome, alpha, names, triples,
                        *_sub_tests(cov.entries, n, cov.index_of, names,
                                    triples, treatment, outcome, alpha))


def dnct_validate(
    cov: CovMatrix,
    n: int,
    candidate,
    treatment: str,
    outcome: str,
    alpha: float,
) -> DnctVerdict:
    """Run all six certifying tetrad tests for one candidate triple."""
    plan = _search_plan(cov.variable_index, canonical_triple(candidate),
                        treatment, outcome, n, alpha)
    return _report(cov, n, plan, treatment, outcome).all_verdicts[0]


def find_nc(
    data: Dataset,
    candidates,
    treatment: str,
    outcome: str,
    alpha: float | None = None,
) -> FindNcReport:
    """Brute-force scan of every unordered candidate triple.

    The run plan takes ``candidates`` None as every column but the
    treatment and the outcome, and ``alpha`` None as 1/n.  Verdicts are
    reported in lexicographic order of the canonical triple.

    Raises
    ------
    TooFewCandidatesError
        Fewer than three candidates.
    UnknownVariableError
        A role or a candidate that is no column of ``data``.
    ValueError
        Candidates overlapping treatment/outcome, or alpha outside (0, 1).
    """
    plan = _search_plan(data.variable_names, candidates, treatment, outcome,
                        data.n, alpha)
    return _report(covariance(data), data.n, plan, treatment, outcome)


def _search_plan(variables, candidates, treatment: str, outcome: str,
                 n: int, alpha: float | None, covariates=()):
    """The run plan of ``n`` rows of columns ``variables``: distinct roles,
    and at least three candidates, by default every other column.  Returns
    the sorted candidates, their triples as a (T, 3) array of increasing
    indices, and alpha as a float in (0, 1), 1/n by default."""
    roles = (treatment, outcome, *covariates)
    if {treatment, outcome} & set(covariates):
        raise ValueError("covariates must be distinct from the treatment "
                         "and the outcome")
    _check_distinct(*roles)
    if candidates is None:
        candidates = [name for name in variables if name not in roles]
    candidates = sorted(candidates)
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate names must be unique")
    if len(candidates) < 3:
        raise TooFewCandidatesError(
            f"need at least 3 candidates, got {len(candidates)}"
        )
    shared = [name for name in candidates if name in roles]
    if shared:
        raise ValueError(f"candidates {shared} are also covariates, the "
                         "treatment or the outcome")
    for name in (*roles, *candidates):
        if name not in variables:
            raise UnknownVariableError(name)
    if alpha is None:
        alpha = 1.0 / n
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    triples = np.array(list(combinations(range(len(candidates)), 3)),
                       dtype=np.intp)
    return tuple(candidates), triples, float(alpha)
