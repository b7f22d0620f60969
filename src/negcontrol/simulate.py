"""Linear-Gaussian and Bernoulli-sigmoid structural simulators with exact
graphical ground truth.

The structural shape is fixed: one latent confounder U that parents every
measured node, a treatment T, an outcome O (with an optional T -> O edge),
and candidate control variables that may parent each other.  Two built-in
designs ship with the package:

* ``simple``  -- 4 candidates, one candidate-to-candidate edge.
* ``complex`` -- 7 candidates, five candidate-to-candidate edges.

Ground truth for the triplet search is purely graphical: a candidate pair
is "disconnected" when every trek between them passes through U, which for
these graphs (U has no parents) reduces to "no other common ancestor".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np
import numpy.random  # noqa: F401  loaded on import, not on the first draw

from .data import Dataset
from .errors import GraphSpecError

__all__ = [
    "Edge",
    "CoeffDraw",
    "GraphSpec",
    "builtin_graph",
    "realize_coefficients",
    "generate",
    "ground_truth_dncts",
    "population_covariance",
    "graph_spec_to_json_dict",
    "graph_spec_from_json_dict",
    "load_graph_json",
]

LATENT = "U"

_U_SD_DEFAULT = math.sqrt(2.0)
_BINARY_INTERCEPT = -1.0

# coefficient ranges: (confounder/treatment edges, control-to-control edges)
_GAUSSIAN_RANGES = {
    "weak": ((0.3, 0.7), (1.0, 2.0)),
    "strong": ((0.6, 1.0), (2.0, 4.0)),
}
_BINARY_RANGE = (1.0, 2.0)


@dataclass(frozen=True)
class Edge:
    """Directed edge with either a realized coefficient or a draw range."""

    parent: str
    child: str
    coeff: float | None = None
    dist: tuple[float, float] | None = None

    def __post_init__(self):
        if self.parent == self.child:
            raise GraphSpecError(f"self-loop on {self.parent!r}")
        if self.coeff is None and self.dist is None:
            raise GraphSpecError(
                f"edge {self.parent}->{self.child} needs coeff or dist"
            )
        if self.dist is not None:
            lo, hi = self.dist
            if not lo < hi:
                raise GraphSpecError(
                    f"edge {self.parent}->{self.child} range must satisfy lo < hi"
                )
            object.__setattr__(self, "dist", (float(lo), float(hi)))
        if self.coeff is not None:
            object.__setattr__(self, "coeff", float(self.coeff))


@dataclass(frozen=True)
class CoeffDraw:
    """Log of one realization: seed plus the drawn coefficient per edge."""

    seed: int
    coefficients: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class GraphSpec:
    """Structural model description.

    ``noise`` maps node -> error SD for the gaussian family; for the
    binary family it holds the shared logistic intercept under the key
    "intercept".
    """

    nodes: tuple[str, ...]
    latent: str
    treatment: str
    outcome: str
    edges: tuple[Edge, ...]
    family: str = "gaussian"
    noise: dict = field(default_factory=dict)
    draw: CoeffDraw | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        _validate_spec(self)

    @property
    def measured(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n != self.latent)

    @property
    def candidates(self) -> tuple[str, ...]:
        return tuple(
            n
            for n in self.nodes
            if n not in (self.latent, self.treatment, self.outcome)
        )

    def parents_of(self, node: str) -> list[Edge]:
        return [e for e in self.edges if e.child == node]

    def edge_coeff(self, parent: str, child: str) -> float:
        for e in self.edges:
            if e.parent == parent and e.child == child:
                if e.coeff is None:
                    raise GraphSpecError(
                        f"edge {parent}->{child} has no realized coefficient"
                    )
                return e.coeff
        raise GraphSpecError(f"no edge {parent}->{child}")

    def is_realized(self) -> bool:
        return all(e.coeff is not None for e in self.edges)


def _topological_order(spec: GraphSpec) -> list[str]:
    children: dict[str, list[str]] = {n: [] for n in spec.nodes}
    indegree = {n: 0 for n in spec.nodes}
    for e in spec.edges:
        children[e.parent].append(e.child)
        indegree[e.child] += 1
    ready = sorted(n for n, d in indegree.items() if d == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for child in sorted(children[node]):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
        ready.sort()
    if len(order) != len(spec.nodes):
        raise GraphSpecError("edges contain a cycle")
    return order


def _validate_spec(spec: GraphSpec) -> None:
    nodes = spec.nodes
    if len(set(nodes)) != len(nodes):
        raise GraphSpecError("node names must be unique")
    for required in (spec.latent, spec.treatment, spec.outcome):
        if required not in nodes:
            raise GraphSpecError(f"node {required!r} missing from node list")
    if len({spec.latent, spec.treatment, spec.outcome}) != 3:
        raise GraphSpecError("latent, treatment, and outcome must differ")
    if spec.family not in ("gaussian", "binary"):
        raise GraphSpecError(f"unknown family: {spec.family!r}")
    node_set = set(nodes)
    seen = set()
    for e in spec.edges:
        if e.parent not in node_set or e.child not in node_set:
            raise GraphSpecError(
                f"edge {e.parent}->{e.child} uses unknown nodes"
            )
        if (e.parent, e.child) in seen:
            raise GraphSpecError(f"duplicate edge {e.parent}->{e.child}")
        seen.add((e.parent, e.child))
    if any(e.child == spec.latent for e in spec.edges):
        raise GraphSpecError("the latent confounder cannot have parents")
    for node in spec.measured:
        if (spec.latent, node) not in seen:
            raise GraphSpecError(
                f"the latent confounder must parent every measured node "
                f"(missing {spec.latent}->{node})"
            )
    allowed_touching = {
        (spec.latent, spec.treatment),
        (spec.latent, spec.outcome),
        (spec.treatment, spec.outcome),
    }
    for e in spec.edges:
        touches = {e.parent, e.child} & {spec.treatment, spec.outcome}
        if touches and (e.parent, e.child) not in allowed_touching:
            raise GraphSpecError(
                f"edge {e.parent}->{e.child} is not allowed to touch "
                "treatment or outcome"
            )
    _topological_order(spec)  # raises on cycles
    if spec.family == "gaussian":
        for node in nodes:
            sd = spec.noise.get(node)
            if sd is None or not sd > 0:
                raise GraphSpecError(
                    f"gaussian family needs a positive noise SD for {node!r}"
                )
    else:
        if "intercept" not in spec.noise:
            raise GraphSpecError("binary family needs an 'intercept' entry")


def builtin_graph(
    name: str,
    strength: str = "weak",
    family: str = "gaussian",
    seed: int = 0,
    u_sd: float = _U_SD_DEFAULT,
) -> GraphSpec:
    """One of the two built-in designs with coefficients drawn once.

    ``strength`` widens the coefficient ranges for the gaussian family and
    is ignored for the binary family.  The same seed always yields the
    same coefficients; replications should vary the generation seed, not
    this one.
    """
    if name == "simple":
        n_controls = 4
        control_edges = [("Z1", "Z2")]
    elif name == "complex":
        n_controls = 7
        control_edges = [
            ("Z1", "Z2"),
            ("Z3", "Z4"),
            ("Z4", "Z5"),
            ("Z3", "Z5"),
            ("Z6", "Z7"),
        ]
    else:
        raise GraphSpecError(f"unknown builtin graph: {name!r}")
    if family not in ("gaussian", "binary"):
        raise GraphSpecError(f"unknown family: {family!r}")
    if family == "gaussian" and strength not in _GAUSSIAN_RANGES:
        raise GraphSpecError(f"unknown strength: {strength!r}")

    controls = [f"Z{i}" for i in range(1, n_controls + 1)]
    nodes = (LATENT, "T", "O", *controls)
    if family == "gaussian":
        conf_range, control_range = _GAUSSIAN_RANGES[strength]
    else:
        conf_range = control_range = _BINARY_RANGE
    edges = [
        Edge(LATENT, "T", dist=conf_range),
        Edge(LATENT, "O", dist=conf_range),
        Edge("T", "O", dist=conf_range),
    ]
    edges += [Edge(LATENT, z, dist=conf_range) for z in controls]
    edges += [Edge(a, b, dist=control_range) for a, b in control_edges]
    if family == "gaussian":
        noise = {node: 1.0 for node in nodes}
        noise[LATENT] = float(u_sd)
    else:
        noise = {"intercept": _BINARY_INTERCEPT}
    spec = GraphSpec(
        nodes=nodes,
        latent=LATENT,
        treatment="T",
        outcome="O",
        edges=tuple(edges),
        family=family,
        noise=noise,
    )
    return realize_coefficients(spec, seed)


def realize_coefficients(spec: GraphSpec, seed: int) -> GraphSpec:
    """Draw every unrealized coefficient from its range, in edge order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    edges = []
    drawn = []
    for e in spec.edges:
        if e.coeff is not None:
            coeff = e.coeff
        else:
            lo, hi = e.dist
            coeff = float(rng.uniform(lo, hi))
        edges.append(Edge(e.parent, e.child, coeff=coeff))
        drawn.append((e.parent, e.child, coeff))
    return GraphSpec(
        nodes=spec.nodes,
        latent=spec.latent,
        treatment=spec.treatment,
        outcome=spec.outcome,
        edges=tuple(edges),
        family=spec.family,
        noise=dict(spec.noise),
        draw=CoeffDraw(seed=seed, coefficients=tuple(drawn)),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def generate(
    spec: GraphSpec, n: int, seed, include_latent: bool = False
) -> Dataset:
    """Ancestral sampling of n observations.

    The latent confounder is excluded from the returned columns unless
    ``include_latent`` is set (handy for diagnostics).  Column order is
    treatment, outcome, then candidates in node order.
    """
    names, values = _generate_stack(spec, n, [seed], include_latent)
    return Dataset._adopt(names, values[0])  # a new array: no copy


def _generate_stack(spec: GraphSpec, n: int, seeds,
                    include_latent: bool = False):
    """``generate``'s column names and the (R, n, k) values of one sample
    per seed of ``seeds``, each drawn from its own stream as ``generate``
    draws it alone.  The values are not checked for finiteness."""
    if not spec.is_realized():
        raise GraphSpecError("realize coefficients before generating data")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    values: dict[str, np.ndarray] = {}
    intercept = spec.noise.get("intercept", _BINARY_INTERCEPT)
    for node in _topological_order(spec):
        linear = np.zeros((len(rngs), n))
        for e in spec.parents_of(node):
            linear = linear + e.coeff * values[e.parent]
        draws = np.empty((len(rngs), n))
        if spec.family == "gaussian":
            # rng.normal(0.0, sd) draws the same 0.0 + sd * z; adding the
            # +0.0 only turns a -0.0 into +0.0, as adding linear then does
            for row, rng in zip(draws, rngs):
                rng.standard_normal(out=row)
            draws *= spec.noise[node]
            values[node] = linear + draws
        else:
            if node == spec.latent:
                prob = np.full(n, 0.5)
            else:
                prob = _sigmoid(intercept + linear)
            for row, rng in zip(draws, rngs):
                rng.random(out=row)
            values[node] = (draws < prob).astype(float)
    columns = [spec.treatment, spec.outcome, *spec.candidates]
    if include_latent:
        columns.append(spec.latent)
    return tuple(columns), np.stack([values[c] for c in columns], axis=-1)


def _reachable(spec: GraphSpec) -> dict[str, set[str]]:
    """node -> set of nodes reachable by directed paths (including itself)."""
    children: dict[str, list[str]] = {n: [] for n in spec.nodes}
    for e in spec.edges:
        children[e.parent].append(e.child)
    reach: dict[str, set[str]] = {}
    for node in reversed(_topological_order(spec)):
        acc = {node}
        for child in children[node]:
            acc |= reach[child]
        reach[node] = acc
    return reach


def ground_truth_dncts(spec: GraphSpec):
    """Exact disconnected triples plus the true treatment effect.

    A candidate pair is disconnected when every trek between its members
    passes through the latent confounder; since the confounder has no
    parents, that holds exactly when no OTHER node reaches both members by
    directed paths.  A triple qualifies when all three of its pairs are
    disconnected.

    The true effect is the realized treatment coefficient for the gaussian
    family and the exhaustively enumerated mean difference for the binary
    family.
    """
    reach = _reachable(spec)
    candidates = spec.candidates
    connected: set[tuple[str, str]] = set()
    for a, b in combinations(candidates, 2):
        for node in spec.nodes:
            if node == spec.latent:
                continue
            if a in reach[node] and b in reach[node]:
                connected.add((a, b))
                break
    dncts = [
        triple
        for triple in combinations(sorted(candidates), 3)
        if not any(
            pair in connected or pair[::-1] in connected
            for pair in combinations(triple, 2)
        )
    ]
    if spec.family == "gaussian":
        true_delta = spec.edge_coeff(spec.treatment, spec.outcome)
    else:
        true_delta = _binary_true_ate(spec)
    return dncts, true_delta


def _binary_true_ate(spec: GraphSpec) -> float:
    """E[O | do(T=1)] - E[O | do(T=0)] by exhaustive enumeration.

    Sums the outcome over every configuration of the remaining Bernoulli
    nodes (2^|nodes| terms per arm) with the treatment clamped.
    """
    if not spec.is_realized():
        raise GraphSpecError("realize coefficients before computing the truth")
    order = _topological_order(spec)
    others = [n for n in order if n != spec.treatment]
    intercept = spec.noise.get("intercept", _BINARY_INTERCEPT)
    parents = {n: spec.parents_of(n) for n in spec.nodes}

    def mean_outcome(treatment_value: float) -> float:
        total = 0.0
        for bits in product((0.0, 1.0), repeat=len(others)):
            values = dict(zip(others, bits))
            values[spec.treatment] = treatment_value
            prob = 1.0
            for node in others:
                linear = sum(
                    e.coeff * values[e.parent] for e in parents[node]
                )
                if node == spec.latent:
                    p_one = 0.5
                else:
                    p_one = 1.0 / (1.0 + math.exp(-(intercept + linear)))
                prob *= p_one if values[node] == 1.0 else 1.0 - p_one
            total += prob * values[spec.outcome]
        return total

    return mean_outcome(1.0) - mean_outcome(0.0)


def population_covariance(spec: GraphSpec):
    """Implied covariance of the measured nodes for the gaussian family.

    With x = C'x + e (C[i, j] the i -> j coefficient) the full covariance
    is (I - C')^{-1} Omega (I - C')^{-T}; the latent row and column are
    dropped from the result.  Returns (names, matrix).
    """
    if spec.family != "gaussian":
        raise GraphSpecError("population covariance is gaussian-only")
    if not spec.is_realized():
        raise GraphSpecError("realize coefficients first")
    order = _topological_order(spec)
    pos = {n: i for i, n in enumerate(order)}
    k = len(order)
    coeffs = np.zeros((k, k))
    for e in spec.edges:
        coeffs[pos[e.parent], pos[e.child]] = e.coeff
    omega = np.diag([spec.noise[n] ** 2 for n in order])
    transform = np.linalg.inv(np.eye(k) - coeffs.T)
    full = transform @ omega @ transform.T
    names = [n for n in order if n != spec.latent]
    idx = [pos[n] for n in names]
    return names, full[np.ix_(idx, idx)]


def graph_spec_to_json_dict(spec: GraphSpec) -> dict:
    edges = []
    for e in spec.edges:
        entry: dict = {"from": e.parent, "to": e.child}
        if e.coeff is not None:
            entry["coeff"] = e.coeff
        else:
            entry["dist"] = list(e.dist)
        edges.append(entry)
    return {
        "nodes": list(spec.nodes),
        "latent": spec.latent,
        "treatment": spec.treatment,
        "outcome": spec.outcome,
        "edges": edges,
        "family": spec.family,
        "noise": dict(spec.noise),
    }


def graph_spec_from_json_dict(payload: dict) -> GraphSpec:
    try:
        edges = tuple(
            Edge(
                parent=e["from"],
                child=e["to"],
                coeff=e.get("coeff"),
                dist=tuple(e["dist"]) if "dist" in e else None,
            )
            for e in payload["edges"]
        )
        return GraphSpec(
            nodes=tuple(payload["nodes"]),
            latent=payload["latent"],
            treatment=payload["treatment"],
            outcome=payload["outcome"],
            edges=edges,
            family=payload.get("family", "gaussian"),
            noise=dict(payload.get("noise", {})),
        )
    except (KeyError, TypeError) as exc:
        raise GraphSpecError(f"malformed graph description: {exc}") from exc


def load_graph_json(path) -> GraphSpec:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise GraphSpecError(f"invalid JSON in {path}: {exc}") from exc
    return graph_spec_from_json_dict(payload)
