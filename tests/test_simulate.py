"""Tests for the structural-model simulator and its exact ground truth."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from negcontrol import simulate
from negcontrol.data import Dataset, covariance
from negcontrol.errors import GraphSpecError
from negcontrol.simulate import (
    CoeffDraw,
    Edge,
    GraphSpec,
    builtin_graph,
    generate,
    graph_spec_from_json_dict,
    graph_spec_to_json_dict,
    ground_truth_dncts,
    load_graph_json,
    population_covariance,
    realize_coefficients,
)

COMPLEX_TRUTH = {
    ("Z1", "Z3", "Z6"),
    ("Z1", "Z3", "Z7"),
    ("Z1", "Z4", "Z6"),
    ("Z1", "Z4", "Z7"),
    ("Z1", "Z5", "Z6"),
    ("Z1", "Z5", "Z7"),
    ("Z2", "Z3", "Z6"),
    ("Z2", "Z3", "Z7"),
    ("Z2", "Z4", "Z6"),
    ("Z2", "Z4", "Z7"),
    ("Z2", "Z5", "Z6"),
    ("Z2", "Z5", "Z7"),
}


# ---------------------------------------------------------------------------
# Edge / GraphSpec validation
# ---------------------------------------------------------------------------


def test_edge_validation():
    with pytest.raises(GraphSpecError):
        Edge("a", "a", coeff=1.0)
    with pytest.raises(GraphSpecError):
        Edge("a", "b")  # neither coeff nor dist
    with pytest.raises(GraphSpecError):
        Edge("a", "b", dist=(2.0, 1.0))
    assert Edge("a", "b", coeff=2).coeff == 2.0


def _tiny_spec(**overrides):
    base = dict(
        nodes=("U", "T", "O", "Z1", "Z2", "Z3"),
        latent="U",
        treatment="T",
        outcome="O",
        edges=tuple(
            Edge("U", child, coeff=0.5)
            for child in ("T", "O", "Z1", "Z2", "Z3")
        )
        + (Edge("T", "O", coeff=0.4),),
        family="gaussian",
        noise={n: 1.0 for n in ("U", "T", "O", "Z1", "Z2", "Z3")},
    )
    base.update(overrides)
    return GraphSpec(**base)


def test_graph_spec_accepts_valid():
    spec = _tiny_spec()
    assert spec.is_realized()
    assert spec.candidates == ("Z1", "Z2", "Z3")
    assert spec.measured == ("T", "O", "Z1", "Z2", "Z3")


def test_graph_spec_rejects_cycle():
    spec = _tiny_spec()
    loop = (
        Edge("Z1", "Z2", coeff=0.1),
        Edge("Z2", "Z3", coeff=0.1),
        Edge("Z3", "Z1", coeff=0.1),
    )
    with pytest.raises(GraphSpecError, match="cycle"):
        GraphSpec(
            nodes=spec.nodes,
            latent="U",
            treatment="T",
            outcome="O",
            edges=spec.edges + loop,
            family="gaussian",
            noise=dict(spec.noise),
        )


def test_graph_spec_rejects_edges_into_treatment_or_outcome_roles():
    # Only the latent confounder and the treatment may feed the outcome,
    # and only the confounder may feed the treatment; anything else breaks
    # the identification argument and is refused outright.
    spec = _tiny_spec()
    with pytest.raises(GraphSpecError):
        GraphSpec(
            nodes=spec.nodes,
            latent="U",
            treatment="T",
            outcome="O",
            edges=spec.edges + (Edge("O", "Z1", coeff=0.1),),
            family="gaussian",
            noise=dict(spec.noise),
        )


def test_graph_spec_rejects_latent_with_parent():
    spec = _tiny_spec()
    with pytest.raises(GraphSpecError):
        GraphSpec(
            nodes=spec.nodes,
            latent="U",
            treatment="T",
            outcome="O",
            edges=spec.edges + (Edge("Z1", "U", coeff=0.1),),
            family="gaussian",
            noise=dict(spec.noise),
        )


def test_graph_spec_requires_latent_to_reach_all_measured():
    # Dropping the U -> Z3 edge leaves a measured node unconfounded, which
    # the validity argument does not cover.
    spec = _tiny_spec()
    edges = tuple(e for e in spec.edges if not (e.parent == "U" and e.child == "Z3"))
    with pytest.raises(GraphSpecError):
        GraphSpec(
            nodes=spec.nodes,
            latent="U",
            treatment="T",
            outcome="O",
            edges=edges,
            family="gaussian",
            noise=dict(spec.noise),
        )


def test_graph_spec_rejects_duplicate_edge():
    spec = _tiny_spec()
    with pytest.raises(GraphSpecError):
        GraphSpec(
            nodes=spec.nodes,
            latent="U",
            treatment="T",
            outcome="O",
            edges=spec.edges + (Edge("T", "O", coeff=0.9),),
            family="gaussian",
            noise=dict(spec.noise),
        )


def test_graph_spec_rejects_unknown_family_and_missing_noise():
    spec = _tiny_spec()
    with pytest.raises(GraphSpecError):
        _tiny_spec(family="poisson")
    with pytest.raises(GraphSpecError):
        _tiny_spec(noise={"U": 1.0})
    with pytest.raises(GraphSpecError):
        _tiny_spec(family="binary", noise={})  # needs an intercept


def test_graph_spec_rejects_unknown_node_in_edge():
    spec = _tiny_spec()
    with pytest.raises(GraphSpecError):
        GraphSpec(
            nodes=spec.nodes,
            latent="U",
            treatment="T",
            outcome="O",
            edges=spec.edges + (Edge("QQ", "Z1", coeff=0.1),),
            family="gaussian",
            noise=dict(spec.noise),
        )


def test_edge_coeff_lookup():
    spec = _tiny_spec()
    assert spec.edge_coeff("T", "O") == 0.4
    with pytest.raises(GraphSpecError):
        spec.edge_coeff("O", "T")


# ---------------------------------------------------------------------------
# builtin graphs and coefficient draws
# ---------------------------------------------------------------------------


def test_builtin_graph_shapes():
    simple = builtin_graph("simple", seed=0)
    assert simple.candidates == ("Z1", "Z2", "Z3", "Z4")
    edge_set = {(e.parent, e.child) for e in simple.edges}
    assert ("Z1", "Z2") in edge_set
    assert ("T", "O") in edge_set
    assert all((simple.latent, z) in edge_set for z in simple.candidates)

    big = builtin_graph("complex", seed=0)
    assert big.candidates == tuple(f"Z{i}" for i in range(1, 8))
    big_edges = {(e.parent, e.child) for e in big.edges}
    assert {("Z1", "Z2"), ("Z3", "Z4"), ("Z4", "Z5"), ("Z3", "Z5"), ("Z6", "Z7")} <= big_edges

    with pytest.raises(GraphSpecError):
        builtin_graph("huge")
    with pytest.raises(GraphSpecError):
        builtin_graph("simple", family="gamma")
    with pytest.raises(GraphSpecError):
        builtin_graph("simple", strength="mild")


def test_builtin_coefficient_ranges():
    for seed in range(8):
        weak = builtin_graph("simple", strength="weak", seed=seed)
        for e in weak.edges:
            if e.parent == "Z1":
                assert 1.0 <= e.coeff <= 2.0
            else:
                assert 0.3 <= e.coeff <= 0.7
        strong = builtin_graph("simple", strength="strong", seed=seed)
        for e in strong.edges:
            if e.parent == "Z1":
                assert 2.0 <= e.coeff <= 4.0
            else:
                assert 0.6 <= e.coeff <= 1.0
        binary = builtin_graph("simple", family="binary", seed=seed)
        for e in binary.edges:
            assert 1.0 <= e.coeff <= 2.0


def test_builtin_noise_defaults():
    spec = builtin_graph("simple", seed=0)
    assert spec.noise[spec.latent] == pytest.approx(math.sqrt(2.0))
    assert spec.noise["T"] == 1.0
    custom = builtin_graph("simple", seed=0, u_sd=2.5)
    assert custom.noise[custom.latent] == 2.5
    binary = builtin_graph("simple", family="binary", seed=0)
    assert binary.noise == {"intercept": -1.0}


def test_realize_coefficients_reproducible():
    one = builtin_graph("complex", seed=123)
    two = builtin_graph("complex", seed=123)
    other = builtin_graph("complex", seed=124)
    assert one == two
    assert one != other
    assert isinstance(one.draw, CoeffDraw)
    assert one.draw.seed == 123
    assert len(one.draw.coefficients) == len(one.edges)


def test_realize_keeps_fixed_coefficients():
    spec = _tiny_spec()
    again = realize_coefficients(spec, 5)
    assert [e.coeff for e in again.edges] == [e.coeff for e in spec.edges]


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def test_generate_columns_and_determinism():
    spec = builtin_graph("simple", seed=3)
    data = generate(spec, 50, np.random.SeedSequence(4))
    assert data.variable_names == ("T", "O", "Z1", "Z2", "Z3", "Z4")
    assert data.n == 50
    again = generate(spec, 50, np.random.SeedSequence(4))
    np.testing.assert_array_equal(data.values, again.values)
    other = generate(spec, 50, np.random.SeedSequence(5))
    assert not np.array_equal(data.values, other.values)


@pytest.mark.parametrize("family", ["gaussian", "binary"])
def test_generate_keeps_the_simulated_array(monkeypatch, family):
    # the dataset keeps the one simulated array, uncopied and read-only,
    # with the bits the copying constructor gives it
    spec = builtin_graph("complex", family=family, seed=3)
    stacks = []
    real = simulate._generate_stack

    def generate_stack(*args):
        stacks.append(real(*args))
        return stacks[-1]

    monkeypatch.setattr("negcontrol.simulate._generate_stack", generate_stack)
    data = generate(spec, 40, 5)
    ((names, values),) = stacks
    assert np.shares_memory(data.values, values)
    assert not data.values.flags.writeable
    assert data.values.tobytes() == Dataset(names, values[0]).values.tobytes()


@pytest.mark.parametrize("family", ["gaussian", "binary"])
@pytest.mark.parametrize("r", [1, 3])
def test_generated_stack_is_written_once(family, r):
    # each node is drawn into its column of the one output array: beside
    # it, the latent's array and a few temporaries, not a second copy
    spec = builtin_graph("complex", family=family, seed=3)
    n = 100_000
    simulate._generate_stack(spec, 100, range(r))  # warm
    tracemalloc.start()
    try:
        names, values = simulate._generate_stack(spec, n, range(r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = 8 * r * n
    assert values.shape == (r, n, len(names))
    assert peak < values.nbytes + 6 * column


def test_generate_checks_the_kept_array_is_finite(monkeypatch):
    real = simulate._generate_stack

    def generate_stack(*args):
        names, values = real(*args)
        values[0, 3, 1] = np.nan
        return names, values

    monkeypatch.setattr("negcontrol.simulate._generate_stack", generate_stack)
    with pytest.raises(ValueError, match="finite"):
        generate(builtin_graph("simple", seed=3), 10, 1)


def test_generate_include_latent():
    spec = builtin_graph("simple", seed=3)
    data = generate(spec, 30, 11, include_latent=True)
    assert data.variable_names[-1] == spec.latent
    # The confounder must correlate with everything it feeds.
    u = data.column(spec.latent)
    assert abs(np.corrcoef(u, data.column("T"))[0, 1]) > 0.1


def test_generate_validates():
    spec = builtin_graph("simple", seed=3)
    with pytest.raises(ValueError):
        generate(spec, 0, 1)
    unrealized = GraphSpec(
        nodes=("U", "T", "O", "Z1", "Z2", "Z3"),
        latent="U",
        treatment="T",
        outcome="O",
        edges=tuple(
            Edge("U", c, dist=(0.3, 0.7)) for c in ("T", "O", "Z1", "Z2", "Z3")
        )
        + (Edge("T", "O", dist=(0.3, 0.7)),),
        noise={n: 1.0 for n in ("U", "T", "O", "Z1", "Z2", "Z3")},
    )
    with pytest.raises(GraphSpecError):
        generate(unrealized, 10, 1)


def test_generate_single_row():
    spec = builtin_graph("simple", seed=3)
    assert generate(spec, 1, 0).n == 1


def test_generate_binary_values():
    spec = builtin_graph("simple", family="binary", seed=3)
    data = generate(spec, 200, 7)
    assert set(np.unique(data.values)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


def test_ground_truth_simple():
    spec = builtin_graph("simple", seed=9)
    dncts, delta = ground_truth_dncts(spec)
    assert set(dncts) == {("Z1", "Z3", "Z4"), ("Z2", "Z3", "Z4")}
    assert delta == spec.edge_coeff("T", "O")


def test_ground_truth_complex():
    spec = builtin_graph("complex", seed=9)
    dncts, _ = ground_truth_dncts(spec)
    assert set(dncts) == COMPLEX_TRUTH
    assert len(dncts) == 12


def test_ground_truth_excludes_common_ancestor_pairs():
    # Z3 reaches both Z4 and Z5, so any triple containing {Z4, Z5} is
    # connected even though there is also a direct Z4 -> Z5 edge; and the
    # pure common-ancestor pair (no direct edge) must also be excluded.
    spec = builtin_graph("complex", seed=2)
    dncts, _ = ground_truth_dncts(spec)
    for triple in dncts:
        assert not {"Z4", "Z5"} <= set(triple)
        assert not {"Z3", "Z4"} <= set(triple)


def test_ground_truth_structure_ignores_coefficients_and_family():
    # Which triples qualify is a purely graphical fact: any coefficient
    # draw and either variable family must give the same set.
    reference = set(ground_truth_dncts(builtin_graph("complex", seed=0))[0])
    for seed in (1, 17, 255):
        for family in ("gaussian", "binary"):
            spec = builtin_graph("complex", family=family, seed=seed)
            assert set(ground_truth_dncts(spec)[0]) == reference


def test_population_tetrads_vanish_exactly_for_disconnected_pairs():
    # Path-tracing covariances must satisfy the vanishing-determinant
    # constraints at machine precision for every pair related only through
    # the confounder.
    from negcontrol.data import CovMatrix, sub_determinant

    spec = builtin_graph("simple", seed=23)
    names, mat = population_covariance(spec)
    cov = CovMatrix(tuple(names), mat)
    scale = float(np.max(np.abs(mat)))
    # (Z3, Z4) is disconnected: pairing it against any two other measured
    # variables gives a zero determinant.
    for other in (("Z1", "T"), ("Z1", "O"), ("Z2", "T"), ("T", "O"), ("Z1", "Z2")):
        d = sub_determinant(cov, ("Z3", "Z4"), other)
        assert abs(d) <= 1e-12 * scale**2
    # The connected pair (Z1, Z2) breaks the constraint once its members
    # sit on opposite sides of the determinant (keeping them on the same
    # side hides the edge, which is exactly why the certification battery
    # splits every pair).
    assert abs(sub_determinant(cov, ("Z1", "Z3"), ("Z2", "T"))) > 1e-6


def test_binary_true_ate_matches_direct_enumeration():
    # For one treatment arm: U is a fair coin, every other node is logistic
    # in its parents.  With only U -> O and T -> O feeding the outcome, the
    # arm mean is E_U[sigmoid(intercept + o*U + d*t)], which we can write
    # out by hand and compare.
    spec = builtin_graph("simple", family="binary", seed=13)
    _, delta = ground_truth_dncts(spec)
    o = spec.edge_coeff(spec.latent, "O")
    d = spec.edge_coeff("T", "O")
    intercept = spec.noise["intercept"]

    def sigmoid(x):
        return 1.0 / (1.0 + math.exp(-x))

    by_hand = 0.5 * (
        sigmoid(intercept + o + d)
        + sigmoid(intercept + d)
        - sigmoid(intercept + o)
        - sigmoid(intercept)
    )
    assert delta == pytest.approx(by_hand, abs=1e-12)


def test_binary_true_ate_matches_simulation():
    spec = builtin_graph("simple", family="binary", seed=13)
    _, delta = ground_truth_dncts(spec)
    rng_seed = np.random.SeedSequence(99)
    n = 400000
    data = generate(spec, n, rng_seed, include_latent=True)
    u = data.column(spec.latent)
    d_coef = spec.edge_coeff("T", "O")
    o_coef = spec.edge_coeff(spec.latent, "O")
    intercept = spec.noise["intercept"]
    p1 = 1.0 / (1.0 + np.exp(-(intercept + o_coef * u + d_coef)))
    p0 = 1.0 / (1.0 + np.exp(-(intercept + o_coef * u)))
    assert delta == pytest.approx(float(np.mean(p1 - p0)), abs=0.01)


# ---------------------------------------------------------------------------
# population covariance
# ---------------------------------------------------------------------------


def test_population_covariance_hand_entries():
    spec = _tiny_spec()
    names, mat = population_covariance(spec)
    assert names[0:2] == ["T", "O"]
    pos = {n: i for i, n in enumerate(names)}
    # Var(T) = a^2 Var(U) + 1 with a = 0.5, Var(U) = 1.
    assert mat[pos["T"], pos["T"]] == pytest.approx(1.25, abs=1e-12)
    # cov(Z1, Z2) = b1 b2 Var(U) = 0.25; cov(T, Z1) = a b1 Var(U) = 0.25.
    assert mat[pos["Z1"], pos["Z2"]] == pytest.approx(0.25, abs=1e-12)
    assert mat[pos["T"], pos["Z1"]] == pytest.approx(0.25, abs=1e-12)
    # cov(T, O) = a o Var(U) + d Var(T) = 0.25 + 0.4 * 1.25.
    assert mat[pos["T"], pos["O"]] == pytest.approx(0.25 + 0.5, abs=1e-12)


def test_population_covariance_matches_sample():
    spec = builtin_graph("simple", seed=17)
    names, mat = population_covariance(spec)
    data = generate(spec, 300000, np.random.SeedSequence(18))
    sample = covariance(data)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert sample.value(a, b) == pytest.approx(
                mat[i, j], abs=0.08 * max(1.0, abs(mat[i, j]))
            )


def test_population_covariance_gaussian_only():
    spec = builtin_graph("simple", family="binary", seed=1)
    with pytest.raises(GraphSpecError):
        population_covariance(spec)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_graph_json_round_trip():
    spec = builtin_graph("complex", strength="strong", seed=77)
    doc = graph_spec_to_json_dict(spec)
    back = graph_spec_from_json_dict(doc)
    assert back.nodes == spec.nodes
    assert back.latent == spec.latent
    assert back.family == spec.family
    assert back.noise == spec.noise
    assert [(e.parent, e.child, e.coeff) for e in back.edges] == [
        (e.parent, e.child, e.coeff) for e in spec.edges
    ]


def test_graph_json_round_trip_with_ranges():
    spec = _tiny_spec()
    unrealized = GraphSpec(
        nodes=spec.nodes,
        latent="U",
        treatment="T",
        outcome="O",
        edges=tuple(
            Edge(e.parent, e.child, dist=(0.3, 0.7)) for e in spec.edges
        ),
        noise=dict(spec.noise),
    )
    back = graph_spec_from_json_dict(graph_spec_to_json_dict(unrealized))
    assert not back.is_realized()
    assert all(e.dist == (0.3, 0.7) for e in back.edges)


def test_load_graph_json(tmp_path):
    spec = builtin_graph("simple", seed=5)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_spec_to_json_dict(spec)))
    assert load_graph_json(path).edges == spec.edges


def test_graph_json_malformed():
    with pytest.raises(GraphSpecError):
        graph_spec_from_json_dict({"nodes": ["a"]})
    with pytest.raises(GraphSpecError):
        graph_spec_from_json_dict(
            {
                "nodes": ["U", "T", "O"],
                "latent": "U",
                "treatment": "T",
                "outcome": "O",
                "edges": [{"from": "U", "to": "T"}],  # no coeff or dist
                "family": "gaussian",
                "noise": {"U": 1.0, "T": 1.0, "O": 1.0},
            }
        )
