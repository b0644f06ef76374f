import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from causalprox import (
    CycleError,
    FormatError,
    PreconditionError,
    SizeError,
    UnknownVertexError,
    build_diagram,
    d_separated,
    diagram_from_json,
    diagram_to_json,
    expand_bidirected,
    find_adjustment_set,
    find_open_path,
    satisfies_backdoor,
    satisfies_frontdoor,
)
from causalprox import graph as graph_mod
from causalprox.fixtures import (
    chain_diagram,
    confounder_chain_diagram,
    mediator_diagram,
)

from dsep_oracle import (
    all_dags,
    backdoor_failure,
    descendants,
    first_adjustment_set,
    frontdoor_failure,
    open_paths,
    path_d_separated,
    random_mixed_graph,
)


def _queries(labels):
    for a, b in itertools.combinations(labels, 2):
        rest = [v for v in labels if v not in (a, b)]
        for r in range(len(rest) + 1):
            for cond in itertools.combinations(rest, r):
                yield a, b, cond


def test_dsep_matches_oracle_exhaustively_up_to_four_vertices():
    total = 0
    for n in (2, 3, 4):
        labels = [f"v{i}" for i in range(n)]
        for edges in all_dags(labels):
            g = build_diagram(labels, edges)
            for a, b, cond in _queries(labels):
                want = path_d_separated(labels, edges, (), a, b, cond)
                assert d_separated(g, a, b, cond) == want, (edges, a, b, cond)
                total += 1
    assert total > 10000


def test_dsep_matches_oracle_on_random_mixed_graphs():
    rng = random.Random(417)
    checked = 0
    for _ in range(250):
        n = rng.randint(5, 8)
        labels, directed, bidirected = random_mixed_graph(rng, n)
        g = build_diagram(labels, directed, bidirected)
        for _ in range(8):
            a, b = rng.sample(labels, 2)
            rest = [v for v in labels if v not in (a, b)]
            cond = tuple(v for v in rest if rng.random() < 0.4)
            want = path_d_separated(labels, directed, bidirected, a, b, cond)
            assert d_separated(g, a, b, cond) == want, (
                directed, bidirected, a, b, cond,
            )
            checked += 1
    assert checked == 2000


def test_dsep_accepts_sets_on_both_sides():
    g = build_diagram("ABCD", [("A", "B"), ("C", "B"), ("C", "D")])
    assert d_separated(g, ["A"], ["C", "D"]) is True
    assert d_separated(g, ["A"], ["C", "D"], ["B"]) is False


def test_dsep_rejects_overlapping_arguments():
    g = build_diagram("AB", [("A", "B")])
    with pytest.raises(PreconditionError):
        d_separated(g, "A", "A")
    with pytest.raises(PreconditionError):
        d_separated(g, "A", "B", ["A"])
    with pytest.raises(PreconditionError):
        find_open_path(g, "A", "A")
    with pytest.raises(PreconditionError):
        find_open_path(g, "A", "B", ["B"], require_arrow_into_start=True)


def test_dsep_rejects_unknown_vertices():
    g = build_diagram("AB", [("A", "B")])
    with pytest.raises(UnknownVertexError):
        d_separated(g, "A", "Q")


def test_unknown_vertex_message_is_independent_of_string_hashing():
    """Set order follows string hashing; the message names the first unknown
    vertex in sorted order under every hash seed."""
    code = (
        "from causalprox import build_diagram, d_separated\n"
        "try:\n"
        "    d_separated(build_diagram(['A', 'B']), 'A', 'B', ['Q3', 'Q2', 'Q1'])\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    messages = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        messages.add(run.stdout)
    assert messages == {"conditioning set references unknown vertex 'Q1'\n"}


def test_diagram_rejects_non_string_edge_endpoints():
    cases = [
        ("directed", [["a"], "b"], r"directed edge \['a'\]->'b' has a non-string endpoint \['a'\]"),
        ("directed", ["a", {"b": 1}], r"directed edge 'a'->\{'b': 1\} has a non-string endpoint"),
        ("bidirected", [{"a": 1}, "b"], r"bidirected edge \{'a': 1\}<->'b' has a non-string"),
        ("bidirected", ["a", ["b"]], r"bidirected edge 'a'<->\['b'\] has a non-string"),
    ]
    for kind, edge, message in cases:
        with pytest.raises(FormatError, match=message):
            diagram_from_json({"vertices": ["a", "b"], kind: [edge]})
    # a string that names no declared vertex is still an unknown vertex
    with pytest.raises(UnknownVertexError, match="'c'"):
        diagram_from_json({"vertices": ["a", "b"], "directed": [["a", "c"]]})


def test_build_diagram_rejects_cycles_and_self_loops():
    with pytest.raises(CycleError):
        build_diagram("ABC", [("A", "B"), ("B", "C"), ("C", "A")])
    with pytest.raises(CycleError):
        build_diagram("A", [("A", "A")])


@pytest.mark.parametrize("vertices, message", [
    ([], "a diagram needs at least one vertex"),
    (["A", ""], "vertex names must be non-empty strings, got ''"),
    (["A", 3], "vertex names must be non-empty strings, got 3"),
    (["A", "B,C"], "vertex name may not contain a comma: 'B,C'"),
    (["A", "B", "A"], "duplicate vertex 'A'"),
])
def test_build_diagram_vertex_name_guards(vertices, message):
    with pytest.raises(FormatError) as err:
        build_diagram(vertices)
    assert type(err.value) is FormatError and str(err.value) == message


@pytest.mark.parametrize("call, error, message", [
    (lambda g: satisfies_backdoor(g, "X", "X"), PreconditionError,
     "x, y, and the adjustment set must be distinct"),
    (lambda g: satisfies_frontdoor(g, "X", "Y", ["Y"]), PreconditionError,
     "x, y, and the adjustment set must be distinct"),
    (lambda g: satisfies_backdoor(g, "Y", "X"), PreconditionError,
     "'Y' is a descendant of 'X'; effect direction is wrong"),
    (lambda g: satisfies_frontdoor(g, "Y", "Z"), PreconditionError,
     "'Y' is a descendant of 'Z'; effect direction is wrong"),
    (lambda g: find_adjustment_set(g, "X", "Y", ["Z", "X"]), PreconditionError,
     "candidates must not contain x or y"),
    (lambda g: find_adjustment_set(g, "X", "Y", ["Z"], criterion="bogus"), PreconditionError,
     "unknown criterion 'bogus'"),
])
def test_criterion_precondition_guards(call, error, message):
    g = build_diagram("ZXY", [("Z", "X"), ("X", "Y")])
    with pytest.raises(error) as err:
        call(g)
    assert type(err.value) is error and str(err.value) == message


def test_expand_bidirected_adds_fresh_latent_parents():
    g = build_diagram("AB", bidirected=[("A", "B")])
    gx = expand_bidirected(g)
    new = set(gx.vertices) - {"A", "B"}
    assert len(new) == 1
    latent = new.pop()
    assert set(gx.directed) == {(latent, "A"), (latent, "B")}
    assert d_separated(g, "A", "B") is False


def _masked(path, labels):
    """The path with hidden latent vertices masked; the two vertices
    beside a hidden one name the bidirected edge it stands for."""
    return tuple(v if v in labels else "<->" for v in path)


def _assert_shortest_oracle_path(path, allowed, labels, context):
    """path is None exactly when the oracle allows none; else it is one of
    the oracle's paths and no allowed path is shorter."""
    if not allowed:
        assert path is None, context
        return
    assert path is not None, context
    assert _masked(path, labels) in {_masked(p, labels) for p in allowed}, (path, context)
    assert len(path) == min(len(p) for p in allowed), (path, context)


def test_find_open_path_agrees_with_oracle_blocking():
    rng = random.Random(98)
    found = multi_target = cond_below_start = 0
    for _ in range(1500):
        labels, directed, bidirected = random_mixed_graph(rng, rng.randint(4, 7))
        g = build_diagram(labels, directed, bidirected)
        picked = rng.sample(labels, rng.choice((2, 3, 3, 4)))
        starts = picked[:1] if rng.random() < 0.7 else picked[:2]
        targets = picked[len(starts):]
        rest = [v for v in labels if v not in picked]
        cond = tuple(v for v in rest if rng.random() < 0.4)
        into = rng.random() < 0.5
        path = find_open_path(g, starts, targets, cond, require_arrow_into_start=into)
        # the package tries starts in sorted order and reports the first hit
        allowed = []
        for start in sorted(starts):
            allowed = open_paths(labels, directed, bidirected, start, targets, cond, into)
            if allowed:
                break
        _assert_shortest_oracle_path(
            path, allowed, labels, (directed, bidirected, starts, targets, cond, into)
        )
        found += path is not None
        multi_target += len(targets) > 1
        cond_below_start += into and any(
            set(cond) & descendants(directed, s) for s in starts
        )
    assert found > 800 and multi_target > 700 and cond_below_start > 100
    # The collider W is open only through the start's descendant D, so
    # cutting the edges out of S would return the longer S-N-M-W-B-Y.
    g = build_diagram(
        "SWMNDBY",
        [("W", "M"), ("M", "N"), ("N", "S"), ("S", "D"), ("B", "W"), ("B", "Y")],
        [("S", "W")],
    )
    path = find_open_path(g, "S", "Y", ["D"], require_arrow_into_start=True)
    assert _masked(path, g.vertices) == ("S", "<->", "W", "B", "Y")


def test_criteria_match_path_oracle_on_random_mixed_graphs():
    rng = random.Random(5150)
    clauses = {"backdoor": set(), "frontdoor": set()}
    mediator_above_exposure = 0
    for _ in range(600):
        labels, directed, bidirected = random_mixed_graph(rng, rng.randint(4, 7))
        g = build_diagram(labels, directed, bidirected)
        x, y = rng.sample(labels, 2)
        if x in descendants(directed, y):
            x, y = y, x
        rest = [v for v in labels if v not in (x, y)]
        z = tuple(v for v in rest if rng.random() < 0.4)
        for name, check, oracle in (
            ("backdoor", satisfies_backdoor, backdoor_failure),
            ("frontdoor", satisfies_frontdoor, frontdoor_failure),
        ):
            rep = check(g, x, y, z)
            clause, allowed = oracle(labels, directed, bidirected, x, y, z)
            context = (name, directed, bidirected, x, y, z)
            assert rep.failing_clause == clause, (rep, context)
            assert rep.holds == (clause is None), context
            clauses[name].add(clause)
            if clause in (None, "no-descendants"):
                assert rep.failing_path is None, context
            else:
                _assert_shortest_oracle_path(rep.failing_path, allowed, labels, context)
            if clause == "intercepts-directed-paths":
                assert not set(rep.failing_path[1:-1]) & set(z), context
        # a mediator that is an ancestor of x: the bench oracle leaves this
        # case out (the directed path from it into x fails clause 2)
        mediator_above_exposure += any(x in descendants(directed, v) for v in z)
    assert clauses["backdoor"] == {None, "no-descendants", "blocks-spurious-paths"}
    assert clauses["frontdoor"] == {
        None,
        "intercepts-directed-paths",
        "exposure-mediator-unconfounded",
        "mediator-outcome-unconfounded",
    }
    assert mediator_above_exposure > 60


def test_backdoor_fixture_confounder_chain():
    g = confounder_chain_diagram()
    rep = satisfies_backdoor(g, "X", "Y", ["Z"])
    assert rep.holds and rep.criterion == "backdoor"
    rep_empty = satisfies_backdoor(g, "X", "Y", [])
    assert not rep_empty.holds
    assert rep_empty.failing_path is not None


def test_backdoor_rejects_descendant_adjustment():
    g = build_diagram("XYM", [("X", "Y"), ("X", "M")])
    rep = satisfies_backdoor(g, "X", "Y", ["M"])
    assert not rep.holds
    assert rep.failing_clause == "no-descendants"


def test_frontdoor_fixture_mediator():
    g = mediator_diagram()
    rep = satisfies_frontdoor(g, "X", "Y", ["Z"])
    assert rep.holds and rep.criterion == "frontdoor"
    assert not satisfies_backdoor(g, "X", "Y", []).holds
    assert not satisfies_backdoor(g, "X", "Y", ["Z"]).holds


def test_frontdoor_requires_full_mediation():
    g = build_diagram("XZY", [("X", "Z"), ("Z", "Y"), ("X", "Y")])
    rep = satisfies_frontdoor(g, "X", "Y", ["Z"])
    assert not rep.holds


def test_find_adjustment_set_prefers_smallest():
    g = confounder_chain_diagram()
    assert find_adjustment_set(g, "X", "Y", ["Z", "S", "T"]) == ("Z",)
    gm = mediator_diagram()
    assert find_adjustment_set(gm, "X", "Y", ["Z"], "backdoor") is None
    assert find_adjustment_set(gm, "X", "Y", ["Z"], "frontdoor") == ("Z",)


def test_find_adjustment_set_candidate_guard():
    labels = [f"c{i}" for i in range(21)] + ["X", "Y"]
    g = build_diagram(labels, [("X", "Y")])
    with pytest.raises(SizeError):
        find_adjustment_set(g, "X", "Y", labels[:21])


def test_find_adjustment_set_matches_brute_force_oracle():
    rng = random.Random(2718)
    below_exposure = no_set = large = 0
    for _ in range(300):
        labels, directed, bidirected = random_mixed_graph(rng, rng.randint(6, 8), 0.5, 0.08)
        g = build_diagram(labels, directed, bidirected)
        x, y = rng.sample(labels, 2)
        if x in descendants(directed, y):
            x, y = y, x
        cands = [v for v in labels if v not in (x, y)]
        below_exposure += bool(set(cands) & descendants(directed, x))
        for criterion in ("backdoor", "frontdoor"):
            want = first_adjustment_set(labels, directed, bidirected, x, y, cands, criterion)
            got = find_adjustment_set(g, x, y, cands, criterion)
            assert got == want, (criterion, directed, bidirected, x, y)
            no_set += want is None
            large += want is not None and len(want) >= 3
    assert below_exposure > 150 and no_set > 150 and large >= 10


def test_each_diagram_expands_its_bidirected_edges_once(monkeypatch):
    calls = []
    real_expand = graph_mod.expand_bidirected

    def counting_expand(g):
        calls.append(g)
        return real_expand(g)

    monkeypatch.setattr(graph_mod, "expand_bidirected", counting_expand)
    # two confounders to adjust for, among eight candidates
    cands = [f"c{i}" for i in range(8)]
    g = build_diagram(
        cands + ["X", "Y"],
        [("c0", "X"), ("c0", "Y"), ("c1", "X"), ("c1", "Y"), ("X", "Y"), ("c4", "c5")],
        [("c2", "c3"), ("c5", "c6"), ("c1", "c7")],
    )
    assert find_adjustment_set(g, "X", "Y", cands) == ("c0", "c1")
    assert len(calls) <= 1
    # three mediators: the clauses run five searches on one expansion
    calls.clear()
    g = build_diagram(
        ["X", "M0", "M1", "M2", "Y"],
        [("X", "M0"), ("X", "M1"), ("X", "M2"), ("M0", "Y"), ("M1", "Y"), ("M2", "Y")],
        [("X", "Y")],
    )
    assert satisfies_frontdoor(g, "X", "Y", ["M0", "M1", "M2"]).holds
    assert len(calls) <= 1


def test_chain_fixture_variants():
    plain = chain_diagram()
    assert d_separated(plain, "X", "S", ["Y"])
    noisy = chain_diagram(confounded=True)
    assert not d_separated(noisy, "X", "S", ["Y"])


def test_diagram_json_round_trip():
    g = mediator_diagram()
    payload = diagram_to_json(g)
    back = diagram_from_json(payload)
    assert set(back.vertices) == set(g.vertices)
    assert set(back.directed) == set(g.directed)
    assert set(back.bidirected) == set(g.bidirected)
