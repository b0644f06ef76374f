"""Causal diagrams, d-separation, and graphical adjustment criteria.

A diagram is a DAG over named vertices plus optional bidirected edges
standing for unmeasured common causes.  Every query first replaces each
bidirected edge a <-> b with a fresh latent parent a <- L -> b, so the
separation semantics are those of the fully directed expansion.  Each
diagram indexes its neighbours, its vertex set and its latent expansion
once, and every query reads that index.

Every d-connection question (d-separation, back-door and front-door
clauses) runs on one breadth-first search with parent pointers: Bayes-Ball
(Shachter 1998) for open paths, and a search over children for the
directed paths of front-door clause 1.  Each returns a shortest path as
its witness, ties going to the neighbour whose name sorts first.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    CycleError,
    FormatError,
    PreconditionError,
    SizeError,
    UnknownVertexError,
)

MAX_ADJUSTMENT_CANDIDATES = 20


def _as_vertex_set(g: "CausalDiagram", arg, what: str) -> frozenset:
    if isinstance(arg, str):
        arg = (arg,)
    out = frozenset(arg)
    unknown = out - g.vertex_set
    if unknown:  # the first in sorted order, so the message is reproducible
        name = min(unknown, key=str)
        raise UnknownVertexError(f"{what} references unknown vertex {name!r}")
    return out


@dataclass(frozen=True)
class CausalDiagram:
    """Immutable mixed graph: directed edges plus bidirected confounding arcs."""

    vertices: tuple
    directed: tuple
    bidirected: tuple

    def __post_init__(self):
        # The index every query reads, built once since the fields never
        # change: the vertex set and each vertex's parents and children.
        parents = {v: [] for v in self.vertices}
        children = {v: [] for v in self.vertices}
        for a, b in self.directed:
            children[a].append(b)
            parents[b].append(a)
        object.__setattr__(self, "vertex_set", frozenset(self.vertices))
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

    @cached_property
    def _expansion(self) -> "CausalDiagram":
        """The latent expansion, indexed in its turn, built on first use."""
        return expand_bidirected(self)

    def parents(self, v: str) -> set:
        return set(self._parents.get(v, ()))

    def descendants(self, v: str) -> set:
        """Proper descendants of v (v itself excluded)."""
        return _reach(self._children, [v], set())

    def ancestors_inclusive(self, vs: Iterable[str]) -> set:
        seen = set(vs)
        return _reach(self._parents, list(seen), seen)


def _reach(index: dict, stack: list, seen: set) -> set:
    """seen, grown by every vertex that index's lists lead to from stack."""
    while stack:
        for w in index.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _edge_keys(edges, names: set, bidirected: bool) -> dict:
    """Validated edges as dict keys in first-seen order, duplicates dropped."""
    kind, arrow = ("bidirected", "<->") if bidirected else ("directed", "->")
    out = {}
    for a, b in edges:
        for v in (a, b):
            if not isinstance(v, str):
                raise FormatError(f"{kind} edge {a!r}{arrow}{b!r} has a non-string endpoint {v!r}")
            if v not in names:
                raise UnknownVertexError(f"{kind} edge {a!r}{arrow}{b!r} uses unknown vertex {v!r}")
        if a == b:
            raise CycleError(f"{'bidirected ' if bidirected else ''}self-loop on {a!r}")
        out[(b, a) if bidirected and b < a else (a, b)] = None
    return out


def build_diagram(vertices, directed=(), bidirected=()) -> CausalDiagram:
    """Validate and construct a diagram.

    Raises UnknownVertexError for edges touching undeclared vertices,
    FormatError for bad vertex names, non-string edge endpoints or
    duplicate declarations, and CycleError when the directed part is
    cyclic (self-loops included).
    """
    verts = tuple(vertices)
    if not verts:
        raise FormatError("a diagram needs at least one vertex")
    seen = set()
    for v in verts:
        if not isinstance(v, str) or not v:
            raise FormatError(f"vertex names must be non-empty strings, got {v!r}")
        if "," in v:
            raise FormatError(f"vertex name may not contain a comma: {v!r}")
        if v in seen:
            raise FormatError(f"duplicate vertex {v!r}")
        seen.add(v)
    dir_edges = _edge_keys(directed, seen, bidirected=False)
    bi_edges = _edge_keys(bidirected, seen, bidirected=True)
    g = CausalDiagram(verts, tuple(dir_edges), tuple(sorted(bi_edges)))
    _check_acyclic(g)
    return g


def _check_acyclic(g: CausalDiagram) -> None:
    # Kahn's algorithm; leftovers mean a directed cycle.
    indeg = {v: len(ps) for v, ps in g._parents.items()}
    queue = [v for v in g.vertices if indeg[v] == 0]
    done = 0
    while queue:
        done += 1
        for c in g._children[queue.pop()]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if done != len(g.vertices):
        cyclic = sorted(v for v in g.vertices if indeg[v] > 0)
        raise CycleError(f"directed part is cyclic (involves {', '.join(cyclic)})")


def expand_bidirected(g: CausalDiagram) -> CausalDiagram:
    """Replace every a <-> b with a <- L -> b for a fresh latent vertex L."""
    if not g.bidirected:
        return g
    verts = list(g.vertices)
    edges = list(g.directed)
    taken = set(verts)
    counter = 0
    for a, b in g.bidirected:
        name = f"~u{counter}"
        while name in taken:
            counter += 1
            name = f"~u{counter}"
        counter += 1
        taken.add(name)
        verts.append(name)
        edges.append((name, a))
        edges.append((name, b))
    return CausalDiagram(tuple(verts), tuple(edges), ())


def d_separated(g: CausalDiagram, a, b, c=()) -> bool:
    """True when every path between a and b is blocked given c.

    a, b, c may be vertex names or iterables of names; a, b, c must be
    pairwise disjoint.  Runs the Bayes-Ball search of find_open_path.
    """
    return find_open_path(g, a, b, c) is None


def _shortest_walk(start, step, targets) -> Optional[tuple]:
    """Breadth-first search from the state start; states are (vertex, flag).

    step(state) lists the successor states.  Returns the vertices of the
    first walk to reach a vertex in targets, or None.
    """
    prev = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for nxt in step(state):
            if nxt in prev:
                continue
            prev[nxt] = state
            if nxt[0] in targets:
                walk = []
                while nxt is not None:
                    walk.append(nxt[0])
                    nxt = prev[nxt]
                return tuple(reversed(walk))
            queue.append(nxt)
    return None


def find_open_path(
    g: CausalDiagram,
    a,
    b,
    c=(),
    require_arrow_into_start: bool = False,
) -> Optional[tuple]:
    """Return a shortest unblocked path from a to b given c, or None.

    a, b, c may be vertex names or iterables of names and must be pairwise
    disjoint.  Starts are tried in sorted order; the path comes from the
    first start that has one, and it ends at the first member of b it
    reaches.  Ties between shortest paths go to the neighbour that sorts
    first.  With require_arrow_into_start, only paths whose first edge
    points at the start vertex count (back-door paths).  Latent expansion
    vertices may appear inside the returned path; they are part of the
    witness.

    The search is Bayes-Ball (Shachter 1998): a breadth-first search on
    the latent expansion over states (vertex, entered along an arrow),
    each visited at most once.  A non-collider passes unless it is
    in c; a collider passes when it or a descendant is in c.  A vertex
    repeated on an open walk can always be cut out, so the shortest open
    walk is a simple path.
    """
    aset = _as_vertex_set(g, a, "first argument")
    bset = _as_vertex_set(g, b, "second argument")
    cset = _as_vertex_set(g, c, "conditioning set")
    if aset & bset or aset & cset or bset & cset:
        raise PreconditionError("d-separation arguments must be pairwise disjoint")
    # Without bidirected edges a diagram is its own expansion; asking for
    # it anyway would store the diagram on itself.
    gx = g._expansion if g.bidirected else g
    parents, children = gx._parents, gx._children
    opens = gx.ancestors_inclusive(cset)

    for start in sorted(aset):
        def step(state, start=start):
            # A back-door search leaves the start by its parents only.  A
            # walk that re-enters the start reaches no state not seen yet.
            v, entered = state
            up = v in opens if entered else v not in cset
            down = v not in cset and not (v == start and require_arrow_into_start)
            moves = [(p, False) for p in parents[v]] if up else []
            if down:
                moves += [(ch, True) for ch in children[v]]
            return sorted(moves)

        path = _shortest_walk((start, False), step, bset)
        if path is not None:
            return path
    return None


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a back-door or front-door check, with a witness on failure."""

    criterion: str
    x: str
    y: str
    given: tuple
    holds: bool
    failing_clause: Optional[str] = None
    failing_path: Optional[tuple] = None
    detail: str = ""


def _criterion_pre(g: CausalDiagram, x: str, y: str, z) -> frozenset:
    zset = _as_vertex_set(g, z, "adjustment set")
    _as_vertex_set(g, (x, y), "effect pair")
    if x == y or x in zset or y in zset:
        raise PreconditionError("x, y, and the adjustment set must be distinct")
    if x in g.descendants(y):
        raise PreconditionError(f"{x!r} is a descendant of {y!r}; effect direction is wrong")
    return zset


def satisfies_backdoor(g: CausalDiagram, x: str, y: str, z=()) -> CriterionReport:
    """Check the back-door criterion for z relative to (x, y).

    Two requirements: no member of z descends from x, and z blocks every
    path from x to y that starts with an arrow into x.  When the second
    fails, the witness is a shortest such open path.
    """
    zset = _criterion_pre(g, x, y, z)
    desc = g.descendants(x)
    bad = sorted(zset & desc)
    if bad:
        return CriterionReport(
            "backdoor", x, y, tuple(sorted(zset)), False,
            failing_clause="no-descendants",
            detail=f"{bad[0]!r} is a descendant of {x!r}",
        )
    witness = find_open_path(g, x, y, zset, require_arrow_into_start=True)
    if witness is not None:
        return CriterionReport(
            "backdoor", x, y, tuple(sorted(zset)), False,
            failing_clause="blocks-spurious-paths", failing_path=witness,
            detail="unblocked path with an arrow into the exposure",
        )
    return CriterionReport("backdoor", x, y, tuple(sorted(zset)), True)


def satisfies_frontdoor(g: CausalDiagram, x: str, y: str, z=()) -> CriterionReport:
    """Check the front-door criterion for the mediator set z relative to (x, y).

    Three requirements: z intercepts every directed path from x to y; no
    unblocked path from x into z starts with an arrow into x; and every
    path from a member of z to y that starts with an arrow into that
    member is blocked by {x} alone.  A failure carries a shortest witness:
    a directed path avoiding z for the first clause, an open path for the
    other two.
    """
    zset = _criterion_pre(g, x, y, z)

    path = _shortest_walk(
        (x, True),
        lambda state: [(ch, True) for ch in sorted(g._children[state[0]]) if ch not in zset],
        {y},
    )
    if path is not None:
        return CriterionReport(
            "frontdoor", x, y, tuple(sorted(zset)), False,
            failing_clause="intercepts-directed-paths", failing_path=path,
            detail="directed path avoids the mediator set",
        )

    if zset:
        witness = find_open_path(g, x, sorted(zset), (), require_arrow_into_start=True)
        if witness is not None:
            return CriterionReport(
                "frontdoor", x, y, tuple(sorted(zset)), False,
                failing_clause="exposure-mediator-unconfounded", failing_path=witness,
                detail="unblocked back-door path from the exposure into the mediator set",
            )
        for zv in sorted(zset):
            witness = find_open_path(g, zv, y, (x,), require_arrow_into_start=True)
            if witness is not None:
                return CriterionReport(
                    "frontdoor", x, y, tuple(sorted(zset)), False,
                    failing_clause="mediator-outcome-unconfounded", failing_path=witness,
                    detail="back-door path from the mediator to the outcome survives conditioning on the exposure",
                )
    return CriterionReport("frontdoor", x, y, tuple(sorted(zset)), True)


def find_adjustment_set(g: CausalDiagram, x: str, y: str, candidates, criterion: str = "backdoor"):
    """Smallest candidate subset satisfying the chosen criterion, or None.

    Subsets are tried in order of size, ties broken lexicographically, so
    the result is deterministic.  At most 20 candidates are accepted; the
    search is exhaustive over all subsets.
    """
    cands = sorted(_as_vertex_set(g, candidates, "candidates"))
    if x in cands or y in cands:
        raise PreconditionError("candidates must not contain x or y")
    if len(cands) > MAX_ADJUSTMENT_CANDIDATES:
        raise SizeError(
            f"{len(cands)} candidates exceed the exhaustive-search cap of {MAX_ADJUSTMENT_CANDIDATES}"
        )
    if criterion == "backdoor":
        check = satisfies_backdoor
    elif criterion == "frontdoor":
        check = satisfies_frontdoor
    else:
        raise PreconditionError(f"unknown criterion {criterion!r}")
    for size in range(len(cands) + 1):
        for subset in itertools.combinations(cands, size):
            if check(g, x, y, subset).holds:
                return subset
    return None


# ---------------------------------------------------------------------------
# JSON interchange


def diagram_to_json(g: CausalDiagram) -> dict:
    return {
        "vertices": list(g.vertices),
        "directed": [list(e) for e in g.directed],
        "bidirected": [list(e) for e in g.bidirected],
    }


def diagram_from_json(payload) -> CausalDiagram:
    if not isinstance(payload, dict):
        raise FormatError("diagram payload must be a JSON object")
    vertices = payload.get("vertices")
    if not isinstance(vertices, list):
        raise FormatError("diagram payload lacks a 'vertices' list")
    directed = payload.get("directed", [])
    bidirected = payload.get("bidirected", [])
    for name, edges in (("directed", directed), ("bidirected", bidirected)):
        if not isinstance(edges, list) or any(
            not isinstance(e, list) or len(e) != 2 for e in edges
        ):
            raise FormatError(f"'{name}' must be a list of two-element lists")
    return build_diagram(vertices, directed, bidirected)
