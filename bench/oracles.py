"""Answer checkers for the benchmark, written apart from the package.

Nothing here calls the code it checks.  The response-type forward map,
the d-separation search (Bayes-Ball reachability, Shachter 1998) and the
open-path test are coded from their definitions, so a wrong answer from
`bounds.py` or `graph.py` cannot be confirmed by the same mistake.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# Response types for the bounds workload.  A type (i, j, k) gives T as a
# function of Y (i), S as a function of Y (j) and Y as a function of X (k);
# each function is one of the four maps {0,1} -> {0,1} listed by value at
# 0 then at 1.

FUNCTIONS = ((0, 0), (0, 1), (1, 0), (1, 1))
DECREASING = 2
ALL_TYPES = tuple(itertools.product(range(4), repeat=3))
MONOTONE_TYPES = tuple(t for t in ALL_TYPES if DECREASING not in t)


def observe(type_, x):
    """(t, s) seen for a unit of this type under X = x."""
    i, j, k = type_
    y = FUNCTIONS[k][x]
    return FUNCTIONS[i][y], FUNCTIONS[j][y]


def forward_cells(q):
    """Cells p(t, s | x) implied by a type distribution, keyed (t, s, x)."""
    cells = {key: Fraction(0) for key in itertools.product((0, 1), repeat=3)}
    for type_, mass in q.items():
        for x in (0, 1):
            t, s = observe(type_, x)
            cells[(t, s, x)] += mass
    return cells


def target_value(q, x):
    """f(y1 | set(X = x)) under a type distribution."""
    return sum(
        (m for type_, m in q.items() if FUNCTIONS[type_[2]][x] == 1), Fraction(0)
    )


def order_violations(cells):
    """Which of the four stochastic-order conditions of the monotone model fail.

    Monotone Y in X and monotone T, S in Y force, between the arms:
    p(00|x1) <= p(00|x0), P(S=0|x1) <= P(S=0|x0), P(T=0|x1) <= P(T=0|x0)
    and p(11|x1) >= p(11|x0).  Each is necessary for feasibility.
    """
    def p(t, s, x):
        return cells[(t, s, x)]

    checks = (
        p(0, 0, 1) <= p(0, 0, 0),
        p(0, 0, 1) + p(1, 0, 1) <= p(0, 0, 0) + p(1, 0, 0),
        p(0, 0, 1) + p(0, 1, 1) <= p(0, 0, 0) + p(0, 1, 0),
        p(1, 1, 1) >= p(1, 1, 0),
    )
    return tuple(i for i, ok in enumerate(checks) if not ok)


def witness_problem(witness, types, cells, x, endpoint):
    """None when a witness is a type distribution over `types` that
    reproduces `cells` exactly and attains `endpoint`; else the reason."""
    allowed = set(types)
    if any(t not in allowed for t in witness):
        return "witness uses a type outside the program"
    if any(not isinstance(m, Fraction) or m < 0 for m in witness.values()):
        return "witness has a negative or inexact mass"
    if sum(witness.values(), Fraction(0)) != 1:
        return "witness does not sum to 1"
    if forward_cells(witness) != cells:
        return "witness does not reproduce the observed cells"
    if target_value(witness, x) != endpoint:
        return "witness does not attain its endpoint"
    return None


# ---------------------------------------------------------------------------
# Mixed graphs.  A graph here is (vertices, directed, bidirected) with
# edges as pairs; a bidirected edge a <-> b stands for a hidden parent of
# both a and b.


class Graph:
    """Parent and child sets of the latent expansion of a mixed graph."""

    def __init__(self, vertices, directed, bidirected):
        self.observed = frozenset(vertices)
        self.directed = frozenset(directed)
        self.bidirected = frozenset(frozenset(e) for e in bidirected)
        self.parents = {v: set() for v in vertices}
        self.children = {v: set() for v in vertices}
        for a, b in directed:
            self.parents[b].add(a)
            self.children[a].add(b)
        for n, (a, b) in enumerate(bidirected):
            hidden = ("hidden", n)
            self.parents[hidden] = set()
            self.children[hidden] = {a, b}
            self.parents[a].add(hidden)
            self.parents[b].add(hidden)

    def descendants(self, v):
        """Proper descendants of v."""
        out = set()
        stack = [v]
        while stack:
            for c in self.children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def cut_out_edges(self, v):
        """The same graph with every edge out of observed vertex v removed."""
        g = Graph.__new__(Graph)
        g.observed = self.observed
        g.bidirected = self.bidirected
        g.directed = frozenset(e for e in self.directed if e[0] != v)
        g.parents = {u: set(ps) for u, ps in self.parents.items()}
        g.children = {u: set(cs) for u, cs in self.children.items()}
        for c in g.children[v]:
            g.parents[c].discard(v)
        g.children[v] = set()
        return g

    def separated(self, a, b, given=()):
        """True when a and b are d-separated given `given` (Bayes-Ball)."""
        given = set(given)
        ancestors = set()
        stack = list(given)
        while stack:
            v = stack.pop()
            if v not in ancestors:
                ancestors.add(v)
                stack.extend(self.parents[v])
        # A visit is (vertex, arrived from a child, i.e. moving up).
        todo = [(a, True)]
        seen = set()
        while todo:
            v, up = todo.pop()
            if (v, up) in seen:
                continue
            seen.add((v, up))
            if v == b:
                return False
            blocked = v in given
            if up and not blocked:
                todo.extend((p, True) for p in self.parents[v])
                todo.extend((c, False) for c in self.children[v])
            elif not up:
                if not blocked:
                    todo.extend((c, False) for c in self.children[v])
                if v in ancestors:
                    todo.extend((p, True) for p in self.parents[v])
        return True

    def directed_path_avoiding(self, a, b, avoid):
        """True when a directed path a -> ... -> b has no vertex in `avoid`."""
        seen = {a}
        stack = [a]
        while stack:
            for c in self.children[stack.pop()]:
                if c == b:
                    return True
                if c not in seen and c not in avoid:
                    seen.add(c)
                    stack.append(c)
        return False

    # -- witness paths -------------------------------------------------------

    def _into(self, frm, to):
        """Whether the path edge between frm and to points at `to`."""
        return frm not in self.observed or (frm, to) in self.directed

    def path_problem(self, path, start, ends, given, into_start=False):
        """None when `path` is an open path from start to a member of
        `ends` given `given` (first edge into start if asked); else why.

        Vertices not in the diagram stand for hidden parents; the two
        neighbours of one must be joined by a bidirected edge.
        """
        if not path or len(path) < 2:
            return "path is empty"
        if path[0] != start or path[-1] not in ends:
            return "path has the wrong endpoints"
        if len(set(path)) != len(path):
            return "path repeats a vertex"
        for n, v in enumerate(path):
            if v in self.observed:
                continue
            if n in (0, len(path) - 1):
                return "path ends at a hidden vertex"
            if frozenset((path[n - 1], path[n + 1])) not in self.bidirected:
                return f"hidden vertex {v!r} joins no bidirected pair"
        for a, b in zip(path, path[1:]):
            if a in self.observed and b in self.observed and not (
                (a, b) in self.directed or (b, a) in self.directed
            ):
                return f"path uses a missing edge {a!r} - {b!r}"
        if into_start and not self._into(path[1], path[0]):
            return "path does not start with an arrow into its start"
        given = set(given)
        for prev, v, nxt in zip(path, path[1:], path[2:]):
            if v not in self.observed:
                continue
            if self._into(prev, v) and self._into(nxt, v):
                if v not in given and not (self.descendants(v) & given):
                    return f"collider {v!r} is closed"
            elif v in given:
                return f"non-collider {v!r} is conditioned on"
        return None

    def directed_path_problem(self, path, start, end, avoid):
        if not path or path[0] != start or path[-1] != end:
            return "path has the wrong endpoints"
        if any((a, b) not in self.directed for a, b in zip(path, path[1:])):
            return "path is not directed"
        if set(path[1:-1]) & set(avoid):
            return "directed path passes the mediator set"
        return None


def backdoor_holds(g, x, y, z):
    """Back-door criterion as no descendants of x in z plus d-separation
    of x and y given z once the edges out of x are cut."""
    return not (set(z) & g.descendants(x)) and g.cut_out_edges(x).separated(x, y, z)


def first_adjustment_set(g, x, y, candidates):
    """The first candidate subset, by size then lexicographic order, that
    meets the back-door criterion."""
    desc = g.descendants(x)
    cut = g.cut_out_edges(x)
    cands = sorted(candidates)
    for size in range(len(cands) + 1):
        for subset in itertools.combinations(cands, size):
            if not (set(subset) & desc) and cut.separated(x, y, subset):
                return subset
    return None


def frontdoor_clause(g, x, y, z):
    """First failing front-door clause, in the package's order, or None.

    Exact when no member of z is an ancestor of x, which the benchmark's
    queries guarantee by drawing z from the descendants of x.
    """
    if g.directed_path_avoiding(x, y, set(z)):
        return "intercepts-directed-paths"
    if z:
        cut = g.cut_out_edges(x)
        if any(not cut.separated(x, m) for m in z):
            return "exposure-mediator-unconfounded"
        for m in sorted(z):
            if not g.cut_out_edges(m).separated(m, y, (x,)):
                return "mediator-outcome-unconfounded"
    return None

