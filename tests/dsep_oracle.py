"""Brute-force d-separation oracle and graph generators for the test suite.

Deliberately independent of the package: adjacency, descendant closure, and
the path-blocking rule are all coded from scratch here, by listing every
simple path, so agreement with causalprox.graph (a Bayes-Ball search) is
meaningful evidence.  Hidden vertices of the latent expansion are named
``__h<i>``; the package names its own differently, so tests compare paths
with hidden vertices masked.
"""

import itertools


def _latent_expand(vertices, directed, bidirected):
    verts = list(vertices)
    edges = list(directed)
    for i, (a, b) in enumerate(bidirected):
        hidden = f"__h{i}"
        verts.append(hidden)
        edges.append((hidden, a))
        edges.append((hidden, b))
    return verts, edges


def descendants(edges, v):
    """Proper descendants of v (v itself excluded)."""
    kids = {}
    for a, b in edges:
        kids.setdefault(a, set()).add(b)
    out = set()
    stack = [v]
    while stack:
        cur = stack.pop()
        for nxt in kids.get(cur, ()):
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


def _simple_paths(vertices, edges, start, goal):
    nbrs = {v: set() for v in vertices}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    path = [start]
    seen = {start}

    def walk(v):
        for nxt in sorted(nbrs[v]):
            if nxt in seen:
                continue
            path.append(nxt)
            if nxt == goal:
                yield tuple(path)
            else:
                seen.add(nxt)
                yield from walk(nxt)
                seen.discard(nxt)
            path.pop()

    yield from walk(start)


def _is_open(path, eset, cset, desc):
    """True when no interior vertex of path blocks it given cset.

    A path is blocked when some interior vertex is either a non-collider in
    cset, or a collider with neither itself nor any descendant in cset.
    """
    for m in range(1, len(path) - 1):
        prev, mid, nxt = path[m - 1], path[m], path[m + 1]
        collider = (prev, mid) in eset and (nxt, mid) in eset
        if collider:
            if mid not in cset and not (desc[mid] & cset):
                return False
        elif mid in cset:
            return False
    return True


def path_d_separated(vertices, directed, bidirected, a, b, cond):
    """True when every path from a to b is blocked given cond."""
    verts, edges = _latent_expand(vertices, directed, bidirected)
    eset = set(edges)
    cset = set(cond)
    desc = {v: descendants(edges, v) for v in verts}
    return not any(
        _is_open(path, eset, cset, desc) for path in _simple_paths(verts, edges, a, b)
    )


def open_paths(vertices, directed, bidirected, start, targets, cond, into_start=False):
    """Every open simple path from start to a member of targets given cond.

    Paths run on the latent expansion and carry no other member of targets.
    With into_start, only paths whose first edge points at start count.
    """
    verts, edges = _latent_expand(vertices, directed, bidirected)
    eset = set(edges)
    cset = set(cond)
    targets = set(targets)
    desc = {v: descendants(edges, v) for v in verts}
    out = []
    for goal in sorted(targets):
        for path in _simple_paths(verts, edges, start, goal):
            if targets & set(path[1:-1]):
                continue
            if into_start and (path[1], path[0]) not in eset:
                continue
            if _is_open(path, eset, cset, desc):
                out.append(path)
    return out


def directed_paths(vertices, directed, start, goal):
    """Every directed path start -> ... -> goal."""
    eset = set(directed)
    return [
        path
        for path in _simple_paths(vertices, directed, start, goal)
        if all(edge in eset for edge in zip(path, path[1:]))
    ]


def backdoor_failure(vertices, directed, bidirected, x, y, z):
    """The failing back-door clause and the witnesses it allows.

    Returns (None, []) when z meets the criterion for (x, y).
    """
    if set(z) & descendants(directed, x):
        return "no-descendants", []
    paths = open_paths(vertices, directed, bidirected, x, {y}, z, into_start=True)
    return ("blocks-spurious-paths", paths) if paths else (None, [])


def frontdoor_failure(vertices, directed, bidirected, x, y, z):
    """The first failing front-door clause and the witnesses it allows.

    Clauses are taken in the order directed paths, exposure-mediator,
    mediator-outcome (mediators in sorted order).  Returns (None, []) when
    z meets the criterion for (x, y).
    """
    zset = set(z)
    paths = [p for p in directed_paths(vertices, directed, x, y) if not zset & set(p[1:-1])]
    if paths:
        return "intercepts-directed-paths", paths
    if zset:
        paths = open_paths(vertices, directed, bidirected, x, zset, (), into_start=True)
        if paths:
            return "exposure-mediator-unconfounded", paths
        for m in sorted(zset):
            paths = open_paths(vertices, directed, bidirected, m, {y}, (x,), into_start=True)
            if paths:
                return "mediator-outcome-unconfounded", paths
    return None, []


def all_dags(labels):
    """Every labeled DAG on the given vertices (each pair absent/->/<-)."""
    pairs = list(itertools.combinations(labels, 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), st in zip(pairs, states):
            if st == 1:
                edges.append((u, v))
            elif st == 2:
                edges.append((v, u))
        if _is_acyclic(labels, edges):
            yield tuple(edges)


def _is_acyclic(labels, edges):
    indeg = {v: 0 for v in labels}
    kids = {v: [] for v in labels}
    for a, b in edges:
        indeg[b] += 1
        kids[a].append(b)
    queue = [v for v in labels if indeg[v] == 0]
    done = 0
    while queue:
        cur = queue.pop()
        done += 1
        for nxt in kids[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return done == len(labels)


def random_mixed_graph(rng, n, p_edge=0.35, p_bi=0.15):
    """Random DAG via a random topological order, plus random bidirected pairs."""
    labels = [f"v{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                directed.append((order[i], order[j]))
    bidirected = []
    for u, v in itertools.combinations(labels, 2):
        if rng.random() < p_bi:
            bidirected.append((u, v))
    return labels, directed, bidirected


def first_adjustment_set(vertices, directed, bidirected, x, y, candidates, criterion):
    """The first candidate subset, in size-then-lexicographic order, that
    meets the criterion by the path oracle, or None when none does."""
    failure = backdoor_failure if criterion == "backdoor" else frontdoor_failure
    cands = sorted(candidates)
    for size in range(len(cands) + 1):
        for subset in itertools.combinations(cands, size):
            if failure(vertices, directed, bidirected, x, y, subset)[0] is None:
                return subset
    return None
