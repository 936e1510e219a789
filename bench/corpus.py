"""Seeded workload corpora.

A corpus depends on the workload name, the seed and nothing else: admission
rules look only at the drawn structure, never at what the solver does with
it, so the parent commit and a change always solve identical instances.

Single solves are heavy-tailed: one draw in a few hundred takes seconds
where its neighbours take milliseconds, so a purely random corpus makes its
slowest instances, and with them the tail and total times, a matter of
luck.  Each corpus therefore has two parts:

* tail witnesses, fixed instances of the same generators that take
  0.05-5 s at the seed commit.  There are at least eleven, so the tail
  percentile, the slowest instance and most of the total time fall on
  them, whatever the seed;
* a seeded sample, drawn with the acceptance suite's generators and capped
  structurally so that no draw can outgrow the witnesses.  It sets the
  median and checks that a change holds on inputs it was not tuned on.
  Where the capped space is too small to sample (the vc workloads), all of
  it is solved and the seed sets only the order of the solves.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from ndchan import DistanceConstraints, Graph, NdPartition, WeightedGraph
from ndchan.decomposition import CLIQUE, INDEPENDENT

# draws of decide-uniform.  With the witnesses a pass over any corpus takes
# 2-7 s at the seed commit, so a 25 s run holds two full passes or more,
# and the 200 instances put exactly ten above the tail percentile, which
# then falls on a witness.  DECIDE_FIXED of the draws come from criterion
# 1's own seed and are the same in every run: the median of 188 draws of
# one seed moves by 9% (quartile spread) from seed to seed, and the
# seeded rest, a fifth, shifts it by a few ranks only
DECIDE_DRAWS = 188
DECIDE_FIXED = 150
ACCEPTANCE_SEED = 0xC0FFEE
TINY_DRAWS = 4


@dataclass(frozen=True)
class Instance:
    """One solve call.  kind is 'decide', 'vc' or 'label'."""

    name: str
    kind: str
    wg: WeightedGraph | None = None
    partition: NdPartition | None = None
    span: int | None = None
    graph: Graph | None = None
    p: tuple[int, ...] | None = None
    expected_span: int | None = None  # closed form, when one is known

    @property
    def constraints(self) -> DistanceConstraints:
        return DistanceConstraints(self.p)


# --- generators (the acceptance suite's draw order, own code) ---


def uniform_draw(rng: random.Random, max_types=3, max_size=3, max_weight=3):
    """Uniform instance from a type-level description: (wg, partition)."""
    tau = rng.randint(1, max_types)
    sizes = [rng.randint(1, max_size) for _ in range(tau)]
    kinds = [rng.choice((CLIQUE, INDEPENDENT)) if s > 1 else INDEPENDENT for s in sizes]
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    triples = []
    for i, (s, kind) in enumerate(zip(sizes, kinds)):
        if kind == CLIQUE:
            w = rng.randint(1, max_weight)
            triples += [
                (offsets[i] + a, offsets[i] + b, w) for a in range(s) for b in range(a + 1, s)
            ]
    for i in range(tau):
        for j in range(i + 1, tau):
            if rng.random() < 0.5:
                w = rng.randint(1, max_weight)
                triples += [
                    (offsets[i] + a, offsets[j] + b, w)
                    for a in range(sizes[i])
                    for b in range(sizes[j])
                ]
    wg = WeightedGraph.from_edges(total, triples)
    partition = NdPartition(
        tuple(frozenset(range(offsets[i], offsets[i] + sizes[i])) for i in range(tau)),
        tuple(kinds),
    )
    return wg, partition


def bipartite_draw(rng: random.Random, max_n=7, max_weight=3) -> WeightedGraph:
    """Connected bipartite weighted instance with at least one edge."""
    while True:
        n = rng.randint(2, max_n)
        left = rng.randint(1, n - 1)
        pairs = [(u, v) for u in range(left) for v in range(left, n)]
        edges = [(u, v) for u, v in pairs if rng.random() < 0.6]
        if not edges:
            continue
        if not _connected(n, edges):
            continue
        return WeightedGraph.from_edges(n, [(u, v, rng.randint(1, max_weight)) for u, v in edges])


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def multipartite(parts) -> Graph:
    """Complete multipartite graph; (1, k) is the star K1,k."""
    offsets = []
    total = 0
    for size in parts:
        offsets.append(total)
        total += size
    edges = [
        (offsets[i] + a, offsets[j] + b)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        for a in range(parts[i])
        for b in range(parts[j])
    ]
    return Graph.from_edges(total, edges)


def multipartite_span(parts, p) -> int:
    """Least L(p) span of a complete multipartite graph (r >= 2 parts).

    Vertices of one part are at distance 2 and of different parts at
    distance 1, and in sorted label order the part changes at least r - 1
    times, so with p = (p1, p2), p1 >= p2, the optimum is
    (n - r) p2 + (r - 1) p1, reached by labeling part after part.
    """
    n, r = sum(parts), len(parts)
    if len(p) == 1:
        return r - 1
    return (n - r) * p[1] + (r - 1) * p[0]


# --- tail witnesses ---


def _edges(text):
    """Weighted edges written as 'u-v:w u-v:w ...'."""
    out = []
    for item in text.split():
        pair, w = item.split(":")
        u, v = pair.split("-")
        out.append((int(u), int(v), int(w)))
    return out


# clique-bearing draws of criterion 1's generator (n <= 8), named by seed and
# draw index: n, classes, kinds (c = clique, i = independent), span, edges
DECIDE_WITNESSES = (
    ("7:214", 5, "0/1,2/3,4", "icc", 4,
     "0-1:3 0-2:3 0-3:1 0-4:1 1-2:1 1-3:1 1-4:1 2-3:1 2-4:1 3-4:3"),
    ("7:804", 7, "0,1/2,3/4,5,6", "ccc", 4,
     "0-1:3 0-2:1 0-3:1 0-4:1 0-5:1 0-6:1 1-2:1 1-3:1 1-4:1 1-5:1 1-6:1 2-3:1 2-4:1 2-5:1 "
     "2-6:1 3-4:1 3-5:1 3-6:1 4-5:3 4-6:3 5-6:3"),
    ("7:848", 8, "0,1/2,3,4/5,6,7", "cci", 7,
     "0-1:2 0-5:2 0-6:2 0-7:2 1-5:2 1-6:2 1-7:2 2-3:3 2-4:3 2-5:3 2-6:3 2-7:3 3-4:3 3-5:3 "
     "3-6:3 3-7:3 4-5:3 4-6:3 4-7:3"),
    ("7:1154", 7, "0/1,2,3/4,5,6", "icc", 5,
     "0-1:2 0-2:2 0-3:2 1-2:1 1-3:1 1-4:1 1-5:1 1-6:1 2-3:1 2-4:1 2-5:1 2-6:1 3-4:1 3-5:1 "
     "3-6:1 4-5:1 4-6:1 5-6:1"),
    ("1:315", 8, "0,1,2/3,4,5/6,7", "cic", 5,
     "0-1:2 0-2:2 0-6:1 0-7:1 1-2:2 1-6:1 1-7:1 2-6:1 2-7:1 3-6:3 3-7:3 4-6:3 4-7:3 5-6:3 "
     "5-7:3 6-7:2"),
    ("3:514", 8, "0,1/2,3,4/5,6,7", "cci", 5,
     "0-1:1 0-5:1 0-6:1 0-7:1 1-5:1 1-6:1 1-7:1 2-3:2 2-4:2 2-5:3 2-6:3 2-7:3 3-4:2 3-5:3 "
     "3-6:3 3-7:3 4-5:3 4-6:3 4-7:3"),
    ("11:364", 6, "0,1,2/3/4,5", "cic", 7,
     "0-1:2 0-2:2 0-3:1 0-4:3 0-5:3 1-2:2 1-3:1 1-4:3 1-5:3 2-3:1 2-4:3 2-5:3 4-5:1"),
    ("12:39", 5, "0,1/2/3,4", "cic", 4,
     "0-1:3 0-2:1 0-3:1 0-4:1 1-2:1 1-3:1 1-4:1 3-4:2"),
    ("12:489", 6, "0,1,2/3/4,5", "cic", 3,
     "0-1:2 0-2:2 0-3:1 1-2:2 1-3:1 2-3:1 3-4:3 3-5:3 4-5:1"),
    ("13:327", 7, "0/1,2,3/4,5,6", "icc", 9,
     "0-1:1 0-2:1 0-3:1 1-2:2 1-3:2 1-4:3 1-5:3 1-6:3 2-3:2 2-4:3 2-5:3 2-6:3 3-4:3 3-5:3 "
     "3-6:3 4-5:1 4-6:1 5-6:1"),
    ("13:359", 7, "0,1,2/3,4,5/6", "cci", 3,
     "0-1:1 0-2:1 0-3:3 0-4:3 0-5:3 0-6:1 1-2:1 1-3:3 1-4:3 1-5:3 1-6:1 2-3:3 2-4:3 2-5:3 "
     "2-6:1 3-4:1 3-5:1 3-6:2 4-5:1 4-6:2 5-6:2"),
    ("13:587", 7, "0,1,2/3,4/5,6", "ccc", 8,
     "0-1:2 0-2:2 0-3:1 0-4:1 0-5:3 0-6:3 1-2:2 1-3:1 1-4:1 1-5:3 1-6:3 2-3:1 2-4:1 2-5:3 "
     "2-6:3 3-4:2 5-6:3"),
)

# draws of criterion 4's stream (seed 0xB1B) with five to seven vertices,
# named by draw index: n, edges.  Draw 19 searches 2300 branch-and-bound
# nodes with scipy and draw 7 2700 without; the rest are dominated by the
# LP rounds and the model build.  The draws that overrun the search budget
# take 4 s to over a minute
VC_WITNESSES = (
    ("7", 6, "0-5:2 1-5:1 2-5:3 3-5:1 4-5:3"),
    ("12", 6, "0-3:2 0-4:2 0-5:1 1-3:2 1-5:3 2-3:3 2-5:3"),
    ("18", 6, "0-4:1 1-4:2 1-5:2 2-4:1 2-5:1 3-4:2 3-5:2"),
    ("19", 6, "0-4:3 0-5:2 1-4:1 1-5:3 2-3:3 2-5:2"),
    ("43", 6, "0-3:1 0-4:1 0-5:2 1-4:1 1-5:2 2-3:3 2-5:2"),
    ("45", 5, "0-4:3 1-3:2 1-4:3 2-4:2"),
    ("58", 5, "0-3:3 0-4:3 1-3:1 2-3:2 2-4:2"),
    ("84", 5, "0-3:2 0-4:3 1-3:1 2-3:3 2-4:3"),
    ("166", 6, "0-3:3 0-4:3 0-5:1 1-3:3 1-4:2 1-5:2 2-3:3 2-4:2"),
    ("176", 7, "0-5:2 1-4:1 1-5:2 1-6:2 2-4:1 2-6:2 3-6:1"),
    ("180", 5, "0-3:1 1-3:3 1-4:2 2-3:1 2-4:1"),
)

# criterion 3's fixtures.  The five slowest take 1.45-12 s each at the seed
# commit, 30 s together, more than a pass may take; they stay in the
# acceptance suite only
LABEL_GRAPHS = (
    [(f"P{n}", path(n)) for n in (2, 3, 4, 5, 6)]
    + [(f"C{n}", cycle(n)) for n in (3, 4, 5, 6)]
    + [(f"K1,{k}", multipartite((1, k))) for k in (2, 3, 4)]
    + [("K4", multipartite((1, 1, 1, 1)))]
)
LABEL_CONSTRAINTS = ((1,), (2, 1), (1, 1), (3, 2))
LABEL_LEFT_OUT = {("P6", (2, 1)), ("C6", (3, 2)), ("P5", (2, 1)), ("P6", (3, 2)), ("C6", (2, 1))}
# the fixed rungs of the scale ladder: a large star, complete bipartite and
# complete tripartite graph
LADDER = ((1, 16), (6, 6), (3, 3, 3))


def _decide_witness(entry) -> Instance:
    name, n, classes, kinds, span, edges = entry
    partition = NdPartition(
        tuple(frozenset(int(v) for v in c.split(",")) for c in classes.split("/")),
        tuple(CLIQUE if k == "c" else INDEPENDENT for k in kinds),
    )
    wg = WeightedGraph.from_edges(n, _edges(edges))
    return Instance(f"c1-{name}", "decide", wg=wg, partition=partition, span=span)


def _ladder(parts) -> list[Instance]:
    name = "K" + ",".join(map(str, parts))
    return [
        Instance(
            f"{name}-L{p}",
            "label",
            graph=multipartite(parts),
            p=p,
            expected_span=multipartite_span(parts, p),
        )
        for p in ((2, 1), (3, 2))
    ]


# --- workloads ---


def _decide_draws(seed: int, count: int, prefix: str) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        wg, partition = uniform_draw(rng)
        if wg.graph.n > 8 or CLIQUE in partition.kinds:
            continue
        span = rng.randint(0, 10)
        out.append(Instance(f"{prefix}{len(out)}", "decide", wg=wg, partition=partition, span=span))
    return out


def decide_uniform(seed: int, tiny: bool = False) -> list[Instance]:
    """Criterion 1's generator; the draws have no clique class.

    Clique-bearing draws are a third of the stream and carry all of its
    tail (one in a few hundred takes 1-11 s); the draws without one take at
    most 0.07 s, and the witnesses stand in for the rest.
    """
    if tiny:
        return _decide_draws(seed, TINY_DRAWS, "d")
    return (
        [_decide_witness(e) for e in DECIDE_WITNESSES]
        + _decide_draws(ACCEPTANCE_SEED, DECIDE_FIXED, "a")
        + _decide_draws(seed, DECIDE_DRAWS - DECIDE_FIXED, "d")
    )


def small_bipartite() -> list[WeightedGraph]:
    """Every instance bipartite_draw can return with at most three vertices:
    21 of them, so a sample of these only repeats some and misses others."""
    out = []
    for n in (2, 3):
        for left in range(1, n):
            pairs = [(u, v) for u in range(left) for v in range(left, n)]
            for k in range(1, len(pairs) + 1):
                for edges in itertools.combinations(pairs, k):
                    if not _connected(n, edges):
                        continue
                    for ws in itertools.product((1, 2, 3), repeat=k):
                        triples = [(u, v, w) for (u, v), w in zip(edges, ws)]
                        out.append(WeightedGraph.from_edges(n, triples))
    return out


def minimize_vc(seed: int, tiny: bool = False) -> list[Instance]:
    """Criterion 4's generator: the witnesses and every draw of at most
    three vertices, solved in an order the seed sets.

    From four vertices on a single draw can take from milliseconds to over
    a minute, so the witnesses carry the witness search on five to seven
    vertices.  The instances below four vertices fall into clusters of
    1-30 ms, so a seeded sample of them would move the median and the tail
    by which clusters it happened to draw; all of them are solved instead.
    """
    rng = random.Random(seed)
    small = [Instance(f"s{i}", "vc", wg=wg) for i, wg in enumerate(small_bipartite())]
    if tiny:
        return rng.sample(small, TINY_DRAWS)
    out = [
        Instance(f"c4-{name}", "vc", wg=WeightedGraph.from_edges(n, _edges(edges)))
        for name, n, edges in VC_WITNESSES
    ] + small
    rng.shuffle(out)
    return out


def minimize_label(seed: int, tiny: bool = False) -> list[Instance]:
    """Criterion 3's fixtures, the fixed ladder rungs, and seeded small rungs.

    The ladder holds complete multipartite graphs under L(2,1) and L(3,2),
    whose least spans have a closed form.  The seeded rungs, stars and
    complete bipartite graphs, stay small enough (under 0.07 s) to leave the
    tail to the fixed instances: 61 instances put exactly ten above it.
    """
    rng = random.Random(seed)
    out = []
    if not tiny:
        for name, g in LABEL_GRAPHS:
            for p in LABEL_CONSTRAINTS:
                if (name, p) not in LABEL_LEFT_OUT:
                    out.append(Instance(f"{name}-L{p}", "label", graph=g, p=p))
        for parts in LADDER:
            out += _ladder(parts)
    shapes = [(1, rng.randint(3, 10)) for _ in range(2)]
    shapes += [(rng.randint(2, 3), rng.randint(2, 3)) for _ in range(2)]
    for parts in shapes[1:3] if tiny else shapes:
        out += _ladder(parts)
    return out


def build(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    if workload == "decide-uniform":
        return decide_uniform(seed, tiny)
    if workload in ("minimize-vc", "minimize-vc-pure"):
        return minimize_vc(seed, tiny)
    if workload == "minimize-label":
        return minimize_label(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(corpus: list[Instance]) -> str:
    """Short digest of every input a corpus hands to the solver."""
    h = hashlib.sha256()
    for inst in corpus:
        record = [inst.name, inst.kind, inst.span, inst.p]
        if inst.wg is not None:
            record.append([inst.wg.graph.n, sorted(inst.wg.weights.items())])
        if inst.partition is not None:
            record.append([sorted(c) for c in inst.partition.classes])
            record.append(list(inst.partition.kinds))
        if inst.graph is not None:
            record.append([inst.graph.n, sorted(inst.graph.edges)])
        h.update(json.dumps(record).encode())
    return h.hexdigest()[:16]
