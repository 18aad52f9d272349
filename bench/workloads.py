"""The benchmark's four workloads, as plain data (standard library only).

Every workload runs the same pipeline of steps -- ``gcf --version``,
``gcf enumerate``, ``gcf synth`` and a scoring step -- so that every
end-to-end metric is measured on every workload.  The sizes decide which
layer does most of the work.  Variables are named ``x00, x01, ...`` so
that lexicographic order (which fixes the orientation-vector bits) equals
numeric order; orientation bit '0' then points an edge forward, and the
ground-truth DAG (all edges forward) is the all-zeros candidate.

The seed only changes the CPTs of the ground-truth net and the sampling
seed; the graph structure and the data sizes are fixed, so the amount of
work is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

SMOOTHING = 1.0  # the CLI default; scoring runs with it and the checks recompute at it


def node(i: int) -> str:
    return f"x{i:02d}"


def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def skip(n: int, k: int) -> list[tuple[int, int]]:
    return [(i, i + k) for i in range(n - k)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_nodes: int
    directed: tuple[tuple[int, int], ...]
    undirected: tuple[tuple[int, int], ...]
    n_obs: int
    n_do: int
    scorer: str  # "cli": `gcf score --svg`; "exact": library scoring on exact tables
    subset: tuple[str, ...] = ()  # orientation vectors passed to `gcf score --subset`

    @property
    def names(self) -> list[str]:
        return [node(i) for i in range(self.n_nodes)]

    @property
    def truth_edges(self) -> list[tuple[str, str]]:
        """Ground truth: every PD-graph edge, undirected ones pointing forward."""
        return [(node(a), node(b)) for a, b in sorted(self.directed + self.undirected)]

    def pdgraph_edges(self) -> tuple[list, list]:
        return (
            [(node(a), node(b)) for a, b in self.directed],
            [(node(a), node(b)) for a, b in self.undirected],
        )


def _minus(edges, removed):
    return tuple(e for e in edges if e not in removed)


_BIG_UNDIRECTED = tuple((p, p + 1) for p in (2, 3, 4, 6, 8, 10))
_WIDE_UNDIRECTED = tuple((p, p + 1) for p in (3, 7, 11, 15))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-bigdata",
            why="50k observational + 24x20k interventional rows, 40 candidates: CSV write/read "
            "(tables) and sampling (bayesnet) dominate synth and score; GF per DAG is small",
            n_nodes=12,
            directed=_minus(tuple(chain(12)), _BIG_UNDIRECTED) + tuple(skip(12, 2)),
            undirected=_BIG_UNDIRECTED,
            n_obs=50_000,
            n_do=20_000,
            scorer="cli",
        ),
        Workload(
            name="cli-manydags",
            why="773 candidates on small data (20k + 24x2k rows): GF per candidate "
            "(scoring.gf -> bayesnet.fit_cpts, joint, kl) dominates score; CSV is small",
            n_nodes=12,
            directed=tuple(chain(12)[:1]) + tuple(skip(12, 4)),
            undirected=tuple(chain(12)[1:]),
            n_obs=20_000,
            n_do=2_000,
            scorer="cli",
        ),
        Workload(
            name="exact-wide",
            why="20 binary nodes, 16 candidates scored on exact tables in a library child: "
            "dense joint/do_intervene and large-table KL dominate time and peak RSS",
            n_nodes=20,
            directed=_minus(tuple(chain(20)), _WIDE_UNDIRECTED) + tuple(skip(20, 2)),
            undirected=_WIDE_UNDIRECTED,
            n_obs=5_000,
            n_do=500,
            scorer="exact",
        ),
        Workload(
            name="enumerate-wide",
            why="18 nodes, 17 undirected chain edges: 131072 orientations of which 4181 "
            "(3.2%) are acyclic, so enumeration (graphs) dominates enumerate and score",
            n_nodes=18,
            directed=tuple(skip(18, 2)),
            undirected=tuple(chain(18)),
            n_obs=5_000,
            n_do=500,
            scorer="cli",
            # acyclic: no two adjacent chain edges reversed
            subset=("0" * 17, "10" * 8 + "1", "01" * 8 + "0"),
        ),
    )
}
