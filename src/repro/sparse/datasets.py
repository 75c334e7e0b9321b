"""Scaled stand-ins for the paper's Table-1 datasets.

Each entry reproduces one Table-1 graph's *structural class* (degree
distribution family, relative skew, average degree) at laptop scale,
keyed G0..G18 exactly as the paper's figures label them.  Two sizes are
carried per dataset:

* **scaled** |V|/|E| — what the simulator actually executes, chosen so
  the full figure sweeps run in minutes;
* **paper** |V|/|E| — used *only* by the memory-footprint model, so the
  out-of-memory cells in Figs 3, 4 and 7 (e.g. DGL failing on uk-2002,
  everything failing on kmer/uk-2005) reproduce at the paper's scale.

Scaling is ~1/48 on vertices (capped), which deliberately keeps the
scaled Sputnik failure boundary aligned: the paper observes Sputnik's
|V|^2-thread-block SDDMM erroring above ~2M vertices; at 1/48 scale the
same datasets exceed the simulated grid limit sqrt(2^31) ≈ 46341.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import BenchmarkError
from repro.sparse import generators as gen
from repro.sparse.coo import COOMatrix


#: generator seed of every dataset stand-in
DATASET_SEED = 7


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata + generator recipe for one Table-1 stand-in."""

    key: str  # G0..G18
    name: str
    kind: str  # structural class
    paper_vertices: int
    paper_edges: int
    feature_length: int  # Table-1 "F" (input feature length)
    num_classes: int  # Table-1 "C"
    labeled: bool
    build: Callable[[int], COOMatrix]

    def load(self) -> "LoadedDataset":
        return LoadedDataset(spec=self, coo=self.build(DATASET_SEED))


@dataclass(frozen=True)
class LoadedDataset:
    spec: DatasetSpec
    coo: COOMatrix

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def name(self) -> str:
        return self.spec.name


def _citation(v: int, e: int):
    return lambda seed: gen.erdos_renyi(v, e, seed=seed)


def _social(v: int, deg: float, exponent: float = 2.1):
    return lambda seed: gen.power_law(v, deg, exponent=exponent, seed=seed)


def _web(v: int, deg: float):
    return lambda seed: gen.web_graph(v, deg, seed=seed)


def _road(side: int):
    return lambda seed: gen.road_grid(side, seed=seed)


def _kron(scale: int, ef: int):
    return lambda seed: gen.rmat(scale, ef, seed=seed)


#: The Table-1 registry.  paper_edges are the doubled (undirected) counts
#: the paper reports.  Scaled generator parameters target ~paper/48
#: vertices (bounded) and preserve average degree class.
_SPECS: tuple[DatasetSpec, ...] = (
    DatasetSpec("G0", "Cora", "citation", 2_708, 10_858, 1433, 7, True, _citation(2_708, 5_429)),
    DatasetSpec("G1", "Citeseer", "citation", 3_327, 9_104, 3703, 6, True, _citation(3_327, 4_552)),
    DatasetSpec("G2", "PubMed", "citation", 19_717, 88_648, 500, 3, True, _citation(19_717, 44_324)),
    DatasetSpec("G3", "Amazon", "social", 400_727, 6_400_880, 150, 6, False, _social(8_348, 8.0)),
    DatasetSpec("G4", "wiki-Talk", "social", 2_394_385, 10_042_820, 150, 6, False, _social(49_883, 2.1, exponent=1.9)),
    DatasetSpec("G5", "roadNet-CA", "road", 1_971_279, 11_066_420, 150, 6, False, _road(216)),
    DatasetSpec("G6", "Web-BerkStan", "web", 685_230, 15_201_173, 150, 6, False, _web(14_275, 11.1)),
    DatasetSpec("G7", "as-Skitter", "social", 1_696_415, 22_190_596, 150, 6, False, _social(35_342, 6.5)),
    DatasetSpec("G8", "cit-Patent", "citation", 3_774_768, 33_037_894, 150, 6, False, _citation(78_641, 344_145)),
    DatasetSpec("G9", "sx-stackoverflow", "social", 2_601_977, 95_806_532, 150, 6, False, _social(54_208, 18.4, exponent=1.9)),
    DatasetSpec("G10", "Kron-21", "kron", 2_097_152, 67_108_864, 150, 6, False, _kron(15, 16)),
    DatasetSpec("G11", "hollywood09", "social", 1_069_127, 112_613_308, 150, 6, False, _social(22_273, 52.7)),
    DatasetSpec("G12", "Ogb-product", "social", 2_449_029, 123_718_280, 100, 47, True, _social(51_021, 25.3)),
    DatasetSpec("G13", "LiveJournal", "social", 4_847_571, 137_987_546, 150, 6, False, _social(65_536, 14.2)),
    DatasetSpec("G14", "Reddit", "social", 232_965, 229_231_784, 602, 41, True, _social(4_853, 246.0, exponent=2.3)),
    DatasetSpec("G15", "orkut", "social", 3_072_627, 234_370_166, 150, 6, False, _social(64_013, 38.1)),
    DatasetSpec("G16", "kmer_P1a", "kmer", 139_353_211, 297_829_982, 150, 6, False, _citation(262_144, 280_000)),
    DatasetSpec("G17", "uk-2002", "web", 18_520_486, 596_227_524, 150, 6, False, _web(98_304, 16.1)),
    DatasetSpec("G18", "uk-2005", "web", 39_459_925, 1_872_728_564, 150, 6, False, _web(131_072, 23.7)),
)

REGISTRY: dict[str, DatasetSpec] = {s.key: s for s in _SPECS}
REGISTRY.update({s.name.lower(): s for s in _SPECS})

#: The kernel-figure sweep (Figs 3-4) uses the non-tiny datasets
#: (including G16-G18, whose paper-scale footprints produce the OOM
#: cells); the tiny citation graphs are only used for accuracy (Fig 5),
#: matching the paper's "do not benchmark framework overhead on small
#: graphs" rule.
KERNEL_SWEEP_KEYS = tuple(f"G{i}" for i in range(3, 19))
#: Design-choice studies (Figs 8-12) sweep the datasets where every
#: configuration runs (no OOM/ERR cells), like the paper's plots.
DESIGN_SWEEP_KEYS = tuple(f"G{i}" for i in range(3, 16))
#: A fast subset for smoke tests / CI.
QUICK_KEYS = ("G3", "G6", "G14")


def get_spec(key: str) -> DatasetSpec:
    try:
        return REGISTRY[key if key in REGISTRY else key.lower()]
    except KeyError:
        raise BenchmarkError(f"unknown dataset {key!r}; known keys: G0..G18 or names")


@lru_cache(maxsize=32)
def load_dataset(key: str) -> LoadedDataset:
    """Load (generate) a dataset, memoized per key."""
    return get_spec(key).load()


def table1_rows() -> list[dict[str, object]]:
    """Rows for the Table-1 reproduction: paper vs scaled sizes."""
    rows = []
    for spec in _SPECS:
        loaded = load_dataset(spec.key)
        rows.append(
            {
                "key": spec.key,
                "name": spec.name + ("*" if spec.labeled else ""),
                "paper_vertices": spec.paper_vertices,
                "paper_edges": spec.paper_edges,
                "scaled_vertices": loaded.coo.num_rows,
                "scaled_edges": loaded.coo.nnz,
                "F": spec.feature_length,
                "C": spec.num_classes,
            }
        )
    return rows
