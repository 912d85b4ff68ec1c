"""The benchmark's workloads and the inputs each one draws from a seed.

Every workload runs the paper's federation (320 servers x 500 records,
1000-bucket histograms, ``max_children`` 8, 6-D range queries of length
0.25, uniform clients, overlay on) with a service model on every server,
and offers a fixed number of searches open loop in virtual time: Poisson
arrivals, all submitted through ``RoadsSystem.search_many``. The amount
of simulated work is fixed; only its wall time varies between commits.

All inputs (record matrices, query pool, arrival schedule, clients,
record-write schedule and probe batch) are drawn here, before any timing
starts, from ``(seed, rep)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import RoadsConfig
from repro.net.transport import ServiceConfig
from repro.roads.search import RetryPolicy, SearchRequest
from repro.summaries.config import SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores
from repro.workload.queries import generate_queries

NUM_SERVERS = 320
RECORDS_PER_SERVER = 500
HISTOGRAM_BUCKETS = 1000
MAX_CHILDREN = 8
QUERY_DIMENSIONS = 6
QUERY_RANGE = 0.25
QUERY_POOL = 500
#: per-message service model: 5 ms per message. The waiting room is
#: wide enough that nothing is shed: the 25 ms / 24-slot model of the
#: load experiment sheds under update fan-out at this federation size,
#: and replica fan-out on update_churn fills a 64-slot queue
SERVICE = ServiceConfig(service_time=0.005, queue_limit=256)
#: virtual seconds the free-running plane runs before the measured phase
WARMUP_S = 2.0
#: searches offered per rep, the same on every workload, seed and
#: commit: the ``search_many`` completion poll makes wall time per search
#: grow with the number offered
SEARCHES = 200
#: set-ups timed per run, spread over its reps (``setup_s`` is their median)
SETUPS = 3
#: searches answered exactly after the measured phase (answer check)
PROBES = 20
#: step size of a record write, as a share of the attribute's range
WRITE_SIGMA = 0.01
#: share of each store's rows that one write batch moves
WRITE_FRACTION = 0.2
#: distinct blocks of pre-drawn write steps; batch ``b`` uses block
#: ``b % WRITE_STEP_BLOCKS`` on its own freshly drawn rows, which bounds
#: the memory of a pre-drawn schedule
WRITE_STEP_BLOCKS = 8


@dataclass(frozen=True)
class Workload:
    """One named workload: a fixed offered stream over a virtual horizon."""

    name: str
    #: mean Poisson arrival rate, searches per virtual second
    rate: float
    #: the paper's t_s for the free-running update plane
    summary_interval: float
    #: virtual seconds between record-write batches (None: static records)
    write_interval: Optional[float] = None
    loss_rate: float = 0.0
    retry: RetryPolicy = RetryPolicy()
    #: attach the shadow-oracle quality plane before the first search
    audited: bool = False
    #: independent sub-streams per run, each on its own federation; the
    #: deterministic metrics pool them, the wall-time metrics take medians
    reps: int = 1

    @property
    def horizon(self) -> float:
        """Virtual seconds over which the searches arrive."""
        return SEARCHES / self.rate

    def roads_config(self, seed: int) -> RoadsConfig:
        return RoadsConfig(
            num_nodes=NUM_SERVERS,
            records_per_node=RECORDS_PER_SERVER,
            max_children=MAX_CHILDREN,
            summary=SummaryConfig(histogram_buckets=HISTOGRAM_BUCKETS),
            summary_interval=self.summary_interval,
            delta_updates=True,
            loss_rate=self.loss_rate,
            seed=seed,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="query_stream",
            rate=20.0,
            summary_interval=60.0,
            reps=2,
        ),
        Workload(
            name="update_churn",
            rate=5.0,
            summary_interval=5.0,
            write_interval=0.5,
        ),
        Workload(
            name="audited_lossy",
            rate=10.0,
            summary_interval=10.0,
            write_interval=1.0,
            loss_rate=0.002,
            retry=RetryPolicy(timeout=2.0, retries=2, backoff_base=0.2),
            audited=True,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one rep of a workload consumes, drawn from a seed."""

    seed: int
    #: record values, shape ``(servers, records, attributes)``
    matrix: np.ndarray
    schema: object
    #: the measured stream, in arrival order, and its arrival offsets
    requests: List[SearchRequest]
    arrivals: np.ndarray
    #: query-pool index of every request (ground truth is per pool entry)
    pool_index: np.ndarray
    queries: list
    #: record writes: batch offsets, rows ``(batches, servers, k)`` and
    #: step blocks ``(blocks, servers, k, attributes)``
    write_times: np.ndarray
    write_rows: np.ndarray
    write_steps: np.ndarray
    #: the post-run answer check: requests and their pool indices
    probes: List[SearchRequest]
    probe_index: np.ndarray


def rep_seed(seed: int, rep: int) -> int:
    """The 32-bit seed of sub-stream *rep* of workload seed *seed*."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def draw_inputs(workload: Workload, seed: int) -> Inputs:
    """Draw one rep's inputs; the same *seed* gives the same inputs."""
    wcfg = WorkloadConfig(
        num_nodes=NUM_SERVERS, records_per_node=RECORDS_PER_SERVER, seed=seed
    )
    stores = generate_node_stores(wcfg)
    schema = stores[0].schema
    matrix = np.stack([s.numeric_matrix for s in stores])
    queries = generate_queries(
        wcfg,
        num_queries=QUERY_POOL,
        dimensions=QUERY_DIMENSIONS,
        range_length=QUERY_RANGE,
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EA2C4]))
    n = SEARCHES
    # A Poisson stream conditioned on n arrivals in [0, n / rate): sorted
    # uniform times. Fixing both the count and the horizon keeps the
    # simulated work (searches, epochs, write batches) the same per seed.
    arrivals = np.sort(rng.uniform(0.0, workload.horizon, n))
    pool_index = rng.integers(0, QUERY_POOL, n)
    clients = rng.integers(0, NUM_SERVERS, n)
    requests = [
        SearchRequest(queries[q], client_node=int(c), retry=workload.retry)
        for q, c in zip(pool_index, clients)
    ]

    if workload.write_interval is not None:
        write_times = np.arange(
            workload.write_interval, workload.horizon, workload.write_interval
        )
        k = int(round(RECORDS_PER_SERVER * WRITE_FRACTION))
        write_rows = np.stack([
            np.argpartition(
                rng.random((NUM_SERVERS, RECORDS_PER_SERVER)), k, axis=1
            )[:, :k]
            for _ in write_times
        ]).astype(np.int16)
        lo, hi = bounds(schema)
        write_steps = rng.normal(
            0.0, 1.0, (WRITE_STEP_BLOCKS, NUM_SERVERS, k, len(lo))
        ) * (WRITE_SIGMA * (hi - lo))
    else:
        write_times = np.empty(0)
        write_rows = np.empty((0, NUM_SERVERS, 0), dtype=np.int16)
        write_steps = np.empty((0, NUM_SERVERS, 0, matrix.shape[2]))

    probe_index = rng.integers(0, QUERY_POOL, PROBES)
    probe_clients = rng.integers(0, NUM_SERVERS, PROBES)
    probes = [
        SearchRequest(queries[q], client_node=int(c))
        for q, c in zip(probe_index, probe_clients)
    ]
    return Inputs(
        seed=seed,
        matrix=matrix,
        schema=schema,
        requests=requests,
        arrivals=arrivals,
        pool_index=pool_index,
        queries=queries,
        write_times=write_times,
        write_rows=write_rows,
        write_steps=write_steps,
        probes=probes,
        probe_index=probe_index,
    )


def bounds(schema) -> tuple:
    """Per-attribute lower and upper bounds, as two arrays."""
    spec = [a.bounds for a in schema.numeric_attributes]
    return np.array([lo for lo, _ in spec]), np.array([hi for _, hi in spec])


def apply_writes(matrices, inputs: Inputs, batch: int, lo, hi) -> None:
    """Apply write batch *batch* to one ``(records, attributes)`` matrix
    per server, in place: the moved rows step and are clipped to bounds."""
    rows = inputs.write_rows[batch]
    steps = inputs.write_steps[batch % WRITE_STEP_BLOCKS]
    for i, m in enumerate(matrices):
        r = rows[i]
        m[r] = np.clip(m[r] + steps[i], lo, hi)


def columns(matrix: np.ndarray) -> np.ndarray:
    """Attribute-major copy of a ``(servers, records, attributes)`` matrix,
    for :func:`ground_truth`."""
    return np.ascontiguousarray(matrix.reshape(-1, matrix.shape[2]).T)


def ground_truth(cols: np.ndarray, schema, query) -> int:
    """Records matching *query* across all servers, from the raw values
    (*cols* as returned by :func:`columns`)."""
    hit = np.ones(cols.shape[1], dtype=bool)
    for p in query.predicates:
        col = cols[schema.numeric_position(p.attribute)]
        hit &= (col >= p.lo) & (col <= p.hi)
    return int(hit.sum())
