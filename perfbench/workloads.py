"""The benchmark's workloads: ``tune`` and ``serve_mixed``.

Each workload builds its inputs from the seed, sets up several times and
reports the median set-up, measures, checks the program's outputs against an
oracle, and returns its metrics.  With a :class:`spans.Recorder` the
measured phase (never the set-up) runs with the layer wrappers installed.

Every workload reports the same end-to-end metrics, each for the workload's
own unit of work: ``setup_s``, ``peak_rss_mb``, ``wall_s`` (the median
tuning run, or how far behind its schedule the server finished), ``p50_ms``
and ``tail_ms`` of one tuner recommendation step, or of one HTTP request at
the ladder's lowest rate.  Results particular to one workload -- the tuner's
Pareto front, the ladder's highest rate within the SLO, insert latency,
recovery time -- are printed as details.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

import driver
import spans as tracing

from repro.bo.pareto import hypervolume_2d
from repro.core.tuner import VDTuner, VDTunerSettings
from repro.datasets import registry
from repro.datasets.synthetic import make_clustered_vectors
from repro.serving.server import ServingConfig, ServingFrontend
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig
from repro.workloads.environment import VDMSTuningEnvironment

#: Client connections (and threads): at most the host's cores, at most two.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
DIMENSION = 64
TOP_K = 10
COLLECTION = "bench"
#: How far a served distance may sit from the exact float64 one.
DISTANCE_TOL = 1e-5
#: ``tail_ms`` is this percentile, or the highest with ten samples beyond it
#: if that is lower.  On serve_mixed the p98 has fourteen requests beyond it,
#: from two or three arrival bursts, and spread 0.19 to 0.34 over ten seeds;
#: the p90 spread 0.11.  The details still print the highest supported one.
TAIL_PERCENTILE = 90

# tune: the paper's sequential loop at a fixed budget on the fixed
# glove-small stand-in.  Its input does not depend on the seed: across five
# tuner seeds a 20-iteration run's front hypervolume ranged from 605 to 1793,
# so a seeded tune would measure the seed, not the code.
TUNE_DATASET = "glove-small"
TUNE_ITERATIONS = 30
#: Whole tuning runs per measurement: one per this many seconds of --seconds.
TUNE_SECONDS_PER_RUN = 15.0
TUNE_TUNER_SEED = 0
TUNE_RECALL_FLOOR = 0.9
#: Set-up is about ten milliseconds, and the host's speed swings by about a
#: quarter from one second to the next, so take the median of many.
TUNE_SETUP_REPEATS = 41
#: The front this budget reached when the benchmark was written.  A faster
#: tuner that decides worse is wrong, not faster: it fails the correctness check.
TUNE_REFERENCE_HV = 1273.19
TUNE_REFERENCE_BEST_QPS = 1289.03

# serve_mixed: writes beside reads on a durable server, up a rate ladder
# whose lowest rung (80% of the time) carries the latency metrics; each rung
# is at least 1.5x the one before.  At 30/s about 60% of responses meet the
# socket stall, so the median sits firmly in it; at 22/s it flipped between
# ~6 and ~11 ms from seed to seed.  Both upper rungs exceed what the server
# serves, and three seconds each leave a backlog of about two seconds.
MIXED_BASE_ROWS = 8_000
#: (operations per second, share of --seconds) for each rung, lowest first.
MIXED_LADDER = ((30.0, 0.8), (45.0, 0.1), (68.0, 0.1))
#: Tail-latency limit of the ladder's SLO.
MIXED_SLO_MS = 250.0
SEARCHES_PER_INSERT = 4
INSERT_BATCH = 8
FLUSH_EVERY_INSERTS = 20
HOT_QUERIES = 256
ZIPF_EXPONENT = 1.1
MIXED_ORACLE_QUERIES = 16
RECOVER_REPEATS = 21
MIXED_SETUP_REPEATS = 15
MIXED_CONFIG = dict(
    durability_mode="wal+checkpoint",
    wal_sync_policy="always",
    cache_policy="lru",
    maintenance_mode="background",
)


@dataclass
class Outcome:
    """What a workload run measured and whether its outputs were right."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    #: Results particular to this workload, printed but not compared.
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Client requests of the measured phase (serving workloads).
    ops: list[driver.Op] = field(default_factory=list)
    #: Operations the traced phase performed, requests or tuner iterations.
    operations: int = 0
    #: Wall seconds of the measured phase when it has no client requests.
    measured_wall: float = 0.0
    extra_layer: dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def latency_metrics(
    setups: Sequence[float], wall: float, latencies_ms: Sequence[float]
) -> tuple[dict[str, tuple[float, str]], str]:
    """The end-to-end metrics every workload reports, and a note on the tail."""
    tail = min(TAIL_PERCENTILE, driver.supported_percentile(len(latencies_ms)) or 50)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "wall_s": (wall, "s"),
        "p50_ms": (driver.percentile(latencies_ms, 50), "ms"),
        "tail_ms": (driver.percentile(latencies_ms, tail), "ms"),
    }
    return metrics, f"tail_ms is p{tail} of {len(latencies_ms)} samples"


def measured(recorder: tracing.Recorder | None):
    """Context in which the measured phase runs: traced or not."""
    if recorder is None:
        return contextlib.nullcontext()
    return tracing.Tracer(recorder)


def client_hook(recorder: tracing.Recorder | None) -> driver.RequestHook | None:
    """Opens the client span of each request and sends its id in a header."""
    if recorder is None:
        return None

    def hook(op: driver.Op):
        span = recorder.open("client.request", request_id=op.request_id)
        header = {tracing.TRACE_HEADER: f"{op.request_id}.{span.span_id}"}
        return header, lambda: recorder.close(span)

    return hook


# -- oracle -----------------------------------------------------------------------


def normalized64(vectors: np.ndarray) -> np.ndarray:
    matrix = np.asarray(vectors, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def topk_matches(
    corpus: np.ndarray,
    corpus_ids: np.ndarray,
    query: np.ndarray,
    ids: list[int],
    distances: list[float],
    k: int = TOP_K,
) -> bool:
    """Whether ``ids``/``distances`` are an exact angular top-k of ``query``.

    ``corpus`` holds L2-normalized float64 rows.  Ties at the k-th distance
    may be broken either way: every returned id must score its reported
    distance, none may be worse than the true k-th, and every row strictly
    better than the k-th must be returned.
    """
    if len(ids) != k or len(set(ids)) != k:
        return False
    exact = 2.0 - 2.0 * (corpus @ normalized64(query[None, :])[0])
    position = {int(row_id): i for i, row_id in enumerate(corpus_ids)}
    if any(int(row_id) not in position for row_id in ids):
        return False
    rows = np.asarray([position[int(row_id)] for row_id in ids])
    kth = np.partition(exact, k - 1)[k - 1]
    if np.any(np.abs(exact[rows] - np.asarray(distances, dtype=np.float64)) > DISTANCE_TOL):
        return False
    if exact[rows].max() > kth + DISTANCE_TOL:
        return False
    must = set(corpus_ids[exact < kth - DISTANCE_TOL].tolist())
    return must <= set(int(row_id) for row_id in ids)


# -- tune ---------------------------------------------------------------------------


class _RecordingEnvironment(VDMSTuningEnvironment):
    """Keeps each recommendation time the tuner charges to the environment
    (``VDTuner`` times ``suggest_batch`` itself, once per model-based
    iteration)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.recommendations: list[float] = []

    def charge_recommendation_time(self, seconds: float) -> None:
        super().charge_recommendation_time(seconds)
        self.recommendations.append(seconds)


def tune_setup() -> _RecordingEnvironment:
    """Generate the dataset (with its ground truth) and build the environment."""
    # load_dataset memoizes per process; clear it so each set-up generates.
    registry._load_cached.cache_clear()
    return _RecordingEnvironment(TUNE_DATASET, seed=TUNE_TUNER_SEED)


def trajectory_fingerprint(observations) -> str:
    digest = hashlib.sha256()
    for observation in observations:
        digest.update(
            f"{observation.index_type}|{observation.speed:.6f}|{observation.recall:.6f};".encode()
        )
    return digest.hexdigest()[:16]


def run_tune(seed: int, seconds: float, recorder: tracing.Recorder | None) -> Outcome:
    del seed  # the tune input is fixed; see TUNE_DATASET
    setups = [timed(tune_setup)[0] for _ in range(TUNE_SETUP_REPEATS)]
    walls: list[float] = []
    recommendations_ms: list[float] = []
    fingerprints: list[str] = []
    reports = []
    for _ in range(max(1, round(seconds / TUNE_SECONDS_PER_RUN))):
        # Set up outside the tracer: the dataset's ground truth calls the
        # wrapped distance kernels.
        environment = tune_setup()
        tuner = VDTuner(
            environment,
            VDTunerSettings(num_iterations=TUNE_ITERATIONS, seed=TUNE_TUNER_SEED),
        )
        with measured(recorder):
            wall, report = timed(tuner.run)
        walls.append(wall)
        reports.append(report)
        recommendations_ms += [1000.0 * took for took in environment.recommendations]
        fingerprints.append(trajectory_fingerprint(report.history.observations))
    observations = [o for o in report.history.observations if not o.failed]
    points = np.asarray([[o.speed, o.recall] for o in observations], dtype=np.float64)
    front_hv = float(hypervolume_2d(points, np.zeros(2))) if len(points) else 0.0
    best = max((o.speed for o in observations if o.recall >= TUNE_RECALL_FLOOR), default=0.0)
    attempted = len(walls) * TUNE_ITERATIONS
    repeatable = len(set(fingerprints)) == 1
    complete = all(len(run.history) == TUNE_ITERATIONS for run in reports)
    as_good = (
        front_hv >= TUNE_REFERENCE_HV * (1 - 1e-6)
        and best >= TUNE_REFERENCE_BEST_QPS * (1 - 1e-6)
    )
    correct = repeatable and complete and as_good
    metrics, tail_note = latency_metrics(setups, statistics.median(walls), recommendations_ms)
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=0 if correct else attempted,
        correct=correct,
        details={
            "tune_wall_s": (statistics.median(walls), "s"),
            "tune_front_hv": (front_hv, "qps"),
            "tune_best_qps_r90": (float(best), "qps"),
        },
        notes=[
            f"{len(walls)} run(s) of {TUNE_ITERATIONS} iterations; {tail_note} "
            "(recommendation steps)",
            f"trajectory fingerprint {fingerprints[0]}"
            + ("" if repeatable else f" - runs DIFFER: {fingerprints}"),
            f"front no worse than the reference ({TUNE_REFERENCE_HV:g}, "
            f"{TUNE_REFERENCE_BEST_QPS:g}): {as_good}",
            f"replay clock (simulated) {report.replay_seconds:.1f} s; "
            f"recommendation {report.recommendation_seconds:.2f} s of wall per run",
        ],
        operations=attempted,
        measured_wall=sum(walls),
    )


# -- serve_mixed --------------------------------------------------------------------


@dataclass
class MixedServer:
    frontend: ServingFrontend
    data_dir: str
    base: np.ndarray
    hot: np.ndarray


def mixed_setup(seed: int, data_dir: str) -> MixedServer:
    """Bulk-load, index and checkpoint the base rows, then start a server
    that recovers them from the data directory."""
    base, hot = make_clustered_vectors(
        MIXED_BASE_ROWS, HOT_QUERIES, DIMENSION, num_clusters=100, cluster_std=0.3,
        seed=seed,
    )
    # The loader is shut down before the serving backend recovers the
    # directory: a live collection's background maintenance pass can rotate
    # the WAL while recover_collection() reads it (the replaced collection
    # is closed only after recovery).
    loader = VectorDBServer(SystemConfig(**MIXED_CONFIG), data_dir=data_dir)
    collection = loader.create_collection(COLLECTION, DIMENSION, metric="angular")
    collection.insert(base)
    collection.flush()
    collection.create_index("FLAT", {})
    collection.checkpoint()
    loader.shutdown()
    backend = VectorDBServer(SystemConfig(**MIXED_CONFIG), data_dir=data_dir)
    frontend = ServingFrontend(backend, ServingConfig(workers=2)).start()
    return MixedServer(frontend=frontend, data_dir=data_dir, base=base, hot=hot)


def search_op(query: np.ndarray, *, use_cache: bool, kind: str = "search") -> driver.Op:
    return driver.Op(
        kind=kind,
        method="POST",
        path=f"/collections/{COLLECTION}/search",
        body={"queries": [query.tolist()], "top_k": TOP_K, "use_cache": use_cache},
    )


def flush_op() -> driver.Op:
    return driver.Op(kind="flush", method="POST", path=f"/collections/{COLLECTION}/flush", body={})


def mixed_schedule(
    seconds: float, seed: int, hot: np.ndarray
) -> tuple[list[driver.Op], list[int], dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Inserts, Zipf-skewed searches and periodic flushes up the rate ladder.

    Returns the ops in due order, the ladder rung of each, and, by op
    position, the ids and rows each insert adds.
    """
    rng = np.random.default_rng([seed, 2])
    counts = [max(1, round(rate * share * seconds)) for rate, share in MIXED_LADDER]
    blocks = -(-sum(counts) // (SEARCHES_PER_INSERT + 1))
    popularity = 1.0 / np.arange(1, HOT_QUERIES + 1) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    new_rows = rng.normal(scale=0.3, size=(blocks * INSERT_BATCH, DIMENSION)).astype(np.float32)
    new_rows += hot[rng.integers(0, HOT_QUERIES, size=blocks * INSERT_BATCH)]
    ops: list[driver.Op] = []
    inserted: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for block in range(blocks):
        insert_at = int(rng.integers(0, SEARCHES_PER_INSERT + 1))
        for slot in range(SEARCHES_PER_INSERT + 1):
            if slot == insert_at:
                rows = new_rows[block * INSERT_BATCH:(block + 1) * INSERT_BATCH]
                ids = MIXED_BASE_ROWS + block * INSERT_BATCH + np.arange(INSERT_BATCH)
                inserted[len(ops)] = (ids, rows)
                ops.append(driver.Op(
                    kind="insert", method="POST",
                    path=f"/collections/{COLLECTION}/insert",
                    body={"vectors": rows.tolist(), "ids": ids.tolist()},
                ))
            else:
                query = hot[rng.choice(HOT_QUERIES, p=popularity)]
                ops.append(search_op(query, use_cache=True))
        if (block + 1) % FLUSH_EVERY_INSERTS == 0:
            ops.append(flush_op())
    ops = ops[:sum(counts)]
    rungs, offset = [], 0.0
    for rung, ((rate, _), count) in enumerate(zip(MIXED_LADDER, counts)):
        dues = driver.poisson_schedule(rate, count, rng)
        for op, due in zip(ops[len(rungs):], dues):
            op.due = offset + float(due)
        rungs += [rung] * count
        offset += count / rate
    for position, op in enumerate(ops):
        op.request_id = position + 1
    return ops, rungs, {i: added for i, added in inserted.items() if i < len(ops)}


def stored_rows(collection) -> int:
    """Rows a collection holds, flushed or still buffered."""
    return collection.num_rows + sum(shard.segments.pending_rows for shard in collection.shards)


def directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def run_serve_mixed(
    seed: int, seconds: float, recorder: tracing.Recorder | None, work_dir: str
) -> Outcome:
    setups = []
    for attempt in range(MIXED_SETUP_REPEATS):
        data_dir = os.path.join(work_dir, f"mixed-{attempt}")
        shutil.rmtree(data_dir, ignore_errors=True)
        wall, server = timed(lambda: mixed_setup(seed, data_dir))
        setups.append(wall)
        if attempt + 1 < MIXED_SETUP_REPEATS:
            server.frontend.drain()
            shutil.rmtree(data_dir, ignore_errors=True)
            del server
            # Only the cycle collector frees a discarded server; without
            # this, peak RSS grew by about 6 MB per set-up.
            gc.collect()
    frontend = server.frontend
    ops, rung_of, inserted = mixed_schedule(seconds, seed, server.hot)
    try:
        with measured(recorder):
            result = driver.run_open_loop(
                ops, "127.0.0.1", frontend.port,
                connections=CONNECTIONS, hook=client_hook(recorder),
            )
    finally:
        frontend.drain()
    acked = [inserted[i] for i, op in enumerate(result.ops) if op.kind == "insert" and op.ok]
    acked_ids = np.concatenate([np.arange(MIXED_BASE_ROWS)] + [ids for ids, _ in acked])
    acked_rows = np.concatenate([server.base] + [rows for _, rows in acked])
    expected_rows = int(acked_rows.shape[0])
    user_bytes = expected_rows * DIMENSION * 4
    stored_bytes = directory_bytes(server.data_dir)

    # Recover the directory the traffic left, with no final checkpoint, so
    # the WAL tail since the last maintenance checkpoint replays through the
    # insert and flush paths.
    recoveries, recovered_rows = [], []
    gc.collect()  # leave the traffic phase's garbage out of the timings
    for _ in range(RECOVER_REPEATS):
        backend = VectorDBServer(SystemConfig(**MIXED_CONFIG), data_dir=server.data_dir)
        wall, _ = timed(backend.recover_all)
        recoveries.append(wall)
        recovered = backend.get_collection(COLLECTION)
        recovered_rows.append(stored_rows(recovered))
        replayed = recovered.recovery_report.wal_records_replayed
        backend.shutdown()

    # Restart on the directory and read through the cache before and after
    # a flush: rows become searchable when flushed, so a cache entry that
    # survived the flush would show in the searches after it.
    restarted = ServingFrontend(
        VectorDBServer(SystemConfig(**MIXED_CONFIG), data_dir=server.data_dir),
        ServingConfig(workers=2),
    ).start()
    oracle_queries = server.hot[:MIXED_ORACLE_QUERIES]
    warm = [search_op(query, use_cache=True, kind="oracle") for query in oracle_queries]
    final_flush = flush_op()
    checks = [search_op(query, use_cache=True, kind="oracle") for query in oracle_queries]
    for check in checks:
        check.keep_response = True
    try:
        after = driver.run_open_loop(
            [*warm, final_flush, *checks], "127.0.0.1", restarted.port, connections=1
        )
        # Read state through the backend *after* start(): start() recovered
        # and replaced the Collection objects.
        served_rows = restarted.backend.get_collection(COLLECTION).num_rows
    finally:
        restarted.drain()
    shutil.rmtree(server.data_dir, ignore_errors=True)
    corpus = normalized64(acked_rows)
    wrong = sum(
        1 for query, check in zip(oracle_queries, checks)
        if not (
            check.ok
            and topk_matches(corpus, acked_ids, query,
                             check.response["ids"][0], check.response["distances"][0])
        )
    )
    counts_ok = served_rows == expected_rows and all(r == expected_rows for r in recovered_rows)

    rungs = [
        driver.summarize_rung(rate, [op for op, r in zip(result.ops, rung_of) if r == rung])
        for rung, (rate, _) in enumerate(MIXED_LADDER)
    ]
    lowest = [op for op, r in zip(result.ops, rung_of) if r == 0 and op.ok]
    # How far behind its schedule the server finished: the backlog the upper
    # rungs left, worked off at the server's service rate.
    behind = max(op.done for op in result.ops) - max(op.due for op in result.ops)
    metrics, tail_note = latency_metrics(setups, behind, [op.latency_ms for op in lowest])
    details = {
        "max_qps_at_slo": (driver.max_rate_at_slo(rungs, MIXED_SLO_MS), "ops/s"),
        "recover_s": (statistics.median(recoveries), "s"),
    }
    for kind in ("search", "insert"):
        latencies = [op.latency_ms for op in lowest if op.kind == kind]
        tail = driver.supported_percentile(len(latencies)) or 50
        details[f"{kind}_p50_ms"] = (driver.percentile(latencies, 50), "ms")
        details[f"{kind}_p{tail}_ms"] = (driver.percentile(latencies, tail), "ms")
    counts = {
        kind: sum(1 for op in result.ops if op.kind == kind)
        for kind in ("search", "insert", "flush")
    }
    notes = [f"{tail_note} (all requests at {MIXED_LADDER[0][0]:g}/s); ops: {counts}"]
    notes += [
        f"rung {rung.rate:g}/s: n={len(rung.waits_ms)} failed={rung.failed} "
        f"p50={driver.percentile(rung.latencies_ms, 50):.1f} ms "
        f"p{rung.tail_percentile}={rung.tail_ms:.1f} ms "
        f"backlog_growing={rung.backlog_growing(MIXED_SLO_MS)} "
        f"meets_slo({MIXED_SLO_MS:g} ms)={rung.meets_slo(MIXED_SLO_MS)}"
        for rung in rungs
    ]
    notes += [
        f"rows: acknowledged {expected_rows}, served {served_rows}, "
        f"recovered {sorted(set(recovered_rows))}",
        f"oracle: {wrong} wrong of {len(checks)} cached searches after the restart and flush",
        f"stored bytes per user byte {stored_bytes / user_bytes:.3f}",
        f"recover_s is the median of {RECOVER_REPEATS} recoveries (from "
        f"{1000 * min(recoveries):.2f} to {1000 * max(recoveries):.2f} ms), each "
        f"replaying {replayed} WAL records",
    ]
    return Outcome(
        metrics=metrics,
        attempted=result.attempted + after.attempted,
        failed=result.failed + after.failed + wrong + (not counts_ok),
        correct=wrong == 0 and counts_ok and after.failed == 0,
        details=details,
        notes=notes,
        ops=list(result.ops),
        operations=len(result.ops),
        extra_layer={"durability.bytes_per_user_byte": stored_bytes / user_bytes},
    )
