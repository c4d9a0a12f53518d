"""Open-loop load driver, percentile support and the SLO ladder rule.

One process drives the server through at most ``nproc`` persistent HTTP
connections.  A generator thread releases each request at its due instant of
a seeded Poisson schedule; connection threads send what is released.  Every
latency is timed from the request's *due* instant, not from when a connection
got to send it, so a stall that delays later requests is charged to them too.
How late the generator itself released requests is reported separately: if
it is large, the client, not the server, set the pace.

``repro.serving.loadgen.LoadGenerator`` is not reused: it defaults to 64
client threads, samples ``/stats`` on a thread of its own, and times each
request from its dispatch.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

#: Samples a reported percentile must leave beyond it.
MIN_SAMPLES_BEYOND = 10
#: The highest percentile ever reported.
MAX_PERCENTILE = 99
#: Seconds over which a Poisson schedule holds its exact arrival count.
SCHEDULE_WINDOW_S = 1.0


def supported_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it.

    ``None`` when even the median lacks ten samples beyond it.
    """
    if count < 2 * MIN_SAMPLES_BEYOND:
        return None
    return min(MAX_PERCENTILE, (100 * (count - MIN_SAMPLES_BEYOND)) // count)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``nan`` when empty)."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds) of ``count`` Poisson arrivals at ``rate`` per second.

    The process is conditioned on exactly ``rate * SCHEDULE_WINDOW_S``
    arrivals in each window of that length; within a window they are uniform
    draws, as in any Poisson process given its count.  Bursts shorter than
    a window stay random, but a seed can no longer put a multi-second
    overload into one run and not another, which is what made tail latency
    unrepeatable.
    """
    if rate <= 0 or count < 1:
        raise ValueError("rate and count must be positive")
    per_window = max(1, int(round(rate * SCHEDULE_WINDOW_S)))
    dues = []
    for first in range(0, count, per_window):
        arrivals = min(per_window, count - first)
        offsets = np.sort(rng.uniform(0.0, arrivals / rate, size=arrivals))
        dues.append(first / rate + offsets)
    return np.concatenate(dues)


@dataclass
class Op:
    """One request of a schedule: what to send and when it is due."""

    kind: str
    method: str
    path: str
    body: dict[str, Any] | None
    due: float = 0.0
    #: Filled in by the driver.
    released: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    error: str | None = None
    response: dict[str, Any] | None = None
    keep_response: bool = False
    #: Shared by every span of this request when tracing.
    request_id: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def wait_ms(self) -> float:
        """Time from due to send: the client-side backlog this request met."""
        return (self.sent - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        """How late the generator released this request."""
        return (self.released - self.due) * 1000.0


class Connection:
    """One persistent HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(
        self, method: str, path: str, body: dict[str, Any] | None, headers: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        payload = None if body is None else json.dumps(body).encode("utf-8")
        all_headers = {"Content-Type": "application/json", **headers}
        try:
            self._conn.request(method, path, body=payload, headers=all_headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            raise
        return response.status, (json.loads(raw) if raw else {})

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class RunResult:
    """What one open-loop run observed."""

    ops: list[Op]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


#: Hook called around each request on the connection thread; the traced run
#: uses it to open the client span.  Returns extra headers and a finisher.
RequestHook = Callable[[Op], tuple[dict[str, str], Callable[[], None]]]


def run_open_loop(
    ops: Sequence[Op],
    host: str,
    port: int,
    *,
    connections: int,
    timeout: float = 10.0,
    hook: RequestHook | None = None,
) -> RunResult:
    """Send ``ops`` at their due offsets over ``connections`` connections.

    ``op.due`` holds offsets from the run start on entry and absolute
    ``perf_counter`` instants on return.  Returns once every request has
    completed, failed or timed out.
    """
    if connections < 1:
        raise ValueError("connections must be >= 1")
    released: queue.Queue[Op | None] = queue.Queue()
    start = time.perf_counter() + 0.02
    for op in ops:
        op.due = start + op.due

    def generate() -> None:
        for op in ops:
            delay = op.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            op.released = time.perf_counter()
            released.put(op)
        for _ in range(connections):
            released.put(None)

    def send_all() -> None:
        connection = Connection(host, port, timeout)
        try:
            while (op := released.get()) is not None:
                headers, finish = hook(op) if hook is not None else ({}, None)
                op.sent = time.perf_counter()
                try:
                    op.status, payload = connection.request(op.method, op.path, op.body, headers)
                    if op.keep_response or not 200 <= op.status < 300:
                        op.response = payload
                    if not 200 <= op.status < 300:
                        op.error = f"HTTP {op.status}: {payload.get('error', '')}"
                except (http.client.HTTPException, OSError, ValueError) as error:
                    op.error = f"{type(error).__name__}: {error}"
                op.done = time.perf_counter()
                if finish is not None:
                    finish()
        finally:
            connection.close()

    threads = [threading.Thread(target=generate, name="perfbench-generator")]
    threads += [
        threading.Thread(target=send_all, name=f"perfbench-conn-{i}") for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return RunResult(ops=list(ops))


@dataclass(frozen=True)
class RungSummary:
    """One ladder rung: a fixed Poisson rate held for a fixed request count."""

    rate: float
    latencies_ms: tuple[float, ...]
    waits_ms: tuple[float, ...]
    failed: int

    @property
    def tail_percentile(self) -> int | None:
        return supported_percentile(len(self.latencies_ms))

    @property
    def tail_ms(self) -> float:
        q = self.tail_percentile
        return percentile(self.latencies_ms, q) if q is not None else float("inf")

    def backlog_growing(self, limit_ms: float) -> bool:
        """Whether requests waited longer to be sent as the rung went on.

        Compares the median client-side wait of the last quarter of the rung
        (in due order) with that of the first quarter: a rise of more than
        half the latency limit means arrivals outpaced service.
        """
        quarter = max(1, len(self.waits_ms) // 4)
        first = percentile(self.waits_ms[:quarter], 50)
        last = percentile(self.waits_ms[-quarter:], 50)
        return last - first > limit_ms / 2.0

    def meets_slo(self, limit_ms: float) -> bool:
        """No failures, tail latency within the limit, and no growing backlog."""
        return (
            self.failed == 0
            and self.tail_percentile is not None
            and self.tail_ms <= limit_ms
            and not self.backlog_growing(limit_ms)
        )


def summarize_rung(rate: float, ops: Sequence[Op]) -> RungSummary:
    """A rung's summary; failed requests count against the SLO, not in latency."""
    ordered = sorted(ops, key=lambda op: op.due)
    served = [op for op in ordered if op.ok]
    return RungSummary(
        rate=rate,
        latencies_ms=tuple(op.latency_ms for op in served),
        waits_ms=tuple(op.wait_ms for op in ordered),
        failed=len(ordered) - len(served),
    )


def max_rate_at_slo(rungs: Sequence[RungSummary], limit_ms: float) -> float:
    """Highest rate of the ladder's passing prefix (rungs in increasing rate).

    A rung above a failing rung does not count even if it passes: the ladder
    answers "up to which rate does the server keep its promise".  Zero when
    the lowest rung already fails.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda rung: rung.rate):
        if not rung.meets_slo(limit_ms):
            break
        best = rung.rate
    return best
