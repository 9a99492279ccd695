"""Closed- and open-loop request generators for the serve workloads.

Both drive an async ``infer(row) -> output`` callable on the running event
loop and return one :class:`Outcome` per request.  The open loop follows a
seeded Poisson schedule and times each request from when it was *due*, not
when it was sent, so a stalled generator or a busy event loop shows up as
latency instead of silently thinning the load; ``Outcome.lag_s`` says how
late each send was.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

import numpy as np

Infer = Callable[[np.ndarray], Awaitable[np.ndarray]]


@dataclass
class Outcome:
    """One request: which input row, when it was due/sent/done, what came back."""

    row: int
    due: float
    sent: float
    done: float = 0.0
    output: np.ndarray | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


async def _send(
    infer: Infer, inputs: np.ndarray, out: Outcome, inflight: list[int] | None = None
) -> None:
    try:
        out.output = await infer(inputs[out.row])
    except Exception as exc:  # noqa: BLE001 - every failure is counted, never raised
        out.error = type(exc).__name__
    out.done = time.perf_counter()
    if inflight is not None:
        inflight[0] -= 1


async def closed_loop(
    infer: Infer,
    inputs: np.ndarray,
    orders: Sequence[np.ndarray],
    seconds: float,
) -> tuple[list[Outcome], float]:
    """One client per entry of ``orders``, each with one request in flight.

    Client ``c`` sends rows ``orders[c]`` cyclically until ``seconds`` have
    passed, then finishes its last request.  Returns the outcomes and the
    wall time from the first send to the last completion.
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    stop = start + seconds

    async def client(order: np.ndarray) -> None:
        k = 0
        while time.perf_counter() < stop:
            now = time.perf_counter()
            out = Outcome(row=int(order[k % len(order)]), due=now, sent=now)
            outcomes.append(out)
            await _send(infer, inputs, out)
            k += 1

    await asyncio.gather(*(client(order) for order in orders))
    return outcomes, time.perf_counter() - start


@dataclass
class OpenLoopRun:
    """Outcomes of one open-loop rate plus the backlog it left."""

    rate: float
    outcomes: list[Outcome]
    #: Requests sent but not yet answered when the last one was sent.
    backlog_at_end: int
    #: True when the generator stopped early because the backlog ran away.
    aborted: bool


async def open_loop(
    infer: Infer,
    inputs: np.ndarray,
    rows: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    *,
    abort_backlog: int,
) -> OpenLoopRun:
    """Send ``rows`` on a Poisson schedule of ``rate`` requests per second.

    Stops sending early (``aborted``) once more than ``abort_backlog``
    requests are outstanding, then waits for every sent request.
    """
    gaps = rng.exponential(1.0 / rate, len(rows))
    start = time.perf_counter() + 0.005
    dues = start + np.cumsum(gaps) - gaps[0]
    outcomes: list[Outcome] = []
    tasks: list[asyncio.Task[Any]] = []
    inflight = [0]
    aborted = False
    for row, due in zip(rows, dues):
        delay = float(due) - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if inflight[0] > abort_backlog:
            aborted = True
            break
        out = Outcome(row=int(row), due=float(due), sent=time.perf_counter())
        outcomes.append(out)
        inflight[0] += 1
        tasks.append(asyncio.create_task(_send(infer, inputs, out, inflight)))
    backlog_at_end = inflight[0]
    await asyncio.gather(*tasks)
    return OpenLoopRun(rate, outcomes, backlog_at_end, aborted)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[min(rank, len(ordered)) - 1])
