"""The daemon's job queue: queued requests, run in arrival order.

The daemon funnels every expensive request (solve / check / analyze)
through one :class:`JobQueue`.  A single dispatcher coroutine takes
one job at a time, in arrival order across every endpoint, and runs it
on a worker thread under the daemon-lifetime language cache.

Deadlines are *absolute* event-loop timestamps (``loop.time()``-based,
attached at enqueue).  The queue itself never drops a job — expiry is
enforced by the dispatcher at dequeue and once the job's result is
ready, so an expired job is always *answered* (with a deadline error),
never silently discarded.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["DeadlineExceeded", "Job", "JobQueue"]


class DeadlineExceeded(Exception):
    """The job's deadline passed before (or while) it was executed."""


@dataclass
class Job:
    """One queued request, resolved through ``future``."""

    kind: str
    payload: dict[str, Any]
    future: "asyncio.Future[dict[str, Any]]"
    #: Event-loop timestamp at enqueue (for queue-wait telemetry).
    enqueued_at: float
    #: Absolute event-loop deadline, or None for no deadline.
    deadline: Optional[float] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class JobQueue:
    """An awaitable FIFO of jobs.

    ``close()`` stops admission; :meth:`get` then drains what is
    already queued and finally returns None — the drain contract the
    daemon's graceful shutdown relies on (queued jobs are executed, not
    dropped).
    """

    _queue: deque[Job] = field(default_factory=deque)
    _wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    _closed: bool = False

    def put(self, job: Job) -> bool:
        """Enqueue a job; False (and nothing queued) after close()."""
        if self._closed:
            return False
        self._queue.append(job)
        self._wakeup.set()
        return True

    def close(self) -> None:
        """Stop admitting jobs; queued ones still drain."""
        self._closed = True
        self._wakeup.set()

    def __len__(self) -> int:
        return len(self._queue)

    async def get(self) -> Optional[Job]:
        """The oldest queued job, or None once closed and drained."""
        while not self._queue:
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()
        return self._queue.popleft()
