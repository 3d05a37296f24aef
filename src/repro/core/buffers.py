"""Bounded producer and consumer buffers with high-water-mark semantics.

The producer buffer is the heart of Zipper's flow control: the simulation's
``write`` blocks only when the buffer is completely full (this blocked time is
the *application stall* the paper measures), the sender thread drains it
FIFO, and the work-stealing writer thread removes blocks only while the
occupancy exceeds the high-water mark (Algorithm 1).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.blocks import BlockId, DataBlock
from repro.core.stats import RuntimeStats

__all__ = ["BufferClosed", "ProducerBuffer", "ConsumerBuffer"]


class BufferClosed(RuntimeError):
    """Raised when putting into a buffer that has been closed."""


class ProducerBuffer:
    """FIFO buffer between the simulation thread and Zipper's helper threads."""

    def __init__(
        self,
        capacity: int,
        high_water_mark: int,
        stats: Optional[RuntimeStats] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= high_water_mark <= capacity:
            raise ValueError("high_water_mark must lie within [0, capacity]")
        self.capacity = capacity
        self.high_water_mark = high_water_mark
        self.stats = stats if stats is not None else RuntimeStats()
        self._blocks: Deque[DataBlock] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._above_watermark = threading.Condition(self._lock)
        self._closed = False
        self.max_occupancy = 0

    # -- state -------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def above_watermark(self) -> bool:
        with self._lock:
            return len(self._blocks) > self.high_water_mark

    # -- producer side -------------------------------------------------------
    def put(self, block: DataBlock, timeout: Optional[float] = None) -> float:
        """Insert ``block``; returns seconds spent stalled waiting for room."""
        start = time.perf_counter()
        with self._not_full:
            if self._closed:
                raise BufferClosed("cannot put into a closed producer buffer")
            while len(self._blocks) >= self.capacity:
                if not self._not_full.wait(timeout):
                    raise TimeoutError("producer buffer stayed full past the timeout")
                if self._closed:
                    raise BufferClosed("producer buffer closed while waiting")
            self._blocks.append(block)
            self.max_occupancy = max(self.max_occupancy, len(self._blocks))
            self._not_empty.notify()
            if len(self._blocks) > self.high_water_mark:
                self._above_watermark.notify()
        stalled = time.perf_counter() - start
        self.stats.add("producer_stall_time", stalled)
        self.stats.add("blocks_produced", 1)
        return stalled

    def close(self) -> None:
        """Signal that no further blocks will be produced."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._above_watermark.notify_all()
            self._not_full.notify_all()

    # -- sender thread ---------------------------------------------------------
    def take(self, timeout: Optional[float] = None) -> Optional[DataBlock]:
        """Remove the oldest block (FIFO).  Returns ``None`` once closed and empty."""
        with self._not_empty:
            while not self._blocks:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            block = self._blocks.popleft()
            self._not_full.notify()
            return block

    # -- writer (work-stealing) thread ------------------------------------------
    def steal(self, timeout: Optional[float] = None) -> Optional[DataBlock]:
        """Algorithm 1's ``StealBlock``: take the first block while above the mark.

        Blocks on a condition variable while the occupancy is at or below the
        high-water mark; returns ``None`` when the buffer is closed (so the
        writer thread can terminate) or when the wait times out.
        """
        with self._above_watermark:
            while len(self._blocks) <= self.high_water_mark:
                if self._closed:
                    return None
                if not self._above_watermark.wait(timeout):
                    return None
            block = self._blocks.popleft()
            self._not_full.notify()
            return block

    def drain(self) -> Deque[DataBlock]:
        """Remove and return every remaining block (used at shutdown by tests)."""
        with self._lock:
            blocks, self._blocks = self._blocks, deque()
            self._not_full.notify_all()
            return blocks


class ConsumerBuffer:
    """Buffer of received blocks on the analysis side, with free accounting.

    A block may be *freed* only once it has been analysed and — in Preserve
    mode — also stored by the output thread (Section 4.2).  The buffer tracks
    that bookkeeping so tests and the runtime can assert nothing is freed
    early and nothing leaks.
    """

    def __init__(self, capacity: int, preserve: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.preserve = preserve
        self._queue: Deque[DataBlock] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        #: block key -> (analyzed, stored) for blocks delivered but not yet freed
        self._pending: Dict[Tuple[int, int, int], Tuple[bool, bool]] = {}
        self.freed_blocks = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def outstanding(self) -> int:
        """Blocks delivered to the analysis but not yet freed."""
        with self._lock:
            return len(self._pending)

    def put(self, block: DataBlock, timeout: Optional[float] = None) -> None:
        with self._not_full:
            if self._closed:
                raise BufferClosed("cannot put into a closed consumer buffer")
            while len(self._queue) >= self.capacity:
                if not self._not_full.wait(timeout):
                    raise TimeoutError("consumer buffer stayed full past the timeout")
                if self._closed:
                    raise BufferClosed("consumer buffer closed while waiting")
            self._queue.append(block)
            self.max_occupancy = max(self.max_occupancy, len(self._queue))
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[DataBlock]:
        """Next block for the analysis; ``None`` once closed and drained."""
        with self._not_empty:
            while not self._queue:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            block = self._queue.popleft()
            self._pending[block.block_id.key] = (False, block.on_disk)
            self._not_full.notify()
            return block

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # -- free accounting --------------------------------------------------
    def mark_analyzed(self, block_id: BlockId) -> bool:
        """Record that the analysis finished with the block; returns True if freed."""
        return self._mark(block_id, analyzed=True)

    def mark_stored(self, block_id: BlockId) -> bool:
        """Record that the output thread persisted the block; returns True if freed."""
        return self._mark(block_id, stored=True)

    def _mark(self, block_id: BlockId, analyzed: bool = False, stored: bool = False) -> bool:
        key = block_id.key
        with self._lock:
            if key not in self._pending:
                return False
            a, s = self._pending[key]
            a = a or analyzed
            s = s or stored
            if a and (s or not self.preserve):
                del self._pending[key]
                self.freed_blocks += 1
                return True
            self._pending[key] = (a, s)
            return False
