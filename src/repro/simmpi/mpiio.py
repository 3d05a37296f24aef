"""Collective MPI-IO on the simulated parallel file system.

Models the behaviour that makes the MPI-IO transport the slowest and most
variable method in the paper's Figure 2: every rank of the writing application
participates in a collective write of a shared file (with the implied
synchronisation), the data lands on a file system shared with other users, and
the reading application has to discover that a new step is available by
polling the file system before it can issue its own collective read.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.simcore import Timeout
from repro.simmpi.comm import Communicator

__all__ = ["MPIFile"]


class MPIFile:
    """A shared file accessed collectively by all ranks of a communicator."""

    def __init__(self, comm: Communicator, filename: str, collective_sync: bool = True):
        self.comm = comm
        self.filename = filename
        self.collective_sync = collective_sync
        self.fs = comm.cluster.filesystem
        self._steps_completed = 0

    @property
    def steps_completed(self) -> int:
        """Number of complete step writes visible to readers."""
        return self._steps_completed

    def write_all(self, rank: int, nbytes: int, step: Optional[int] = None) -> Generator:
        """Collective write of ``nbytes`` from ``rank`` into the shared file.

        With ``collective_sync`` (the default, matching two-phase collective
        buffering) all ranks synchronise before and after the data movement,
        so the slowest rank's I/O time is everyone's I/O time.
        """
        if self.collective_sync:
            yield from self.comm.barrier(rank)
        start = self.comm.env.now
        yield from self.fs.write(self.comm.node_of(rank), nbytes, filename=self.filename)
        if self.comm.tracer is not None:
            self.comm.tracer.record(rank, "io_write", start, self.comm.env.now, nbytes=nbytes)
        if self.collective_sync:
            yield from self.comm.barrier(rank)
        if rank == 0:
            self._steps_completed = max(
                self._steps_completed, (step + 1) if step is not None else self._steps_completed + 1
            )

    def wait_for_step(self, rank: int, step: int, poll_interval: float = 0.05) -> Generator:
        """Poll until the writer has completed ``step`` (0-based) writes.

        File-based coupling has no notification mechanism; the paper notes
        that "coupling different applications with MPI-IO requires writing
        code to let a consumer application know when new data is available in
        a file" — this is that code, and its polling latency is part of the
        end-to-end cost.
        """
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        polls = 0
        while self._steps_completed <= step:
            yield Timeout(self.comm.env, poll_interval)
            polls += 1
        return polls
