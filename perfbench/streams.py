"""Stand-ins for stdin and stdout that record when each line moves.

``LineSource`` replaces ``sys.stdin``: it yields the lines of an input file
and records the moment the program asked for each one. ``Recorder`` replaces
``sys.stdout``: it records when each output line is completed and which input
line had been pulled last at that moment, which is the line the record
belongs to in a closed loop that reads one line, writes its records, then
reads the next.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter


class LineSource:
    """Iterable stdin stand-in over a text file."""

    def __init__(self, path: str):
        self._file = open(path, "r", encoding="utf-8")
        self._lines = iter(self._file)
        self.pulls = array("d")

    def __iter__(self):
        return self

    def __next__(self) -> str:
        t = perf_counter()
        line = next(self._lines)
        self.pulls.append(t)
        return line

    def close(self) -> None:
        self._file.close()


class Recorder:
    """Write-only stdout stand-in.

    Every completed line (one ending in a newline) gets a time stamp and an
    owner: the index of the input line most recently pulled from ``source``
    (-1 before the first pull, or always when there is no source). The text
    goes on to ``sink``, a file the program would otherwise have written.
    """

    def __init__(self, source: LineSource | None, sink):
        self._source = source
        self._sink = sink
        self.times = array("d")
        self.owners = array("q")

    def write(self, text: str) -> int:
        t = perf_counter()
        owner = len(self._source.pulls) - 1 if self._source is not None else -1
        self._sink.write(text)
        for _ in range(text.count("\n")):
            self.times.append(t)
            self.owners.append(owner)
        return len(text)

    def flush(self) -> None:
        pass


def attribute(pulls, times, owners) -> tuple[list[int], list[float]]:
    """Per input line: how many output lines it produced, and its latency.

    ``pulls[i]`` is when line ``i`` was requested; ``times[k]``/``owners[k]``
    describe output line ``k``. A line's latency runs from its pull to the
    last output line it owns. A line that owns no output was skipped: it
    has no latency (NaN). Returns ``(counts, latencies_s)``, one entry per
    input line.
    """
    n = len(pulls)
    counts = [0] * n
    last = [math.nan] * n
    for t, owner in zip(times, owners):
        if 0 <= owner < n:
            counts[owner] += 1
            last[owner] = t
    return counts, [last[i] - pulls[i] for i in range(n)]


def intervals(start: float, times) -> list[float]:
    """Gaps between successive output lines, the first measured from ``start``."""
    out = []
    prev = start
    for t in times:
        out.append(t - prev)
        prev = t
    return out
