"""Writing a large text file's rows on two processes.

``write_row_file`` writes a header and then rows ``0..n``. Where the file is
large enough (``SPLIT_MIN_LINES``) and a second process can run
(``second_process_usable``), a forked child formats the second half of the
rows into memory and sends the bytes through a pipe, while this process
formats and writes the first half and then copies the child's bytes to the
file in chunks, so it never holds the whole text. Both paths run the same
row function, so the file's bytes do not depend on which one ran.
"""

from __future__ import annotations

import io
import os
import signal
import threading
import traceback
from pathlib import Path
from typing import Callable, NoReturn, TextIO

WriteRows = Callable[[TextIO, int, int], None]  # (text file, start, stop) -> None

CHUNK = 1 << 16

# Smallest file, in lines, worth a second process; smaller files are written
# in-process. Timed with export_matrix_csv at 27 columns on 2 vCPUs (median of
# 40 alternating calls): forking, starting and reaping the child cost 8 ms at
# 675 lines, the split broke even near 6,000 lines (5,400: 20.9 ms in-process,
# 21.9 ms split; 10,800: 40.2 and 31.0 ms) and saved 40% at 81,000 lines.
SPLIT_MIN_LINES = 10_000


def second_process_usable() -> bool:
    """Whether a forked formatting process can run beside this one.

    It needs ``os.fork``, more than one usable CPU, and no other Python
    thread, since a thread holding a lock at the fork would leave the child
    stuck on it. Only Python threads are seen: threads started by native
    code (a BLAS pool, say) are not counted.
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def write_row_file(path, header: str, n: int, write_rows: WriteRows, lines_per_row: int = 1) -> None:
    """Write ``header`` and then rows ``0..n`` to ``path`` as UTF-8 text.

    ``write_rows(fh, start, stop)`` writes rows ``start..stop`` to the text
    file ``fh`` with no newline translation; it is called either once on all
    rows or on two halves in two processes, and must give the same text
    either way. It should make its Python objects from arrays itself: objects
    made before the fork are shared copy-on-write, and touching their
    reference counts makes both processes copy their pages. A row is
    ``lines_per_row`` lines of the file; fewer than ``SPLIT_MIN_LINES`` lines
    are written in-process.

    Returns only once the file is complete. Signals are held from the fork
    until the child is reaped, so an interrupt cannot leave the child behind;
    it is raised once the call is over. If the child fails, ``OSError``
    names the file.
    """
    mid = (n + 1) // 2
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        if mid == n or n * lines_per_row < SPLIT_MIN_LINES or not second_process_usable():
            write_rows(fh, 0, n)
            return
        held = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            code = _write_halves(fh, mid, n, write_rows)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
    if code != 0:
        raise OSError(f"could not write {path}: the process formatting its second half "
                      f"exited with {code}")


def _write_halves(fh, mid: int, n: int, write_rows: WriteRows) -> int:
    """Write rows ``0..mid`` here and ``mid..n`` from a child; return its exit code.

    If no process can be forked, every row is written here and 0 returned.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        write_rows(fh, 0, n)
        return 0
    if pid == 0:
        os.close(read_end)
        _child(write_end, mid, n, write_rows)
    os.close(write_end)
    try:
        write_rows(fh, 0, mid)
        fh.flush()
        while chunk := os.read(read_end, CHUNK):
            fh.buffer.write(chunk)
    finally:
        # Closing the read end first lets a child still writing see a broken
        # pipe and exit, so the wait cannot hang.
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _child(write_end: int, start: int, stop: int, write_rows: WriteRows) -> NoReturn:
    """Format rows ``start..stop`` and send them through ``write_end``, then exit."""
    code = 1
    try:
        text = io.StringIO(newline="")
        write_rows(text, start, stop)
        data = text.getvalue().encode("utf-8")
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    except BaseException:
        traceback.print_exc()
        raise
    finally:
        os._exit(code)
