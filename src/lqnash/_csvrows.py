"""Text lines of ``trajectories.csv``, formatted from flat lists of floats.

This module imports no numpy, so it also runs as a script in a bare
interpreter, the worker that ``lqnash simulate`` starts to format the
second half of the trajectories::

    python -I -S _csvrows.py FIRST COUNT T M WIDTH CHUNK

The script reads float64 values from stdin, ``CHUNK`` trajectories at a
time: the chunk's states (``T+1`` rows of ``M``), then its actions (``T``
rows of ``WIDTH``).  It writes the lines of trajectories ``FIRST`` to
``FIRST+COUNT-1`` to stdout, and exits nonzero on short input.
"""
import sys


def format_rows(first: int, xs: list, us: list, T: int, m: int, width: int) -> str:
    """Lines of the trajectories from ``first`` on: ``xs`` holds their
    states, ``(T+1)*m`` floats each, and ``us`` their actions, ``T*width``
    floats each.

    Bytes match ``csv.writer``: it writes floats with ``repr`` (``%r``) and
    the terminal row's missing actions as empty fields.
    """
    line = "%d,%d," + ",".join(["%r"] * (m + width)) + "\n"
    last = "%d,%d," + ",".join(["%r"] * m) + "," * width + "\n"
    parts = []
    i = j = 0
    for r in range(first, first + len(xs) // ((T + 1) * m)):
        for t in range(T):
            parts.append(line % (r, t, *xs[i:i + m], *us[j:j + width]))
            i += m
            j += width
        parts.append(last % (r, T, *xs[i:i + m]))
        i += m
    return "".join(parts)


def _floats(src, count: int) -> list:
    data = src.read(8 * count)
    if len(data) != 8 * count:
        raise EOFError(f"expected {count} float64 values, read {len(data) // 8}")
    return memoryview(data).cast("d").tolist()


def _main(argv: list) -> int:
    first, count, T, m, width, chunk = map(int, argv)
    src, dst = sys.stdin.buffer, sys.stdout.buffer
    end = first + count
    for lo in range(first, end, chunk):
        k = min(chunk, end - lo)
        xs = _floats(src, k * (T + 1) * m)
        us = _floats(src, k * T * width)
        dst.write(format_rows(lo, xs, us, T, m, width).encode())
    dst.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
