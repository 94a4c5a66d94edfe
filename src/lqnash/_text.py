"""Text layout of the CLI's large output files, in a module that imports no numpy.

Every array of a JSON document is laid out here as ``json.dumps(indent=2)``
lays out the nested list, and every line of ``trajectories.csv`` as
``csv.writer`` writes it; floats are written with ``repr``, as both do.

The CLI lays out JSON documents in its own process.  The rows of
``trajectories.csv`` take one split path, :func:`trajectories`: on a POSIX
system with two usable CPUs the CLI may start one worker interpreter per
command (:func:`start`) that runs this module with ``python -I -S``, so
without numpy; run as a script, ``python -I -S _text.py``, the module is a
worker as well.  When the command ends, the CLI kills and reaps the worker
(:func:`stop`), whether it succeeded or not.

While the CLI formats the first trajectories, the worker formats the rest,
from the trajectory :func:`_cut` picks.  Both call :func:`render`, so the
bytes are the same whichever process formats them.  A job (:func:`job`) is
a line with two sizes, the job's span of trajectories in ``marshal``
format, and the raw float64 values the span takes in order.  The worker
reads a whole job from its stdin before it formats anything, so the CLI
never waits on a full pipe while it formats its own part.  It keeps the
job's text, encoded in UTF-8, until the job is done, then writes to its
stdout the text's byte length as a line and the text.  It exits 0 at the
end of its input, as when the CLI's process dies, and nonzero on a short or
malformed job.  It imports only builtin and small modules, so it is ready
in 10-14 ms.
"""
import marshal
import operator
import sys

# Slots of the largest template kept: one lays out as many entries of an
# array's leading axis as fit, and a larger entry is laid out along its own
# leading axis.  This bounds every template.
_MAX_BLOCK = 1024
# The share of the trajectories that this process formats, the head; it
# also sends the tail's floats and joins the worker's text.
_HEAD_SHARE = 0.5

# Templates and mirror getters kept for reuse.
_KEPT = 32
# Trajectories formatted per piece of trajectories.csv.  Larger chunks
# write no faster but raise peak memory with the text they hold.
_TRAJ_CHUNK = 64
# The worker's command line after the interpreter: it imports this module
# from its directory, so its cached bytecode is used.
_BOOT = "import sys; sys.path.insert(0, sys.argv[1]); import _text; _text.main()"

_worker = None  # this process's worker, a subprocess.Popen, while one runs


def _layout(shape: tuple, level: int) -> str:
    """``%`` template of an array of ``shape`` at nesting ``level``, as
    ``json.dumps(indent=2)`` lays out the nested list: one ``%s`` slot per
    entry, in row-major order."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    inner = _layout(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def _kept(build):
    """``build`` that keeps its last ``_KEPT`` results.  A bounded cache
    without ``functools``, whose import would slow the worker's start."""
    kept = {}

    def get(*key):
        if key not in kept:
            if len(kept) >= _KEPT:
                del kept[next(iter(kept))]  # the oldest
            kept[key] = build(*key)
        return kept[key]

    get.kept = kept
    return get


def _group(shape: tuple, level: int, count: int) -> str:
    """``%`` template of ``count`` consecutive entries of ``shape`` at
    nesting ``level``, with the separators between them."""
    return (",\n" + "  " * level).join([_layout(shape, level)] * count)


def _gather(count: int, m: int):
    """Getter of the row-major entries of ``count`` symmetric ``m x m``
    matrices from a list of their upper triangles, row by row."""
    upper = {(i, j): k for k, (i, j) in enumerate((i, j) for i in range(m) for j in range(i, m))}
    one = [upper[min(i, j), max(i, j)] for i in range(m) for j in range(m)]
    return operator.itemgetter(*[c * len(upper) + k for c in range(count) for k in one])


_template, _mirror = _kept(_group), _kept(_gather)


def array(shape, level: int, mirror: bool, values: list) -> str:
    """Text of an array of ``shape`` at nesting ``level``.

    ``values`` holds the array's floats in row-major order.  With ``mirror``
    the array is a stack of symmetric square matrices, and ``values`` holds
    only each matrix's upper triangle, row by row; each lower entry reuses
    the text of its mirror image.
    """
    shape = tuple(shape)
    if not shape:
        return repr(values[0])
    n = shape[0]
    if n == 0:
        return "[]"
    if mirror and len(shape) == 2:  # the layout of a matrix past the bound is not kept
        layout, gather = (_template, _mirror) if n * shape[1] <= _MAX_BLOCK else (_group, _gather)
        return layout(shape, level, 1) % gather(1, n)(list(map(repr, values)))
    pad = "\n" + "  " * (level + 1)
    block, per = shape[1:], len(values) // n
    size = 1  # an entry's floats before mirroring
    for d in block:
        size *= d
    if not block:
        body = ("," + pad).join(map(repr, values))
    elif size > _MAX_BLOCK:
        body = ("," + pad).join([array(block, level + 1, mirror, values[i:i + per]) for i in range(0, n * per, per)])
    else:  # one template for as many entries as the bound allows
        step = max(1, _MAX_BLOCK // size) if size else n
        parts = []
        for a in range(0, n, step):
            count = min(step, n - a)
            template, span = _template(block, level + 1, count), values[a * per:(a + count) * per]
            if mirror:
                m = shape[-1]
                parts.append(template % _mirror(count * size // (m * m), m)(list(map(repr, span))))
            else:
                parts.append(template % tuple(span))
        body = ("," + pad).join(parts)
    return "[" + pad + body + "\n" + "  " * level + "]"


def rows(first: int, xs: list, us: list, T: int, m: int, width: int) -> str:
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


def render(span, take):
    """The lines of a span of trajectories, a chunk at a time.  ``span`` is
    ``[first, count, T, m, width, chunk]``: trajectories ``first`` to
    ``first+count-1`` of ``trajectories.csv``, whose floats come ``chunk``
    trajectories at a time, their states, then their actions (see
    :func:`rows`).  ``take(count)`` gives the next ``count`` floats, as a
    list."""
    first, count, T, m, width, chunk = span
    for lo in range(first, first + count, chunk):
        k = min(chunk, first + count - lo)
        xs = take(k * (T + 1) * m)
        yield rows(lo, xs, take(k * T * width), T, m, width)


def _usable_cpus() -> int:
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def start() -> None:
    """Start this process's worker, ``sys.executable -I -S`` running this
    module, unless one runs or none can run here: it needs a POSIX system,
    at least two usable CPUs and ``sys.executable``.  It stays without a
    worker if none can start."""
    global _worker
    import os
    import subprocess

    # Tested on POSIX systems only.
    if _worker is not None or os.name != "posix" or _usable_cpus() < 2 or not sys.executable:
        return
    argv = [sys.executable, "-I", "-S", "-c", _BOOT, os.path.dirname(os.path.abspath(__file__))]
    try:
        _worker = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return
    try:
        import fcntl

        # A pipe of 1 MB (Linux; the default is 64 kB): a job that fits is
        # sent without waiting for a worker that is still starting.
        fcntl.fcntl(_worker.stdin.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):
        pass


def stop() -> None:
    """Kill this process's worker, if one runs, and reap it."""
    global _worker
    proc, _worker = _worker, None
    if proc is None:
        return
    proc.kill()
    proc.wait()
    for file in (proc.stdin, proc.stdout):
        try:
            file.close()
        except OSError:  # unsent bytes of a job to a worker that is gone
            pass


def job(span: list, count: int) -> bytes:
    """The head of a job: a line with the byte size of the marshalled
    ``span`` and the number of floats that follow it, then the span."""
    head = marshal.dumps(span, 4)
    return b"%d %d\n" % (len(head), count) + head


def submit(span: list, buffers: list) -> bool:
    """Send the worker a job: ``span`` for :func:`render`, whose floats are
    the float64 ``buffers`` in order.  False, with the worker stopped, if
    none runs or it cannot take the job."""
    if _worker is None:
        return False
    views = [memoryview(b).cast("B") for b in buffers]
    try:
        pipe = _worker.stdin
        pipe.write(job(span, sum(v.nbytes for v in views) // 8))
        for view in views:
            pipe.write(view)
        pipe.flush()
    except OSError:
        stop()
        return False
    return True


def reply():
    """The text of the job last sent to the worker, as bytes; None, with
    the worker stopped, if it failed or exited."""
    try:
        pipe = _worker.stdout
        size = int(pipe.readline())
        text = pipe.read(size)
        if len(text) != size:
            raise EOFError("the worker's reply ended early")
    except (OSError, ValueError, EOFError):
        stop()
        return None
    return text


def _span(lo: int, hi: int, T: int, m: int, width: int, xs, us):
    """The :func:`render` span of trajectories ``lo:hi``, and their floats:
    flat sequences, in the order the span takes them."""
    steps = [(a, min(a + _TRAJ_CHUNK, hi)) for a in range(lo, hi, _TRAJ_CHUNK)]
    return ([lo, hi - lo, T, m, width, _TRAJ_CHUNK],
            [flat[a * per:b * per] for a, b in steps for flat, per in ((xs, (T + 1) * m), (us, T * width))])


def _cut(count: int) -> int:
    """The first trajectory of the worker's part: the head keeps about
    ``_HEAD_SHARE`` of the ``count`` trajectories, and the worker at least
    the last one."""
    return min(count - 1, round(count * _HEAD_SHARE))


def trajectories(T: int, m: int, width: int, xs, us):
    """The lines of ``trajectories.csv`` after its header, piece by piece:
    ``xs`` holds each trajectory's ``(T+1)*m`` states and ``us`` its
    ``T*width`` actions.  Both are one-dimensional float64 arrays, such as
    numpy's: they can be sliced, have ``tolist`` and expose their buffer.

    Pieces this process formats are ``str``, ``_TRAJ_CHUNK`` trajectories
    each.  With a worker running, the worker formats the trajectories from
    :func:`_cut` on, which come as one ``bytes`` piece of UTF-8 after the
    others; if the worker fails, this process formats them as well.
    """
    count = len(xs) // ((T + 1) * m)
    cut = count if _worker is None else _cut(count)
    tail = _span(cut, count, T, m, width, xs, us)
    sent = cut < count and submit(*tail)
    yield from _render(*_span(0, cut, T, m, width, xs, us))
    text = reply() if sent else None
    if text is None:
        yield from _render(*tail)
    else:
        yield text


def _render(span: list, values: list):
    """:func:`render` of ``span``; ``values`` holds the floats of each take
    in turn as a sequence with ``tolist``."""
    flats = iter(values)
    return render(span, lambda count: next(flats).tolist())


def _serve(src, dst) -> None:
    """Run the jobs read from ``src``: write each one's text to ``dst``,
    after its byte length as a line."""
    for line in iter(src.readline, b""):
        size, count = map(int, line.split())
        span = marshal.loads(src.read(size))
        data = src.read(8 * count)
        if len(data) != 8 * count:
            raise EOFError(f"expected {count} float64 values, read {len(data) // 8}")
        floats, at = memoryview(data).cast("d"), 0

        def take(count: int) -> list:
            nonlocal at
            at += count
            return floats[at - count:at].tolist()

        texts = [text.encode() for text in render(span, take)]
        dst.write(b"%d\n" % sum(map(len, texts)))
        dst.writelines(texts)
        dst.flush()


def main() -> None:
    """The worker: serve the jobs on stdin, replying on stdout, then exit
    at once at the end of the input, since the interpreter's teardown would
    only delay the command."""
    import os

    _serve(sys.stdin.buffer, sys.stdout.buffer)
    os._exit(0)


if __name__ == "__main__":
    main()
