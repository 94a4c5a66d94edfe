"""Text layout of the CLI's large output files, in a module that imports no numpy.

Every array of a JSON document is laid out here as ``json.dumps(indent=2)``
lays out the nested list, and every line of ``trajectories.csv`` as
``csv.writer`` writes it; floats are written with ``repr``, as both do.

A document is a list of pieces (:func:`render`): a template block of an
array's entries with the text before it (:func:`json_pieces`), or
``_TRAJ_CHUNK`` trajectories (:func:`trajectories`).  On a POSIX system
with two usable CPUs the CLI may start one worker interpreter per command
(:func:`start`) that runs this module with ``python -I -S``, so without
numpy; run as a script, ``python -I -S _text.py JOBS TEXTS`` with the
descriptors of the two files below, the module is a worker as well.  When
the command ends, the CLI kills and reaps the worker (:func:`stop`),
whether it succeeded or not.

The two processes meet in the middle of every document that holds at least
``_WORKER_MIN_VALUES`` floats (:func:`document`).  They share two files
with no name.  This process writes the document's pieces and floats to
the file of jobs and names the job, their offset there, in a line on the
worker's stdin (:func:`submit`).  The worker formats the pieces from the
last one backward.  It appends each one's text to the file of texts and
then writes a line on its stdout with the job, the piece's index and
where the text lies.  This process formats the pieces from the first one
forward.  Before each one it reads the lines that have fully arrived
(:func:`received`), stops at the first piece whose text it has been
sent, and records at the head of the file of jobs the pieces it has
claimed, where the worker stops too.  It never blocks on the worker: the
line is written without waiting or not at all, and a worker that is slow,
stopped or dead costs it only the worker's start and the hand-over, as it
formats every piece whose text it cannot read whole.  Both processes call
:func:`render`, so the bytes are the same whichever one formats a piece.
The worker exits 0 at the end of its input, as when the CLI's process
dies, and nonzero on a malformed or short job.  It imports only builtin
and small modules, so it is ready in 10-14 ms.
"""
import marshal
import operator
import os
import sys

# Slots of the largest template kept: one lays out as many entries of an
# array's leading axis as fit, and a larger entry is laid out along its own
# leading axis.  This bounds every template, and each is one piece.
_MAX_BLOCK = 1024
# Floats a document must hold for the worker to take part in it.  On a
# 2-vCPU VM (Python 3.11) starting the worker cost a fresh command 4-8 ms,
# mostly to import subprocess, and the worker sent its first piece 23-26 ms
# after the start.  A document laid out 15 ms after the start, as after the
# solvers, took 4 ms less at 10k floats, 9 ms less at 20k, 14 ms less at
# 30k and 21-24 ms less at 45k-60k (medians of 11 fresh runs each, at about
# 1.1 us per float in one process).  The rule leaves a margin for a slower
# start on a busier machine.
_WORKER_MIN_VALUES = 30_000
# Templates and mirror getters kept for reuse.
_KEPT = 32
# Trajectories formatted per piece of trajectories.csv.  Larger chunks
# write no faster but raise peak memory with the text they hold.
_TRAJ_CHUNK = 64
# The worker's command line after the interpreter: it imports this module
# from its directory, so its cached bytecode is used.
_BOOT = "import sys; sys.path.insert(0, sys.argv[1]); import _text; _text.main()"


class _Worker:
    """A running worker: its process, the descriptors of the file of jobs
    and of the file of texts it shares with this process, where the next
    job goes, and the lines of its replies read but not yet taken.  The
    file of jobs begins with 16 bytes that name the job this process works
    on and the first of its pieces that this process has not claimed."""

    def __init__(self, proc, jobs: int, texts: int):
        self.proc, self.jobs, self.texts = proc, jobs, texts
        self.end, self.inbox = 16, bytearray()


_worker = None  # this process's _Worker, while one runs


def _size(shape) -> int:
    size = 1
    for d in shape:
        size *= d
    return size


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


def json_pieces(texts: list, arrays: list):
    """The pieces of a JSON document and its text after the last piece.

    ``texts`` holds the document's text before, between and after its
    arrays, and ``arrays`` each array's ``(shape, level, mirror)``: its
    shape, its nesting level, and whether it is a stack of symmetric square
    matrices of which only the upper triangles are given, row by row.  An
    array's floats follow the previous array's, in row-major order.
    """
    pieces, head, at = [], [texts[0]], 0

    def piece(block: tuple, level: int, count: int, mirror: bool) -> None:
        nonlocal head, at
        pieces.append(("array", "".join(head), block, level, count, mirror, at))
        head = []
        size = _size(block)
        if mirror:  # the upper triangles of its matrices
            m = block[-1]
            size = size // (m * m) * (m * (m + 1) // 2)
        at += count * size

    def lay(shape: tuple, level: int, mirror: bool) -> None:
        if not shape or mirror and len(shape) == 2:  # a scalar or one matrix
            return piece(shape, level, 1, mirror)
        n, block = shape[0], shape[1:]
        if n == 0:
            return head.append("[]")
        pad = "\n" + "  " * (level + 1)
        size = _size(block)
        head.append("[" + pad)
        if size > _MAX_BLOCK:
            for a in range(n):
                if a:
                    head.append("," + pad)
                lay(block, level + 1, mirror)
        else:  # one template for as many entries as the bound allows
            step = max(1, _MAX_BLOCK // size) if size else n
            for a in range(0, n, step):
                if a:
                    head.append("," + pad)
                piece(block, level + 1, min(step, n - a), mirror)
        head.append("\n" + "  " * level + "]")

    for (shape, level, mirror), text in zip(arrays, texts[1:]):
        lay(tuple(shape), level, mirror)
        head.append(text)
    return pieces, "".join(head)


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


def render(piece, take) -> str:
    """The text of a piece; ``take(at, count)`` gives the ``count`` floats
    from offset ``at`` of the document's floats, as a list.

    A piece is ``("array", head, block, level, count, mirror, at)``: the
    text ``head``, then ``count`` entries of shape ``block`` at nesting
    ``level``, whose floats begin at ``at`` (see :func:`json_pieces`); or
    ``("rows", first, count, T, m, width, xs, us)``: trajectories ``first``
    to ``first+count-1`` of ``trajectories.csv``, whose states begin at
    ``xs`` and actions at ``us`` (see :func:`rows`).
    """
    if piece[0] == "rows":
        _, first, count, T, m, width, xs, us = piece
        return rows(first, take(xs, count * (T + 1) * m), take(us, count * T * width), T, m, width)
    _, head, block, level, count, mirror, at = piece
    slots = count * _size(block)
    kept = slots <= _MAX_BLOCK  # the layout of a matrix past the bound is not kept
    layout = (_template if kept else _group)(block, level, count)
    if not mirror:
        return head + layout % tuple(take(at, slots))
    m = block[-1]
    matrices = slots // (m * m)
    gather = (_mirror if kept else _gather)(matrices, m)
    return head + layout % gather(list(map(repr, take(at, matrices * m * (m + 1) // 2))))


def _floats(piece) -> int:
    """The floats in a piece's text."""
    if piece[0] == "rows":
        _, _, count, T, m, width, _, _ = piece
        return count * ((T + 1) * m + T * width)
    return piece[4] * _size(piece[2])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _unnamed_file() -> int:
    """A file with no name, to share with the worker: its descriptor."""
    try:
        return os.memfd_create("lqnash-text")
    except (AttributeError, OSError):  # no memfd here
        import tempfile

        fd, path = tempfile.mkstemp()
        os.unlink(path)
        return fd


def start() -> None:
    """Start this process's worker, ``sys.executable -I -S`` running this
    module, unless one runs or none can run here: it needs a POSIX system,
    at least two usable CPUs and ``sys.executable``.  It stays without a
    worker if none can start."""
    global _worker
    import subprocess

    # Tested on POSIX systems only.
    if _worker is not None or os.name != "posix" or _usable_cpus() < 2 or not sys.executable:
        return
    files = []  # of jobs and of texts
    try:
        for _ in range(2):
            files.append(_unnamed_file())
        argv = [sys.executable, "-I", "-S", "-c", _BOOT, os.path.dirname(os.path.abspath(__file__)), *map(str, files)]
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, pass_fds=files)
    except OSError:
        for fd in files:
            os.close(fd)
        return
    _worker = _Worker(proc, *files)
    _keep_away()
    os.set_blocking(proc.stdin.fileno(), False)
    os.set_blocking(proc.stdout.fileno(), False)


def _keep_away() -> None:
    """Keep the worker off the CPU this process runs on, where Linux tells
    which one that is.  A pipe write wakes the worker on the writer's CPU,
    and two busy processes may then share it: on a 2-vCPU VM the command
    and its worker ran on one CPU for whole benchmark runs while the other
    idled."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        os.sched_setaffinity(_worker.proc.pid, os.sched_getaffinity(0) - {cpu})
    except (AttributeError, IndexError, OSError, ValueError):
        pass


def stop() -> None:
    """Kill this process's worker, if one runs, and reap it."""
    global _worker
    worker, _worker = _worker, None
    if worker is None:
        return
    worker.proc.kill()
    worker.proc.wait()
    worker.proc.stdin.close()
    worker.proc.stdout.close()
    os.close(worker.jobs)
    os.close(worker.texts)


def _claim(job: int, first: int) -> None:
    """Record in the file of jobs that this process formats the pieces of
    ``job`` before ``first``."""
    if _worker is not None:
        os.pwrite(_worker.jobs, job.to_bytes(8, "little") + first.to_bytes(8, "little"), 0)


def submit(pieces: list, flats: list):
    """Hand the worker a job: ``pieces`` for :func:`render`, whose floats
    are the float64 ``flats`` laid end to end.  The job, its offset in the
    file of jobs; None if no worker runs or it cannot take the job now."""
    worker = _worker
    if worker is None:
        return None
    job, head = worker.end, marshal.dumps(pieces, 4)
    at = job + len(head)
    try:
        os.pwrite(worker.jobs, head, job)
        for flat in flats:
            view = memoryview(flat).cast("B")
            if os.pwrite(worker.jobs, view, at) != view.nbytes:
                raise OSError("short write to the file of jobs")
            at += view.nbytes
        _claim(job, 0)
        _keep_away()
        os.write(worker.proc.stdin.fileno(), b"%d %d\n" % (job, len(head)))
    except BlockingIOError:  # the worker has not read its earlier jobs
        return None
    except OSError:
        stop()
        return None
    worker.end = at
    return job


def received(job: int, index: int) -> list:
    """Where the worker's texts of ``job`` lie in the file of texts, as
    ``(offset, size)``, for piece ``index`` and those before it in turn, from
    the lines of its replies that have fully arrived.  Other replies are
    dropped, and a malformed one stops the worker."""
    if _worker is None:
        return []
    inbox = _worker.inbox
    try:
        while data := os.read(_worker.proc.stdout.fileno(), 1 << 16):
            inbox.extend(data)
    except BlockingIOError:
        pass
    except OSError:
        stop()
        return []
    *lines, rest = inbox.split(b"\n")
    del inbox[:len(inbox) - len(rest)]
    places = []
    for line in lines:
        try:
            tag, piece, at, size = map(int, line.split())
        except ValueError:
            stop()
            return places
        if (tag, piece) == (job, index - len(places)):
            places.append((at, size))
    return places


def _their_text(at: int, size: int):
    """The worker's text at ``at`` in the file of texts, or None if no
    worker runs or the file does not hold ``size`` bytes there."""
    if _worker is None or not 0 <= at <= at + size <= os.fstat(_worker.texts).st_size:
        return None
    return os.pread(_worker.texts, size, at)


def _local(flats: list):
    """``take`` for :func:`render` in this process: floats of ``flats``
    laid end to end, none of which spans two of them."""
    import bisect

    starts, at = [], 0
    for flat in flats:
        starts.append(at)
        at += len(flat)

    def take(at: int, count: int) -> list:
        k = bisect.bisect_right(starts, at) - 1
        return flats[k][at - starts[k]:at - starts[k] + count].tolist()

    return take


def document(pieces: list, flats: list):
    """The text of a document, piece by piece: ``pieces`` for
    :func:`render`, whose floats are ``flats`` laid end to end.  Float
    sequences are one-dimensional float64 arrays, such as numpy's: they can
    be sliced, have ``tolist`` and expose their buffer.

    Pieces this process formats are ``str``.  With a worker running and
    ``_WORKER_MIN_VALUES`` floats in the pieces, the worker formats pieces
    from the last one backward, and those this process takes from it come
    as UTF-8 ``bytes`` after the others.
    """
    take = _local(flats)
    job = submit(pieces, flats) if sum(map(_floats, pieces)) >= _WORKER_MIN_VALUES else None
    theirs = []  # where the worker's texts lie, of the last piece first
    for i, piece in enumerate(pieces):
        if job is not None:
            theirs += received(job, len(pieces) - 1 - len(theirs))
            if i >= len(pieces) - len(theirs):
                for k in range(i, len(pieces)):
                    text = _their_text(*theirs[len(pieces) - 1 - k])
                    yield render(pieces[k], take) if text is None else text
                return
            _claim(job, i + 1)
        yield render(piece, take)


def trajectories(T: int, m: int, width: int, xs, us):
    """The lines of ``trajectories.csv`` after its header, a
    :func:`document` of ``_TRAJ_CHUNK`` trajectories per piece: ``xs``
    holds each trajectory's ``(T+1)*m`` states and ``us`` its ``T*width``
    actions."""
    count = len(xs) // ((T + 1) * m)
    pieces = [("rows", lo, min(_TRAJ_CHUNK, count - lo), T, m, width, lo * (T + 1) * m, len(xs) + lo * T * width)
              for lo in range(0, count, _TRAJ_CHUNK)]
    return document(pieces, [xs, us])


def _read(fd: int, size: int, at: int) -> bytes:
    data = os.pread(fd, size, at)
    if len(data) != size:
        raise EOFError(f"expected {size} bytes at offset {at} of the file of jobs, read {len(data)}")
    return data


def _serve(src, dst, jobs: int, texts: int) -> None:
    """Run the jobs named on ``src``: a line with the job's offset in the
    file ``jobs`` and the byte size of its marshalled pieces, which its
    floats follow.  From the last piece backward, until the head of
    ``jobs`` names another job or claims the piece, write each piece's
    text to the file ``texts``, after the texts before it, and then a line
    to ``dst`` with the job, the piece's index, and the text's offset and
    byte length."""
    end = 0
    for line in iter(src.readline, b""):
        job, size = map(int, line.split())
        pieces = marshal.loads(_read(jobs, size, job))
        floats = job + size

        def take(at: int, count: int) -> list:
            return memoryview(_read(jobs, 8 * count, floats + 8 * at)).cast("d").tolist()

        for index in range(len(pieces) - 1, -1, -1):
            control = _read(jobs, 16, 0)
            if int.from_bytes(control[:8], "little") != job or int.from_bytes(control[8:], "little") > index:
                break
            text = render(pieces[index], take).encode()
            if os.pwrite(texts, text, end) != len(text):
                raise OSError("short write to the file of texts")
            dst.write(b"%d %d %d %d\n" % (job, index, end, len(text)))
            dst.flush()
            end += len(text)


def main() -> None:
    """The worker: serve the jobs on stdin, replying on stdout, with the
    descriptors of the files of jobs and of texts the last two arguments;
    then exit at once at the end of the input, since the interpreter's
    teardown would only delay the command."""
    _serve(sys.stdin.buffer, sys.stdout.buffer, int(sys.argv[-2]), int(sys.argv[-1]))
    os._exit(0)


if __name__ == "__main__":
    main()
