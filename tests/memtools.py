"""tracemalloc measurements of one call, each on a new thread.

A thread keeps the buffer conv2d_same copies its window blocks and tap planes
into (``irae.autodiff._scratch``).  A new thread's buffer starts empty, as in a
new process, so a measurement does not depend on which tests ran before it.
"""

import threading
import tracemalloc

import irae.autodiff as autodiff


def on_new_thread(fn, timeout=300):
    """fn() run on a new thread; an exception it raises is raised here.  The
    thread is a daemon, so a call that never returns fails its test after
    timeout seconds without holding up the end of the test process."""
    result = {}

    def run():
        try:
            result["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - re-raised on the calling thread
            result["error"] = e

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in result:
        raise result["error"]
    return result["value"]


def peak_of(fn, timeout=300):
    """(fn(), tracemalloc peak of the call), the scratch buffer's growth included."""

    def run():
        tracemalloc.start()
        try:
            value = fn()
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return on_new_thread(run, timeout)


def held_by(fn, max_scratch, timeout=300):
    """(fn(), bytes the call leaves allocated), the scratch buffer excluded.

    An unmeasured fn() first grows the thread's buffer, which must then hold
    more than 0 and at most max_scratch bytes; the measured call must keep it.
    What is left counts what the result holds, such as its tape.
    """

    def run():
        fn()
        buf = autodiff._scratch.buf
        assert 0 < buf.nbytes <= max_scratch, f"scratch buffer holds {buf.nbytes} bytes"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            value = fn()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert autodiff._scratch.buf is buf, "the measured call grew the scratch buffer"
        return value, held

    return on_new_thread(run, timeout)
