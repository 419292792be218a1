"""Work off the calling thread: one worker type, Worker, and one rule,
offloads(), for the shard passes of objectives, the kernel's gathers
(localsgd.KernelBlocks) and data.generate_synthetic's block draw. Only numpy
runs on a worker, releasing the GIL, and results have the serial bits."""

import os
import threading

# Work goes to a worker only if the data it reads hold at least POOL_BYTES,
# which keeps every desk-scale dataset (1.6 MB) serial, and each handoff
# moves at least HANDOFF_BYTES: on a 70 MiB dataset a gather of 164 KiB per
# call ran at 1.01x its serial time, one of 328 KiB at 0.90-0.95x.
POOL_BYTES = 8 << 20
HANDOFF_BYTES = 256 << 10


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def offloads(read_bytes: int, moved_bytes: int) -> bool:
    """Whether work that reads data of read_bytes, moving moved_bytes in
    each handoff to a worker, goes to Worker threads."""
    return read_bytes >= POOL_BYTES and moved_bytes >= HANDOFF_BYTES and cpu_count() > 1


class Worker:
    """One daemon thread that runs the calls handed to it in turn; a
    handoff and its wait cost a few microseconds on the calling thread.
    Never hand it a function that perfbench's span recorder wraps."""

    def __init__(self):
        import queue  # only work that uses a worker imports it

        self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="otafl-worker", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while (job := self._jobs.get()) is not None:
            try:
                job[0](*job[1])
            except BaseException as exc:  # raised from wait(), unchanged
                self._done.put(exc)
            else:
                self._done.put(None)

    def submit(self, func, *args) -> None:
        """Hand func(*args) to the thread."""
        self._jobs.put((func, args))

    def wait(self) -> None:
        """Wait for the oldest call not yet waited for; raise its exception."""
        exc = self._done.get()
        if exc is not None:
            raise exc

    def close(self) -> None:
        """End the thread once its calls have ended; they may still be waited for."""
        self._jobs.put(None)
        self._thread.join()
