"""The yardstick: a fixed pure-Python loop that measures the host's speed.

The host's speed drifts by up to 2x within seconds, in user time as much
as in wall time, so a job's time alone is not steady from run to run.  The
yardstick runs rounds of fixed work without end, pinned to the same CPU as
the timed job.  The scheduler interleaves the two every few milliseconds,
so both see the same host speed, and the job's CPU time over the
yardstick's CPU time per round during the job is steady to about 1%.

The work is of the same kind as flagcoh's: partitions as tuples,
dictionary updates and small-integer arithmetic.  It must never change, and
it imports nothing from flagcoh, so a change to the program moves the ratio
and a change of host speed does not.

``Yardstick`` is the side run.py uses; running this file is the other side.
The two speak over the child's stdout: SIGUSR1 asks for a line
"ROUNDS CPU_S", the rounds done so far and the CPU time they took.
"""

import ctypes
import os
import signal
import subprocess
import sys
import time


def partitions(n: int, parts: int, largest: int):
    """Partitions of n into exactly ``parts`` parts of at most ``largest``, zeros allowed."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n, largest), -1, -1):
        for rest in partitions(n - first, parts - 1, first):
            yield (first,) + rest


def work(r: int, table: dict):
    """One round, about 1 ms of CPU on an unloaded 2.1 GHz Xeon vCPU."""
    for n in range(14):
        for lam in partitions(n, 4, n):
            key = tuple(x + r % 3 for x in lam)
            table[key] = table.get(key, 0) + sum(i * x for i, x in enumerate(lam))


def serve():
    done = [0]

    def report(signum, frame):
        os.write(1, b"%d %r\n" % (done[0], time.process_time()))

    signal.signal(signal.SIGUSR1, report)
    os.write(1, b"ready\n")
    table: dict = {}
    while True:
        work(done[0], table)
        done[0] += 1


def _pin_and_tie(cpu: int):
    """Pin the child to ``cpu`` and have it killed when its parent dies."""
    os.sched_setaffinity(0, {cpu})
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Yardstick:
    """The yardstick process, pinned to ``cpu`` and stopped between jobs."""

    def __init__(self, cpu: int, env: dict):
        self.cpu = cpu
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdout=subprocess.PIPE,
            env=env,
            preexec_fn=lambda: _pin_and_tie(cpu),
        )
        self.begin = (0, 0.0)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("the yardstick did not start")
        self.proc.send_signal(signal.SIGSTOP)

    def _read(self) -> tuple:
        self.proc.send_signal(signal.SIGUSR1)
        line = self.proc.stdout.readline().split()
        if len(line) != 2:
            raise RuntimeError("the yardstick stopped answering")
        return int(line[0]), float(line[1])

    def start(self):
        self.proc.send_signal(signal.SIGCONT)
        self.begin = self._read()

    def stop(self) -> tuple:
        """(rounds, CPU s) of the yardstick since ``start``."""
        end = self._read()
        self.proc.send_signal(signal.SIGSTOP)
        return end[0] - self.begin[0], end[1] - self.begin[1]

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
