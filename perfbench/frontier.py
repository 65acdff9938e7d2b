"""Exact-certification frontier: the largest team size certified within 1 s.

Each rung of the ladder runs in a forked child with a hard wall limit on
the call and a cap on the address space it may add, so a rung that would
take minutes or allocate gigabytes is stopped instead of run. Fork before
the measured work starts: the child must not inherit worker threads.
"""

from __future__ import annotations

import json
import math
import os
import resource
import select
import signal
import sys
import time

import teamfield as tf

LIMIT_S = 1.0
# Address space a probe may add to what it inherits. Spread at N=12 needs
# about 0.45 GiB, N=13 about 2 GiB; noisy at N=10 asks for 16 GiB.
HEADROOM_BYTES = 1 << 30
CAP = 512
START_GRACE_S = 5.0

EXPECTED_STOPS = ("time limit", "BudgetError", "MemoryError")


def ladder(cap: int = CAP):
    """Every N from 1 to 16, then x1.5 rounded up, up to the cap."""
    n = 1
    while n <= cap:
        yield n
        n = n + 1 if n < 16 else math.ceil(n * 1.5)


def _vm_size() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize missing from /proc/self/status")


def _child(call, n: int, w: int, limit: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    os.write(w, b"s")
    t0 = time.perf_counter()
    try:
        eps, checks = call(n)
        msg = {"ok": not checks, "eps": [float(e) for e in eps], "checks": checks}
        if checks:
            msg["stop"] = "wrong result"
    except MemoryError:
        msg = {"ok": False, "stop": "MemoryError"}
    except tf.BudgetError as e:
        msg = {"ok": False, "stop": "BudgetError", "detail": str(e)}
    except Exception as e:  # reported as a failed rung, not raised
        msg = {"ok": False, "stop": f"error: {type(e).__name__}", "detail": str(e)}
    msg["s"] = time.perf_counter() - t0
    os.write(w, json.dumps(msg).encode())


def probe(call, n: int) -> dict:
    """Run call(n) in a forked child; returns the rung's outcome."""
    limit = _vm_size() + HEADROOM_BYTES
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            _child(call, n, w, limit)
        finally:
            os._exit(0)
    os.close(w)
    buf = b""
    deadline = time.monotonic() + START_GRACE_S
    started = killed = False
    try:
        while True:
            ready, _, _ = select.select([r], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            buf += chunk
            if not started:
                started = True
                buf = buf[1:]
                deadline = time.monotonic() + LIMIT_S
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    out = {"n": n, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if killed:
        out.update(ok=False, stop="time limit" if started else "error: probe did not start", s=LIMIT_S)
    elif buf:
        out.update(json.loads(buf))
    else:
        out.update(ok=False, stop=f"error: probe exited with status {status}")
    return out


def frontier(call, cap: int = CAP) -> dict:
    """Climb the ladder until the first rung that does not certify."""
    best = 0
    rungs = []
    for n in ladder(cap):
        rung = probe(call, n)
        rungs.append(rung)
        if not rung["ok"]:
            return {"n": best, "stop": rung["stop"], "stopped_at": n, "rungs": rungs}
        best = n
    return {"n": best, "stop": "cap", "stopped_at": None, "rungs": rungs}
