#!/usr/bin/env python3
"""Per-thread wait split of a running megflood_serve and its workers.

Reads /proc/<pid>/task/<tid>/schedstat (time on CPU, time waiting in the
runqueue, times scheduled) for the daemon and each worker it spawned, at
the start and the end of a window, and prints per thread the share of the
window it ran, waited runnable and was blocked, and how often it was
scheduled.  With --socket it also asks the daemon for `stats` around the
window and prints, per sub-job, each thread's schedules and CPU time (a
worker's threads per sub-job that worker ran, the daemon's per sub-job
the daemon ran) and each worker's wall time.

    python3 bench/serve_threads.py --pid <daemon pid> [--seconds 3]
        [--socket d.sock] [--json]

Only the daemon's own process tree is read (Linux /proc); nothing traces
the machine.  Threads are named by the serve code (serve-pool,
serve-conn-rd/-wr, worker-reader, worker-beat); `main` is a process's
first thread.
"""

import argparse
import json
import socket
import sys
import time
from pathlib import Path


def children(pid):
    out = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return sorted(set(out))


def sample(pids):
    """{(pid, tid): (name, run_ns, wait_ns, slices)} for every live thread."""
    out = {}
    for pid in pids:
        try:
            tasks = list(Path(f"/proc/{pid}/task").iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                run, wait, slices = map(int, (task / "schedstat").read_text().split())
                name = (task / "comm").read_text().strip()
            except (OSError, ValueError):
                continue
            tid = int(task.name)
            out[(pid, tid)] = ("main" if tid == pid else name, run, wait, slices)
    return out


def jobs_run(path):
    """{pid: sub-jobs dispatched} per worker, and the daemon's total
    under the key 0, from the daemon's `stats` event."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(path)
        conn.sendall(b'{"op": "stats"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
    stats = json.loads(data)
    out = {w["pid"]: w["jobs"] for w in stats["workers"] if w["pid"]}
    out[0] = stats["subjobs_run"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pid", type=int, required=True, help="daemon pid")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--socket", help="daemon socket, for sub-jobs run")
    parser.add_argument("--json", action="store_true", help="one JSON object")
    args = parser.parse_args(argv)

    pids = [args.pid] + children(args.pid)
    jobs_before = jobs_run(args.socket) if args.socket else {}
    t0, before = time.monotonic(), sample(pids)
    time.sleep(args.seconds)
    t1, after = time.monotonic(), sample(pids)
    jobs_after = jobs_run(args.socket) if args.socket else {}
    # Sub-jobs in the window: a worker's threads count against its own,
    # the daemon's against the total.
    jobs = {pid: n - jobs_before[pid] for pid, n in jobs_after.items()
            if pid in jobs_before}
    window_ns = (t1 - t0) * 1e9

    rows = []
    # The daemon first, then each worker (pids can wrap).
    for key in sorted(before.keys() & after.keys(),
                      key=lambda k: (k[0] != args.pid, pids.index(k[0]), k[1])):
        name, run0, wait0, slices0 = before[key]
        _, run1, wait1, slices1 = after[key]
        run, wait = (run1 - run0) / window_ns, (wait1 - wait0) / window_ns
        slices = slices1 - slices0
        own = jobs.get(0 if key[0] == args.pid else key[0])
        rows.append({
            "process": "daemon" if key[0] == args.pid else "worker",
            "pid": key[0], "tid": key[1], "thread": name,
            "run": run, "runqueue": wait, "blocked": max(0.0, 1.0 - run - wait),
            "switches_per_s": slices / (t1 - t0),
            "switches_per_subjob": slices / own if own else None,
            "run_ms_per_subjob": (run1 - run0) / own / 1e6 if own else None,
        })
    total = jobs.get(0)
    if args.json:
        print(json.dumps({"window_s": t1 - t0, "subjobs": total, "threads": rows}))
        return 0
    print(f"window {t1 - t0:.2f} s" +
          (f", {total} sub-jobs ({total / (t1 - t0):.0f}/s)" if total else ""))
    for pid in pids[1:]:
        if jobs.get(pid):
            print(f"worker {pid}: {jobs[pid]} sub-jobs, "
                  f"{(t1 - t0) * 1e3 / jobs[pid]:.3f} ms wall per sub-job")
    print(f"{'process':8} {'pid':>7} {'tid':>7} {'thread':15} {'run':>6} "
          f"{'runq':>6} {'blocked':>7} {'sched/s':>8} {'per job':>7} "
          f"{'ms/job':>7}")
    for r in rows:
        per_job, ms = r["switches_per_subjob"], r["run_ms_per_subjob"]
        print(f"{r['process']:8} {r['pid']:>7} {r['tid']:>7} {r['thread']:15} "
              f"{r['run']:6.1%} {r['runqueue']:6.1%} {r['blocked']:7.1%} "
              f"{r['switches_per_s']:8.0f} "
              + (f"{per_job:7.2f} {ms:7.3f}" if per_job is not None
                 else f"{'-':>7} {'-':>7}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
