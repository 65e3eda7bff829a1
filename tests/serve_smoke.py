#!/usr/bin/env python3
"""Serve smokes: megflood_serve survives a kill -9 and a worker crash,
serves from its disk tier after a restart, and takes a 1200-job load.

    python3 tests/serve_smoke.py PATH/TO/megflood_serve PATH/TO/megflood_load

chaos: a daemon whose campaigns stall in trial 100 (--inject=slow:
trial=100,ms=2000) is SIGKILLed by pid once its journals hold trials,
while `megflood_load --retry` is mid-load.  A daemon restarted without
--inject on the same --cache_dir recovers the journaled campaigns, the
load resolves every job, and a clean second pass dumps byte-identical
results.

worker_crash: a daemon whose campaigns segfault once
(--inject=segv:trial=1,once=1) respawns its workers, the load completes
with nothing failed or unresolved, the stats record the restarts, and the
daemon is the same process afterwards.

backpressure: a one-worker daemon with a tiny admission cap
(--max_queue=4) rejects overflow submissions rather than hanging or
dropping them, and `megflood_load --retry` turns every rejection into a
completion.

quarantine: a daemon whose campaigns segfault on every
attempt (--inject=segv:trial=1) quarantines them after the crash limit:
each poison job ends in a terminal `failed` event with
reason=worker_crash rather than an endless crash loop, the load counts
those jobs as resolved and exits 0, and the daemon stays up.

disk_tier: a cold pass populates a daemon's --cache_dir, a warm pass must
be answered 100% from the cache (megflood_load itself asserts byte
identity of cached results), SIGTERM drains the daemon with exit 0, and a
daemon restarted on the same --cache_dir serves a third pass 100% from the
disk tier.

load_1200: 1200 jobs over 40 connections pushed through one daemon with zero
protocol errors, zero unresolved jobs and a cache-hit ratio of at least
0.9 (megflood_load exits nonzero on any of those failing).

one_connection: 2000 jobs down a single connection, plain and with --retry,
resolve with zero unresolved.  The daemon reads a connection's next request
only once its answers to the earlier ones are sent, so a client that
submitted the whole batch before reading would wedge on full sockets.

bad_flags: a negative count (--max_line=-1, --max_queue=-1, ...), the
removed --isolation=thread, and a non-finite or partial ratio
(--min_hit_ratio=nan, =0.9x) exit 2 at flag parsing; neither tool wraps
-1 to 2^64 - 1 or silently drops a check.

Each smoke runs in its own temporary directory.  Exits 1 when a check
fails.
"""

import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMEOUT_S = 120


class SmokeFailure(Exception):
    pass


def check(ok, what):
    if not ok:
        raise SmokeFailure(what)


def wait_for_socket(path):
    for _ in range(50):
        if path.exists():
            return
        time.sleep(0.1)
    raise SmokeFailure(f"daemon never created {path}")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def chaos(serve, load, work, procs):
    sock = work / "serve.sock"
    cache_dir = work / "chaos-cache"
    cache = f"--cache_dir={cache_dir}"
    load_args = [load, f"--socket={sock}", "--retry", "--connections=8",
                 "--jobs=80", "--distinct=20", "--trials=150", "--n=32"]
    daemon = subprocess.Popen([serve, f"--socket={sock}", "--workers=2",
                               cache, "--inject=slow:trial=100,ms=2000"])
    procs.append(daemon)
    wait_for_socket(sock)
    first = subprocess.Popen(
        load_args + [f"--dump_results={work / 'chaos-a.tsv'}"])
    procs.append(first)
    for _ in range(100):
        if list(cache_dir.glob("*.mfj")):
            break
        time.sleep(0.05)
    # The campaigns' first 100 trials take milliseconds; by now both
    # workers stall in trial 100 with those trials journaled.
    time.sleep(0.5)
    daemon.kill()
    code = daemon.wait(timeout=TIMEOUT_S)
    check(code == -signal.SIGKILL, f"daemon must die by SIGKILL, exited {code}")
    check(list(cache_dir.glob("*.mfj")), "the kill left no journal")

    with open(work / "chaos-serve.out", "wb") as out:
        daemon = subprocess.Popen(
            [serve, f"--socket={sock}", "--workers=2", cache], stdout=out)
    procs.append(daemon)
    code = first.wait(timeout=TIMEOUT_S)
    check(code == 0, f"load across the crash exited {code}")
    code = subprocess.run(
        load_args + [f"--dump_results={work / 'chaos-b.tsv'}"],
        timeout=TIMEOUT_S).returncode
    check(code == 0, f"clean load exited {code}")
    check((work / "chaos-a.tsv").read_bytes() ==
          (work / "chaos-b.tsv").read_bytes(),
          "results across the crash differ from a clean pass")
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=TIMEOUT_S)
    check(code == 0, f"restarted daemon exited {code} on SIGTERM")
    text = (work / "chaos-serve.out").read_text()
    check(re.search(r"recovered [0-9]+ interrupted", text),
          f"restart recovered no journal:\n{text}")


def worker_crash(serve, load, work, procs):
    sock = work / "serve.sock"
    daemon = subprocess.Popen(
        [serve, f"--socket={sock}", "--workers=2",
         f"--cache_dir={work / 'worker-cache'}",
         "--inject=segv:trial=1,once=1"])
    procs.append(daemon)
    wait_for_socket(sock)
    run = subprocess.run(
        [load, f"--socket={sock}", "--retry", "--stats", "--connections=4",
         "--jobs=12", "--distinct=4", "--trials=3", "--n=32"],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    sys.stdout.write(run.stdout)
    check(run.returncode == 0, f"load exited {run.returncode}")
    check(" unresolved=0" in run.stdout, "load left jobs unresolved")
    check(" failed=0" in run.stdout, "load saw failed jobs")
    check(re.search(r'"worker_restarts": [1-9]', run.stdout),
          "stats record no worker restart")
    check(daemon.poll() is None, "the daemon did not survive")
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=TIMEOUT_S)
    check(code == 0, f"daemon exited {code} on SIGTERM")


def backpressure(serve, load, work, procs):
    sock = work / "serve.sock"
    daemon = subprocess.Popen([serve, f"--socket={sock}", "--workers=1",
                               "--max_queue=4"])
    procs.append(daemon)
    wait_for_socket(sock)
    run = subprocess.run(
        [load, f"--socket={sock}", "--retry", "--connections=8",
         "--jobs=100", "--distinct=25", "--trials=100", "--n=32"],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    sys.stdout.write(run.stdout)
    check(run.returncode == 0, f"load exited {run.returncode}")
    check(re.search(r"rejected_retries=[1-9]", run.stdout),
          "the queue never rejected a submission")
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=TIMEOUT_S)
    check(code == 0, f"daemon exited {code} on SIGTERM")


def quarantine(serve, load, work, procs):
    sock = work / "serve.sock"
    daemon = subprocess.Popen(
        [serve, f"--socket={sock}", "--workers=2",
         f"--cache_dir={work / 'poison-cache'}", "--inject=segv:trial=1"])
    procs.append(daemon)
    wait_for_socket(sock)
    run = subprocess.run(
        [load, f"--socket={sock}", "--stats", "--connections=2", "--jobs=4",
         "--distinct=2", "--trials=3", "--n=32"],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    sys.stdout.write(run.stdout)
    check(run.returncode == 0, f"load exited {run.returncode}")
    check(" unresolved=0" in run.stdout, "load left jobs unresolved")
    check(re.search(r" failed=[1-9]", run.stdout), "no job failed")
    check('"reason": "worker_crash"' in run.stdout,
          "no failure was charged to a worker crash")
    check(re.search(r'"jobs_quarantined": [1-9]', run.stdout),
          "stats record no quarantined job")
    check(daemon.poll() is None, "the daemon did not survive")
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=TIMEOUT_S)
    check(code == 0, f"daemon exited {code} on SIGTERM")


def stop_gracefully(daemon):
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=TIMEOUT_S)
    check(code == 0, f"daemon exited {code} on SIGTERM")


def disk_tier(serve, load, work, procs):
    sock = work / "serve.sock"
    daemon_args = [serve, f"--socket={sock}", "--workers=2",
                   f"--cache_dir={work / 'serve-cache'}"]
    load_args = [load, f"--socket={sock}", "--connections=4", "--jobs=60",
                 "--distinct=12", "--trials=2", "--n=32"]
    daemon = subprocess.Popen(daemon_args)
    procs.append(daemon)
    wait_for_socket(sock)
    for extra, what in (([], "cold pass"),
                        (["--min_hit_ratio=1.0"], "warm pass")):
        code = subprocess.run(load_args + extra, timeout=TIMEOUT_S).returncode
        check(code == 0, f"{what} exited {code}")
    stop_gracefully(daemon)

    daemon = subprocess.Popen(daemon_args)
    procs.append(daemon)
    wait_for_socket(sock)
    code = subprocess.run(load_args + ["--min_hit_ratio=1.0"],
                          timeout=TIMEOUT_S).returncode
    check(code == 0, f"disk-tier pass after a restart exited {code}")
    stop_gracefully(daemon)


def load_1200(serve, load, work, procs):
    sock = work / "serve.sock"
    daemon = subprocess.Popen([serve, f"--socket={sock}", "--workers=2"])
    procs.append(daemon)
    wait_for_socket(sock)
    run = subprocess.run(
        [load, f"--socket={sock}", "--connections=40", "--jobs=1200",
         "--distinct=40", "--trials=2", "--n=32", "--min_hit_ratio=0.9"],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    sys.stdout.write(run.stdout)
    check(run.returncode == 0, f"load exited {run.returncode}")
    check(" unresolved=0" in run.stdout, "load left jobs unresolved")
    check(" errors=0" in run.stdout, "load saw protocol errors")
    stop_gracefully(daemon)


def one_connection(serve, load, work, procs):
    sock = work / "serve.sock"
    daemon = subprocess.Popen([serve, f"--socket={sock}", "--workers=2"])
    procs.append(daemon)
    wait_for_socket(sock)
    for extra in ([], ["--retry"]):
        run = subprocess.run(
            [load, f"--socket={sock}", "--connections=1", "--jobs=2000",
             "--distinct=40", "--trials=2", "--n=32", "--timeout_ms=20000"]
            + extra, capture_output=True, text=True, timeout=TIMEOUT_S)
        sys.stdout.write(run.stdout)
        check(run.returncode == 0, f"load {extra} exited {run.returncode}")
        check(" unresolved=0" in run.stdout,
              f"load {extra} left jobs unresolved")
    stop_gracefully(daemon)


def bad_flags(serve, load, work, procs):
    # A parser that wraps -1 starts a daemon here; the timeout ends it.
    sock = f"--socket={work / 'never.sock'}"
    for flag in ("--max_line=-1", "--max_queue=-1", "--max_client_queue=-1",
                 "--worker_memory_mb=-1", "--isolation=thread"):
        code = subprocess.run([serve, sock, flag], capture_output=True,
                              timeout=5).returncode
        check(code == 2, f"megflood_serve {flag} exited {code}, want 2")
    for flag in ("--min_hit_ratio=nan", "--min_hit_ratio=0.9x",
                 "--jobs=-1", "--timeout_ms= 5"):
        code = subprocess.run([load, "--socket=/nonexistent", flag],
                              capture_output=True, timeout=5).returncode
        check(code == 2, f"megflood_load {flag} exited {code}, want 2")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    for smoke in (bad_flags, chaos, worker_crash, backpressure, quarantine,
                  disk_tier, load_1200, one_connection):
        procs = []
        with tempfile.TemporaryDirectory(prefix="mfsmoke") as work:
            try:
                smoke(argv[1], argv[2], Path(work), procs)
                print(f"ok   {smoke.__name__}", flush=True)
            except (SmokeFailure, subprocess.TimeoutExpired) as error:
                failed += 1
                print(f"FAIL {smoke.__name__}: {error}", flush=True)
            finally:
                for proc in procs:
                    stop(proc)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
