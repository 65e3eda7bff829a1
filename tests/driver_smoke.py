#!/usr/bin/env python3
"""Driver smokes: megflood_run's CLI surface, exit codes and kill/resume.

    python3 tests/driver_smoke.py PATH/TO/megflood_run

list: --list exits 0 and prints the model registry.

runs: four tiny scenarios exit 0 with one CSV row each: a gossip run on
edge-MEG, a fixed-topology baseline (k_augmented_grid), a mobility model
with --warmup=auto, and the sparse-storage general_edge_meg at n = 8192
(a broken minority map or batched init exits 2 or 3 here).

sweep: a two-point alpha sweep exits 0 with one CSV row per point, the
swept value in the first column.

kill_resume: a checkpointed campaign SIGKILLs itself after the 4th durable
record (--inject=kill:after=4, the shell's exit 137); resuming it from the
same --checkpoint prints CSV byte-identical to an uninterrupted run.

second_signal: a checkpointed campaign whose trial 0 sleeps a minute
(--inject=slow:trial=0,ms=60000) gets two SIGTERMs: the first asks for a
graceful stop, which would wait out the trial; the second must kill the
process by SIGTERM within 2 s.  Resuming prints the uninterrupted CSV.

exit_codes: a trial that throws (--inject=throw:trial=1) exits 4, a
descending sweep exits 2.

Each smoke runs in its own temporary directory.  Exits 1 when a check
fails.
"""

import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMEOUT_S = 120
CAMPAIGN = ["--model=edge_meg", "--n=64", "--alpha=0.05", "--trials=12",
            "--seed=5", "--threads=4", "--format=csv"]


class SmokeFailure(Exception):
    pass


def check(ok, what):
    if not ok:
        raise SmokeFailure(what)


def run(driver, work, *args):
    return subprocess.run([driver, *args], cwd=work, capture_output=True,
                          timeout=TIMEOUT_S)


def csv_rows(driver, work, *args):
    """Runs a --format=csv scenario that must exit 0; returns its rows."""
    proc = run(driver, work, *args, "--format=csv")
    check(proc.returncode == 0,
          f"{' '.join(args)} exited {proc.returncode}: {proc.stderr!r}")
    lines = proc.stdout.decode().splitlines()
    check(len(lines) >= 1, f"{' '.join(args)} printed no CSV header")
    return lines[0], lines[1:]


def list_models(driver, work):
    proc = run(driver, work, "--list")
    check(proc.returncode == 0, f"--list exited {proc.returncode}")
    check(b"registered models" in proc.stdout, "--list printed no registry")


def runs(driver, work):
    for args in (
            ["--model=edge_meg", "--n=64", "--alpha=0.05",
             "--process=gossip:pushpull", "--trials=4", "--threads=0"],
            ["--model=k_augmented_grid", "--n=64", "--k=2", "--trials=4"],
            ["--model=random_waypoint", "--n=32", "--warmup=auto",
             "--trials=2"],
            ["--model=general_edge_meg", "--n=8192", "--storage=sparse",
             "--wake=0.0005", "--trials=2", "--threads=0"]):
        _, rows = csv_rows(driver, work, *args)
        check(len(rows) == 1, f"{' '.join(args)} printed {len(rows)} rows")


def sweep(driver, work):
    header, rows = csv_rows(driver, work, "--model=edge_meg", "--n=64",
                            "--sweep=alpha=0.03:0.06:0.03", "--trials=2")
    check(len(rows) == 2, f"two-point sweep printed {len(rows)} rows")
    check(header.startswith("alpha,"), f"swept value not first: {header}")


def kill_resume(driver, work):
    baseline = run(driver, work, *CAMPAIGN)
    check(baseline.returncode == 0, f"baseline exited {baseline.returncode}")
    killed = run(driver, work, *CAMPAIGN, "--checkpoint=smoke.ckpt",
                 "--inject=kill:after=4")
    check(killed.returncode == -signal.SIGKILL,
          f"the campaign must die by SIGKILL, exited {killed.returncode}")
    resumed = run(driver, work, *CAMPAIGN, "--checkpoint=smoke.ckpt")
    check(resumed.returncode == 0, f"resume exited {resumed.returncode}")
    check(resumed.stdout == baseline.stdout,
          "resumed CSV differs from the uninterrupted run")


def second_signal(driver, work):
    baseline = run(driver, work, *CAMPAIGN)
    check(baseline.returncode == 0, f"baseline exited {baseline.returncode}")
    proc = subprocess.Popen(
        [driver, *CAMPAIGN, "--checkpoint=sig.ckpt",
         "--inject=slow:trial=0,ms=60000"],
        cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # The journal exists once the driver runs, after main installed
        # its handlers.
        deadline = time.monotonic() + TIMEOUT_S
        while not (work / "sig.ckpt").exists():
            check(proc.poll() is None and time.monotonic() < deadline,
                  "the campaign never opened its checkpoint")
            time.sleep(0.01)
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.2)
        check(proc.poll() is None, "the first SIGTERM did not wait for "
              f"the running trial, exited {proc.returncode}")
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=2)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    check(code == -signal.SIGTERM,
          f"the second SIGTERM must kill the campaign, exited {code}")
    resumed = run(driver, work, *CAMPAIGN, "--checkpoint=sig.ckpt")
    check(resumed.returncode == 0, f"resume exited {resumed.returncode}")
    check(resumed.stdout == baseline.stdout,
          "resumed CSV differs from the uninterrupted run")


def exit_codes(driver, work):
    code = run(driver, work, "--model=edge_meg", "--n=64", "--trials=4",
               "--format=csv", "--inject=throw:trial=1").returncode
    check(code == 4, f"an injected trial throw exited {code}, want 4")
    code = run(driver, work, "--model=edge_meg", "--format=csv",
               "--sweep=alpha=0.05:0.01:0.01").returncode
    check(code == 2, f"a descending sweep exited {code}, want 2")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    driver = str(Path(argv[1]).resolve())  # the smokes run in temp dirs
    failed = 0
    for smoke in (list_models, runs, sweep, kill_resume, second_signal,
                  exit_codes):
        with tempfile.TemporaryDirectory(prefix="mfdriver") as work:
            try:
                smoke(driver, Path(work))
                print(f"ok   {smoke.__name__}", flush=True)
            except (SmokeFailure, subprocess.TimeoutExpired) as error:
                failed += 1
                print(f"FAIL {smoke.__name__}: {error}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
