#!/usr/bin/env python3
"""Byte pin: megflood_run output must hash to the committed e2e digests.

    python3 tests/e2e_digest_pin.py PATH/TO/megflood_run

Runs the meg_sparse_flood campaign at seeds 1 to 4 and the waypoint_gossip
campaign at seeds 1 to 3 with the arguments and trial counts of
e2ebench/run.py, and compares the sha256 of each --format=json output with
e2ebench/digests.json, which it only reads.  Any change that moves an RNG
draw of the sparse edge-MEG or mobility samplers, or changes which edges a
lazily built mobility snapshot holds, changes these bytes.
Exits 1 on a mismatch or a failed run.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ inside e2ebench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "e2ebench"))
import run  # noqa: E402  (e2ebench/run.py: campaign arguments and digests)

PINS = [("meg_sparse_flood", seed) for seed in range(1, 5)] + [
    ("waypoint_gossip", seed) for seed in range(1, 4)]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    digests = run.load_digests()
    failed = 0
    for workload, seed in PINS:
        spec = run.CAMPAIGNS[workload]
        trials = digests[workload]["trials"]
        cmd = [argv[1]] + spec["args"] + [
            f"--trials={trials}", f"--seed={seed}", "--format=json"]
        proc = subprocess.run(cmd, capture_output=True)
        got = hashlib.sha256(proc.stdout).hexdigest()
        want = digests[workload]["sha256"][str(seed)]
        ok = proc.returncode == 0 and got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload} seed={seed} "
              f"exit={proc.returncode} sha256={got}")
        if not ok:
            print(f"     expected {want}\n     command: {' '.join(cmd)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
