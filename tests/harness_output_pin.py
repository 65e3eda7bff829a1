#!/usr/bin/env python3
"""Byte pin: every experiment harness and example prints the committed bytes.

    python3 tests/harness_output_pin.py BUILD_DIR            # check
    python3 tests/harness_output_pin.py BUILD_DIR --record   # rewrite

Runs each bench/bench_e*, bench/bench_a* and examples/* main from BUILD_DIR
with no arguments and compares the sha256 of its stdout with
bench/harness_digests.json.  The set of mains comes from the source tree, so
a new harness or example without a recorded digest fails the pin as well.
All outputs are seeded and name no host or thread count; a change that moves
an RNG draw or a printed figure of any of them changes these bytes.
Re-record (--record) only after an intended output change, and say so.
Exits 1 on a mismatch, a missing digest or a failed run.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "bench" / "harness_digests.json"
TIMEOUT_S = 120


def mains():
    bench = sorted(p.stem for p in (ROOT / "bench").glob("bench_[ea]*.cpp"))
    examples = sorted(f"example_{p.stem}"
                      for p in (ROOT / "examples").glob("*.cpp"))
    return bench + examples


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--record"):
        print(__doc__, file=sys.stderr)
        return 2
    build, record = Path(argv[1]), len(argv) == 3
    want = {} if record else json.loads(DIGESTS.read_text())
    got, failed = {}, 0
    for name in mains():
        proc = subprocess.run([str(build / name)], capture_output=True,
                              timeout=TIMEOUT_S)
        got[name] = hashlib.sha256(proc.stdout).hexdigest()
        ok = proc.returncode == 0 and (record or got[name] == want.get(name))
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} exit={proc.returncode} "
              f"sha256={got[name]}")
        if not ok and not record:
            print(f"     expected {want.get(name, '(no recorded digest)')}")
    stale = sorted(set(want) - set(got))
    for name in stale:
        print(f"FAIL {name} has a recorded digest but no source")
    failed += len(stale)
    if record and not failed:
        DIGESTS.write_text(json.dumps(got, indent=2) + "\n")
        print(f"recorded {len(got)} digests in {DIGESTS.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
