#!/usr/bin/env python3
"""End-to-end benchmark for megflood, with a per-layer split.

    python3 e2ebench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 e2ebench/run.py --record-digests     # refresh digests.json

Workloads (BENCHMARK.json says why each was chosen):

  meg_sparse_flood  campaigns of general_edge_meg --storage=sparse, n=32768
  waypoint_gossip   campaigns of random_waypoint n=4096, push-pull gossip
  serve_mixed       a megflood_serve daemon (process isolation, two workers)
                    under a closed loop of 25% cache hits, 75% misses

The first run builds the library, megflood_run, megflood_serve and the two
benchmark programs (campaign.cpp, serve_load.cpp) from this checkout into
$CARGO_TARGET_DIR (default .bench_build), Release only.

With --trace 0 the last stdout line is the JSON result with every
end-to-end metric; with --trace 1 it carries every per-layer metric,
measured by a separate traced pass (e2e_campaign's TracedGraph
decorator, or the serve client's per-event timestamps and `stats`
deltas) next to an untraced pass that gives trace.overhead_ratio.  The
line before it records the host, the build and each timing's sample count.

Correctness: every campaign's result bytes must match the committed
digest for its seed (digests.json, made by megflood_run --format=json),
and the traced bytes must equal the untraced bytes.  For serve, hit bytes
must equal the bytes stored at warm-up and sampled miss results must equal
megflood_run's.  Any mismatch counts as a failure and the command exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

CAMPAIGNS = {
    "meg_sparse_flood": {
        "layer": "meg",
        "args": ["--model=general_edge_meg", "--storage=sparse", "--n=32768",
                 "--wake=0.000244", "--process=flooding", "--threads=1"],
        # Many short campaigns per run: the end-to-end rate is the median
        # over campaigns, which rides out seconds-long slow phases of a
        # shared host.
        "trials": 2,         # per campaign (~1.05 s on a 4-CPU x86 host)
        "campaign_s": 1.05,  # nominal; sets campaigns per run from --seconds
        "pool": 64,          # campaign seeds 1..pool have committed digests
        "metric": "transmissions",
    },
    "waypoint_gossip": {
        "layer": "mobility",
        "args": ["--model=random_waypoint", "--n=4096", "--side=64",
                 "--radius=1", "--v_min=0.5", "--v_max=1", "--warmup=auto",
                 "--process=gossip:pushpull", "--threads=1"],
        "trials": 8,
        "campaign_s": 0.42,
        "pool": 64,
        "metric": "contacts",
    },
}

# No --cache_dir: with the disk tier on ext4, whole runs swung between
# ~1300 and ~2150 jobs/s on a 4-CPU VM (the sawtooth of the filesystem
# journal), far wider than any useful bound.  The memory tier still serves
# the hits and stores the misses.
SERVE_DAEMON_FLAGS = ["--isolation=process", "--workers=2"]
SERVE_TRIALS = 4         # per job; serve_load.cpp submits the same flags
SERVE_JOB_ARGS = ["--model=edge_meg", "--n=256", "--alpha=0.0078125",
                  "--q=0.3", f"--trials={SERVE_TRIALS}"]
SERVE_WARM = 32          # warm-set campaigns prefilled at set-up
SERVE_SETUPS = 5         # daemon launches per run; setup_s is their median

WORKLOADS = list(CAMPAIGNS) + ["serve_mixed"]

# Every workload reports every end-to-end metric.  A campaign is a job
# computed from scratch, so for campaigns jobs_per_s counts campaigns and
# miss_latency_p50_ms is the campaign's launch-to-exit time.  Cache-hit
# latency and a p99 over >= 1000 requests exist only for serve_mixed, so
# they are per-layer (serve.*) metrics.
END_TO_END = {
    "trials_per_s": "1/s", "jobs_per_s": "1/s", "miss_latency_p50_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "success_ratio": "ratio",
}

PER_LAYER = {
    "scenario.validate_ms": "ms",
    "meg.construct_s": "s", "meg.construct_share": "ratio",
    "meg.step_s": "s", "meg.steps": "count", "meg.step_ms_p50": "ms",
    "meg.share": "ratio",
    "snapshot.edges_per_step": "count",
    "mobility.construct_s": "s", "mobility.warmup_s": "s",
    "mobility.warmup_steps": "count", "mobility.step_s": "s",
    "mobility.steps": "count", "mobility.step_us_p50": "us",
    "mobility.share": "ratio",
    "process.self_s": "s", "process.rounds": "count",
    "process.transmissions": "count", "process.contacts": "count",
    "trial.wall_ms_p50": "ms", "trial.wall_ms_max": "ms", "trial.merge_s": "s",
    "format.render_ms": "ms",
    "serve.hit_latency_p50_ms": "ms", "serve.miss_latency_p99_ms": "ms",
    "server.admit_ms_p50": "ms", "server.admit_ms_p99": "ms",
    "scheduler.queue_wait_ms_p50": "ms", "scheduler.queue_wait_ms_p99": "ms",
    "worker.execute_ms_p50": "ms", "worker.execute_ms_p99": "ms",
    "cache.finish_ms_p50": "ms",
    "cache.hit_ratio": "ratio", "cache.entries": "count",
    "scheduler.subjobs_run": "count", "scheduler.trials_done": "count",
    "scheduler.jobs_rejected": "count", "worker.restarts": "count",
    "protocol.events_per_job": "count", "protocol.bytes_per_job": "count",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (build, daemon, or harness failure)."""


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_supported(count, q):
    """A q-quantile is reportable only with at least ten samples beyond it."""
    return count * (1.0 - q) >= 10.0 - 1e-9


def timing(name, values, q, counts):
    """The q-quantile of `values`; records the sample count under `name`
    and whether the sample-count rule holds for that quantile."""
    counts[name] = {"samples": len(values),
                    "tail_supported": q <= 0.5 or tail_supported(len(values), q)}
    if not counts[name]["tail_supported"]:
        print(f"run.py: {name}: {len(values)} samples support no p{q * 100:g}",
              file=sys.stderr)
    return percentile(values, q) if values else 0.0


def tally(attempted, failed):
    """(attempted, failed, success_ratio) — success_ratio never reads 0
    for a run that did anything, so it can carry a relative bound."""
    if attempted < 1:
        raise BenchError("no operation was attempted")
    return attempted, failed, (attempted - failed) / attempted


# ---------------------------------------------------------------------------
# Build and host record
# ---------------------------------------------------------------------------

def build_dir():
    return (Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (Release) and builds the programs; returns their paths."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} is not a megflood source tree")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    settings = {}
    for line in cache.read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            settings[key.split(":", 1)[0]] = value
    if settings.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError(f"{out} is configured as "
                         f"'{settings.get('CMAKE_BUILD_TYPE')}', not Release")
    return {
        "run": out / "megflood" / "megflood_run",
        "serve": out / "megflood" / "megflood_serve",
        "campaign": out / "e2e_campaign",
        "serve_load": out / "e2e_serve_load",
        "settings": settings,
    }


def host_record(bins):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = bins["settings"].get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    flags = "unknown"
    flags_make = build_dir() / "megflood/CMakeFiles/megflood.dir/flags.make"
    for line in flags_make.read_text().splitlines():
        if line.startswith("CXX_FLAGS ="):
            flags = line.split("=", 1)[1].strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": bins["settings"].get("CMAKE_BUILD_TYPE"),
            "library_cxx_flags": flags}


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_digests():
    return json.loads(DIGESTS.read_text())


def campaign_seeds(workload, seed, count):
    """`count` campaign seeds drawn from the committed pool by `seed`."""
    pool = list(range(1, CAMPAIGNS[workload]["pool"] + 1))
    random.Random(f"{workload}:{seed}").shuffle(pool)
    return [pool[i % len(pool)] for i in range(count)]


def campaign_count(workload, seconds):
    return max(2, round(seconds / CAMPAIGNS[workload]["campaign_s"]))


def run_campaign(bins, workload, campaign_seed, traced):
    """One campaign process; returns (stdout bytes, record, wall_s, setup_s)."""
    spec = CAMPAIGNS[workload]
    cmd = [str(bins["campaign"])] + (["--trace"] if traced else []) + spec["args"] + [
        f"--trials={spec['trials']}", f"--seed={campaign_seed}"]
    launched = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True)
    wall = time.monotonic() - launched
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"e2e_campaign failed (exit {proc.returncode}): "
                         f"{proc.stderr.decode(errors='replace')[-500:]}")
    return proc.stdout, record, wall, record["first_trial_start"] - launched


def campaign_failures(stdout, digest, trials):
    """Failed trials of one campaign: errored + incomplete, or all of them
    when the bytes do not match the committed digest."""
    if sha256(stdout) != digest:
        return trials
    result = json.loads(stdout)
    return result["errors"] + result["incomplete"]


def campaign_workload(bins, workload, seed, seconds, trace):
    spec = CAMPAIGNS[workload]
    digests = load_digests()[workload]
    if digests["trials"] != spec["trials"]:
        raise BenchError("digests.json was recorded for another trial count")
    seeds = campaign_seeds(workload, seed, campaign_count(workload, seconds))
    attempted = failed = 0
    walls, setups, rss, traced_walls, records, results = [], [], [], [], [], []
    for campaign_seed in seeds:
        digest = digests["sha256"][str(campaign_seed)]
        stdout, record, wall, setup = run_campaign(bins, workload, campaign_seed, False)
        attempted += spec["trials"]
        failed += campaign_failures(stdout, digest, spec["trials"])
        walls.append(wall)
        setups.append(setup)
        rss.append(record["peak_rss_bytes"])
        if trace:
            traced_out, traced_record, traced_wall, _ = run_campaign(
                bins, workload, campaign_seed, True)
            attempted += spec["trials"]
            failed += campaign_failures(traced_out, digest, spec["trials"])
            if traced_out != stdout:
                failed += spec["trials"]
            traced_walls.append(traced_wall)
            records.append(traced_record)
            results.append(json.loads(traced_out))
    attempted, failed, success = tally(attempted, failed)
    counts = {"campaigns": len(seeds), "trials_per_campaign": spec["trials"]}
    if not trace:
        metrics = {
            "trials_per_s": statistics.median(spec["trials"] / w for w in walls),
            "jobs_per_s": statistics.median(1 / w for w in walls),
            "miss_latency_p50_ms": timing("miss_latency_p50_ms",
                                          [w * 1e3 for w in walls], 0.5, counts),
            "peak_rss_mb": max(rss) / 2**20,
            "setup_s": statistics.median(setups),
            "success_ratio": success,
        }
        counts["trials_per_s"] = counts["setup_s"] = {"samples": len(setups)}
        return attempted, failed, metrics, counts
    return attempted, failed, campaign_layers(
        workload, records, results, walls, traced_walls, counts), counts


def campaign_layers(workload, records, results, walls, traced_walls, counts):
    spec = CAMPAIGNS[workload]
    layer = spec["layer"]
    total = lambda key: sum(r[key] for r in records)
    wall = sum(traced_walls)
    steps_us = [x for r in records for x in r["step_us"]]
    trial_ms = [x for r in records for x in r["trial_ms"]]
    construct, warmup, step = total("construct_s"), total("warmup_s"), total("step_s")
    reads = total("snapshot_reads")
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "scenario.validate_ms": statistics.median(r["validate_ms"] for r in records),
        "snapshot.edges_per_step": total("snapshot_edges") / reads if reads else 0.0,
        "process.self_s": sum(trial_ms) / 1e3 - construct - warmup - step,
        "process.rounds": round(sum(r["rounds_mean"] * r["completed"] for r in results)),
        f"process.{spec['metric']}": round(sum(
            r[f"{spec['metric']}_mean"] * r["completed"] for r in results)),
        "trial.wall_ms_p50": timing("trial.wall_ms_p50", trial_ms, 0.5, counts),
        "trial.wall_ms_max": max(trial_ms),
        "trial.merge_s": total("merge_s"),
        "format.render_ms": statistics.median(r["render_ms"] for r in records),
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / sum(walls) - 1.0,
    })
    if layer == "meg":
        m.update({
            "meg.construct_s": construct,
            "meg.construct_share": construct / wall,
            "meg.step_s": step,
            "meg.steps": len(steps_us),
            "meg.step_ms_p50": timing("meg.step_ms_p50", steps_us, 0.5, counts) / 1e3,
            "meg.share": (construct + step) / wall,
        })
    else:
        m.update({
            "mobility.construct_s": construct,
            "mobility.warmup_s": warmup,
            "mobility.warmup_steps": total("warmup_steps"),
            "mobility.step_s": step,
            "mobility.steps": len(steps_us),
            "mobility.step_us_p50": timing("mobility.step_us_p50", steps_us, 0.5, counts),
            "mobility.share": (construct + warmup + step) / wall,
        })
    return m


def record_digests(bins):
    """Regenerates digests.json from megflood_run --format=json."""
    out = {}
    for workload, spec in CAMPAIGNS.items():
        hashes = {}
        for campaign_seed in range(1, spec["pool"] + 1):
            proc = subprocess.run(
                [str(bins["run"])] + spec["args"] + [
                    f"--trials={spec['trials']}", f"--seed={campaign_seed}",
                    "--format=json"], capture_output=True, check=True)
            hashes[str(campaign_seed)] = sha256(proc.stdout)
        out[workload] = {"trials": spec["trials"], "sha256": hashes}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

class Daemon:
    """A fresh megflood_serve in a fresh temporary directory that holds its
    socket and log.  stop() sends SIGTERM and checks exit 0; leaving the
    block any other way kills the daemon.  The directory is always removed."""

    def __init__(self, bins):
        self.bins = bins

    def __enter__(self):
        tmp_root = build_dir() / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=tmp_root))
        self.log = open(self.dir / "daemon.log", "wb")
        self.launched_at = time.monotonic()
        self.proc = subprocess.Popen(
            [str(self.bins["serve"]), "--socket=d.sock"] + SERVE_DAEMON_FLAGS,
            cwd=self.dir, stdout=self.log, stderr=subprocess.STDOUT)
        return self

    def peak_rss_bytes(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=60)
        if code != 0:
            raise BenchError(f"daemon exited {code} after SIGTERM: "
                             f"{(self.dir / 'daemon.log').read_text()[-500:]}")

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        return False

    def client(self, *flags):
        proc = subprocess.run(
            [str(self.bins["serve_load"]), "--socket=d.sock",
             f"--launched_at={self.launched_at:.6f}"] + list(flags),
            cwd=self.dir, capture_output=True, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"serve client exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-500:]}")
        return json.loads(proc.stdout)


def serve_inputs(seed):
    rng = random.Random(f"serve_mixed:{seed}")
    warm = sorted(rng.sample(range(1, 1_000_000), SERVE_WARM))
    # Fresh (miss) seeds start far above every warm seed.
    return warm, 10_000_000 + rng.randrange(1_000_000) * 1000, rng.randrange(2**32)


def serve_pass(bins, seed, seconds, traced, plant_bad):
    """SERVE_SETUPS launches; the last one also runs the load."""
    warm, fresh_base, client_seed = serve_inputs(seed)
    common = [f"--warm={','.join(map(str, warm))}"]
    setups = []
    for i in range(SERVE_SETUPS):
        with Daemon(bins) as daemon:
            if i + 1 < SERVE_SETUPS:
                rec = daemon.client(*common, "--seconds=0")
            else:
                rec = daemon.client(
                    *common, f"--seconds={seconds}", f"--seed={client_seed}",
                    f"--fresh_base={fresh_base}",
                    f"--trace={int(traced)}", f"--bad_submit={int(plant_bad)}")
                rec["peak_rss_bytes"] = daemon.peak_rss_bytes()
            daemon.stop()
        if rec["warm"] != len(warm):
            raise BenchError("warm-set prefill incomplete")
        setups.append(rec["accept_s"] + rec["prefill_s"])
    rec["setups"] = setups
    return rec


def serve_failures(bins, rec):
    """Jobs that errored, were rejected/failed/cancelled, never resolved, or
    returned wrong bytes; plus sampled misses that megflood_run disagrees
    with."""
    bad = sum(1 for o, mm in zip(rec["outcome"], rec["mismatch"])
              if o != 1 or mm)
    for sample in rec["miss_samples"]:
        proc = subprocess.run(
            [str(bins["run"])] + SERVE_JOB_ARGS + [
                f"--seed={sample['seed']}", "--format=json"],
            capture_output=True)
        if proc.returncode != 0 or proc.stdout != (sample["result"] + "\n").encode():
            bad += 1
    return bad


def ok_jobs(rec):
    return [i for i, (o, mm) in enumerate(zip(rec["outcome"], rec["mismatch"]))
            if o == 1 and not mm]


def measured(rec, idx, seconds):
    """Jobs of `idx` that ended before submission stopped (the drain
    after it runs below the offered load)."""
    return [i for i in idx if rec["end_ms"][i] < seconds * 1e3]


def jobs_per_s(rec, seconds):
    return len(measured(rec, ok_jobs(rec), seconds)) / seconds


def serve_workload(bins, seed, seconds, trace, plant_bad=False):
    rec = serve_pass(bins, seed, seconds, trace, plant_bad)
    attempted, failed, success = tally(
        len(rec["outcome"]) + len(rec["miss_samples"]), serve_failures(bins, rec))
    ok = ok_jobs(rec)
    hits = [i for i in ok if rec["hit"][i]]
    misses = [i for i in ok if not rec["hit"][i]]
    span = lambda i, a, b: rec[b][i] - rec[a][i]
    counts = {"jobs": len(rec["outcome"]), "hits": len(hits),
              "misses": len(misses), "setup_s": {"samples": len(rec["setups"])}}
    latency = lambda name, idx, q: timing(
        name, [span(i, "submit_ms", "end_ms")
               for i in measured(rec, idx, seconds)], q, counts)
    if not trace:
        metrics = {
            "trials_per_s": SERVE_TRIALS * jobs_per_s(rec, seconds),
            "jobs_per_s": jobs_per_s(rec, seconds),
            "miss_latency_p50_ms": latency("miss_latency_p50_ms", misses, 0.5),
            "peak_rss_mb": rec["peak_rss_bytes"] / 2**20,
            "setup_s": statistics.median(rec["setups"]),
            "success_ratio": success,
        }
        return attempted, failed, metrics, counts

    # Traced pass above; an untraced pass on its own daemon gives the
    # overhead of stamping every event.
    plain = serve_pass(bins, seed, seconds, False, plant_bad)
    plain_failed = serve_failures(bins, plain)
    attempted += len(plain["outcome"]) + len(plain["miss_samples"])
    failed += plain_failed
    before, after = rec["stats_before"], rec["stats_after"]
    delta = lambda key: after[key] - before[key]
    hit_delta = after["cache"]["hits"] - before["cache"]["hits"]
    m = {name: 0.0 for name in PER_LAYER}
    stage = lambda name, a, b, idx, q: timing(
        name, [span(i, a, b) for i in measured(rec, idx, seconds)
               if rec[a][i] >= 0 and rec[b][i] >= 0], q, counts)
    m.update({
        "serve.hit_latency_p50_ms": latency("serve.hit_latency_p50_ms", hits, 0.5),
        "serve.miss_latency_p99_ms": latency("serve.miss_latency_p99_ms", misses, 0.99),
        "server.admit_ms_p50": stage("server.admit_ms_p50", "submit_ms", "queued_ms", ok, 0.5),
        "server.admit_ms_p99": stage("server.admit_ms_p99", "submit_ms", "queued_ms", ok, 0.99),
        "scheduler.queue_wait_ms_p50": stage("scheduler.queue_wait_ms_p50",
                                             "queued_ms", "running_ms", misses, 0.5),
        "scheduler.queue_wait_ms_p99": stage("scheduler.queue_wait_ms_p99",
                                             "queued_ms", "running_ms", misses, 0.99),
        "worker.execute_ms_p50": stage("worker.execute_ms_p50",
                                       "running_ms", "last_trial_ms", misses, 0.5),
        "worker.execute_ms_p99": stage("worker.execute_ms_p99",
                                       "running_ms", "last_trial_ms", misses, 0.99),
        "cache.finish_ms_p50": stage("cache.finish_ms_p50",
                                     "last_trial_ms", "end_ms", misses, 0.5),
        "cache.hit_ratio": hit_delta / len(ok),
        "cache.entries": after["cache"]["entries"],
        "scheduler.subjobs_run": delta("subjobs_run"),
        "scheduler.trials_done": delta("trials_done"),
        "scheduler.jobs_rejected": delta("jobs_rejected"),
        "worker.restarts": delta("worker_restarts"),
        "protocol.events_per_job": sum(rec["events"]) / len(rec["events"]),
        "protocol.bytes_per_job": sum(rec["bytes"]) / len(rec["bytes"]),
        "trace.wall_s": max(rec["end_ms"]) / 1e3,
        "trace.overhead_ratio": jobs_per_s(plain, seconds) / jobs_per_s(rec, seconds) - 1.0,
    })
    counts["cache.hit_ratio"] = {"base_subjobs": len(ok)}
    if m["scheduler.jobs_rejected"] or m["worker.restarts"]:
        failed += 1
    return attempted, failed, m, counts


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(bins, workload, seed, seconds, trace):
    if workload == "serve_mixed":
        return serve_workload(bins, seed, seconds, trace)
    return campaign_workload(bins, workload, seed, seconds, trace)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and not args.workload:
        parser.error("--workload is required")
    # SIGTERM unwinds like an error, so Daemon.__exit__ still kills the
    # daemon and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bins = build()
        if args.record_digests:
            record_digests(bins)
            return 0
        host = host_record(bins)
        attempted, failed, metrics, counts = run_workload(
            bins, args.workload, args.seed, args.seconds, bool(args.trace))
        units = PER_LAYER if args.trace else END_TO_END
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from the table: {set(metrics) ^ set(units)}")
    except (BenchError, subprocess.CalledProcessError, OSError,
            subprocess.TimeoutExpired, KeyError, ValueError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "samples": counts}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
