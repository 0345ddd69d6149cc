#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the autosec engine.

    python3 perfbench/run.py --workload paper_nmax4 --seed 1 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths resolve against this file).
The first run builds the engine library, the `autosec` CLI and the traced
runner (perfbench/layers.cpp) into $CARGO_TARGET_DIR (default .bench_build)
with perfbench/CMakeLists.txt. Every answer is checked against the committed
reference answers in perfbench/reference/; a wrong answer counts as a failed op.

--trace 0 measures the end-to-end metrics with tracing off: the batch
workloads through the CLI, serve_mix over TCP against `autosec serve`.
--trace 1 is the separate traced run that reports the per-layer metrics.
The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything before it (and stderr) is human-readable detail.

--write-reference regenerates perfbench/reference/ from the current build;
run it only on a commit whose answers are the accepted ones.
See perfbench/README.md for the workloads, metrics and machine notes.
"""

import argparse
import gzip
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
THREADS = 4          # CLI --threads and the traced layer runner's pool size
TOLERANCE = 1e-8     # |a-b| / max(1, |a|, |b|)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "p50_ms": "ms", "p99_ms": "ms"}

# --------------------------------------------------------------------------
# Workload definitions.

MDP_PROPERTY = 'Pmax=? [ F<=10 "violated" ]'

PAPER_JOBS = [
    {"name": f"arch{a}_nmax4", "kind": "analyze", "arch": f"data/arch{a}.arch",
     "message": "m", "nmax": 4, "engine": "auto"}
    for a in (1, 2, 3)
]

EXPLORE_JOBS = [
    {"name": "fleet50_nmax1", "kind": "analyze", "arch": "examples/fleet_50ecu.arch",
     "message": "m1", "nmax": 1, "engine": "compact"},
    {"name": "fleet20_nmax2", "kind": "analyze", "arch": "examples/fleet_20ecu.arch",
     "message": "m1", "nmax": 2, "engine": "compact"},
    {"name": "telematics_mdp_nmax16", "kind": "mdp",
     "arch": "examples/telematics_adversary.arch", "message": "brake_cmd",
     "category": "integrity", "property": MDP_PROPERTY, "nmax": 16},
]

BATCH_WORKLOADS = {"paper_nmax4": PAPER_JOBS, "explore_mix": EXPLORE_JOBS}

# serve_mix's traced run: the engine work behind the mix's misses, layer by
# layer — one analyze per architecture at the mix's largest nmax, plus its
# mdp question.
SERVE_LAYER_JOBS = [
    {"name": f"arch{a}_nmax3", "kind": "analyze", "arch": f"data/arch{a}.arch",
     "message": "m", "nmax": 3, "engine": "auto"}
    for a in (1, 2, 3)
] + [{"name": "telematics_mdp_nmax4", "kind": "mdp",
      "arch": "examples/telematics_adversary.arch", "message": "brake_cmd",
      "category": "integrity", "property": MDP_PROPERTY, "nmax": 4}]

# Probes of the traced run, per workload: the SpMV matrix (the workload's
# largest uniformized chain) and the jobs whose solve is timed at 1 vs 4 threads.
PROBES = {
    "paper_nmax4": {"spmv": {"arch": "data/arch2.arch", "nmax": 4},
                    "speedup": [{"arch": f"data/arch{a}.arch", "nmax": 4} for a in (1, 2, 3)]},
    "explore_mix": {"spmv": {"arch": "examples/fleet_20ecu.arch", "nmax": 2,
                             "engine": "compact"},
                    "speedup": [{"arch": j["arch"], "nmax": j["nmax"], "engine": j["engine"]}
                                for j in EXPLORE_JOBS if j["kind"] == "analyze"]},
    "serve_mix": {"spmv": {"arch": "data/arch2.arch", "nmax": 3},
                  "speedup": [{"arch": f"data/arch{a}.arch", "nmax": 3} for a in (1, 2, 3)]},
}

# serve_mix: 20 request templates. The supervisor shards by the FNV-1a hash
# of the architecture path modulo 2, which puts arch1+arch3 on one worker and
# arch2+telematics on the other; the templates keep each worker at <= 8
# cached sessions (the default --cache-capacity), so the timed window never
# re-explores.
SERVE_CHECK_PAIRS = [(1, 2), (3, 3), (2, 1), (2, 2), (2, 3)]
SERVE_TEMPLATES = (
    [("analyze", a, n) for a in (1, 2, 3) for n in (1, 2, 3)]
    + [("check", a, n) for a, n in SERVE_CHECK_PAIRS]
    + [("sweep", a, n) for a, n in SERVE_CHECK_PAIRS]
    + [("mdp", 0, 4)]
)
HOT_HORIZON = 1.0
HORIZONS = [0.5 + (k + 0.5) / 32 for k in range(48)]
SERVE_REQUESTS = 1000        # timed requests per window (fixed work)
SERVE_HOT_SHARE = 0.4        # disk-cache hits; the rest are fresh horizons
SERVE_CLIENTS = 4
SERVE_WINDOWS = 3            # fresh fleet + warm-up + timed window, per run
SERVE_REPLAY = 300           # timed requests replayed in-process (traced run)
SERVE_COMMAND = ["serve", "--tcp", "127.0.0.1:0", "--workers", "2", "--threads", "2"]
BATCH_SETUPS = 21
MIN_PASSES = 3


def serve_request(template, horizon):
    op, a, nmax = template
    h = f"{horizon:g}"
    if op == "mdp":
        return {"op": "check", "architecture": "examples/telematics_adversary.arch",
                "nmax": nmax, "message": "brake_cmd", "category": "integrity",
                "model_type": "mdp", "horizon_years": horizon,
                "properties": [f'Pmax=? [ F<={int(horizon * 4)} "violated" ]']}
    request = {"op": op, "architecture": f"data/arch{a}.arch", "nmax": nmax,
               "horizon_years": horizon}
    if op == "check":
        request.update(message="m", category="integrity",
                       properties=[f'P=? [ F<={h} "violated" ]',
                                   f'R{{"exposure"}}=? [ C<={h} ]'])
    elif op == "sweep":
        request.update(message="m", category="integrity", constant="phi_pa",
                       values=[2.0, 20.0])
    return request


def batch_serve_request(job):
    """The serve request that asks the same question as a batch CLI job."""
    request = {"op": "analyze" if job["kind"] == "analyze" else "check",
               "architecture": job["arch"], "nmax": job["nmax"]}
    if job.get("engine", "auto") != "auto":
        request["engine"] = job["engine"]
    if job["kind"] == "mdp":
        request.update(message=job["message"], category=job["category"],
                       model_type="mdp", properties=[job["property"]])
    return request


def serve_mix(seed):
    """Timed mix of (template index, horizon) pairs from `seed`. Exactly
    SERVE_HOT_SHARE of the requests repeat a warm-up (hot) request, evenly
    over the templates. Every template gets the same number of fresh
    horizons, drawn without replacement so each is a disk-cache miss. The
    mix is dealt into blocks holding one miss per template each, so the load
    is the same from the first request to the last."""
    rng = random.Random(seed)
    templates = len(SERVE_TEMPLATES)
    hot = round(SERVE_REQUESTS * SERVE_HOT_SHARE) // templates
    blocks = (SERVE_REQUESTS - hot * templates) // templates
    horizons = [rng.sample(HORIZONS, blocks) for _ in range(templates)]
    hot_requests = [(t, HOT_HORIZON) for t in range(templates) for _ in range(hot)]
    rng.shuffle(hot_requests)
    mix = []
    for b in range(blocks):
        block = [(t, horizons[t][b]) for t in range(templates)]
        block += hot_requests[b::blocks]
        rng.shuffle(block)
        mix += block
    return mix


def canonical(request):
    return json.dumps({k: v for k, v in request.items() if k != "id"},
                      sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# Helpers.

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) / max(1.0, abs(a), abs(b)) <= TOLERANCE
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return a == b


def cell_value(cell):
    """A CLI table cell as a number when it is one ("4.67%", "0.526 y")."""
    text = cell.strip()
    for suffix in ("%", " y"):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
    try:
        return float(text)
    except ValueError:
        return cell


def load_reference(name):
    path = REFERENCE / name
    if not path.exists():
        return {}
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as f:
        return json.load(f)


def write_reference(name, data):
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / name
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    if path.suffix == ".gz":
        with gzip.GzipFile(path, "wb", mtime=0) as f:
            f.write(text.encode())
    else:
        path.write_text(text)


class Build:
    """Configures and builds perfbench/CMakeLists.txt once per checkout."""

    def __init__(self):
        base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.base = base if base.is_absolute() else ROOT / base
        self.dir = self.base / "cmake"
        self.cli = self.dir / "tools" / "autosec"
        self.layers = self.dir / "perfbench_layers"

    def ensure(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        logfile = self.base / "build.log"
        steps = []
        if not (self.dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(self.dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(self.dir), "-j", str(THREADS),
                      "--target", "autosec_cli", "perfbench_layers"])
        with open(logfile, "w") as out:
            for step in steps:
                if subprocess.run(step, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode:
                    (self.dir / "CMakeCache.txt").unlink(missing_ok=True)
                    tail = logfile.read_text(errors="replace").splitlines()[-20:]
                    raise SystemExit("perfbench: build failed:\n" + "\n".join(tail))


class Outcome:
    """Attempted/failed op counts; a failure is logged with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED:", what)


def run_process(command):
    """(wall s, user+sys CPU s, peak RSS MB, exit code, stdout) of one process."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, stdout)


# --------------------------------------------------------------------------
# Batch workloads through the CLI.

def cli_command(build, job, work):
    if job["kind"] == "analyze":
        command = [str(build.cli), "analyze", job["arch"], "--category", "all",
                   "--nmax", str(job["nmax"])]
    else:
        command = [str(build.cli), "check", job["arch"], "--message", job["message"],
                   "--category", job["category"], "--model-type", "mdp",
                   "--property", job["property"], "--nmax", str(job["nmax"]),
                   "--strategy-json", str(work / "strategy.json")]
    if job.get("engine", "auto") != "auto":
        command += ["--engine", job["engine"]]
    return command + ["--threads", str(THREADS)]


def setup_command(build, job, work):
    """Start-up without exploring: spawn, parse, transform, write the model."""
    command = [str(build.cli), "export-prism", job["arch"], "--message", job["message"],
               "--nmax", str(job["nmax"]), "-o", str(work / "model.pm")]
    if job["kind"] == "mdp":
        command += ["--category", job["category"], "--model-type", "mdp"]
    if job.get("engine", "auto") != "auto":
        command += ["--engine", job["engine"]]
    return command


def cli_rows(stdout):
    """Result rows of an analyze table, or the value lines of an mdp check."""
    lines = stdout.splitlines()
    if any(line.startswith("value:") for line in lines):
        return [re.split(r":\s+", line.strip(), maxsplit=1) for line in lines
                if line.startswith(("value:", "induced:"))] + \
               [[line.strip()] for line in lines if line.startswith("strategy roundtrip")]
    rows, in_table = [], False
    for line in lines:
        if line.startswith("---"):
            in_table = True
        elif in_table and not line.strip():
            break
        elif in_table:
            rows.append(re.split(r"\s{2,}", line.strip()))
    return rows


def rows_match(rows, expected):
    return expected is not None and len(rows) == len(expected) and all(
        len(r) == len(e) and all(close(cell_value(a), cell_value(b)) for a, b in zip(r, e))
        for r, e in zip(rows, expected))


def check_cli(job, code, stdout, reference, outcome):
    rows = cli_rows(stdout)
    ok = code == 0 and rows_match(rows, reference.get(job["name"]))
    if job["kind"] == "mdp":
        ok = ok and ["strategy roundtrip ok"] in rows
    outcome.record(ok, f"{job['name']}: exit {code}, rows {rows}")


def measure_setup(build, jobs, work, reps):
    times = []
    for _ in range(reps):
        total = 0.0
        for job in jobs:
            wall, _, _, code, _ = run_process(setup_command(build, job, work))
            if code != 0:
                raise SystemExit(f"perfbench: set-up of {job['name']} failed")
            total += wall
        times.append(total)
    return median(times)


def cli_pass(build, jobs, work, rng, reference, outcome):
    """One pass over the jobs in a seeded order: per-op walls, CPU, peak RSS."""
    order = list(jobs)
    rng.shuffle(order)
    start = time.perf_counter()
    walls, cpu, rss = {}, 0.0, 0.0
    for job in order:
        wall, job_cpu, job_rss, code, stdout = run_process(cli_command(build, job, work))
        check_cli(job, code, stdout, reference, outcome)
        walls[job["name"]] = wall
        cpu += job_cpu
        rss = max(rss, job_rss)
    return time.perf_counter() - start, walls, cpu, rss


def batch_e2e(build, workload, args, work):
    jobs = BATCH_WORKLOADS[workload]
    reference = load_reference("cli.json").get(workload, {})
    outcome = Outcome()
    setup = measure_setup(build, jobs, work, BATCH_SETUPS)
    rng = random.Random(args.seed)
    passes, ops = [], {job["name"]: [] for job in jobs}
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        wall, walls, cpu, rss = cli_pass(build, jobs, work, rng, reference, outcome)
        passes.append((wall, cpu, rss))
        for name, seconds in walls.items():
            ops[name].append(seconds * 1e3)
    print(f"{workload}: {len(passes)} passes, set-up {setup * 1e3:.2f} ms;"
          f" pass wall s: {[round(p[0], 3) for p in passes]}")
    for name, values in ops.items():
        print(f"  {name:24} median {median(values):9.2f} ms  max {max(values):9.2f} ms")
    # p99 per pass (with a handful of ops, the pass's slowest op), then the
    # median over passes: one slow pass does not set the run's tail.
    tails = [percentile([values[i] for values in ops.values()], 0.99)
             for i in range(len(passes))]
    ops = [ms for values in ops.values() for ms in values]
    print(f"failed_frac = {outcome.failed / outcome.attempted:.4g}")
    metrics = {
        "wall_s": median([p[0] for p in passes]),
        "cpu_s": median([p[1] for p in passes]),
        "peak_rss_mb": median([p[2] for p in passes]),
        "setup_s": setup,
        "p50_ms": percentile(ops, 0.5),
        "p99_ms": median(tails),
    }
    return outcome, metrics


# --------------------------------------------------------------------------
# serve_mix over TCP.

def proc_children(pid):
    """Child pids of `pid` (the serve workers), from /proc."""
    try:
        return [int(p) for p in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except OSError:
        pass
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == pid:
                children.append(int(stat.parent.name))
        except (OSError, ValueError, IndexError):
            continue
    return children


def proc_cpu_seconds(pids):
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])   # utime, stime
    return total / ticks


def proc_peak_rss_mb(pids):
    total = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024.0


class ServeFleet:
    """`autosec serve --tcp 127.0.0.1:0 --workers 2 ...` with a fresh disk cache."""

    def __init__(self, build, work, tag):
        self.cache_dir = work / f"disk-cache-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.proc = subprocess.Popen(
            [str(build.cli)] + SERVE_COMMAND + ["--disk-cache", str(self.cache_dir)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.port = None
        self.stderr = []
        self.ready = threading.Event()
        self.reader = threading.Thread(target=self._read_stderr)
        self.reader.start()
        if not self.ready.wait(60) or self.port is None:
            self.stop()
            raise SystemExit("perfbench: server did not report its port: "
                             + "".join(self.stderr[-5:]))

    def _read_stderr(self):
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self.ready.set()
        self.ready.set()

    def pids(self):
        return [self.proc.pid] + proc_children(self.proc.pid)

    def status(self):
        with socket.create_connection(("127.0.0.1", self.port)) as sock:
            sock.sendall(b'{"id": "status", "op": "status"}\n')
            return json.loads(sock.makefile("rb").readline())

    def stop(self):
        workers = proc_children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join()
        self.proc.stderr.close()
        deadline = time.monotonic() + 10
        for pid in workers:   # drained workers exit with the supervisor
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            if Path(f"/proc/{pid}").exists():
                os.kill(pid, signal.SIGKILL)


def shard_of(request, workers=2):
    """The worker the supervisor routes `request` to: FNV-1a 64 of the
    architecture path modulo the worker count (src/service/shard.cpp)."""
    digest = 0xcbf29ce484222325
    for byte in request["architecture"].encode():
        digest = ((digest ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return digest % workers


def drive(port, requests):
    """Closed loop: SERVE_CLIENTS connections, each sending its next request only
    after the previous reply. Half the clients carry the requests of each
    worker, so a request queues behind at most one other. Returns (wall s,
    records in request order)."""
    records = [None] * len(requests)
    queues = [iter([i for i, r in enumerate(requests) if shard_of(r) == w]) for w in (0, 1)]
    lock = threading.Lock()
    errors = []

    def client(n):
        cursor = queues[n % 2]
        try:
            with socket.create_connection(("127.0.0.1", port)) as sock:
                reader = sock.makefile("rb")
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    line = json.dumps(dict(requests[index], id=f"c{n}-{index}")) + "\n"
                    start = time.perf_counter()
                    sock.sendall(line.encode())
                    reply = reader.readline()
                    latency = time.perf_counter() - start
                    records[index] = (latency * 1e3, json.loads(reply) if reply else None)
        except OSError as error:
            errors.append(error)

    threads = [threading.Thread(target=client, args=(n,)) for n in range(SERVE_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        log("client error:", errors[0])
    return time.perf_counter() - start, records


def check_envelope(request, envelope, reference, outcome):
    ok = (envelope is not None and envelope.get("ok") is True
          and close(envelope.get("result"), reference.get(canonical(request))))
    outcome.record(ok, f"{canonical(request)} -> {str(envelope)[:300]}")


def warm_requests():
    return [serve_request(t, HOT_HORIZON) for t in SERVE_TEMPLATES]


def start_warm_fleet(build, work, tag, reference, outcome):
    """Spawn → status answers → warm-up round; returns (fleet, seconds)."""
    start = time.perf_counter()
    fleet = ServeFleet(build, work, tag)
    try:
        fleet.status()
        warm = warm_requests()
        _, records = drive(fleet.port, warm)
    except BaseException:
        fleet.stop()
        raise
    for request, record in zip(warm, records):
        check_envelope(request, record and record[1], reference, outcome)
    return fleet, time.perf_counter() - start


def timed_requests(seed, window=0):
    return [serve_request(SERVE_TEMPLATES[t], h) for t, h in serve_mix(seed * 1000 + window)]


def serve_breakdown(requests, records):
    """Latency by (op, nmax, disk-cache outcome), printed for the report."""
    groups = {}
    for request, (ms, envelope) in zip(requests, records):
        op = "mdp" if request.get("model_type") == "mdp" else request["op"]
        cache = (envelope or {}).get("metrics", {}).get("disk_cache", "error")
        groups.setdefault((op, request["nmax"], cache), []).append(ms)
    latencies = [ms for ms, _ in records]
    print("  latency ms at p10..p90: "
          + " ".join(f"{percentile(latencies, q / 10):.1f}" for q in range(1, 10)))
    print("  op       nmax  disk   count   p50_ms   p99_ms   max_ms")
    for (op, nmax, cache), values in sorted(groups.items()):
        print(f"  {op:8} {nmax:4}  {cache:5} {len(values):6} {percentile(values, 0.5):8.2f}"
              f" {percentile(values, 0.99):8.2f} {max(values):8.2f}")


def serve_window(fleet, requests, reference, outcome):
    pids = fleet.pids()
    cpu_before = proc_cpu_seconds(pids)
    wall, records = drive(fleet.port, requests)
    cpu = proc_cpu_seconds(pids) - cpu_before
    rss = proc_peak_rss_mb(pids)
    for request, record in zip(requests, records):
        check_envelope(request, record and record[1], reference, outcome)
    return wall, cpu, rss, [r if r else (0.0, None) for r in records]


def serve_e2e(build, args, work):
    """SERVE_WINDOWS times: a fresh fleet (set-up), then a timed window of
    SERVE_REQUESTS requests. Latency percentiles pool every window."""
    reference = load_reference("serve.json.gz")
    outcome = Outcome()
    setups, windows, requests, records = [], [], [], []
    for window in range(SERVE_WINDOWS):
        fleet, seconds = start_warm_fleet(build, work, window, reference, outcome)
        setups.append(seconds)
        try:
            mix = timed_requests(args.seed, window)
            wall, cpu, rss, window_records = serve_window(fleet, mix, reference, outcome)
        finally:
            fleet.stop()
        windows.append((wall, cpu, rss))
        requests += mix
        records += window_records
    latencies = [ms for ms, _ in records]
    print(f"serve_mix: {SERVE_WINDOWS} windows of {SERVE_REQUESTS} requests,"
          f" {SERVE_CLIENTS} closed-loop clients; window wall s:"
          f" {[round(w[0], 3) for w in windows]}; set-ups s: {[round(s, 3) for s in setups]}")
    serve_breakdown(requests, records)
    print(f"failed_frac = {outcome.failed / outcome.attempted:.4g}")
    metrics = {
        "wall_s": median([w[0] for w in windows]),
        "cpu_s": median([w[1] for w in windows]),
        "peak_rss_mb": median([w[2] for w in windows]),
        "setup_s": median(setups),
        "p50_ms": percentile(latencies, 0.5), "p99_ms": percentile(latencies, 0.99),
    }
    return outcome, metrics


# --------------------------------------------------------------------------
# The traced run: per-layer metrics from perfbench_layers.

LAYER_TIMES = ["automotive.parse_s", "automotive.transform_s", "symbolic.explore_s",
               "ctmc.chain_s", "ctmc.uniformize_s", "ctmc.steady_s", "csl.solve_s",
               "mdp.vi_s", "csl.strategy_doc_s", "csl.strategy_roundtrip_s"]

PER_LAYER_UNITS = dict(
    [(name, "s") for name in LAYER_TIMES] + [
        ("stage_total_s", "s"), ("trace_overhead_frac", "ratio"),
        ("symbolic.states_per_s", "1/s"), ("symbolic.bytes_per_state", "B"),
        ("symbolic.states", "count"), ("symbolic.transitions", "count"),
        ("csl.properties", "count"), ("csl.solve_speedup_4t", "ratio"),
        ("linalg.matvecs", "count"), ("linalg.solver_iterations", "count"),
        ("linalg.spmv_nnz", "count"), ("linalg.spmv_nnz_per_s", "1/s"),
        ("linalg.spmv_gbytes_per_s_computed", "GB/s"),
        ("linalg.spmv_blocked_nnz_per_s", "1/s"),
        ("linalg.spmv_blocked_gbytes_per_s_computed", "GB/s"),
        ("linalg.llc_mb", "MB"),
        ("service.handle_ms_p50", "ms"), ("service.engine_ms_p50", "ms"),
        ("service.wait_ms_p99", "ms"), ("service.session_hit_ratio", "ratio"),
        ("service.disk_hit_ratio", "ratio"), ("service.disk_stores", "count"),
        ("service.explores", "count"), ("service.shed", "count"),
    ])

WORK_COUNTS = ["symbolic.states", "symbolic.transitions", "csl.properties",
               "linalg.matvecs", "linalg.solver_iterations"]


def layer_job(job, work):
    spec = {k: job[k] for k in ("kind", "arch", "nmax") if k in job}
    spec["engine"] = job.get("engine", "auto")
    if job["kind"] == "mdp":
        spec.update(message=job["message"], category=job["category"],
                    property=job["property"], strategy_json=str(work / "strategy.json"))
    return spec


def run_layers(build, spec, work):
    path = work / "spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run([str(build.layers), str(path)], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: traced layer runner failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def traced_pass(build, jobs, work, reference, outcome):
    """One in-process pass over `jobs`: summed stage seconds and work counts."""
    result = run_layers(build, {"threads": THREADS,
                                "jobs": [layer_job(j, work) for j in jobs]}, work)
    stages = dict.fromkeys(LAYER_TIMES, 0.0)
    counts = {"symbolic.states": 0, "symbolic.transitions": 0, "csl.properties": 0,
              "state_bytes": 0}
    for job, out in zip(jobs, result["jobs"]):
        outcome.record(close(out["values"], reference.get(job["name"])),
                       f"traced {job['name']}: {out['values']}")
        for name, seconds in out["stages"].items():
            stages[name] += seconds
        counts["symbolic.states"] += out["states"]
        counts["symbolic.transitions"] += out["transitions"]
        counts["csl.properties"] += out["properties"]
        counts["state_bytes"] += out["states"] * out["bytes_per_state"]
    counts["linalg.matvecs"] = result["matvecs"]
    counts["linalg.solver_iterations"] = result["solver_iterations"]
    return stages, counts


def replay(build, work, requests, warm, reference, outcome, metrics_on=True, tag="r"):
    """In-process Server::handle_line over `requests` (the first `warm` are
    the warm-up); returns (per-request handle ms, envelopes) for the rest."""
    lines = work / f"replay-{tag}.ndjson"
    responses = work / f"responses-{tag}.ndjson"
    lines.write_text("".join(json.dumps(dict(r, id=str(i))) + "\n"
                             for i, r in enumerate(requests)))
    cache = work / f"replay-cache-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    result = run_layers(build, {
        "threads": 2, "metrics": metrics_on,
        "serve": {"requests": str(lines), "warm": warm, "disk_cache": str(cache),
                  "threads": 2, "cache_capacity": 16, "responses": str(responses)}}, work)
    envelopes = [json.loads(line) for line in responses.read_text().splitlines()]
    for request, envelope in zip(requests, envelopes):
        check_envelope(request, envelope, reference, outcome)
    return result["serve"]["handle_ms"], envelopes[warm:]


def service_metrics(latencies_ms, envelopes):
    metrics = [e.get("metrics", {}) for e in envelopes]
    engine_ms = [m.get("wall_seconds", 0.0) * 1e3 for m in metrics]
    n = max(1, len(metrics))
    return {
        "service.engine_ms_p50": percentile(engine_ms, 0.5),
        "service.wait_ms_p99": percentile([l - e for l, e in zip(latencies_ms, engine_ms)], 0.99),
        "service.session_hit_ratio": sum(m.get("session_cache") == "hit" for m in metrics) / n,
        "service.disk_hit_ratio": sum(m.get("disk_cache") == "hit" for m in metrics) / n,
        "service.disk_stores": sum(m.get("disk_cache") == "miss" for m in metrics),
        "service.explores": sum(m.get("explores", 0) for m in metrics),
        "service.shed": sum((e.get("error") or {}).get("code") == "overloaded" for e in envelopes),
    }


def probe_metrics(build, workload, work):
    probes = PROBES[workload]
    spmv_spec = dict(probes["spmv"], seconds=0.5)
    result = run_layers(build, {"threads": THREADS, "spmv": spmv_spec,
                                "speedup": {"threads": THREADS, "jobs": probes["speedup"]}},
                        work)
    spmv, speedup = result["spmv"], result["speedup"]
    blocked = spmv.get("blocked", {})
    print(f"  spmv on {spmv_spec['arch']} nmax {spmv_spec['nmax']}: {spmv['rows']} rows,"
          f" {spmv['nnz']} nnz, {spmv['csr']['bytes_per_product'] / 2**20:.1f} MiB/product"
          f" (CSR, computed) vs LLC {spmv['llc_bytes'] / 2**20:.0f} MiB")
    print(f"  solve at 1 thread {speedup['solve_s_1t']:.3f} s, at {THREADS} threads"
          f" {speedup['solve_s_nt']:.3f} s (same SolverPlan)")
    return {
        "linalg.spmv_nnz": spmv["nnz"],
        "linalg.spmv_nnz_per_s": spmv["csr"]["nnz_per_s"],
        "linalg.spmv_gbytes_per_s_computed": spmv["csr"]["gbytes_per_s_computed"],
        "linalg.spmv_blocked_nnz_per_s": blocked.get("nnz_per_s", 0.0),
        "linalg.spmv_blocked_gbytes_per_s_computed": blocked.get("gbytes_per_s_computed", 0.0),
        "linalg.llc_mb": spmv["llc_bytes"] / 2**20,
        "csl.solve_speedup_4t": speedup["speedup"],
    }


def layer_summary(passes):
    """Median stage seconds over traced passes plus the derived rates; the
    work counts must repeat exactly between passes."""
    stages = {name: median([p[0][name] for p in passes]) for name in LAYER_TIMES}
    counts = passes[0][1]
    repeat = all(p[1] == counts for p in passes)
    out = dict(stages)
    out["stage_total_s"] = median([sum(p[0].values()) for p in passes])
    for name in WORK_COUNTS:
        out[name] = counts[name]
    explore = stages["symbolic.explore_s"]
    out["symbolic.states_per_s"] = counts["symbolic.states"] / explore if explore else 0.0
    out["symbolic.bytes_per_state"] = (counts["state_bytes"] / counts["symbolic.states"]
                                       if counts["symbolic.states"] else 0.0)
    return out, repeat


def traced_passes(build, jobs, work, seconds, reference, outcome):
    rng = random.Random(0)
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        order = list(jobs)
        rng.shuffle(order)
        passes.append(traced_pass(build, order, work, reference, outcome))
    summary, repeat = layer_summary(passes)
    outcome.record(repeat, "work counts differ between traced passes")
    return summary


def batch_trace(build, workload, args, work):
    jobs = BATCH_WORKLOADS[workload]
    outcome = Outcome()
    layers_ref = load_reference("layers.json")
    cli_ref = load_reference("cli.json").get(workload, {})
    metrics = traced_passes(build, jobs, work, args.seconds / 2, layers_ref, outcome)
    # The untraced CLI pass the stage total is compared with.
    rng = random.Random(args.seed)
    walls = [cli_pass(build, jobs, work, rng, cli_ref, outcome)[0] for _ in range(MIN_PASSES)]
    untraced = median(walls)
    metrics["trace_overhead_frac"] = metrics["stage_total_s"] / untraced - 1.0
    # The same questions through the service layer, in process.
    serve_ref = load_reference("serve.json.gz")
    requests = [batch_serve_request(j) for j in jobs]
    handle_ms, envelopes = replay(build, work, requests, 0, serve_ref, outcome)
    metrics["service.handle_ms_p50"] = percentile(handle_ms, 0.5)
    metrics.update(service_metrics(handle_ms, envelopes))
    print(f"{workload} traced: stage total {metrics['stage_total_s']:.3f} s vs untraced"
          f" CLI pass {untraced:.3f} s")
    metrics.update(probe_metrics(build, workload, work))
    return outcome, metrics


def serve_trace(build, args, work):
    outcome = Outcome()
    reference = load_reference("serve.json.gz")
    requests = timed_requests(args.seed)
    fleet, _ = start_warm_fleet(build, work, "trace", reference, outcome)
    try:
        _, _, _, records = serve_window(fleet, requests, reference, outcome)
        shed = 0
        for _ in range(2):   # status round-robins over the two workers
            shed += fleet.status()["result"]["admission"]["shed"]
    finally:
        fleet.stop()
    latencies = [ms for ms, _ in records]
    envelopes = [e or {} for _, e in records]
    metrics = service_metrics(latencies, envelopes)
    metrics["service.shed"] += shed
    # In-process replay of the warm-up plus the first SERVE_REPLAY timed
    # requests, traced and untraced (the tracing overhead of the service path).
    subset = warm_requests() + requests[:SERVE_REPLAY]
    warm = len(SERVE_TEMPLATES)
    traced_ms, _ = replay(build, work, subset, warm, reference, outcome, True, "on")
    plain_ms, _ = replay(build, work, subset, warm, reference, outcome, False, "off")
    metrics["service.handle_ms_p50"] = percentile(traced_ms, 0.5)
    metrics["trace_overhead_frac"] = sum(traced_ms) / sum(plain_ms) - 1.0
    layers = traced_passes(build, SERVE_LAYER_JOBS, work, 0, load_reference("layers.json"),
                           outcome)
    metrics.update(layers)
    metrics.update(probe_metrics(build, "serve_mix", work))
    print(f"serve_mix traced: disk hit ratio {metrics['service.disk_hit_ratio']:.3f},"
          f" explores in window {metrics['service.explores']}")
    return outcome, metrics


# --------------------------------------------------------------------------
# Reference answers.

def make_reference(build, work):
    cli = {}
    for workload, jobs in BATCH_WORKLOADS.items():
        cli[workload] = {}
        for job in jobs:
            _, _, _, code, stdout = run_process(cli_command(build, job, work))
            if code != 0:
                raise SystemExit(f"perfbench: {job['name']} exited {code}")
            cli[workload][job["name"]] = cli_rows(stdout)
    write_reference("cli.json", cli)

    layer_jobs = PAPER_JOBS + EXPLORE_JOBS + SERVE_LAYER_JOBS
    result = run_layers(build, {"threads": THREADS,
                                "jobs": [layer_job(j, work) for j in layer_jobs]}, work)
    write_reference("layers.json", {j["name"]: out["values"]
                                    for j, out in zip(layer_jobs, result["jobs"])})

    requests = warm_requests() + [serve_request(t, h) for t in SERVE_TEMPLATES
                                  for h in HORIZONS]
    requests += [batch_serve_request(j) for jobs in BATCH_WORKLOADS.values() for j in jobs]
    fleet = ServeFleet(build, work, "reference")
    try:
        _, records = drive(fleet.port, requests)
    finally:
        fleet.stop()
    serve = {}
    for request, record in zip(requests, records):
        envelope = record and record[1]
        if not envelope or not envelope.get("ok"):
            raise SystemExit(f"perfbench: reference request failed: {envelope}")
        serve[canonical(request)] = envelope["result"]
    write_reference("serve.json.gz", serve)
    print(f"wrote {len(cli)} CLI workloads, {len(layer_jobs)} traced jobs,"
          f" {len(serve)} serve answers")


# --------------------------------------------------------------------------

WORKLOADS = ["paper_nmax4", "explore_mix", "serve_mix"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.write_reference and not args.workload:
        parser.error("--workload is required")

    build = Build()
    log("perfbench: building the engine (log in", build.base / "build.log", ")")
    build.ensure()
    work = build.base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            make_reference(build, work)
            return
        if args.workload == "serve_mix":
            runner = serve_trace if args.trace else serve_e2e
            outcome, metrics = runner(build, args, work)
        else:
            runner = batch_trace if args.trace else batch_e2e
            outcome, metrics = runner(build, args.workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    for name, value in sorted(metrics.items()):
        print(f"  {name:42} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
