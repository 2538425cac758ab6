"""chemowave benchmark: drives the public CLI over named workloads.

    python3 perfbench/run.py --workload wave|verify|lab --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The package is used straight from
`src/`; nothing is installed.  A run starts one fresh interpreter
(`worker.py`) that imports `chemowave.cli` and calls `main(argv)` for
each of the workload's tasks in rounds that fill S seconds (see
worker.py; never past the 180 s a run may take).  A task that runs
several times is reported as the median of its samples, and wall_s,
the time of one round, sums the tasks' medians.  Set-up time is also
sampled by import-only probes.

Every task's outputs are checked (see checks.py) and every CSV it
writes is hashed; a digest that differs between runs of the task in one
run, or from an earlier run of the same source, workload and seed
(traced or not), is a failed operation.

--trace 0 reports the end-to-end metrics.  --trace 1 traces every other
round and reports the per-layer metrics of the traced rounds, plus the
tracing overhead (traced minus untraced wall_s).  Calls made inside the
pool workers of `sweep --jobs N` (N > 1) would not be captured by the
tracer; the `lab` workload runs its sweep with --jobs 1, so none are
lost.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it name each per-subcommand time and record the
machine, versions and load.  The full record of a run is written to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

RUN_LIMIT_S = 170.0       # a run must end within 180 s
WORKER_SLACK_S = 20.0     # worker start-up and checks beyond task caps
SETUP_PROBES = 2
IMPORT_METRICS = {
    "setup.import_elliptic_s": "chemowave.elliptic",
    "setup.import_cauchy_s": "chemowave.cauchy",
    "setup.import_barriers_s": "chemowave.barriers",
    "setup.import_cli_s": "chemowave.cli",
}
POOL_NOTE = ("calls inside the pool workers of `sweep --jobs N` (N > 1) are "
             "not captured by the tracer; the lab workload's sweep runs "
             "with --jobs 1, so every call is traced")


def log(msg: str) -> None:
    print(msg, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHEMOWAVE_OUT", None)          # would override --out-dir
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def spawn(extra_args: list[str], timeout: float, spec: dict | None = None,
          python_flags: tuple = (), stdout=subprocess.DEVNULL,
          stderr=subprocess.DEVNULL) -> tuple[int | None, str, str]:
    """Run worker.py in a fresh interpreter; kill its process group on timeout."""
    t0 = time.monotonic()
    cmd = [sys.executable, *python_flags, WORKER, repr(t0), *extra_args]
    if spec is not None:
        cmd.append(json.dumps(spec))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout,
                            stderr=stderr, start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        rc = None
        out = err = ""
    finally:
        try:                              # pool workers share the group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return rc, out or "", err or ""


def setup_probe(importtime: bool) -> dict:
    flags = ("-X", "importtime") if importtime else ()
    rc, out, err = spawn([], 120.0, python_flags=flags,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}):\n{err[-2000:]}")
    probe = json.loads(out.strip().splitlines()[-1])
    if importtime:
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) * 1e-6
        probe["imports"] = {m: cumulative[mod]
                            for m, mod in IMPORT_METRICS.items()}
    return probe


def source_fingerprint() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(fingerprint: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mods = sys.modules
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": getattr(mods.get("numpy"), "__version__", None),
            "scipy": getattr(mods.get("scipy"), "__version__", None),
            "git_commit": git_commit(), "source_sha256": fingerprint,
            "loadavg_1m_start": os.getloadavg()[0]}


class DigestStore:
    """CSV digests by (source, workload, seed, task), kept across runs."""

    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.prefix = fingerprint
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def check(self, workload: str, seed: int, task: str,
              digests: dict) -> list[str]:
        key = f"{self.prefix}/{workload}/{seed}/{task}"
        known = self.data.setdefault(key, digests)
        return [] if known == digests else [
            "CSV digests differ from an earlier run of this source and seed"]

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def log_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, "logs", f"{workload}-seed{seed}-trace{trace}.log")


def run_worker(wl, seed: int, trace: bool, seconds: float, tol: dict,
               timeout: float) -> dict:
    """Run the workload's rounds in one fresh worker; read back its record."""
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.jsonl")
    spec = {"workload": wl.name, "seed": seed, "trace": trace,
            "seconds": seconds, "limit_s": timeout - WORKER_SLACK_S,
            "tolerances": tol, "out": work, "result": result_path}
    with open(log_path(wl.name, seed, int(trace)), "w") as logf:
        rc, _, _ = spawn([], timeout, spec=spec, stdout=logf, stderr=logf)
    lines = []
    try:
        with open(result_path) as fh:
            for line in fh:
                try:
                    lines.append(json.loads(line))
                except ValueError:        # a line cut off by a kill
                    break
    except OSError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    run = {"setup_s": [], "tasks": [], "rounds": [], "peak_rss_mb": None}
    for rec in lines:
        if "name" in rec:
            run["tasks"].append(rec)
        elif "layers" in rec:
            run["rounds"].append(rec)
        elif "setup_s" in rec:
            run["setup_s"].append(rec["setup_s"])
        else:
            run["peak_rss_mb"] = rec["peak_rss_mb"]
    problems = [f"tracer left a wrapper behind after round {r['round']}"
                for r in run["rounds"] if not r["restored"]]
    if rc != 0 or run["peak_rss_mb"] is None:
        problems.append(f"worker exit {rc}")
    if problems:                       # one more failed operation
        run["tasks"].append({"name": "worker", "round": None, "rc": rc,
                             "seconds": None, "traced": False, "metric": None,
                             "slot": None, "digests": {},
                             "problems": problems})
    return run


def check_digests(run: dict, wl, seed: int, store: DigestStore) -> None:
    """Every passing task's CSVs must match its first run in this run and
    in earlier runs of the same source, workload and seed."""
    first: dict = {}
    for t in run["tasks"]:
        if t["problems"]:
            continue
        expected = first.setdefault(t["name"], t["digests"])
        if expected != t["digests"]:
            t["problems"].append("CSV digests differ between runs of the "
                                 "task in this run")
        t["problems"] += store.check(wl.name, seed, t["name"], t["digests"])


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_run = time.monotonic()
    for need in ("src/chemowave/cli.py", "tests/test_acceptance.py",
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from the root "
                  "of a chemowave checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    for sub in ("logs", "results", "tmp"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    tol = checks.load_tolerances(ROOT)
    fingerprint = source_fingerprint()
    env = environment(fingerprint)
    store = DigestStore(os.path.join(OUT, "digests.json"), fingerprint)
    wl = workloads.build(args.workload, args.seed)

    # load_tolerances imported chemowave above, so its bytecode is
    # compiled before the first probe and no probe pays for that
    probes = [setup_probe(bool(args.trace)) for _ in range(SETUP_PROBES)]

    room = RUN_LIMIT_S - (time.monotonic() - t_run)
    run = run_worker(wl, args.seed, bool(args.trace), args.seconds, tol,
                     room)
    check_digests(run, wl, args.seed, store)
    store.save()

    tasks = run["tasks"]
    failed = sum(1 for t in tasks if t["problems"])
    for t in tasks:
        if t["problems"]:
            log(f"FAILED round {t['round']} task {t['name']}: "
                + "; ".join(t["problems"]) + " (worker log: "
                + log_path(wl.name, args.seed, args.trace) + ")")

    timed = [t for t in tasks if t["seconds"] is not None]
    plain = [t for t in timed if not t["traced"]]

    def task_times(samples, key, value):
        return [t["seconds"] for t in samples if t[key] == value]

    def wall(samples):
        """One round's time: the median time of each of its tasks, summed,
        so that every sample of every task counts."""
        medians = [median(task_times(samples, "name", t.name))
                   for t in wl.tasks]
        return None if None in medians else sum(medians)

    units = {m["name"]: m["unit"] for m in wanted}
    metrics: dict[str, float | None] = {}
    if args.trace:
        # per-layer figures only from traced rounds that ran every task
        layers = [r["layers"] for r in run["rounds"] if r["complete"]]
        for name in units:
            if name in IMPORT_METRICS:
                metrics[name] = median([p["imports"][name] for p in probes])
            elif name == "trace.overhead_s":
                t_on = wall([t for t in timed if t["traced"]])
                t_off = wall(plain)
                metrics[name] = (t_on - t_off if None not in (t_on, t_off)
                                 else None)
            else:
                metrics[name] = median([lay[name] for lay in layers
                                        if name in lay])
        log("note: " + POOL_NOTE)
    else:
        metrics = {
            "setup_s": median([p["setup_s"] for p in probes]
                              + run["setup_s"]),
            "wall_s": wall(plain),
            "peak_rss_mb": run["peak_rss_mb"],
            "task1_s": median(task_times(plain, "slot", "task1_s")),
            "task2_s": median(task_times(plain, "slot", "task2_s")),
        }
    for task_metric in dict.fromkeys(t.metric for t in wl.tasks):
        samples = task_times(plain, "metric", task_metric)
        if samples:
            log(f"{wl.name} {task_metric}: median {median(samples):.4f} s "
                f"over {len(samples)} untraced sample(s)")
    rounds = len({t["round"] for t in tasks if t["round"] is not None})
    log(f"{wl.name}: {rounds} round(s), {len(tasks)} task(s) attempted, "
        f"{failed} failed; setup_s over "
        f"{len(probes) + len(run['setup_s'])} sample(s)")
    env["loadavg_1m_end"] = os.getloadavg()[0]
    log("environment: " + json.dumps(env, sort_keys=True))

    missing = sorted(set(units) - {k for k, v in metrics.items()
                                   if v is not None})
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "probes": probes, "run": run, "metrics": metrics}
    with open(os.path.join(OUT, "results", f"{wl.name}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
