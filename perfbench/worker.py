"""One run of a workload's tasks in a fresh interpreter.

    python3 perfbench/worker.py T0                # set-up probe only
    python3 perfbench/worker.py T0 SPEC_JSON      # run a workload

T0 is the caller's `time.monotonic()` just before it started this
process; the time from T0 until `chemowave.cli` is imported is the
set-up time.  SPEC_JSON holds the workload name, seed, whether to
trace, the measuring time, the hard time limit, the acceptance
tolerances, the output directory and the path of the result file.

The workload's tasks run in rounds, in order.  The first round (the
first two with tracing, which traces every other round) runs whole;
after that a task starts only if a run as long as its longest so far
still ends within the measuring time, so the time left at the end
fills with more samples of the shorter tasks.  Each task calls `chemowave.cli.main(argv)` under a
wall-time cap (SIGALRM); a task that hits its cap raises out of the
solver and counts as failed, so a solve that never converges cannot
stall the benchmark.  After each task, outside its timing, its outputs
are checked and hashed and then deleted, except the first FixedPoint
profile, which every CoupledRelax profile is compared with.

The result file gets one JSON line per task and per traced round as
they finish, so a worker stopped at the run's time limit still leaves
a record of what it did.
"""

import sys
import time

import chemowave.cli

SETUP_S = time.monotonic() - float(sys.argv[1])

import json  # noqa: E402  (imports after the timed one)
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


class TaskTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` eats it."""


def _on_alarm(signum, frame):
    raise TaskTimeout


def run_task(task, out_dir):
    argv = [*task.argv, "--out-dir", out_dir]
    status = "ok"
    rc = None
    t = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, task.cap_s)
    try:
        rc = chemowave.cli.main(argv)
    except TaskTimeout:
        status = f"timeout after {task.cap_s:g} s"
    except Exception as exc:          # a traceback is a failed task, not a crash
        traceback.print_exc()
        status = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t
    return {"name": task.name, "rc": rc, "status": status, "seconds": seconds}


def problems_of(res, out, tol):
    """Why the task failed, from its status and its outputs; [] if it passed."""
    if res["status"] != "ok":
        return [res["status"]]
    return checks.task_problems(res["name"], out, res["rc"], tol)


def main():
    if len(sys.argv) == 2:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    spec = json.loads(sys.argv[2])
    wl = workloads.build(spec["workload"], spec["seed"])
    tol = spec["tolerances"]
    whole_rounds = 2 if spec["trace"] else 1
    signal.signal(signal.SIGALRM, _on_alarm)
    if spec["trace"]:
        import tracer as tracing
    longest: dict[str, float] = {}       # each task's longest run so far
    fp_out = None          # the first passing FixedPoint run's outputs
    waiting = []           # CoupledRelax runs made before fp_out existed
    t0 = time.monotonic()
    with open(spec["result"], "w") as result:
        def emit(record):
            result.write(json.dumps(record) + "\n")
            result.flush()

        def finish(res, out):
            """Compare a CoupledRelax profile with the FixedPoint one, drop
            the task's outputs and record it."""
            if res["name"] == "wave_relax" and not res["problems"]:
                res["problems"] = (
                    checks.uniqueness_problems(fp_out, out, tol) if fp_out
                    else ["no FixedPoint profile to compare with"])
            shutil.rmtree(out, ignore_errors=True)
            emit(res)

        emit({"setup_s": SETUP_S})
        rnd = 0
        while True:
            traced = spec["trace"] and rnd % 2 == 0
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
            ran = []
            for i, task in enumerate(wl.tasks):
                elapsed = time.monotonic() - t0
                if elapsed + task.cap_s > spec["limit_s"]:
                    continue         # might not end before the run's limit
                if rnd >= whole_rounds and elapsed + longest.get(
                        task.name, float("inf")) > spec["seconds"]:
                    continue
                out = os.path.join(spec["out"], f"{rnd}-{i}-{task.name}")
                res = run_task(task, out)
                ran.append(res["seconds"])
                longest[task.name] = max(longest.get(task.name, 0.0),
                                         res["seconds"])
                res["problems"] = problems_of(res, out, tol)
                res["digests"] = checks.csv_digests(out)
                res.update(round=rnd, traced=traced, metric=task.metric,
                           slot=task.slot)
                if task.name == "wave_fp" and fp_out is None and (
                        not res["problems"]):
                    fp_out = out
                    emit(res)
                    for args in waiting:
                        finish(*args)
                    waiting.clear()
                elif task.name == "wave_relax" and fp_out is None:
                    waiting.append((res, out))
                else:
                    finish(res, out)
            if traced:
                restored = tracer.restore()
                emit({"round": rnd, "complete": len(ran) == len(wl.tasks),
                      "restored": restored,
                      "layers": tracer.summarize(sum(ran))})
            if not ran:
                break
            rnd += 1
        for args in waiting:
            finish(*args)
        emit({"peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
