"""qslab benchmark: the ``paper``, ``family`` and ``cli`` workloads.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its ``src``.  Each workload is a closed loop with
one client: a fresh worker interpreter runs whole passes over the
workload's fixed op list until ``--seconds`` have passed, checking every
op's output.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics.  ``--workload all`` runs the three in turn.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "family", "cli")
# Fresh-interpreter set-ups per untraced run, besides the worker's own.
SETUP_SAMPLES = 10
# `python -c pass` and `python -c "import qslab"` runs per traced run.
REFERENCE_SAMPLES = 7
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below 21 samples such a
    percentile would not lie above the median, so the maximum (p100, none
    beyond) stands in; which one is reported then changes only when the
    op count moves past 20, not with a few tenths of drift in speed.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / n, TAIL_BEYOND


# -- worker side: runs inside a fresh interpreter ---------------------------


def _prepare(workload: str, seed: int, trace: bool, work: Path):
    """Import qslab and make the inputs; returns make_pass(index, events)."""
    import workloads as wl  # puts the checkout's src on sys.path

    import qslab  # noqa: F401  (set-up time includes the import)

    if workload == "paper":
        ops = wl.paper_ops(wl.load_digests())
        return lambda index, events: ops
    if workload == "family":
        ops = wl.family_ops(wl.family_specs(seed))
        return lambda index, events: ops
    argvs, expected = wl.cli_argvs(seed), wl.load_digests()
    return lambda index, events: wl.cli_ops(
        argvs, expected, work / f"cache-{index}", in_process=trace, events=events
    )


def run_pass(ops, tracer):
    """Run one pass; returns (op seconds, problems)."""
    times, problems = [], []
    with tracer.installed() if tracer else nullcontext():
        for op in ops:
            start = time.perf_counter()
            try:
                with tracer.op() if tracer else nullcontext():
                    output = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                times.append(time.perf_counter() - start)
                problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            try:
                problem = op.check(output)
            except Exception as exc:
                problem = f"{op.label}: check raised {type(exc).__name__}: {exc}"
            output = None
            if problem:
                problems.append(problem)
    return times, problems


def measure(make_pass, seconds: float, tracer) -> dict:
    """Whole passes for about ``seconds``; traced ones alternate in.

    Another round starts only if half of it still fits, so the number of
    rounds, and with it which sample is the tail, stays put when the
    machine's speed drifts by a few tenths.
    """
    out = {"op_seconds": [], "pass_seconds": [], "traced_pass_seconds": [],
           "layers": [], "attempted": 0, "failed": 0, "problems": []}
    start, index, rounds = time.perf_counter(), 0, 0
    while True:
        # Traced and untraced passes swap places each round, so neither
        # side always pays for the first, cold pass.
        order = (None, tracer) if rounds % 2 == 0 else (tracer, None)
        for t in order if tracer else (None,):
            events = Counter()
            times, problems = run_pass(make_pass(index, events), t)
            index += 1
            out["attempted"] += len(times)
            out["failed"] += len(problems)
            out["problems"].extend(problems[: 5 - len(out["problems"])])
            if t is None:
                out["op_seconds"].extend(times)
                out["pass_seconds"].append(sum(times))
            else:
                out["traced_pass_seconds"].append(sum(times))
                out["layers"].append(t.end_pass(events))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            return out


def worker(args) -> int:
    work = Path(args.work)
    make_pass = _prepare(args.workload, args.seed, bool(args.trace), work)
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
    result = measure(make_pass, args.seconds, tracer)
    # The cli workload runs the program in child processes: report the largest.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["ready"] = ready
    result["maxrss_kib"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------


def _child(argv, env=None) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:4]} timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:4]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _spawn_worker(role: str, workload: str, args, work: Path) -> tuple[float, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work)]
    spawned = time.monotonic()
    proc = _child(argv)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def _reference_seconds() -> dict[str, float]:
    """Interpreter start and bare ``import qslab``, each in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples = {"pass": [], "import qslab": []}
    for _ in range(REFERENCE_SAMPLES):
        for code in samples:
            start = time.perf_counter()
            _child([sys.executable, "-c", code], env=env)
            samples[code].append(time.perf_counter() - start)
    interpreter = statistics.median(samples["pass"])
    return {"cli.interpreter_s": interpreter,
            "cli.import_s": statistics.median(samples["import qslab"]) - interpreter}


def run_workload(workload: str, args, work: Path) -> dict:
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES):
            setups.append(_spawn_worker("setup", workload, args, work / f"setup-{i}")[0])
    setup, res = _spawn_worker("worker", workload, args, work / "worker")
    setups.append(setup)
    report = {"attempted": res["attempted"], "failed": res["failed"],
              "problems": res["problems"]}
    if args.trace:
        per_pass = res["layers"]
        metrics = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            # A count stays a whole number: it is the same on every pass.
            pick = statistics.median_low if _unit(name) == "count" else statistics.median
            metrics[name] = pick(values)
        metrics["trace.overhead_ratio"] = (
            statistics.median(res["traced_pass_seconds"])
            / statistics.median(res["pass_seconds"]) - 1
        )
        metrics.update(_reference_seconds())
        report["metrics"] = metrics
        return report
    ops = res["op_seconds"]
    value, pct, beyond = tail(ops)
    report["metrics"] = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(res["pass_seconds"]),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": value,
        "peak_rss_mib": res["maxrss_kib"] / 1024,
    }
    report["tail"] = (pct, len(ops), beyond)
    return report


def _unit(name: str) -> str:
    if name == "peak_rss_mib":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith(("_ratio", ".coverage")) else "count"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qslab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def drive(args) -> int:
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {
        "seed": args.seed,
        "commit": _commit(),
        "source_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        reports = {w: run_workload(w, args, work / w) for w in selected}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))

    attempted = failed = 0
    metrics = {}
    for w, rep in reports.items():
        attempted += rep["attempted"]
        failed += rep["failed"]
        mode = "per-layer (traced)" if args.trace else "end-to-end"
        print(f"workload {w}: {mode}, closed loop, 1 client, seed {args.seed}")
        for name, value in rep["metrics"].items():
            note = ""
            if name == "op_tail_s":
                pct, n, beyond = rep["tail"]
                note = f"  (p{pct:.1f} of {n} ops, {beyond} beyond)"
            print(f"  {name:<36} {value:.6g} {_unit(name)}{note}")
            key = name if len(selected) == 1 else f"{w}.{name}"
            metrics[key] = {"value": value, "unit": _unit(name)}
        failed_of = f"{rep['failed']}/{rep['attempted']}"
        ratio = rep["failed"] / rep["attempted"]
        print(f"  {'fail_ratio':<36} {ratio:.6g} 1  ({failed_of} ops failed)")
        for problem in rep["problems"]:
            print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "worker"), default="parent",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qslab" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'qslab'}", file=sys.stderr)
        return 2
    if args.role == "parent":
        return drive(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
