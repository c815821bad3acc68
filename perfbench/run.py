"""metricboost benchmark.

One workload (prints the result as the last line, a JSON object with
correct / attempted / failed / metrics):

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 58 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` runs untraced and
traced episodes alternately in the same process and reports the per-layer
metrics. Without `--workload`, every workload runs in its own fresh process,
untraced and then traced, and a table of all metrics is printed.

The workload process pins BLAS to one thread, builds the package from
`src/` of this checkout, repeats the workload's episode for `--seconds`,
then checks its outputs. Records go to perfbench/out/.
"""

import os

# Pinned before numpy loads its BLAS; the thread count is read back and recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import metricboost; print(time.perf_counter() - t)")


def import_seconds():
    """Wall time of `import metricboost` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "metricboost").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class CheckLog:
    """Correctness checks: each one counts as an op and is kept for the record."""

    def __init__(self, ops):
        self.ops = ops
        self.entries = []

    def __call__(self, label, ok, detail):
        self.ops.check(label, ok, detail)
        self.entries.append({"check": label, "ok": bool(ok), "detail": detail})


def check_episode(wl, prep, seed, ep, check):
    """Checks on one episode's outputs against the references."""
    import reference

    losses = [ep.init.final_loss]
    for r in ep.routes:
        losses += [v for row in r.result.metrics_rows for v in row[1:3]]
        if r.report is not None:
            losses.append(r.report.recall_at[1])
    check("losses finite", all(math.isfinite(v) for v in losses),
          f"{len(losses)} init/route losses and recalls")
    for r in ep.routes:
        ok, detail = reference.same_training_state(r.result, r.restored)
        check(f"checkpoint round trip [{r.route.kind}]", ok, detail)
    ok, detail = reference.check_first_batch_gradient(wl, prep, ep.init.model, seed)
    check("first-batch boosted W gradient", ok, detail)
    for r in ep.routes:
        if r.report is not None:
            ok, detail = reference.check_recall(r.result.model, prep.test, r.report)
            check(f"Recall@K vs per-query ranking [{r.route.kind}]", ok, detail)


def run_episodes(wl, seed, seconds, workdir, ops, tracer, check):
    """Set-up plus episode, repeated until `seconds` have passed.

    Set-ups are spread over the run like the episodes, so both medians see the
    same stretch of machine time. The first iteration is a warm-up: it is
    checked and fingerprinted like the others, but left out of the timings. Traced and untraced iterations alternate
    when tracing, and a traced run ends with one more iteration under
    tracemalloc for allocation peaks. The first episode's outputs are checked
    as soon as it ends; each episode is dropped before the next starts, so
    memory holds one at a time. Returns (per-iteration summaries, the
    PeakProbe of a traced run or None).
    """
    import spans
    import workloads

    def one(mode, context):
        imp = import_seconds()
        with context:
            prep = workloads.prepare(wl, seed, workdir, ops)
            ep = workloads.episode(wl, prep, seed, workdir, ops)
        if not summaries:
            check_episode(wl, prep, seed, ep, check)
        summaries.append({
            "traced": mode, "setup_s": imp + prep.data_s + prep.build_s, "import_s": imp,
            "init_s": ep.init_s, "train_s": ep.train_s, "train_samples": ep.train_samples,
            "eval_s": ep.eval_s, "run_s": ep.run_s, "r_at_1": ep.r_at_1,
            "fingerprint": ep.fingerprint(),
        })

    summaries = []
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        t = time.perf_counter()
        if tracer is not None and len(summaries) % 2 == 1:
            one("spans", tracer.installed())
        else:
            one("off", contextlib.nullcontext())
        walls.append(time.perf_counter() - t)
        enough = len(summaries) >= (3 if tracer is not None else 2)
        # Stop when the next iteration would end more than half of it past
        # the deadline, so a run lasts `seconds` give or take half an iteration.
        if enough and time.perf_counter() + statistics.median(walls) / 2 >= deadline:
            break
    probe = None
    if tracer is not None:
        probe = spans.PeakProbe()
        one("tracemalloc", probe.installed())
    prints = {s["fingerprint"] for s in summaries}
    check("traced episodes read-only" if tracer else "episodes deterministic", len(prints) == 1,
          f"{len(summaries)} episodes, {len(prints)} distinct final-W/recall digests, "
          f"r_at_1 {sorted({s['r_at_1'] for s in summaries})}")
    return summaries, probe


def end_to_end(summaries, ops):
    eps = summaries[1:]  # the first iteration warms up
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in eps), len(eps)),
        "train_samples_per_s": (sum(s["train_samples"] for s in eps)
                                / sum(s["train_s"] for s in eps), len(eps)),
        "init_s": (statistics.median(s["init_s"] for s in eps), len(eps)),
        "eval_s": (statistics.median(t for s in eps for t in s["eval_s"]),
                   sum(len(s["eval_s"]) for s in eps)),
        "run_s": (statistics.median(s["run_s"] for s in eps), len(eps)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "r_at_1": (eps[0]["r_at_1"], len(eps)),
        "ok_ops_frac": (1.0 - ops.failed / max(ops.attempted, 1), ops.attempted),
    }


def per_layer(tracer, summaries, probe):
    import spans

    measured = summaries[1:]  # the first iteration warms up
    untraced = [s["run_s"] for s in measured if s["traced"] == "off"]
    traced = [s["run_s"] for s in measured if s["traced"] == "spans"]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    return spans.layer_metrics(tracer, probe, overhead, min(len(traced), len(untraced)))


def measure(name, seed, seconds, trace):
    """Run one workload in this process; returns (result line, record)."""
    sys.path.insert(0, str(SRC))
    import workloads
    import spans

    wl = workloads.WORKLOADS[name]
    ops = workloads.Ops()
    tracer = spans.Tracer() if trace else None
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "environment": environment(seed)}
    values = {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        check = CheckLog(ops)
        record["checks"] = check.entries
        summaries, probe = run_episodes(wl, seed, seconds, workdir, ops, tracer, check)
        record["episodes"] = summaries
        if trace:
            values = per_layer(tracer, summaries, probe)
            tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
        else:
            values = end_to_end(summaries, ops)
    except workloads.OpFailed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {}
    record["metrics"] = {}
    if values:
        if set(values) != {m["name"] for m in specs}:
            raise RuntimeError(f"metric set differs from metrics.json: {sorted(values)}")
        for m in specs:
            value, n = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            record["metrics"][m["name"]] = {"value": value, "unit": m["unit"], "n": n}
    record["failures"] = ops.failures
    line = {"correct": ops.failed == 0 and bool(values), "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}
    return line, record


def print_record(record):
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for c in record.get("checks", []):
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    for f in record["failures"]:
        print(f"failure {f}")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']:10s} n={m['n']}")


def run_all(seed, seconds):
    """Each workload in a fresh process, untraced then traced; one summary table."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            line = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            ok &= proc.returncode == 0 and line["correct"]
            results[f"{name}/trace{trace}"] = line
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        print(f"\n{section:34s} " + " ".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
        for m in SPEC[section]:
            cells = []
            for name in WORKLOAD_NAMES:
                v = results[f"{name}/trace{trace}"]["metrics"].get(m["name"], {}).get("value")
                cells.append(f"{v:>16.6g}" if v is not None else f"{'-':>16s}")
            print(f"{m['name'] + ' (' + m['unit'] + ')':34s} " + " ".join(cells))
    print(json.dumps({"correct": ok, "results": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "metricboost" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no package sources at {SRC / 'metricboost'}\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    line, record = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_record(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
