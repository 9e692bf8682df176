"""The propaux benchmark: one run of one workload, or of each in turn.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed. The run writes the workload's inputs from
``--seed`` with numpy, then starts fresh interpreters (``worker.py``): a few
that only time the import and the preparation (``setup_s``), and one that
runs the workload's operations back to back for ``--seconds`` on one thread.
With ``--trace 1`` that interpreter alternates untraced and traced passes and
the run reports per-layer numbers instead of end-to-end ones. Every output
is checked; an operation fails if it raises, exits nonzero, fails its check,
or differs in a single byte from the first untraced output for its input.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same numbers with
the environment and the input digests. Work files go under
``.perfbench-runs/`` and are removed at exit, except a JSON record of the
run and, for a traced run, the span file of the last run of the workload.
"""

import os

# one thread per process, before numpy is imported here or in a worker
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(inputs.WORKLOAD_TAGS)
SETUP_SAMPLES = 7       # fresh interpreters whose import + preparation is timed
# The calibration loop's time on an uncontended core of the 2-vCPU Xeon host
# where the baseline was taken. Declared times are measured times scaled by
# REFERENCE_CAL_S / (the loop's time beside them): seconds at this speed.
REFERENCE_CAL_S = 0.0065
DEADLINE_S = 170        # a run must end within 180 s
REL_TOL = 1e-12


def _environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "thread_pins": THREAD_PINS, "workers": 1}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# --- output checks: each returns a list of problems, empty when the output holds


def _check_simulation(doc: dict, manifest: dict) -> list[str]:
    problems = []
    if doc["input_digest"] != manifest["sha256"][manifest["csv"]]:
        problems.append("input digest differs from the input file's sha256")
    sim = doc["simulation"]
    if not _close(sim["true_p"], manifest["truth"]["p"]):
        problems.append(f"true_p {sim['true_p']} != {manifest['truth']['p']}")
    for row in sim["rows"]:
        if row["replicates"] + row["failures"] != manifest["reps"]:
            problems.append(f"{row['name']}: replicates + failures != reps")
    p_row = next(row for row in sim["rows"] if row["name"] == "p")
    # Var(p) is exact, so the Monte Carlo MSE of p must meet it within 5 SE
    if abs(p_row["mse"] - p_row["theory_mse"]) > 5.0 * p_row["mse_se"]:
        problems.append(f"p: |mse - theory_mse| > 5 se ({p_row})")
    return problems


def _check_enumeration(report: dict, manifest: dict) -> list[str]:
    truth, n = manifest["truth"], manifest["n"]
    subsets = math.comb(truth["n_population"], n)
    problems = [f"{row['name']}: replicates + failures != {subsets}"
                for row in report["rows"] if row["replicates"] + row["failures"] != subsets]
    p_row = next(row for row in report["rows"] if row["name"] == "p")
    f = 1.0 / n - 1.0 / truth["n_population"]
    if not _close(p_row["mean"], truth["p"]):
        problems.append(f"p mean {p_row['mean']} != P {truth['p']}")
    if not _close(p_row["mse"], f * truth["sp2"]):
        problems.append(f"p mse {p_row['mse']} != f*sp2 {f * truth['sp2']}")
    return problems


def _check_scan(theory_doc: dict, sens_doc: dict, digest: str) -> list[str]:
    problems = []
    if theory_doc["input_digest"] != digest or sens_doc["input_digest"] != digest:
        problems.append("input digest differs from the document's sha256")
    pre = {entry["name"]: entry["pre"] for entry in theory_doc["theory"]["entries"]}
    for interval in sens_doc["sensitivity"]["intervals"]:
        name, point = interval["name"], interval["point"]
        low, high = interval["low"], interval["high"]
        if None in (point, low, high) or not low <= point <= high:
            problems.append(f"{name}: interval {low} <= {point} <= {high} fails")
        if interval["points"] != 77:
            problems.append(f"{name}: {interval['points']} scan points, not 77")
        if point is not None and not math.isclose(point, pre.get(name, math.nan),
                                                  rel_tol=1e-9):
            problems.append(f"{name}: point {point} != theory PRE {pre.get(name)}")
    return problems


def _check_params(doc: dict, manifest: dict) -> list[str]:
    truth = manifest["truth"]
    problems = []
    if doc["n_population"] != manifest["rows"] or doc["n"] != manifest["n"]:
        problems.append(f"sizes {doc['n_population']}, {doc['n']} are wrong")
    for key in ("p", "xbar"):
        if not _close(doc[key], truth[key]):
            problems.append(f"{key} {doc[key]} != {truth[key]}")
    return problems


def _check(workload: str, manifest: dict, key: str, outputs: list[dict]) -> list[str]:
    if workload == "mc-srswor":
        return _check_simulation(outputs[0], manifest)
    if workload == "exact-enum":
        return _check_enumeration(outputs[0], manifest)
    if workload == "theory-scan":
        return _check_scan(outputs[0], outputs[1], manifest["sha256"][key])
    return _check_params(outputs[0], manifest)


def _judge(workload: str, manifest: dict, ops: list[dict], saved: Path) -> list[str]:
    """Mark every operation ok or failed; return one line per failure."""
    reference: dict[str, list[str]] = {}
    verdicts: dict[tuple, list[str]] = {}
    failures = []
    for op in ops:
        key, hashes = op["key"], tuple(op["hashes"])
        problems = [op["error"]] if op["error"] else []
        if not problems:
            reference.setdefault(key, list(hashes))
            if list(hashes) != reference[key]:
                problems.append("output bytes differ from the first run of this input")
            elif (key, hashes) not in verdicts:
                try:
                    outputs = [json.loads((saved / f"{h}.json").read_text()) for h in hashes]
                    verdicts[key, hashes] = _check(workload, manifest, key, outputs)
                except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
                    verdicts[key, hashes] = [f"unreadable output: {exc!r}"]
            problems += verdicts.get((key, hashes), [])
        op["ok"] = not problems
        if problems:
            failures.append(f"{key} ({'traced' if op['traced'] else 'untraced'}): "
                            + "; ".join(problems))
    return failures


def _worker(work: Path, workload: str, mode: str, seconds: float, budget: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--work", str(work),
         "--workload", workload, "--mode", mode, "--seconds", str(seconds)],
        env=env, cwd=ROOT, check=True, timeout=budget, stdout=subprocess.DEVNULL)
    record = json.loads((work / f"record-{mode}.json").read_text())
    if not Path(record["propaux_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported propaux from {record['propaux_file']}, not {ROOT / 'src'}")
    return record


def _scan_totals(workload: str, ops: list[dict], saved: Path) -> tuple[int, float]:
    """Scan points of one pass and the share of them that were unstable."""
    if workload != "theory-scan":
        return 0, 0.0
    points = total = unstable = 0
    for hashes in {op["key"]: op["hashes"] for op in ops if op["ok"]}.values():
        intervals = json.loads((saved / f"{hashes[1]}.json").read_text())[
            "sensitivity"]["intervals"]
        points += intervals[0]["points"]
        total += sum(interval["points"] for interval in intervals)
        unstable += sum(interval["unstable"] for interval in intervals)
    return points, unstable / total if total else 0.0


def run(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    started = time.perf_counter()
    manifest = inputs.generate(workload, seed, work)
    (work / "manifest.json").write_text(json.dumps(manifest))

    def budget() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    setups = [_worker(work, workload, "setup", 0, budget())
              for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    record = _worker(work, workload, "trace" if trace else "measure", seconds, budget())
    setups.append(record)
    ops = record["ops"]
    failures = _judge(workload, manifest, ops, work / "outputs")
    untraced = [op["s"] for op in ops if not op["traced"]]
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": _environment(), "inputs_sha256": manifest["sha256"],
        "setup_samples_s": [s["import_s"] + s["prep_s"] for s in setups],
        "setup_calibrations_s": [s["cal_s"] for s in setups],
        "wall_s_samples": untraced,
        "attempted": len(ops), "failed": len(failures), "failures": failures[:20],
    }
    if trace:
        traced = [op["s"] for op in ops if op["traced"]]
        points, unstable = _scan_totals(workload, ops, work / "outputs")
        metrics = layer_metrics(work / "spans.npz", manifest.get("rows", 0), points)
        metrics["theory.sensitivity.unstable_ratio"] = unstable
        metrics["trace.overhead_ratio"] = statistics.fmean(traced) / statistics.fmean(untraced)
        declared = _declared("per_layer")
        shutil.copyfile(work / "spans.npz", work.parent / f"spans-{workload}.npz")
    else:
        # Host CPU speed drifts by up to 1.5x over tens of seconds, which
        # moves raw times by 15-36% between runs. Scaling each time by the
        # calibration loop timed beside it cancels most of that drift.
        metrics = {
            "setup_s": statistics.median((s["import_s"] + s["prep_s"]) * REFERENCE_CAL_S
                                         / s["cal_s"] for s in setups),
            "wall_ref_s": statistics.fmean(op["s"] * REFERENCE_CAL_S / op["cal_s"]
                                           for op in ops if not op["traced"]),
            "peak_rss_mb": record["maxrss_kb"] / 1024.0,
        }
        declared = _declared("end_to_end")
    result["metrics"] = {name: {"value": metrics.pop(name), "unit": unit}
                         for name, unit in declared}
    if metrics:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(metrics)}")
    return result


def _declared(section: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[section]]


def _report(result: dict) -> None:
    samples = result["wall_s_samples"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("environment " + json.dumps(result["environment"]))
    print("inputs_sha256 " + json.dumps(result["inputs_sha256"]))
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(f"error_rate {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"setup time {statistics.median(result['setup_samples_s']):.6g} s (median of "
          f"{len(result['setup_samples_s'])} fresh interpreters, not scaled)")
    print(f"wall_s {statistics.fmean(samples):.6g} s (mean of {len(samples)} untraced "
          f"operations; median {statistics.median(samples):.6g} s, "
          f"min {min(samples):.6g} s, max {max(samples):.6g} s)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "propaux" / "__init__.py").is_file():
        print(f"error: no propaux sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-runs"
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        name = f"{workload}-s{args.seed}-t{args.trace}"
        work = out / f"{name}-{os.getpid()}"
        try:
            result = run(workload, args.seed, args.seconds, args.trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        (out / f"{name}.json").write_text(json.dumps(result, indent=2) + "\n")
        _report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
