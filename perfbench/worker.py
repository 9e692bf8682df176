"""One fresh interpreter of a benchmark run.

    python perfbench/worker.py --work DIR --workload NAME --mode MODE --seconds S

It times ``import propaux.cli`` and the workload's preparation (reading the
input, ``compute_population_params`` and ``resolve_config`` for every default
estimator), then, by ``--mode``:

- ``setup``: stops there;
- ``measure``: runs the workload's operations back to back, one at a time on
  this one thread, until ``--seconds`` have passed;
- ``trace``: alternates an untraced and a traced pass over all operations
  until ``--seconds`` have passed, and writes the spans to ``DIR/spans.npz``.

Between operations it times a calibration loop (``calibrate``), so the
parent can rescale each time to one reference CPU speed. Each operation's
output files are hashed and kept once per distinct content under
``DIR/outputs`` for the parent to check. The record goes to
``DIR/record-<mode>.json``; the process's peak RSS is part of it.
"""

import sys
import time

_t0 = time.perf_counter()
import propaux.cli  # noqa: E402  (the import is what setup_s times)

_import_s = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from propaux import cli, estimators, io, montecarlo, population  # noqa: E402


def _prepare(workload: str, work: Path, manifest: dict):
    """The work a user's run does before its first operation."""
    if workload == "theory-scan":
        doc = io.read_params_json(work / manifest["docs"][0])
        pop, f = doc.params, doc.design.f
        frame = None
    else:
        frame = io.read_population_csv(work / manifest["csv"])
        pop = population.compute_population_params(frame)
        f = population.sampling_fraction(manifest["n"], frame.size)
    for cfg in montecarlo.DEFAULT_CONFIGS:
        estimators.resolve_config(cfg, pop, f)
    return frame


class Op:
    """One user-facing operation and the files it leaves behind."""

    def __init__(self, key: str, calls, outputs: list[Path]):
        self.key = key
        self.calls = calls      # each returns an exit code or a report
        self.outputs = outputs

    def run(self):
        return [call() for call in self.calls]


def _ops(workload: str, work: Path, manifest: dict, frame) -> list[Op]:
    out = work / "out"
    out.mkdir(exist_ok=True)
    if workload == "mc-srswor":
        argv = ["simulate", "--input", str(work / manifest["csv"]),
                "--n", str(manifest["n"]), "--reps", str(manifest["reps"]),
                "--seed", str(manifest["sim_seed"]), "--output", str(out / "sim.json")]
        return [Op("simulate", [lambda: cli.main(argv)], [out / "sim.json"])]
    if workload == "exact-enum":
        n = manifest["n"]
        return [Op("enumerate", [lambda: montecarlo.enumerate_exact(frame, n)],
                   [out / "enum.json"])]
    if workload == "theory-scan":
        ops = []
        for name in manifest["docs"]:
            doc = str(work / name)
            theory_argv = ["theory", "--params", doc, "--output", str(out / "theory.json")]
            sens_argv = ["sensitivity", "--params", doc, "--digits",
                         str(manifest["digits"]), "--output", str(out / "sens.json")]
            ops.append(Op(name, [lambda a=theory_argv: cli.main(a),
                                 lambda a=sens_argv: cli.main(a)],
                          [out / "theory.json", out / "sens.json"]))
        return ops
    if workload == "csv-ingest":
        argv = ["params", "--input", str(work / manifest["csv"]),
                "--n", str(manifest["n"]), "--output", str(out / "params.json")]
        return [Op("params", [lambda: cli.main(argv)], [out / "params.json"])]
    raise ValueError(f"unknown workload {workload!r}")


CALIBRATE_EVERY_S = 0.5


def calibrate() -> float:
    """Median time of three runs of a fixed pure-Python loop.

    This host's CPU speed swings by up to 1.5x for seconds at a time. The
    loop, timed between operations, measures that speed next to them.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    def __init__(self, work: Path, tracer, calibration: float):
        self.saved = work / "outputs"
        self.saved.mkdir(exist_ok=True)
        self.tracer = tracer
        self.records: list[dict] = []
        # operations since the last calibration, and that calibration
        self._uncalibrated: list[dict] = []
        self._calibration = calibration
        self._calibrated_at = time.perf_counter()

    def calibrate(self) -> None:
        """Give every operation since the last calibration the mean of the
        calibrations before and after it."""
        after = calibrate()
        for record in self._uncalibrated:
            record["cal_s"] = 0.5 * (self._calibration + after)
        self._uncalibrated.clear()
        self._calibration, self._calibrated_at = after, time.perf_counter()

    def run(self, op: Op, traced: bool) -> None:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        if traced:
            self.tracer.install()
        error = None
        start = time.perf_counter()
        try:
            results = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            results, error = [], f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        codes = [r for r in results if isinstance(r, int)]
        if error is None and any(codes):
            error = f"exit codes {codes}"
        for result in results:
            if isinstance(result, montecarlo.SimulationReport):
                op.outputs[0].write_text(
                    json.dumps(io.simulation_report_dict(result), indent=2) + "\n")
        hashes = []
        for path in op.outputs:
            data = path.read_bytes() if path.exists() else b""
            digest = hashlib.sha256(data).hexdigest()
            target = self.saved / f"{digest}.json"
            if data and not target.exists():
                target.write_bytes(data)
            hashes.append(digest)
        self.records.append({"key": op.key, "traced": traced, "s": seconds,
                             "error": error, "hashes": hashes})
        self._uncalibrated.append(self.records[-1])
        if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrate()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    manifest = json.loads((args.work / "manifest.json").read_text())

    start = time.perf_counter()
    frame = _prepare(args.workload, args.work, manifest)
    record = {"import_s": _import_s, "prep_s": time.perf_counter() - start,
              "cal_s": calibrate(), "propaux_file": propaux.cli.__file__}
    if args.mode != "setup":
        ops = _ops(args.workload, args.work, manifest, frame)
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer(propaux.errors.DataError)
        runner = Runner(args.work, tracer, record["cal_s"])
        deadline = time.perf_counter() + args.seconds
        passes = []
        if args.mode == "measure":
            k = 0
            while k < 2 or time.perf_counter() < deadline:
                runner.run(ops[k % len(ops)], traced=False)
                k += 1
        else:
            while not passes or time.perf_counter() < deadline:
                for op in ops:
                    runner.run(op, traced=False)
                first = tracer.mark()
                for op in ops:
                    runner.run(op, traced=True)
                passes.append((first, tracer.mark()))
        runner.calibrate()
        if tracer:
            tracer.save(args.work / "spans.npz", passes)
        record["ops"] = runner.records
        record["passes"] = len(passes)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.work / f"record-{args.mode}.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
