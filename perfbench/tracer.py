"""Spans recorded from outside the program, around calls into its layers.

``Tracer.install`` replaces every public function of the traced modules with
a timing wrapper, in every ``propaux`` module namespace that holds a
reference to it (``montecarlo.sample_stats``, ``cli.run_experiment``, ...),
so the spans are the program's real calls and a function it stops calling
reads as a zero count. ``uninstall`` restores the originals. Spans live in
flat arrays while the run lasts and are written out once at its end.
"""

from __future__ import annotations

import inspect
import re
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "io", "population", "montecarlo", "estimators", "theory")

# evaluate() spans are named per estimator kind: "estimators.evaluate:tc"
_PER_KIND = "estimators.evaluate"


class Tracer:
    def __init__(self, data_error: type):
        self._data_error = data_error
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 0 returned, 1 raised a DataError, 2 raised anything else
        self.status = array("b")
        self._stack = [-1]
        self._ids: dict[str, int] = {}
        # (module, attribute, original, wrapper) for every reference
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        status, stack, data_error = self.status, self._stack, self._data_error
        clock = time.perf_counter
        if name == _PER_KIND:
            ids = {}

            def span_id(args, kwargs):
                kind = getattr(kwargs.get("cfg", args[-1] if args else None), "kind", "?")
                if kind not in ids:
                    ids[kind] = self._id(f"{name}:{kind}")
                return ids[kind]
        else:
            fixed = self._id(name)

            def span_id(args, kwargs):
                return fixed

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(span_id(args, kwargs))
            parent.append(stack[-1])
            status.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                status[idx] = 1 if isinstance(exc, data_error) else 2
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are referenced."""
        if not self._patches:
            wrappers = {}
            for layer in LAYERS:
                module = sys.modules[f"propaux.{layer}"]
                for attr, obj in vars(module).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == module.__name__):
                        wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
            for modname, module in list(sys.modules.items()):
                if modname == "propaux" or modname.startswith("propaux."):
                    self._patches.extend(
                        (module, attr, obj, wrappers[obj])
                        for attr, obj in vars(module).items()
                        if inspect.isfunction(obj) and obj in wrappers)
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def mark(self) -> int:
        """Index of the next span, for cutting the record into passes."""
        return len(self.start)

    def save(self, path, passes: list[tuple[int, int]]) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            status=np.frombuffer(self.status, dtype=np.int8),
            passes=np.array(passes, dtype=np.int64).reshape(-1, 2),
        )


_CLOSED_FORM = re.compile(r"^theory\.(var_usual|pre|\w*(mse|constants|optimal)\w*)$")


def layer_metrics(path, rows: int, scan_points: int) -> dict:
    """Per-layer numbers per traced pass, derived from a saved span file.

    ``rows`` is the row count of the workload's CSV input and
    ``scan_points`` the sensitivity scan points of one pass, both known to
    the harness from its own inputs and outputs.
    """
    data = np.load(path)
    names = [str(name) for name in data["names"]]
    name_id, parent, status = data["name_id"], data["parent"], data["status"]
    dur = data["end"] - data["start"]
    passes = len(data["passes"])
    inner = parent >= 0
    covered = np.zeros(dur.size)
    np.add.at(covered, parent[inner], dur[inner])
    self_time = dur - covered

    def match(test) -> np.ndarray:
        ids = [k for k, name in enumerate(names) if test(name)]
        return np.isin(name_id, ids)

    def named(name: str) -> np.ndarray:
        return match(lambda other: other == name)

    def calls(mask) -> float:
        return int(mask.sum()) / passes

    def per_call(mask, scale: float) -> float:
        count = int(mask.sum())
        return scale * float(dur[mask].sum()) / count if count else 0.0

    def total(mask, scale: float) -> float:
        return scale * float(dur[mask].sum()) / passes

    evaluate = match(lambda name: name.startswith("estimators.evaluate:"))
    # a resolve_config span below an evaluate span re-resolves an already
    # resolved configuration per sample; the rest is the set-up share
    below_evaluate = np.zeros(dur.size, dtype=bool)
    while True:
        step = below_evaluate.copy()
        step[inner] = evaluate[parent[inner]] | below_evaluate[parent[inner]]
        if np.array_equal(step, below_evaluate):
            break
        below_evaluate = step
    resolve = named("estimators.resolve_config")
    main = named("cli.main")
    csv_read = named("io.read_population_csv")
    sensitivity = named("theory.sensitivity")
    top = ~inner

    metrics = {}
    for name in ("montecarlo.replicate_rng", "montecarlo.draw_srswor",
                 "population.sample_stats"):
        metrics[f"{name}.calls"] = calls(named(name))
        metrics[f"{name}.us_per_call"] = per_call(named(name), 1e6)
    for name in ("montecarlo.run_experiment", "montecarlo.enumerate_exact"):
        metrics[f"{name}.self_s"] = float(self_time[named(name)].sum()) / passes
    metrics["population.compute_population_params.ms"] = total(
        named("population.compute_population_params"), 1e3)
    metrics["estimators.evaluate.calls"] = calls(evaluate)
    metrics["estimators.evaluate.us_per_call"] = per_call(evaluate, 1e6)
    for kind in ("usual", "ta", "tb", "tc", "t1", "t2", "t3"):
        metrics[f"estimators.evaluate.{kind}.us_per_call"] = per_call(
            named(f"estimators.evaluate:{kind}"), 1e6)
    metrics["estimators.failed_ratio"] = (
        int((evaluate & (status == 1)).sum()) / int(evaluate.sum()) if evaluate.any() else 0.0)
    metrics["estimators.resolve_config.calls"] = calls(resolve)
    metrics["estimators.resolve_config.ms"] = total(resolve & ~below_evaluate, 1e3)
    metrics["theory.sensitivity.calls"] = calls(sensitivity)
    metrics["theory.sensitivity.us_per_point"] = (
        total(sensitivity, 1e6) / scan_points if scan_points else 0.0)
    metrics["theory.theory_report.us_per_call"] = per_call(named("theory.theory_report"), 1e6)
    metrics["theory.comparison_conditions.us_per_call"] = per_call(
        named("theory.comparison_conditions"), 1e6)
    metrics["theory.closed_form.calls"] = calls(match(_CLOSED_FORM.match))
    metrics["io.read_population_csv.s"] = total(csv_read, 1.0)
    metrics["io.read_population_csv.rows_per_s"] = (
        rows * int(csv_read.sum()) / float(dur[csv_read].sum()) if csv_read.any() else 0.0)
    metrics["io.read_params_json.us_per_call"] = per_call(named("io.read_params_json"), 1e6)
    metrics["io.write_report_json.ms"] = total(named("io.write_report_json"), 1e3)
    metrics["io.file_digest.ms"] = total(named("io.file_digest"), 1e3)
    cli_layer = match(lambda name: name.startswith("cli."))
    metrics["cli.main.self_ms"] = (
        1e3 * float(self_time[cli_layer].sum()) / int(main.sum()) if main.any() else 0.0)
    metrics["trace.coverage"] = float(covered[top].sum() / dur[top].sum()) if top.any() else 0.0
    return metrics
