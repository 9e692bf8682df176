"""The package surface: what importing it loads, which names it exports, and
the contract of its records.

The table commands (`theory`, `pre`, `sensitivity`) and `import propaux` run
without numpy, and `import propaux.cli` loads neither `dataclasses` nor the
`inspect` it imports. Each check below runs in a fresh interpreter, since
this process has long imported numpy. Beside them, AST checks name any
module of the numpy-free core that imports numpy, `dataclasses`, or a module
that does, when it is imported. `params` is not in the core: it reads a
population CSV, and the CSV reader and the population moments keep numpy.
"""

import ast
import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import propaux
from propaux import Design, PopulationParams, cli, io, theory
from propaux.errors import InvalidDesign, SchemaError

from conftest import checkout_env
from test_golden import DOCUMENT, GOLDEN

PACKAGE = Path(propaux.__file__).parent
README = Path(__file__).parent.parent / "README.md"

#: The modules that load without numpy (``__init__`` is the package itself):
#: every module of the package but the three that compute on arrays, so a
#: module added to the package is checked from the start.
NUMPY_FREE = tuple(sorted({path.stem for path in PACKAGE.glob("*.py")}
                          - {"estimators", "montecarlo", "population"}))

#: The population summary, the design and their checks, defined in ``theory``
#: beside the moment matrix they guard.
SUMMARY_NAMES = ("Design", "PopulationParams", "check_realizable", "sampling_fraction")

#: Where each name of ``propaux.__all__`` lives. The per-kind theory
#: functions are reached through ``theory.FAMILIES`` and are not exported.
HOMES = {
    "config": ("T1Config", "T2Config", "T3Config", "TableConfig", "TbConfig", "TcConfig"),
    "errors": ("DataError", "NumericalError", "ToolkitError"),
    "estimators": ("FAILURE_CLASSES", "Estimate", "EstimatorConfig", "evaluate",
                   "evaluate_batch", "resolve_config"),
    "montecarlo": ("DEFAULT_CONFIGS", "SimulationReport", "SyntheticSpec", "draw_replicates",
                   "enumerate_exact", "generate_population", "run_experiment"),
    "population": ("Design", "PopulationFrame", "PopulationParams", "SampleStats",
                   "batch_stats", "compute_population_params", "sample_stats",
                   "sampling_fraction"),
    "theory": ("SensitivityReport", "TheoryReport", "comparison_conditions", "pre",
               "sensitivity", "theory_report", "var_usual"),
}

#: The per-kind closed forms that ``theory.FAMILIES`` is the only route to,
#: the class-bias forms, whose biases are the ``FAMILIES`` biases, and the
#: second route to the two-weight form of ``FAMILIES["tc"]`` and ``["t3"]``.
REGISTRY_ONLY = ("T3Constants", "TcConstants", "_TWO_WEIGHT", "class_bias_t2",
                 "class_bias_tb", "min_mse_tb", "t1_bias", "t1_min_mse", "t1_mse",
                 "t1_optimal", "t2_mse", "t2_optimal", "t3_bias", "t3_bias_min", "t3_constants",
                 "tb_optimal_h1", "tc_bias", "tc_constants")

#: Names ``population`` must not define: ``compute_population_params`` is the
#: one route to the moments, and ``batch_stats`` finds repeated indices with
#: one sort.
SECOND_ROUTES = ("_increasing", "_power", "central_moment")

#: Names ``io`` must not define: ``read_population_csv``, ``read_params_json``
#: and ``read_json`` also take bytes the caller has read, so no private twin
#: parses them.
IO_SECOND_ROUTES = ("_parse_json", "_parse_params", "_parse_population_csv")

#: Names ``io`` must not define: ``write_report`` builds and writes the report
#: envelope, and ``read_input`` digests the bytes it hands to a reader.
IO_SECOND_WRITERS = ("_sha256", "build_report_document")

#: Names ``cli`` must not define, for the same reason.
CLI_SECOND_WRITERS = ("_read_input", "_write_report")

#: The names of ``propaux.io``: every file format, and the one JSON encoder.
IO_NAMES = ("PROVENANCE_FRAME", "PROVENANCE_USER", "ParamsDocument", "conditions_dict",
            "dumps", "read_input", "read_json", "read_params_json", "read_population_csv",
            "sensitivity_report_dict", "simulation_report_dict", "theory_report_dict",
            "write_params_json", "write_population_csv", "write_report", "write_report_json")

#: Every record a report section is built from: each is a NamedTuple, which
#: the ``*_dict`` helpers read with ``_asdict()``.
REPORT_ROWS = ("theory.EstimatorTheory", "theory.TheoryReport", "theory.ConditionResult",
               "theory.PreInterval", "theory.SensitivityReport", "montecarlo.EstimatorRun",
               "montecarlo.SimulationReport")

TABLE_COMMANDS = {
    "theory": ["theory", "--output", "{out}"],
    "pre-table": ["pre"],
    "pre-csv": ["pre", "--format", "csv"],
    "pre-json": ["pre", "--format", "json"],
    "sensitivity": ["sensitivity", "--digits", "3", "--output", "{out}"],
}


def fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports the package from this
    checkout; ``code`` leaves its findings in the dict ``result``, which
    comes back decoded."""
    script = ("import json, sys\nresult = {}\n" + code
              + "\nprint('\\n' + json.dumps(result))\n")
    done = subprocess.run([sys.executable, "-c", script, *args], env=checkout_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestNumpyFreeCore:
    def test_import_propaux(self):
        result = fresh("import propaux\nresult['numpy'] = 'numpy' in sys.modules")
        assert result == {"numpy": False}

    def test_cli_import_loads_no_hashlib(self):
        # hashlib loads OpenSSL, which only a report's input digest needs
        result = fresh("import propaux.cli\nresult['hashlib'] = 'hashlib' in sys.modules")
        assert result == {"hashlib": False}

    def test_cli_import_loads_no_numpy_dataclasses_or_inspect(self):
        result = fresh("import propaux.cli\n"
                       "result['loaded'] = [name for name in ('numpy', 'dataclasses', 'inspect')\n"
                       "                    if name in sys.modules]")
        assert result == {"loaded": []}

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_table_command(self, command, tmp_path):
        """The command on the golden census document and on the README
        document, whose design has f > 0."""
        readme = tmp_path / "readme.json"
        readme.write_text(DOCUMENT, encoding="utf-8")
        argv = [arg.format(out=tmp_path / "out.json") for arg in TABLE_COMMANDS[command]]
        result = fresh(
            "import propaux.cli\n"
            "result['codes'] = [propaux.cli.main([*sys.argv[3:], '--params', path])\n"
            "                   for path in sys.argv[1:3]]\n"
            "result['numpy'] = 'numpy' in sys.modules",
            str(GOLDEN / "params.json"), str(readme), *argv)
        assert result == {"codes": [0, 0], "numpy": False}

    def test_numpy_names_load_on_first_use(self):
        result = fresh(
            "import propaux\n"
            "result['before'] = 'numpy' in sys.modules\n"
            "result['frame'] = propaux.PopulationFrame.__module__\n"
            "result['after'] = 'numpy' in sys.modules")
        assert result == {"before": False, "frame": "propaux.population", "after": True}

    @staticmethod
    def imports_at_load(tree: ast.Module):
        """The import statements that run when a module is imported: all but
        those in functions and in ``if TYPE_CHECKING:`` blocks."""
        nodes = list(tree.body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                nodes.extend(node.orelse)
            elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler, ast.With, ast.ClassDef)):
                for branch in ("body", "orelse", "handlers", "finalbody"):
                    nodes.extend(getattr(node, branch, ()))

    @classmethod
    def loaded_at_import(cls, module: str) -> set[str]:
        """The top-level modules, and the ``.sibling`` modules, that ``module``
        imports when it is imported."""
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        loaded = set()
        for node in cls.imports_at_load(tree):
            if isinstance(node, ast.Import):
                loaded.update(alias.name.split(".")[0] for alias in node.names)
            elif node.level == 0:
                loaded.add(node.module.split(".")[0])
            elif node.module:
                loaded.add(f".{node.module.split('.')[0]}")
            else:  # ``from . import x``: a sibling module, or a name of the package
                loaded.update(f".{alias.name}" if (PACKAGE / f"{alias.name}.py").exists()
                              else ".__init__" for alias in node.names)
        return loaded

    @pytest.mark.parametrize("module", NUMPY_FREE)
    def test_core_module_imports_no_numpy(self, module):
        loaded = self.loaded_at_import(module)
        offending = sorted(name for name in loaded
                           if name == "numpy" or name.startswith(".")
                           and name[1:] not in NUMPY_FREE)
        assert not offending, f"propaux.{module} imports {offending} when it is imported"

    @pytest.mark.parametrize("module", NUMPY_FREE)
    def test_core_module_imports_no_dataclasses(self, module):
        # its records are NamedTuples: ``dataclasses`` loads ``inspect``, which
        # costs a table command more than its whole table
        assert "dataclasses" not in self.loaded_at_import(module), (
            f"propaux.{module} imports dataclasses when it is imported")


class TestPublicSurface:
    def test_all_is_the_eager_export_list(self):
        names = {name for names in HOMES.values() for name in names}
        modules = {"config", "errors", "estimators", "montecarlo", "population", "theory"}
        assert propaux.__all__ == sorted(names | modules)

    @pytest.mark.parametrize("home", HOMES)
    def test_names_are_their_home_modules_objects(self, home):
        module = importlib.import_module(f"propaux.{home}")
        for name in HOMES[home]:
            assert getattr(propaux, name) is getattr(module, name), name

    def test_theory_has_one_entry_point_per_kind(self):
        for name in REGISTRY_ONLY:
            assert not hasattr(theory, name) and name not in propaux.__all__, name

    def test_population_has_one_route_per_statistic(self):
        population = importlib.import_module("propaux.population")
        for name in SECOND_ROUTES:
            assert not hasattr(population, name) and name not in propaux.__all__, name

    def test_io_has_one_reader_per_format(self):
        for name in IO_SECOND_ROUTES:
            assert not hasattr(io, name), name

    def test_io_owns_the_one_output_path(self):
        for name in IO_SECOND_WRITERS:
            assert not hasattr(io, name), name
        for name in CLI_SECOND_WRITERS:
            assert not hasattr(cli, name), name

    def test_cli_encodes_through_io_alone(self):
        """``cli`` imports no ``json`` and reaches no private ``io`` name: every
        document it writes or prints is encoded by ``io.dumps``."""
        tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "json" not in imported
        private = sorted(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                         and isinstance(node.value, ast.Name) and node.value.id == "io")
        assert not private, private

    def test_readme_library_example_runs(self):
        """The README's Library code block runs as written, in a fresh
        interpreter."""
        library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
        fresh(library.split("```python\n", 1)[1].split("\n```", 1)[0])

    def test_readme_pre_table_is_the_commands_output(self, tmp_path, capsys):
        """The README's ``pre`` table is what ``propaux pre`` prints for the
        README's parameter document."""
        section = README.read_text(encoding="utf-8").split("\n### Parameter document\n", 1)[1]
        document = tmp_path / "params.json"
        document.write_text(section.split("```json\n", 1)[1].split("\n```", 1)[0],
                            encoding="utf-8")
        table = section.split("```text\n", 1)[1].split("\n```", 1)[0]
        assert cli.main(["pre", "--params", str(document)]) == 0
        assert capsys.readouterr().out == table + "\n"

    def test_submodules_resolve(self):
        for name in ("config", "errors", "estimators", "montecarlo", "population", "theory"):
            assert getattr(propaux, name) is importlib.import_module(f"propaux.{name}")

    def test_dir_covers_all(self):
        assert set(propaux.__all__) <= set(dir(propaux))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(propaux, "no_such_name")
        with pytest.raises(ImportError):
            exec("from propaux import no_such_name", {})

    def test_star_import(self):
        namespace = {}
        exec("from propaux import *", namespace)
        assert set(propaux.__all__) <= namespace.keys()

    def test_benchmark_worker_import_line(self):
        result = fresh("from propaux import cli, estimators, io, montecarlo, population\n"
                       "result['modules'] = [m.__name__ for m in "
                       "(cli, estimators, io, montecarlo, population)]")
        assert result == {"modules": ["propaux.cli", "propaux.estimators", "propaux.io",
                                      "propaux.montecarlo", "propaux.population"]}

    def test_io_keeps_every_name(self):
        for name in IO_NAMES:
            getattr(io, name)

    def test_io_is_the_one_file_format_module(self):
        """No second format module, and no re-export in ``io``: the benchmark
        tracer times a function only where its ``__module__`` is the layer."""
        assert importlib.util.find_spec("propaux.documents") is None
        for name in IO_NAMES:
            value = getattr(io, name)
            if callable(value):
                assert value.__module__ == "propaux.io", name

    def test_theory_defines_the_population_summary_and_the_design(self):
        """The summary, the design and their checks are ``theory``'s own, in
        no module of their own, and ``population`` and the package re-export
        the same objects."""
        assert importlib.util.find_spec("propaux.model") is None
        population = importlib.import_module("propaux.population")
        for name in SUMMARY_NAMES:
            value = getattr(theory, name)
            assert value.__module__ == "propaux.theory", name
            assert getattr(population, name) is value, name
            if name in propaux.__all__:
                assert getattr(propaux, name) is value, name

    def test_sampling_fraction_accepts_numpy_integers(self):
        assert propaux.sampling_fraction(np.int64(5), np.int64(10)) == 0.1
        assert propaux.Design(n=np.int32(5), N=np.int64(10)).f == 0.1
        with pytest.raises(InvalidDesign):
            propaux.sampling_fraction(5.0, 10)
        with pytest.raises(InvalidDesign):
            propaux.sampling_fraction(np.float64(5), 10)


#: A valid record of each checked class, one invalid value, and its error.
CHECKED_RECORDS = {
    "PopulationParams": (PopulationParams,
                         {"N": 100, "P": 0.4, "xbar": 10.0, "sx2": 4.0, "sp2": 0.25, "cp": 1.25,
                          "cx": 0.2, "rho_pb": 0.5, "lambda03": 0.3, "lambda04": 2.0,
                          "lambda12": 0.1},
                         {"rho_pb": 2.0}, SchemaError),
    "Design": (Design, {"n": 5, "N": 10}, {"n": 1}, InvalidDesign),
}


def _records_in(value):
    """Every value with ``_fields`` (a NamedTuple) inside a JSON-bound value."""
    if hasattr(value, "_fields"):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _records_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _records_in(item)


class TestRecords:
    @pytest.mark.parametrize("name", CHECKED_RECORDS)
    def test_every_way_of_making_one_is_checked(self, name):
        cls, good, bad, error = CHECKED_RECORDS[name]
        record = cls(**good)
        raised = []
        for make in (lambda: cls(**{**good, **bad}),
                     lambda: cls._make({**record._asdict(), **bad}.values()),
                     lambda: record._replace(**bad)):
            with pytest.raises(error) as info:
                make()
            raised.append(type(info.value))
        assert raised == [error] * 3

    def test_design_derives_f_on_every_route(self):
        design = Design(n=5, N=10)
        assert design._replace(n=4) == (4, 10, propaux.sampling_fraction(4, 10))
        assert Design._make((4, 10, 0.5)).f == propaux.sampling_fraction(4, 10)
        assert copy.copy(design) == design and type(copy.deepcopy(design)) is Design

    @pytest.mark.parametrize("path", REPORT_ROWS)
    def test_every_report_row_is_a_named_tuple(self, path):
        module, name = path.split(".")
        cls = getattr(importlib.import_module(f"propaux.{module}"), name)
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), path

    def test_report_documents_hold_no_record(self, tmp_path, monkeypatch):
        """``json`` writes a NamedTuple as an array: no record may reach a
        document that ``io.dumps`` encodes, written or printed, unconverted."""
        assert list(_records_in({"rows": [propaux.TbConfig()]}))  # the walk finds one
        params, pop = tmp_path / "params.json", tmp_path / "pop.csv"
        params.write_text(DOCUMENT, encoding="utf-8")
        assert cli.main(["generate", "--size", "40", "--seed", "3", "--output", str(pop)]) == 0
        documents, dumps = [], io.dumps
        monkeypatch.setattr(io, "dumps", lambda document: documents.append(document)
                            or dumps(document))
        out = str(tmp_path / "out.json")
        for argv in (["theory", "--params", str(params), "--tc", "q1=1,q2=0",
                      "--t3", "gamma=0.5", "--output", out],
                     ["sensitivity", "--params", str(params), "--digits", "1",
                      "--tc", "q1=1,q2=0", "--output", out],
                     ["estimate", "--input", str(pop), "--indices", "0,1,2,3,4",
                      "--estimator", "t3", "--t3", "gamma=0.5"],
                     ["simulate", "--input", str(pop), "--n", "5", "--reps", "100",
                      "--seed", "1", "--tc", "alpha=2", "--output", out],
                     ["pre", "--params", str(params), "--format", "json", "--tc", "q1=1,q2=0"],
                     ["params", "--input", str(pop), "--n", "5", "--output", out]):
            assert cli.main(argv) == 0, argv
        assert len(documents) == 6
        for document in documents:
            assert not list(_records_in(document))
