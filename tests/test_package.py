"""The package surface: what importing it loads, and which names it exports.

The table commands (`theory`, `pre`, `sensitivity`) and `import propaux` run
without numpy. Each check below runs in a fresh interpreter, since this
process has long imported numpy. Beside them, an AST check names any module
of the numpy-free core that imports numpy, or a module that does, when it is
imported. `params` is not in the core: it reads a population CSV, and the CSV
reader and the population moments keep numpy.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import propaux
from propaux import cli, io, theory
from propaux.errors import InvalidDesign

from test_golden import DOCUMENT, GOLDEN

PACKAGE = Path(propaux.__file__).parent
README = Path(__file__).parent.parent / "README.md"

#: The modules that load without numpy (``__init__`` is the package itself).
NUMPY_FREE = ("__init__", "cli", "config", "errors", "io", "model", "theory")

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
    "theory": ("SensitivityReport", "T3Constants", "TcConstants", "TheoryReport",
               "comparison_conditions", "pre", "sensitivity", "t3_constants",
               "tc_constants", "theory_report", "var_usual"),
}

#: The per-kind closed forms that ``theory.FAMILIES`` is the only route to,
#: and the class-bias forms, whose biases are the ``FAMILIES`` biases.
REGISTRY_ONLY = ("class_bias_t2", "class_bias_tb", "min_mse_tb", "t1_bias", "t1_min_mse",
                 "t1_mse", "t1_optimal", "t2_mse", "t2_optimal", "t3_bias", "t3_bias_min",
                 "tb_optimal_h1", "tc_bias")

#: Names ``population`` must not define: ``compute_population_params`` is the
#: one route to the moments, and ``batch_stats`` finds repeated indices with
#: one sort.
SECOND_ROUTES = ("_increasing", "_power", "central_moment")

#: The names ``propaux.io`` defined when it held the JSON half too.
IO_NAMES = ("PROVENANCE_FRAME", "PROVENANCE_USER", "ParamsDocument", "build_report_document",
            "conditions_dict", "file_digest", "read_json", "read_params_json",
            "read_population_csv", "sensitivity_report_dict", "simulation_report_dict",
            "theory_report_dict", "write_params_json", "write_population_csv",
            "write_report_json")

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    script = ("import json, sys\nresult = {}\n" + code
              + "\nprint('\\n' + json.dumps(result))\n")
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
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

    @pytest.mark.parametrize("module", NUMPY_FREE)
    def test_core_module_imports_no_numpy(self, module):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        loaded = set()
        for node in self.imports_at_load(tree):
            if isinstance(node, ast.Import):
                loaded.update(alias.name.split(".")[0] for alias in node.names)
            elif node.level == 0:
                loaded.add(node.module.split(".")[0])
            elif node.module:
                loaded.add(f".{node.module.split('.')[0]}")
            else:  # ``from . import x``: a sibling module, or a name of the package
                loaded.update(f".{alias.name}" if (PACKAGE / f"{alias.name}.py").exists()
                              else ".__init__" for alias in node.names)
        offending = sorted(name for name in loaded
                           if name == "numpy" or name.startswith(".")
                           and name[1:] not in NUMPY_FREE)
        assert not offending, f"propaux.{module} imports {offending} when it is imported"


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

    def test_sampling_fraction_accepts_numpy_integers(self):
        assert propaux.sampling_fraction(np.int64(5), np.int64(10)) == 0.1
        assert propaux.Design(n=np.int32(5), N=np.int64(10)).f == 0.1
        with pytest.raises(InvalidDesign):
            propaux.sampling_fraction(5.0, 10)
        with pytest.raises(InvalidDesign):
            propaux.sampling_fraction(np.float64(5), 10)
