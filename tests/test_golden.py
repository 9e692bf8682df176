"""The CLI contract bytes of `theory`, `sensitivity` and `pre` on the README
parameter document, of `params`, a seeded `simulate` and single-sample
`estimate` runs on a small fixed population, and of two exact enumeration
reports, pinned against files under ``tests/golden/``.

Every number of `theory`, `sensitivity` and `pre` is pure-Python float
arithmetic, so those bytes are portable. The `simulate` file also pins the
random draws: a change to them must come with a new ``RNG_SCHEME``, which the
file records. The `params` and `simulate` bytes must not depend on the SIMD
target numpy dispatches to: a fresh interpreter runs them again with every
target above the baseline disabled. After a deliberate change to the output,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``, which
prints for each file how many of its numbers changed and by how much at most,
and review the diff.
"""

import contextlib
import io
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from propaux import SyntheticSpec, cli, enumerate_exact, generate_population
from propaux.cli import main
from propaux.io import dumps, simulation_report_dict

from conftest import checkout_env
from test_population import LOGNORMAL_X

GOLDEN = Path(__file__).parent / "golden"

#: The README document, byte for byte: the reports record its sha256.
DOCUMENT = """{
  "n": 11, "n_population": 40,
  "p": 0.525, "xbar": 14.4, "rho_pb": 0.897,
  "cp": 0.963, "cx": 0.308,
  "lambda12": -0.118, "lambda04": 1.75, "lambda03": -0.153
}
"""

#: A 16-unit population, byte for byte: the simulate report records its sha256.
POPULATION = """phi,x
1,14.2
0,6.1
1,17.8
0,8.4
1,12.9
0,9.7
1,21.3
0,5.2
0,11.0
1,15.6
0,7.3
1,19.4
0,10.2
1,13.1
0,4.8
1,16.7
"""
#: The same population with CRLF line ends, as ``write_population_csv`` writes.
POPULATION_CRLF = POPULATION.replace("\n", "\r\n")

FLAGS = {"": [], "_tc_q1_1_q2_0": ["--tc", "q1=1,q2=0"]}
COMMANDS = {
    "theory.json": ["theory"],
    "sensitivity.json": ["sensitivity", "--digits", "3"],
    "pre.csv": ["pre", "--format", "csv"],
}
CASES = {f"{Path(name).stem}{suffix}{Path(name).suffix}": command + flags
         for name, command in COMMANDS.items() for suffix, flags in FLAGS.items()}
#: A non-default transform and t3 shift on the table commands.
TRANSFORM = ["--tc", "a=2,b=1,alpha=2,beta=1", "--t3", "gamma=0.5"]
CASES["theory_transform.json"] = ["theory", *TRANSFORM]
CASES["pre_transform.csv"] = ["pre", "--format", "csv", *TRANSFORM]
CASES["simulate.json"] = ["simulate", "--n", "5", "--reps", "300", "--seed", "42"]
#: Single-sample estimates on the 16-unit population, printed to stdout.
SAMPLE = ["--indices", "0,1,2,3,4,5"]
KINDS = ("usual", "ta", "tb", "tc", "t1", "t2", "t3")
CASES.update({f"estimate_{kind}.json": ["estimate", *SAMPLE, "--estimator", kind]
              for kind in KINDS})
CASES["estimate_tc_q1_1_q2_0.json"] = ["estimate", *SAMPLE, "--estimator", "tc",
                                       "--tc", "q1=1,q2=0"]
CASES["estimate_t3_fixed.json"] = ["estimate", *SAMPLE, "--estimator", "t3",
                                   "--t3", "g=1,delta=-1,m1=0.5,m2=0.5"]
#: Population moments, as a census and for samples of 6, from either line end.
POPULATIONS = {}
for ends, text in (("", POPULATION), ("_crlf", POPULATION_CRLF)):
    for suffix, flags in (("", []), ("_n_6", ["--n", "6"])):
        CASES[f"params{ends}{suffix}.json"] = ["params", *flags]
        POPULATIONS[f"params{ends}{suffix}.json"] = text
#: Table commands on the 16-unit population's moments at n = 6 (the golden
#: ``params_n_6.json``, read after it is written): half-fixed tc weights, and
#: a t3 shift.
DOCUMENTS = {}
for suffix, flags in (("_tc_q2_half", ["--tc", "q2=0.5"]),
                      ("_t3_gamma_half", ["--t3", "gamma=0.5"])):
    for name in ("theory", "sensitivity"):
        CASES[f"{name}_n_6{suffix}.json"] = COMMANDS[f"{name}.json"] + flags
        DOCUMENTS[f"{name}_n_6{suffix}.json"] = "params_n_6.json"


#: Exact enumeration reports on generated frames, ``(size, n, seed)``: at
#: n = 6 of 20 the sample mean of x is at most 0 on 361 of the 38,760
#: subsets, where tc, t1 and t3 fail; n = 12 of 14 is past N/2, where the
#: subsets are the complements of 2-subsets.
EXACT = {"enumerate_20_6.json": (20, 6, 6), "enumerate_14_12.json": (14, 12, 1)}
EXACT_SPEC = dict(aux_shape="symmetric", aux_location=0.7, aux_scale=1.0,
                  link_intercept=0.0, link_slope=1.5)


def exact_report(name: str) -> bytes:
    """The JSON bytes of the ``enumerate_exact`` report of case ``name``."""
    size, n, seed = EXACT[name]
    frame = generate_population(SyntheticSpec(size=size, **EXACT_SPEC), seed=seed)
    return (dumps(simulation_report_dict(enumerate_exact(frame, n))) + "\n").encode("utf-8")


def run(name: str) -> bytes:
    """The bytes the command of case ``name`` writes: its ``--output`` file,
    else its stdout."""
    argv = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] in ("params", "simulate", "estimate"):
            source = ["--input", str(Path(tmp) / "population.csv")]
            Path(source[1]).write_bytes(POPULATIONS.get(name, POPULATION).encode("utf-8"))
        else:
            source = ["--params", str(Path(tmp) / "params.json")]
            document = (GOLDEN / DOCUMENTS[name]).read_bytes() if name in DOCUMENTS else None
            Path(source[1]).write_bytes(document or DOCUMENT.encode("utf-8"))
        out = Path(tmp) / "out.json"
        argv = [argv[0], *source, *argv[1:]]
        if argv[0] not in ("pre", "estimate"):
            argv += ["--output", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        return out.read_bytes() if out.exists() else stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden_file(name):
    assert run(name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", EXACT)
def test_exact_report_matches_golden_file(name):
    assert exact_report(name) == (GOLDEN / name).read_bytes()


def test_one_parser_serves_every_call_of_a_process(monkeypatch, tmp_path, capsys):
    # main builds its parser on its first call and keeps it; a usage error
    # and a data error in between leave the later calls' bytes unchanged
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    names = ["theory.json", "sensitivity.json", "pre.csv"]
    first = [run(name) for name in names]
    bad = tmp_path / "params.json"
    bad.write_text('{"n": 5}')
    assert main(["sensitivity", "--params", str(bad), "--digits", "x"]) == 1
    assert main(["pre", "--params", str(bad)]) == 2
    assert capsys.readouterr().err.count("\n") == 2
    assert first == [run(name) for name in names] == [(GOLDEN / name).read_bytes()
                                                      for name in names]
    assert built == [1]


def dispatch_targets() -> list[str]:
    """The SIMD targets above the baseline that numpy dispatches to on this
    CPU, by ``np.lib.introspect.opt_func_info()``; empty on a numpy without it."""
    introspect = getattr(np.lib, "introspect", None)
    if introspect is None:
        return []
    targets = set()
    for signatures in introspect.opt_func_info().values():
        for target in signatures.values():
            targets.update(target["available"].split())
    return sorted(target for target in targets if not target.startswith("baseline"))


def cli_output(argv: list[str], population: str, **env: str) -> bytes:
    """The ``--output`` bytes of ``propaux <argv>`` on ``population``, run in
    a fresh interpreter with ``env`` added to a copy of this one's."""
    inherited = {key: value for key, value in checkout_env().items()
                 if key not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env = inherited | env
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "population.csv", Path(tmp) / "out.json"
        source.write_text(population, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "propaux.cli", argv[0],
                               "--input", str(source), *argv[1:], "--output", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and not done.stderr, done.stderr
        return out.read_bytes()


#: ``params`` on a frame where numpy's ``power`` loop changes its bits with the
#: SIMD target, and the golden ``simulate`` case.
DISPATCH_CASES = {
    "params": (["params"], "phi,x\n" + "".join(
        f"{int(x > 14.0)},{x!r}\n" for x in LOGNORMAL_X)),
    "simulate": (CASES["simulate.json"], POPULATION),
}


@pytest.mark.parametrize("case", DISPATCH_CASES)
def test_output_does_not_depend_on_simd_dispatch(case):
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target above its baseline here")
    argv, population = DISPATCH_CASES[case]
    assert (cli_output(argv, population)
            == cli_output(argv, population, NPY_DISABLE_CPU_FEATURES=" ".join(targets)))


#: A number standing on its own: not part of a name such as ``t3`` or of a digest.
NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def changes(old: bytes | None, new: bytes) -> str:
    """What rewriting a golden file from ``old`` to ``new`` changed: how many
    of its numbers moved and the largest relative move, and whether any
    other text changed."""
    if old is None:
        return "new file"
    if old == new:
        return "unchanged"
    before, after = NUMBER.findall(old), NUMBER.findall(new)
    if len(before) != len(after):
        return f"{len(before)} numbers became {len(after)}"
    moved = [(float(a), float(b)) for a, b in zip(before, after) if a != b]
    largest = max((abs(b - a) / abs(a) if a else math.inf for a, b in moved), default=0.0)
    text = NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new)
    return (f"{len(moved)} of {len(before)} numbers changed, largest relative change "
            f"{largest:.2e}" + (", and other text changed" if text else ""))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in [*CASES, *EXACT]:
        path = GOLDEN / name
        old = path.read_bytes() if path.exists() else None
        new = run(name) if name in CASES else exact_report(name)
        path.write_bytes(new)
        print(f"wrote {path}: {changes(old, new)}")
