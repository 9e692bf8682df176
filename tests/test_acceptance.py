"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s``). Criterion 2 is split in two:
the efficiency-table reproduction bands, and the separate claim about the
two-term family's sensitivity interval.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from propaux import (
    EstimatorConfig,
    PopulationFrame,
    compute_population_params,
    enumerate_exact,
    montecarlo,
    run_experiment,
    theory,
)
from propaux.config import T1Config, T2Config, T3Config, TbConfig, TcConfig

from conftest import random_frame, random_params, well_posed_params
from _oracles import assert_stationary, grid_min

TB, T1, T2 = (theory.FAMILIES[kind] for kind in ("tb", "t1", "t2"))


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL", flush=True)
        raise
    print(f"\n[acceptance] {name}: PASS", flush=True)


class TestCriterion1ExactIdentities:
    def test_exact_identity_suite(self):
        with criterion("1 exact-identity suite"):
            started = time.perf_counter()

            # enumeration over the 15 two-unit subsets of a six-unit population
            frame = PopulationFrame(np.array([1, 0, 0, 1, 0, 1]),
                                    np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
            report = enumerate_exact(frame, 2, (EstimatorConfig(kind="usual", label="p"),))
            assert report.replicates == 15
            row = report.row("p")
            P = 0.5
            assert row.mean == pytest.approx(P, rel=1e-12)
            f = 1 / 2 - 1 / 6
            exact_var = f * 6 * P * (1 - P) / 5
            assert row.mse == pytest.approx(exact_var, rel=1e-12)

            # the two optimal-class minima share one closed form
            rng = np.random.default_rng(20240811)
            for _ in range(1000):
                pop = random_params(rng)
                fv = 1 / max(2, pop.N // 10) - 1 / pop.N
                t1 = T1.min_mse(T1Config(), pop, fv)
                t2 = theory.FAMILIES["t2"].min_mse(T2Config(), pop, fv)
                assert t2 == pytest.approx(t1, rel=1e-12)

            # self-efficiency is exactly 100
            assert theory.pre(exact_var, exact_var) == 100.0

            assert time.perf_counter() - started < 1.0


class TestCriterion2TableReproduction:
    def test_efficiency_table_bands(self, ref_pop, ref_design):
        with criterion("2 efficiency-table reproduction (ta, tb, tc, t1, t2)"):
            f = ref_design.f
            baseline = theory.var_usual(ref_pop, f)

            pre_tb = theory.pre(baseline, TB.min_mse(TbConfig(), ref_pop, f))
            assert pre_tb == pytest.approx(511.79, abs=0.05)

            pre_ta = theory.pre(baseline, theory.FAMILIES["ta"].mse(None, ref_pop, f))
            assert abs(pre_ta - 189.38) <= 1.0

            pre_t1 = theory.pre(baseline, T1.min_mse(T1Config(), ref_pop, f))
            pre_t2 = theory.pre(baseline,
                                 theory.FAMILIES["t2"].min_mse(T2Config(), ref_pop, f))
            assert abs(pre_t1 - 513.92) <= 1.5
            assert abs(pre_t2 - 513.92) <= 1.5

            pre_tc = theory.pre(baseline, theory.FAMILIES["tc"].min_mse(TcConfig(), ref_pop, f))
            assert 505.0 <= pre_tc <= 525.0

    def test_t3_sensitivity_interval(self, ref_doc, tmp_path):
        # The two-term family's efficiency target of 685.51 is not reachable
        # from three-decimal inputs; the last-digit scan is required to
        # demonstrate that by spanning more than 200 efficiency points.
        with criterion("2 two-term family sensitivity interval"):
            import json
            from propaux.cli import main
            from propaux.io import write_params_json

            params_path = tmp_path / "params.json"
            write_params_json(params_path, ref_doc)
            out_path = tmp_path / "sensitivity.json"
            started = time.perf_counter()
            assert main(["sensitivity", "--params", str(params_path),
                         "--digits", "3", "--output", str(out_path)]) == 0
            elapsed = time.perf_counter() - started

            rows = json.loads(out_path.read_text())["sensitivity"]["intervals"]
            interval = next(row for row in rows if row["name"] == "t3(g=1,d=1)")

            # the report records the point value and the interval
            assert interval["point"] is not None
            assert interval["low"] is not None and interval["high"] is not None
            assert interval["low"] <= interval["point"] <= interval["high"]
            assert elapsed < 1.0
            # the 685.51 target is decisively outside the reachable interval
            assert not interval["low"] <= 685.51 <= interval["high"]

            span = interval["high"] - interval["low"]
            assert span > 200.0, (
                f"sensitivity interval spans {span:.2f} efficiency points "
                f"([{interval['low']:.2f}, {interval['high']:.2f}] around "
                f"{interval['point']:.2f}); the stated 200-point spread is not "
                "reachable from three-decimal inputs"
            )


class TestCriterion3MonteCarloArbitration:
    def test_monte_carlo_bands(self, experiment):
        with criterion("3 Monte Carlo arbitration suite"):
            params, report = experiment
            assert 0.55 <= params.rho_pb <= 0.8

            for name in ("p", "ta", "tb", "t1", "t2"):
                row = report.row(name)
                assert 0.85 <= row.ratio <= 1.15, (name, row.ratio)
            t3_row = report.row("t3")
            assert 0.80 <= t3_row.ratio <= 1.20, t3_row.ratio

            p_row, tb_row, t2_row = report.row("p"), report.row("tb"), report.row("t2")
            allow_t2_tb = 2.0 * math.hypot(t2_row.mse_se, tb_row.mse_se)
            allow_tb_p = 2.0 * math.hypot(tb_row.mse_se, p_row.mse_se)
            assert t2_row.mse <= tb_row.mse + allow_t2_tb
            assert tb_row.mse <= p_row.mse + allow_tb_p


class TestCriterion4Stationarity:
    def test_stationarity_and_grid_domination(self, ref_pop, ref_design):
        with criterion("4 stationarity suite"):
            rng = np.random.default_rng(11)
            for _ in range(100):
                pop, f = well_posed_params(rng)

                alpha, beta = T1.optimum(T1Config(), pop, f)
                assert_stationary(lambda v: T1.mse(T1Config(v[0], v[1]), pop, f),
                                  [alpha, beta])

                h1, h2 = T2.optimum(T2Config(), pop, f)
                assert_stationary(lambda v: T2.mse(T2Config(v[0], v[1]), pop, f),
                                  [h1, h2])

                tc = theory.FAMILIES["tc"]
                q1, q2 = tc.optimum(TcConfig(), pop, f)
                assert_stationary(lambda v: tc.mse(TcConfig(q1=v[0], q2=v[1]), pop, f),
                                  [q1, q2])

                t3 = theory.FAMILIES["t3"]
                m1, m2 = t3.optimum(T3Config(), pop, f)
                assert_stationary(lambda v: t3.mse(T3Config(m1=v[0], m2=v[1]), pop, f),
                                  [m1, m2])

            # the closed-form minimum dominates a dense grid around it
            alpha, beta = T1.optimum(T1Config(), ref_pop, ref_design.f)
            best = T1.min_mse(T1Config(), ref_pop, ref_design.f)
            lowest = grid_min(
                lambda v: T1.mse(T1Config(v[0], v[1]), ref_pop, ref_design.f),
                [alpha, beta], rel_span=0.5, steps=101)
            assert lowest >= best - 1e-12


class TestCriterion5Properties:
    def test_property_suite(self, monkeypatch):
        with criterion("5 property suite"):
            rng = np.random.default_rng(5)
            for _ in range(1000):
                frame = random_frame(rng, size=int(rng.integers(20, 80)))
                pop = compute_population_params(frame)

                # moment inequality underpinning every optimal-constant solve
                assert pop.lambda04 - pop.lambda03**2 - 1.0 >= -1e-9

                n = max(2, pop.N // 5)
                f = 1 / n - 1 / pop.N
                v = theory.var_usual(pop, f)
                t1 = T1.min_mse(T1Config(), pop, f)
                tb = TB.min_mse(TbConfig(), pop, f)
                assert t1 <= tb + 1e-12 * v
                assert tb <= v + 1e-12 * v

                first = theory.comparison_conditions(pop, f)[0]
                assert first.holds is True

            # determinism: chunking cannot change a seeded report
            frame = random_frame(np.random.default_rng(99), size=300)
            serial = run_experiment(frame, 30, reps=600, seed=123)
            for rows in (1, 7, 600):
                monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", rows * 30)
                assert run_experiment(frame, 30, reps=600, seed=123) == serial
            monkeypatch.undo()
            repeat = run_experiment(frame, 30, reps=600, seed=123)
            assert repeat == serial
