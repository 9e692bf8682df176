import os
from pathlib import Path

import numpy as np
import pytest

from propaux import Design, PopulationFrame, PopulationParams, compute_population_params
from propaux.io import ParamsDocument

from _oracles import REF


def checkout_env() -> dict:
    """A copy of this process's environment in which a fresh interpreter
    imports ``propaux`` from this checkout's ``src``."""
    src = str(Path(__file__).parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.fixture(scope="session")
def ref_doc() -> ParamsDocument:
    """Parameter document with the reference survey summary statistics."""
    return ParamsDocument.from_dict(dict(REF))


@pytest.fixture(scope="session")
def ref_pop(ref_doc) -> PopulationParams:
    return ref_doc.params


@pytest.fixture(scope="session")
def ref_design(ref_doc) -> Design:
    return ref_doc.design


def random_frame(rng: np.random.Generator, size: int | None = None) -> PopulationFrame:
    """A realizable random population: lognormal auxiliary, logistic attribute."""
    n = int(size if size is not None else rng.integers(20, 120))
    while True:
        x = rng.lognormal(mean=rng.uniform(-0.5, 0.5), sigma=rng.uniform(0.2, 0.7), size=n)
        slope = rng.uniform(0.5, 6.0)
        intercept = -slope * rng.uniform(0.6, 1.4)
        prob = 1.0 / (1.0 + np.exp(-(intercept + slope * x)))
        phi = (rng.uniform(size=n) < prob).astype(np.int64)
        total = phi.sum()
        if 0 < total < n:
            return PopulationFrame(phi, x)


def random_params(rng: np.random.Generator) -> PopulationParams:
    """A realizable random parameter vector.

    The three relative deviations form a valid correlation structure by
    construction (Gram matrix of random unit vectors), so all closed-form
    minima stay nonnegative.
    """
    while True:
        big_n = int(rng.integers(30, 400))
        p = float(rng.uniform(0.1, 0.9))
        xbar = float(rng.uniform(0.5, 25.0))
        cx = float(rng.uniform(0.05, 0.9))
        sp2 = big_n * p * (1.0 - p) / (big_n - 1)
        vectors = rng.normal(size=(3, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        gram = vectors @ vectors.T
        r12, r13, r23 = gram[0, 1], gram[0, 2], gram[1, 2]
        if abs(r23) > 0.95:
            continue
        excess = float(rng.uniform(0.3, 4.0))  # lambda04 - 1
        root = np.sqrt(excess)
        return PopulationParams(
            N=big_n,
            P=p,
            xbar=xbar,
            sx2=(cx * xbar) ** 2,
            sp2=sp2,
            cp=float(np.sqrt(sp2) / p),
            cx=cx,
            rho_pb=float(r12),
            lambda03=float(r23 * root),
            lambda04=1.0 + excess,
            lambda12=float(r13 * root),
        )


def well_posed_params(rng: np.random.Generator) -> tuple[PopulationParams, float]:
    """A random parameter vector whose four optimality systems all exist.

    At large design factors the two-term family's quadratic form can turn
    indefinite, in which case its optimum is deliberately an error; draws are
    repeated until every family is well posed.
    """
    from propaux import T1Config, T3Config, TcConfig, theory

    while True:
        pop = random_params(rng)
        f = 1 / max(5, pop.N // 6) - 1 / pop.N
        try:
            t3, tc = theory.FAMILIES["t3"], theory.FAMILIES["tc"]
            t = t3.terms(T3Config(), pop, f)(theory._moments(pop))
            a, d, c = t[:3]
            if a * c - d**2 <= 1e-6:
                continue
            t3.optimum(T3Config(), pop, f, t)
            t3.min_mse(T3Config(), pop, f, t)
            t = tc.terms(TcConfig(), pop, f)(theory._moments(pop))
            tc.optimum(TcConfig(), pop, f, t)
            tc.min_mse(TcConfig(), pop, f, t)
            theory.FAMILIES["t1"].optimum(T1Config(), pop, f)
        except theory.ToolkitError:
            continue
        return pop, f


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def experiment():
    """The arbitration experiment: synthetic population, n=50, 20000 replicates."""
    from propaux import SyntheticSpec, generate_population, run_experiment

    frame = generate_population(SyntheticSpec(size=2000), seed=42)
    params = compute_population_params(frame)
    report = run_experiment(frame, 50, reps=20000, seed=20240811)
    return params, report
