"""Per-family estimator configurations.

Constants that admit a population-optimal value are declared as
``float | None`` and default to ``None``, which means "resolve to the
population-optimal value when the population parameters are known".
Each configuration is a ``NamedTuple``: immutable, compared as a tuple, and
copied with changes by ``_replace``; ``from_kv`` parses its CLI flag text.

``ascii_number`` is the grammar of every number the command line reads:
the configuration values here, the integer arguments and sample indices.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def ascii_number(text: str, number_type: type = float) -> float | int:
    """``number_type(text)``, for ``float`` or ``int``, of text that is
    ASCII and has no ``_``: the grammar of the population CSV's ``x`` cells,
    which every number on the command line keeps too. Python's ``float`` and
    ``int`` alone also read ``1_0`` and non-ASCII digits. Anything else is a
    ``ValueError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return number_type(text)


def integer(text: str) -> int:
    """An integer CLI argument in the ``ascii_number`` grammar."""
    return ascii_number(text, int)


def _parse_value(raw: str) -> float | None:
    """A finite number, or None for ``optimal``; anything else is a ValueError."""
    if raw.strip().lower() == "optimal":
        return None
    value = ascii_number(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


@classmethod
def _from_kv(cls, text: str):  # each configuration's ``from_kv``
    """Build a config from ``key=value,key=value`` text (CLI syntax).

    ``optimal`` is accepted only for the fields that default to None,
    which have a population-optimal value."""
    kwargs = {}
    defaults = cls._field_defaults
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in defaults:
            raise ValueError(f"unknown or malformed option {part!r} for {cls.__name__}")
        try:
            kwargs[key] = _parse_value(raw)
        except ValueError:
            raise ValueError(f"cannot parse value in {part!r}") from None
        if kwargs[key] is None and defaults[key] is not None:
            optimal = ", ".join(name for name, value in defaults.items() if value is None)
            raise ValueError(f"{key} has no optimal value in {part!r}; "
                             f"{cls.__name__} resolves only {optimal}")
    return cls(**kwargs)


class TbConfig(NamedTuple):
    """Linear regression-type member; ``h1 = None`` means the optimal slope."""

    h1: float | None = None

    from_kv = _from_kv


class TcConfig(NamedTuple):
    """Ratio/exponential transform family.

    ``a``, ``b``, ``alpha``, ``beta`` pick the auxiliary transform; the
    weights ``q1``, ``q2`` default to the population-optimal pair.
    """

    a: float = 1.0
    b: float = 0.0
    alpha: float = 1.0
    beta: float = 0.0
    q1: float | None = None
    q2: float | None = None

    from_kv = _from_kv


class T1Config(NamedTuple):
    """Power-transform estimator; exponents default to the optimal pair."""

    alpha: float | None = None
    beta: float | None = None

    from_kv = _from_kv


class T2Config(NamedTuple):
    """Linear two-channel member; offsets default to the optimal pair."""

    h1: float | None = None
    h2: float | None = None

    from_kv = _from_kv


class T3Config(NamedTuple):
    """Two-term weighted family.

    ``gamma`` shifts the ratio channel, ``g`` and ``delta`` switch the ratio
    and exponential channels (conventionally -1, 0, or 1, though any real
    value is accepted); the weights ``m1``, ``m2`` default to the optimal pair.
    """

    gamma: float = 1.0
    g: float = 1.0
    delta: float = 1.0
    m1: float | None = None
    m2: float | None = None

    from_kv = _from_kv


#: (g, delta) switch pairs reported in the standard efficiency table.
T3_TABLE_VARIANTS: tuple[tuple[float, float], ...] = ((1.0, 1.0), (1.0, -1.0), (0.0, 1.0))


class TableConfig(NamedTuple):
    """Configuration of a full theory/efficiency report."""

    tc: TcConfig = TcConfig()
    t3_gamma: float = 1.0

    def t3_configs(self) -> tuple[T3Config, ...]:
        return tuple(T3Config(gamma=self.t3_gamma, g=g, delta=d) for g, d in T3_TABLE_VARIANTS)
