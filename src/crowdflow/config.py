"""Flat key-value experiment configuration.

The format is plain UTF-8 text, one ``dotted.key = value`` per line, with
``#`` comments; lists are comma separated and box shapes use
``a,b,height`` triples joined by semicolons.  Easy to diff, trivial to
parse anywhere.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .model import GridDensity, GridSpec, make_grid_density
from .potentials import potential_catalog


class ConfigError(ValueError):
    """Malformed or missing configuration (CLI exit code 2)."""


#: every key some experiment reads; ``potential.<name>`` keys other than
#: these pass too, since ``potential_catalog`` rejects a parameter its kind
#: does not read
KEYS = frozenset({
    "crossval.times", "eps.rate", "grid.dim", "grid.hi", "grid.lo",
    "grid.n", "h.halvings", "heleshaw.dt", "init.boxes", "init2.boxes",
    "jko.h", "m", "m.list", "pme.dt", "pme.eps_supp", "potential.domain",
    "potential.kind", "quantile.n", "run.T", "run.scheme", "seed",
    "snapshots", "threshold.interior", "trials"})


def _positive(key, val):
    """``val`` if it is a positive, finite float, else a ConfigError naming
    ``key``: the check of every step size, horizon and output time."""
    if not 0.0 < val < math.inf:  # NaN fails too
        raise ConfigError(f"key {key!r}: must be positive and finite, "
                          f"got {val}")
    return val


def _finite(key, val):
    """``val`` if it is finite, else a ConfigError naming ``key``."""
    if not math.isfinite(val):
        raise ConfigError(f"key {key!r}: must be finite, got {val}")
    return val


def _at_least(key, val, lo):
    """``val`` if it is at least ``lo``, else a ConfigError naming ``key``:
    the check of every count and size."""
    if val < lo:
        raise ConfigError(f"key {key!r}: must be an integer >= {lo}, "
                          f"got {val}")
    return val


def _m_value(key, tok):
    """One congestion exponent: a number above one, or ``inf`` for the hard
    constraint."""
    try:
        val = float(tok)  # float() also reads inf / infinity, in any case
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number or inf: {tok!r}") from exc
    if not val > 1.0:  # NaN fails too
        raise ConfigError(f"key {key!r}: must be > 1 or inf, got {val}")
    return val


@dataclass
class ExperimentConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, val = body.split("=", 1)
            key = key.strip()
            if key not in KEYS and not key.startswith("potential."):
                raise ConfigError(f"line {lineno}: key {key!r}: no "
                                  "experiment reads it")
            raw[key] = val.strip()
        return cls(raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                return cls.from_text(f.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    # -- typed getters -------------------------------------------------------

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def _lookup(self, key, default):
        """Raw value of ``key``; ``None`` when absent but defaulted."""
        val = self.raw.get(key)
        if val is None and default is None:
            raise ConfigError(f"missing required key {key!r}")
        return val

    def get_float(self, key, default=None):
        val = self._lookup(key, default)
        if val is None:
            return float(default)
        try:
            return float(val)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number: {val!r}") from exc

    def get_int(self, key, default=None):
        val = self.get_float(key, default)
        if not val.is_integer():  # also False for inf and nan
            raise ConfigError(f"key {key!r}: not an integer: {val!r}")
        return int(val)

    def get_floats(self, key, default=None):
        val = self._lookup(key, default)
        if val is None:
            return list(default)
        try:
            return [float(tok) for tok in val.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: bad list: {val!r}") from exc

    def get_positive(self, key, default=None):
        """A step size or horizon: ``get_float``, positive and finite."""
        return _positive(key, self.get_float(key, default))

    def get_positive_floats(self, key, default=None):
        """Output times: ``get_floats``, at least one, each positive and
        finite, strictly increasing."""
        vals = [_positive(key, v) for v in self.get_floats(key, default)]
        if not vals:
            raise ConfigError(f"key {key!r}: needs at least one value")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError(f"key {key!r}: must be strictly increasing, "
                              f"got {vals}")
        return vals

    def get_m_list(self, default=None):
        val = self._lookup("m.list", default)
        if val is None:
            vals = list(default)
        else:
            vals = [_m_value("m.list", tok) for tok in val.split(",")
                    if tok.strip()]
        finite = [v for v in vals if not math.isinf(v)]
        if finite != sorted(finite):
            raise ConfigError("m.list must be sorted ascending")
        return vals

    def get_m(self, default=None):
        val = self._lookup("m", default)
        return default if val is None else _m_value("m", val)

    # -- composite builders --------------------------------------------------

    def boxes(self, key="init.boxes"):
        val = self._lookup(key, None)
        out = []
        for part in val.split(";"):
            toks = [t for t in part.split(",") if t.strip()]
            try:
                a, b, h = (float(t) for t in toks)
            except ValueError as exc:
                raise ConfigError(
                    f"key {key!r}: boxes are 'a,b,height' triples") from exc
            out.append((_finite(key, a), _finite(key, b), _finite(key, h)))
        return out

    def shape_spec(self, key="init.boxes"):
        return {"boxes": self.boxes(key)}

    def grid_density(self, key, grid: GridSpec) -> GridDensity:
        """The boxes of ``key`` averaged onto ``grid``.  A box the grid does
        not cover, or a negative or empty density, is an error of ``key``."""
        shape = self.shape_spec(key)
        try:
            return make_grid_density(shape, grid)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    def grid_spec(self) -> GridSpec:
        lo = _finite("grid.lo", self.get_float("grid.lo", -4.0))
        hi = _finite("grid.hi", self.get_float("grid.hi", 4.0))
        n = _at_least("grid.n", self.get_int("grid.n", 800), 1)
        dim = _at_least("grid.dim", self.get_int("grid.dim", 1), 1)
        if not lo < hi:
            raise ConfigError(f"key 'grid.lo': must be below key "
                              f"'grid.hi', got {lo} and {hi}")
        if dim > 1 and lo != 0.0:
            raise ConfigError(f"key 'grid.lo': a radial grid (grid.dim = "
                              f"{dim}) starts at r = 0, got {lo}")
        return GridSpec(lo, hi, n, dim=dim)

    def potential(self):
        kind = self.get("potential.kind", "quadratic")
        params = {}
        for key in self.raw:
            if key.startswith("potential.") and key not in (
                    "potential.kind", "potential.domain"):
                name = key.split(".", 1)[1]
                params[name] = (self.get_floats(key) if name == "coef"
                                else self.get_float(key))
        dom = self.get_floats("potential.domain", (-8.0, 8.0))
        if len(dom) != 2 or not -math.inf < dom[0] < dom[1] < math.inf:
            raise ConfigError("key 'potential.domain': must be 'lo,hi' with "
                              f"finite lo < hi, got {dom}")
        try:
            return potential_catalog(kind, params, domain=tuple(dom),
                                     dim=self.get_int("grid.dim", 1))
        except ValueError as exc:
            keys = ", ".join(f"'potential.{name}'" for name in params)
            prefix = f"key{'s' * (len(params) > 1)} {keys}: " if keys else ""
            raise ConfigError(prefix + str(exc)) from exc

    def hash(self) -> str:
        canon = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
