"""Plain-text scenario files.

One `key value...` statement per line; `#` starts a comment; blank
lines are ignored.  Keys:

    suite <name>                 algebra | fixed-point | getzler |
                                 duhamel | spectral | torsion | all
    n <int>                      ambient dimension
    a <int>                      fixed-submanifold dimension
    angles <f> [<f> ...]         rotation angles of the normal action
    R <i> <j> <k> <l> <value>    curvature component (value rational,
                                 e.g. 3 or -5/2; indices in 1..n, lines
                                 consistent under the symmetries of R)
    curvature <path>             include n/a/angles/R lines from a file
    geometry torus | sphere
    action identity | minus-id | translation <vx> <vy> | rotation <theta>
                                 (the torus takes the first three, the
                                 sphere only rotation; vx, vy and theta
                                 in [0, 2pi))
    t-grid <f> [<f> ...]
    cutoff <int>
    tolerance <float>
    seed <int>
    out <path>
    format json | csv | text

Values given on the command line override the file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .equivariant import CurvatureTensor
from .spectral import IsometryAction

SUITES = ("algebra", "fixed-point", "getzler", "duhamel", "spectral",
          "torsion", "all")
FORMATS = ("json", "csv", "text")


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


@dataclass
class ScenarioConfig:
    suite: str = "all"
    n: int = 4
    a: int = 2
    angles: tuple = ()
    curvature: dict = field(default_factory=dict)
    geometry: str = "sphere"
    action_kind: str = "rotation"
    action_params: tuple = (0.7,)
    t_grid: tuple = (0.1, 0.5, 1.0)
    cutoff: int = 40
    tolerance: float = 1e-8
    seed: int = 0
    out: str | None = None
    format: str = "text"

    def validate(self):
        if self.suite not in SUITES:
            raise ScenarioError(f"unknown suite {self.suite!r}")
        if self.format not in FORMATS:
            raise ScenarioError(f"unknown format {self.format!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ScenarioError("tolerance must be positive and finite")
        if self.cutoff < 1:
            raise ScenarioError("cutoff must be >= 1")
        if not self.t_grid:
            raise ScenarioError("t-grid must not be empty")
        if not all(math.isfinite(t) and t > 0 for t in self.t_grid):
            raise ScenarioError("t-grid entries must be positive and finite")
        if self.n < 1 or not 0 <= self.a <= self.n:
            raise ScenarioError("need 1 <= n and 0 <= a <= n")
        if self.a + 2 * len(self.angles) != self.n and self.angles:
            raise ScenarioError("angles must pair up the normal directions")
        if not all(math.isfinite(x) for x in self.angles):
            raise ScenarioError("angles must be finite")
        try:
            CurvatureTensor(self.n, self.curvature)
        except ValueError as exc:
            raise ScenarioError(f"curvature: {exc}") from None
        if self.suite in ("spectral", "all"):
            # the spectral suite has no stand-in for an input it cannot run
            if self.geometry not in ("torus", "sphere"):
                raise ScenarioError(f"unknown geometry {self.geometry!r}")
            if self.geometry == "torus" and self.action_kind == "rotation":
                raise ScenarioError("the torus takes action identity, "
                                    "minus-id or translation, not rotation")
            if self.geometry == "sphere" and self.action_kind != "rotation":
                raise ScenarioError("the sphere takes only action rotation")
            try:
                IsometryAction(self.action_kind, self.action_params)
            except ValueError as exc:
                raise ScenarioError(f"action: {exc}") from None


def _parse_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational value {tok!r}") from exc


def _parse_lines(text: str, cfg: ScenarioConfig, base_dir: str,
                 allow_include: bool = True):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        key, args = toks[0], toks[1:]
        try:
            _apply(key, args, cfg, base_dir, allow_include)
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            # int()/float() of a malformed number, or a zero angle divisor
            raise ScenarioError(f"line {lineno}: bad value for {key}: {exc}") \
                from None


def _apply(key: str, args, cfg: ScenarioConfig, base_dir: str,
           allow_include: bool):
    def one():
        if len(args) != 1:
            raise ScenarioError(f"{key} takes one value")
        return args[0]

    if key == "suite":
        cfg.suite = one()
    elif key == "n":
        cfg.n = int(one())
    elif key == "a":
        cfg.a = int(one())
    elif key == "angles":
        cfg.angles = tuple(float(x) for x in args)
    elif key == "R":
        if len(args) != 5:
            raise ScenarioError("R takes four indices and one value")
        i, j, k, l = (int(x) for x in args[:4])
        cfg.curvature[(i, j, k, l)] = _parse_fraction(args[4])
    elif key == "curvature":
        if not allow_include:
            raise ScenarioError("nested curvature includes are not allowed")
        path = os.path.join(base_dir, one())
        if not os.path.isfile(path):
            raise ScenarioError(f"curvature file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            _parse_lines(fh.read(), cfg, os.path.dirname(path),
                         allow_include=False)
    elif key == "geometry":
        cfg.geometry = one()
    elif key == "action":
        if not args:
            raise ScenarioError("action needs a kind")
        kind, params = args[0], args[1:]
        if kind == "identity":
            cfg.action_kind, cfg.action_params = "translation", (0.0, 0.0)
        elif kind == "minus-id":
            cfg.action_kind, cfg.action_params = "minus-id", ()
        elif kind == "translation":
            if len(params) != 2:
                raise ScenarioError("translation takes two components")
            cfg.action_kind = "translation"
            cfg.action_params = tuple(_parse_angle(p) for p in params)
        elif kind == "rotation":
            if len(params) != 1:
                raise ScenarioError("rotation takes one angle")
            cfg.action_kind = "rotation"
            cfg.action_params = (_parse_angle(params[0]),)
        else:
            raise ScenarioError(f"unknown action kind {kind!r}")
    elif key == "t-grid":
        cfg.t_grid = tuple(float(x) for x in args)
    elif key == "cutoff":
        cfg.cutoff = int(one())
    elif key == "tolerance":
        cfg.tolerance = float(one())
    elif key == "seed":
        cfg.seed = int(one())
    elif key == "out":
        cfg.out = os.path.join(base_dir, one())
    elif key == "format":
        cfg.format = one()
    else:
        raise ScenarioError(f"unknown key {key!r}")


def _parse_angle(tok: str) -> float:
    """Angles accept plain floats and the forms pi, pi/2, 3pi/4."""
    tok = tok.strip()
    if "pi" in tok:
        num, _, den = tok.partition("pi")
        value = math.pi
        if num and num != "+":
            value *= -1.0 if num == "-" else float(num)
        if den:
            if not den.startswith("/"):
                raise ScenarioError(f"bad angle {tok!r}")
            value /= float(den[1:])
        return value
    return float(tok)


def parse_scenario(path: str) -> ScenarioConfig:
    if not os.path.isfile(path):
        raise ScenarioError(f"scenario file not found: {path}")
    cfg = ScenarioConfig()
    with open(path, encoding="utf-8") as fh:
        _parse_lines(fh.read(), cfg, os.path.dirname(os.path.abspath(path)))
    cfg.validate()
    return cfg
