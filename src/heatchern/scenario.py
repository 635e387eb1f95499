"""Plain-text scenario files.

A scenario file is UTF-8 text with one `key value...` statement per
line; `#` starts a comment; blank lines are ignored.  Keys:

    suite <name>                 algebra | fixed-point | getzler |
                                 duhamel | spectral | torsion | all
    n <int>                      ambient dimension (at most 10 when
                                 the fixed-point suite runs)
    a <int>                      fixed-submanifold dimension (n and a
                                 even and n - a <= 4 when the
                                 fixed-point suite runs)
    angles <f> [<f> ...]         rotation angles of the normal action,
                                 none a multiple of 2pi
    R <i> <j> <k> <l> <value>    curvature component (value rational,
                                 e.g. 3, -5/2 or 1.5e2, the exponent at
                                 most 4 digits; indices in 1..n, lines
                                 consistent under the symmetries of R)
    curvature <path>             include only n/a/angles/R lines from a file
    geometry torus | sphere
    action identity | minus-id | translation <vx> <vy> | rotation <theta>
                                 (the torus takes the first three, the
                                 sphere only rotation; vx, vy and theta
                                 in [0, 2pi))
    t-grid <f> [<f> ...]         the fixed-point suite reads the first
                                 entry t and refuses it when the Gaussian
                                 fiber integral (4 pi t)^{(n-a)/2} /
                                 det(1 - phi^N), the fiber integral or
                                 (4 pi t)^{-n/2} leaves e^{+-700}
    cutoff <K>                   the spectral suite sums (2K+1)^2 torus
                                 or K+1 sphere modes once per t-grid
                                 entry, and a tail past K that grows
                                 like t^(-1/2); at most 1e7 terms in all
    tolerance <float>
    seed <int>                   a non-negative integer
    out <path>
    format json | csv | text

Values given on the command line override the file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .equivariant import CurvatureTensor, IsometryNormalForm
from .spectral import IsometryAction, _tail_terms, check_pair

SUITES = ("algebra", "fixed-point", "getzler", "duhamel", "spectral",
          "torsion", "all")
FORMATS = ("json", "csv", "text")
# mode and tail terms the spectral suite may sum, one heat sum and one tail
# sum per t-grid entry; 1e6 of them take 0.1-0.2 s
MAX_MODE_TERMS = 10 ** 7
# normal directions b = n - a of the fixed-point fiber quadrature, whose
# refinement evaluates 8^b + 16^b points at about 0.2 us each
MAX_NORMAL_DIM = 4
# ambient dimension of the fixed-point suite, whose exact routes work on
# 2^n- and 4^n-sized bases; no test or workload goes past n = 10
MAX_FIXED_POINT_DIM = 10
# |log| of a float the fiber integral's routes may produce, below the log of
# the smallest normal float (-708.4) and of the largest (709.8)
MAX_LOG_FLOAT = 700


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
        if self.seed < 0:
            raise ScenarioError("seed must be a non-negative integer")
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
        if self.suite in ("fixed-point", "all"):
            if self.n > MAX_FIXED_POINT_DIM:
                raise ScenarioError(f"n = {self.n}: the fixed-point suite "
                                    f"takes n <= {MAX_FIXED_POINT_DIM}")
            iso = self.isometry()
            b = iso.b
            if b > MAX_NORMAL_DIM:
                raise ScenarioError(f"n - a = {b} normal directions need "
                                    f"{8 ** b + 16 ** b} Gauss-Hermite points; "
                                    f"the fixed-point suite takes at most "
                                    f"{MAX_NORMAL_DIM}")
            # logs of the Gaussian integral, of the fiber integral, and of
            # the (4 pi t)^{-n/2} by which the quadrature scales the first
            t = self.t_grid[0]
            log_4pit = math.log(4 * math.pi * t)
            log_det = math.log(iso.det_one_minus_normal())
            past = [name for name, log in (
                ("the Gaussian integral (4 pi t)^(b/2)/det(1 - phi^N)",
                 b / 2 * log_4pit - log_det),
                ("the fiber integral (4 pi t)^(-a/2)/det(1 - phi^N)",
                 self.a / 2 * log_4pit + log_det),
                ("the fiber quadrature's factor (4 pi t)^(-n/2)",
                 self.n / 2 * log_4pit)) if abs(log) > MAX_LOG_FLOAT]
            if past:
                raise ScenarioError(
                    f"{' and '.join(past)} at t = {t:g} "
                    f"{'is' if len(past) == 1 else 'are'} outside the float "
                    f"range e^(+-{MAX_LOG_FLOAT})")
        if self.suite in ("spectral", "all"):
            # the spectral suite has no stand-in for an input it cannot run
            try:
                check_pair(self.geometry, self.action_kind)
            except ValueError as exc:
                raise ScenarioError(f"geometry: {exc}") from None
            try:
                IsometryAction(self.action_kind, self.action_params)
            except ValueError as exc:
                raise ScenarioError(f"action: {exc}") from None
            # one mode sum and one tail sum per t
            K = self.cutoff
            modes = (2 * K + 1) ** 2 if self.geometry == "torus" else K + 1
            modes *= len(self.t_grid)
            tail = sum(_tail_terms(K, t) for t in self.t_grid)
            if modes + tail > MAX_MODE_TERMS:
                raise ScenarioError(f"cutoff {K} on the {self.geometry} needs "
                                    f"{modes} mode terms and {tail} tail "
                                    f"terms, more than {MAX_MODE_TERMS}")

    def isometry(self) -> IsometryNormalForm:
        """The fixed-point suite's isometry; the angles default to 0.7 + 0.4 j."""
        angles = self.angles or tuple(
            0.7 + 0.4 * j for j in range((self.n - self.a) // 2))
        try:
            return IsometryNormalForm(self.n, self.a, angles)
        except ValueError as exc:
            raise ScenarioError(f"isometry: {exc}") from None


def _parse_fraction(tok: str) -> Fraction:
    # Fraction("1e<exp>") builds 10^exp exactly, which takes seconds from
    # about exp = 10^7 on
    digits = tok.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if digits.isdecimal() and len(digits.lstrip("0")) > 4:
        raise ScenarioError(f"bad rational value {tok!r}: exponent over 4 digits")
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational value {tok!r}") from exc


def _parse_lines(text: str, cfg: ScenarioConfig, base_dir: str,
                 include: bool = False):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        key, args = toks[0], toks[1:]
        try:
            if include and key not in ("n", "a", "angles", "R"):
                raise ScenarioError(f"a curvature include takes n, a, angles "
                                    f"and R lines, not {key!r}")
            _apply(key, args, cfg, base_dir)
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            # int()/float() of a malformed number, or a zero angle divisor
            raise ScenarioError(f"line {lineno}: bad value for {key}: {exc}") \
                from None


def _apply(key: str, args, cfg: ScenarioConfig, base_dir: str):
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
        cfg.angles = tuple(_parse_angle(x) for x in args)
    elif key == "R":
        if len(args) != 5:
            raise ScenarioError("R takes four indices and one value")
        i, j, k, l = (int(x) for x in args[:4])
        cfg.curvature[(i, j, k, l)] = _parse_fraction(args[4])
    elif key == "curvature":
        path = os.path.join(base_dir, one())
        if not os.path.isfile(path):
            raise ScenarioError(f"curvature file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            _parse_lines(text, cfg, os.path.dirname(path), include=True)
        except ScenarioError as exc:
            raise ScenarioError(f"include {path}: {exc}") from None
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
    """Parse a scenario file; ``run_suite`` validates it after any overrides."""
    if not os.path.isfile(path):
        raise ScenarioError(f"scenario file not found: {path}")
    cfg = ScenarioConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc}") from None
    _parse_lines(text, cfg, os.path.dirname(os.path.abspath(path)))
    return cfg
