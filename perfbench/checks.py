"""Run one verification through the program's public entry points.

A ``verify`` item goes through ``heatchern.cli.main``; an API item calls the
module functions along two independent routes and compares them at a stated
tolerance.  Every item returns ``(ok, payload)``: ``payload`` is the bytes the
program produced (the report, or the two routes' values), so runs can be
compared byte for byte.

A verification fails when the ``verify`` exit code is not 0, when any check in
its report is FAIL, when a second emit of the same report gives other bytes,
or, for an API item, when the two routes disagree beyond the tolerance.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.linalg import expm

from heatchern import (_kernels, cli, duhamel, equivariant,
                       report as report_mod, spectral)
from heatchern.clifford import CliffordElement

_EMIT = report_mod.emit


class EmitRecorder:
    """Stands in for ``cli.emit`` while in use as a context manager, and
    keeps what each verify run emitted.

    The program's emit (as currently bound, so the tracer sees it) makes the
    payload; a second, untraced emit of the same report checks byte
    stability.
    """

    def __init__(self):
        self.last = None

    def __call__(self, report, fmt):
        payload = report_mod.emit(report, fmt)
        self.last = (report, payload, _EMIT(report, fmt))
        return payload

    def __enter__(self):
        cli.emit = self
        return self

    def __exit__(self, *exc):
        cli.emit = _EMIT
        return False


def run_verify(item: dict, directory: str, recorder: EmitRecorder):
    recorder.last = None
    out = os.path.join(directory, item["out"])
    code = cli.main(["verify", "--config",
                     os.path.join(directory, item["config"]), "--out", out])
    if recorder.last is None:
        return False, f"exit {code}, nothing emitted".encode()
    report, payload, again = recorder.last
    with open(out, "rb") as fh:
        written = fh.read()
    data = payload.encode("utf-8")
    ok = (code == 0 and report.passed and payload == again
          and written == data)
    return ok, data


def _agree(first, second, tol: float):
    err = abs(first - second)
    payload = f"{first!r} {second!r} err={err!r} tol={tol!r}".encode()
    return err <= tol, payload


def _supertrace(item: dict):
    iso = equivariant.IsometryNormalForm(item["n"], item["a"], item["angles"])
    A = CliffordElement(item["n"], {(cm, hm): c for cm, hm, c in item["terms"]})
    matrix = equivariant.equivariant_supertrace(iso, A, "matrix")
    decomposition = equivariant.equivariant_supertrace(iso, A, "decomposition")
    scale = (1 << item["n"]) * sum(abs(c) for _, _, c in item["terms"])
    return _agree(matrix, decomposition, 1e-10 * scale)


def _gauss_hermite(item: dict):
    """Quadrature against (pi 4t)^{b/2} / sqrt(det M)."""
    M = np.array(item["M"])
    four_t = item["four_t"]
    quad = _kernels.gauss_hermite_gaussian_integral(M, four_t)
    closed = (math.pi * four_t) ** (len(M) / 2) / math.sqrt(np.linalg.det(M))
    return _agree(quad, closed, 1e-7 * closed)


def _torus_sum(item: dict):
    vx, vy = item["v"]
    action = spectral.IsometryAction.translation(vx, vy)
    value = _kernels.torus_supertrace(item["kmax"], vx, vy, False, item["t"])
    return _agree(value, spectral.fixed_point_prediction("torus", action), 1e-9)


def _sphere_sum(item: dict):
    action = spectral.IsometryAction.rotation(item["theta"])
    value = _kernels.sphere_supertrace(item["lmax"], item["theta"], item["t"])
    return _agree(value, spectral.fixed_point_prediction("sphere", action),
                  1e-9)


def _series(item: dict):
    """Truncation error bound (t ||L||)^{K+1}, as in the duhamel suite."""
    op = duhamel.FiniteOperator
    H = op(item["H"], hermitian=True)
    L, C, Phi = op(item["L"]), op(item["C"]), op(item["Phi"])
    t, K = item["t"], item["K"]
    grading = np.array(item["grading"])
    series = duhamel.duhamel_series(H, L, C, Phi, t, K, grading)
    direct = duhamel.direct_supertrace(H, L, C, Phi, t, grading)
    return _agree(series, direct, (t * L.norm()) ** (K + 1))


def _remainder(item: dict):
    """Truncated expansion plus exact remainder against exp(-sH) B."""
    H = duhamel.FiniteOperator(item["H"], hermitian=True)
    B = duhamel.FiniteOperator(item["B"])
    s, N = item["s"], item["N"]
    approx, _ = duhamel.commutator_expansion(H, B, s, N)
    rem = duhamel.remainder_operator(H, B, s, N)
    exact = expm(-s * H.mat) @ B.mat
    err = float(np.max(np.abs(approx.mat + rem.mat - exact)))
    return _agree(err, 0.0, 1e-9 * (1.0 + float(np.max(np.abs(exact)))))


API_CHECKS = {
    "equivariant-supertrace": _supertrace,
    "gauss-hermite": _gauss_hermite,
    "torus-sum": _torus_sum,
    "sphere-sum": _sphere_sum,
    "duhamel-series": _series,
    "remainder": _remainder,
}


def run_item(item: dict, directory: str, recorder: EmitRecorder):
    """(ok, payload); an exception inside the program counts as a failure."""
    try:
        if item["kind"] == "verify":
            return run_verify(item, directory, recorder)
        return API_CHECKS[item["kind"]](item)
    except Exception as exc:   # noqa: BLE001 - a crash is a failed verification
        return False, f"error: {type(exc).__name__}: {exc}".encode()
