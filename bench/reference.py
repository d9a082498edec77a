"""Factor-based reference check of CLI reports.

With rho = A A* and omega = C C*, the fidelity spectrum of the pair is
the list of singular values of A* C, padded with zeros to the dimension.
That reference is independent of the library's eigen-solver and of any
matrix square root: an ``eigh``-square-root reference disagrees with the
library by up to about 1e-8 on rank-deficient pairs, enough to flag
correct reports as failures, while the factor reference agrees to about
1e-14.

Each check takes the report of a run that exited with code 0 and
returns ``None`` when it is correct and a one-line reason otherwise.
Values are compared with the acceptance suite's pinned tolerance, 1e-8
relative to max(1, F).
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-8


def reference_sigma(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Decreasing fidelity spectrum of (A A*, C C*), length d."""
    dim = a.shape[0]
    s = np.linalg.svd(a.conj().T @ c, compute_uv=False)
    sigma = np.zeros(dim)
    sigma[: s.size] = np.sort(s)[::-1][:dim]
    return sigma


def reference_partial(sigma: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(sigma)])


def _mismatch(name: str, got, want: np.ndarray, scale: float) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"{name} has shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= TOL * scale:
        return f"{name} differs from the factor reference by {err:.3e}"
    return None


def _parse(text: str, command: str) -> tuple[dict | None, str | None]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"
    if not isinstance(report, dict) or report.get("command") != command:
        return None, f"report is not a {command} report"
    return report, None


def check_spectrum(text: str, sigma_ref: np.ndarray) -> str | None:
    report, reason = _parse(text, "spectrum")
    if reason:
        return reason
    res = report["results"]
    partial = reference_partial(sigma_ref)
    fid = float(partial[-1])
    scale = max(1.0, fid)
    return (
        _mismatch("sigma", res["sigma"], sigma_ref, scale)
        or _mismatch("partial_plus", res["partial_plus"], partial, scale)
        or _mismatch("fidelity", [res["fidelity"]], np.array([fid]), scale)
        or _mismatch("k_fidelity", res["k_fidelity"], fid - partial, scale)
    )


def check_decompose(text: str, sigma_ref: np.ndarray) -> str | None:
    report, reason = _parse(text, "decompose")
    if reason:
        return reason
    res = report["results"]
    partial = reference_partial(sigma_ref)
    scale = max(1.0, float(partial[-1]))
    table = res["partial_sums"]
    if [row["m"] for row in table] != list(range(1, sigma_ref.size + 1)):
        return "partial_sums does not list m = 1..d"
    values = np.zeros(max(len(res["values"]), sigma_ref.size))
    values[: sigma_ref.size] = sigma_ref
    reason = _mismatch("partial_plus", [row["partial_plus"] for row in table], partial[1:], scale) or (
        _mismatch("values", res["values"], values, scale))
    if reason:
        return reason
    worst_delta = max(abs(row["delta"]) for row in table)
    if not worst_delta <= TOL:
        return f"attainment delta {worst_delta:.3e} exceeds {TOL:g}"
    for name, value in sorted(res["residuals"].items()):
        if not value <= TOL:
            return f"residual {name} = {value:.3e} exceeds {TOL:g}"
    return None


def check_verify(text: str, sigma_ref: np.ndarray, m: int) -> str | None:
    report, reason = _parse(text, "verify")
    if reason:
        return reason
    res = report["results"]
    partial = reference_partial(sigma_ref)
    bound = float(partial[min(m, sigma_ref.size)])
    return _mismatch("upper_bound", [res["upper_bound"]], np.array([bound]), max(1.0, float(partial[-1])))
