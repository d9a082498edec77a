"""Command line interface with deterministic JSON reports.

Operators are read from small JSON files (``dim`` plus a row-major list
of ``[re, im]`` entries); every command writes one report to stdout and
diagnostics to stderr.  Reports are rendered with sorted keys and
shortest round-trip float formatting, so identical inputs, flags and
seeds produce byte-identical output for a fixed numpy build and BLAS
thread count (LAPACK's ``svd`` changes its last bits between one and two
OpenBLAS threads).

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 upper
bound violated or optimum not attained (an implementation bug), 5
weights not majorized.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .exceptions import (
    BothZeroError,
    MatrixFileError,
    NotMajorizedError,
    PairDecompError,
)
from .fidelity import fidelity_spectrum, partial_fidelity_plus
from .majorize import first_majorization_violation, nielsen_decomposition
from .matcore import DEFAULT_MATCH_TOL, RANK_TOL
from .optimal import (
    extrapolate_to_zero,
    gauge_on_common_support,
    optimal_pair_general,
    regularized_profile,
    support_reduction,
)
from .oracle import random_search
from .states import (
    StateOperator,
    is_decomposition_of,
    mix,
    random_state_operator,
    reconstruction_error,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4
EXIT_NOT_MAJORIZED = 5


# ----------------------------------------------------------------------
# operator files and payload helpers
# ----------------------------------------------------------------------

def load_matrix_file(path: str) -> tuple[np.ndarray, dict]:
    """Read a matrix file; returns the raw matrix and its digest record."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise MatrixFileError(f"{path} must be an object with 'dim' and 'entries'")
    dim = payload["dim"]
    entries = payload["entries"]
    if type(dim) is not int or dim < 1:
        raise MatrixFileError(f"{path}: 'dim' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise MatrixFileError(f"{path}: 'entries' must hold dim*dim [re, im] pairs")
    # JSON numbers load as int or float; a JSON boolean loads as bool, not int
    if not all(
        type(item) is list and len(item) == 2
        and type(item[0]) in (int, float) and type(item[1]) in (int, float)
        for item in entries
    ):
        raise MatrixFileError(f"{path}: each entry must be a [re, im] pair of numbers")
    try:
        # [re, im] float pairs are complex128 in memory: no arithmetic touches a bit
        pairs = np.array(entries, dtype=np.float64)
    except OverflowError as exc:
        raise MatrixFileError(f"{path}: an entry is out of float range") from exc
    matrix = pairs.view(np.complex128).reshape(dim, dim)
    digest = {
        "file": os.path.basename(path),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    if isinstance(payload.get("label"), str):
        digest["label"] = payload["label"]
    return matrix, digest


def load_state(path: str) -> tuple[StateOperator, dict]:
    matrix, digest = load_matrix_file(path)
    return StateOperator.from_matrix(matrix), digest


def matrix_payload(matrix: np.ndarray) -> dict:
    return {"dim": int(matrix.shape[0]), "entries": vector_payload(matrix)}


def vector_payload(vector: np.ndarray) -> list:
    # the loader's layout in reverse: complex128 entries as [re, im] float pairs
    pairs = np.asarray(vector, dtype=np.complex128).ravel().view(np.float64)
    return pairs.reshape(-1, 2).tolist()


def floats(values) -> list:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def build_report(command: str, inputs: dict, results: dict, args) -> dict:
    tolerances = {"rank_tol": RANK_TOL, "tol": DEFAULT_MATCH_TOL}
    if hasattr(args, "seed"):
        tolerances["seed"] = int(args.seed)
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tolerances": tolerances,
        "version": __version__,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)


def _profile_payload(profile) -> dict:
    return {
        "sigma": floats(profile.sigma),
        "partial_plus": floats(profile.cumulative),
        "fidelity": float(profile.fidelity),
        "k_fidelity": [float(profile.tail(k)) for k in range(profile.dim + 1)],
    }


def _load_pair(args) -> tuple[StateOperator, StateOperator, dict]:
    """Both operators of a pair command; the command's first library call checks the dims."""
    rho, digest_rho = load_state(args.rho)
    omega, digest_omega = load_state(args.omega)
    return rho, omega, {"rho": digest_rho, "omega": digest_omega}


# ----------------------------------------------------------------------
# commands: each returns (inputs, results, exit code), and main builds the report
# ----------------------------------------------------------------------

def cmd_spectrum(args) -> tuple[dict, dict, int]:
    rho, omega, inputs = _load_pair(args)
    return inputs, _profile_payload(fidelity_spectrum(rho, omega)), EXIT_OK


def cmd_decompose(args) -> tuple[dict, dict, int]:
    rho, omega, inputs = _load_pair(args)
    pair = optimal_pair_general(rho, omega)
    profile = fidelity_spectrum(rho, omega)

    gram = pair.psi.vectors.conj() @ pair.phi.vectors.T
    biortho = float(np.max(np.abs(gram - np.diag(pair.values))))

    table = []
    for m in range(1, profile.dim + 1):
        achieved = float(np.sum(pair.values[:m]))
        bound = profile.partial(m)
        table.append({"m": m, "achieved": achieved, "partial_plus": bound,
                      "delta": achieved - bound})

    try:
        gauge = gauge_on_common_support(rho, omega)
        gauge_payload = {
            "X": matrix_payload(gauge.X),
            "tau": matrix_payload(gauge.tau.matrix),
            "working_dim": gauge.working_dim,
        }
    except BothZeroError:
        gauge_payload = None

    results = {
        "psi": [vector_payload(v) for v in pair.psi.vectors],
        "phi": [vector_payload(v) for v in pair.phi.vectors],
        "values": floats(pair.values),
        "gauge": gauge_payload,
        "residuals": {
            "biorthogonality": biortho,
            "psi_reconstruction": reconstruction_error(pair.psi, rho),
            "phi_reconstruction": reconstruction_error(pair.phi, omega),
        },
        "partial_sums": table,
    }
    return inputs, results, EXIT_OK


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise MatrixFileError(f"seed must be nonnegative, got {seed}")


def cmd_verify(args) -> tuple[dict, dict, int]:
    if args.m is not None and args.m < 0:
        raise MatrixFileError(f"m must be nonnegative, got {args.m}")
    if args.samples < 1:
        raise MatrixFileError(f"samples must be at least 1, got {args.samples}")
    if args.lengths and min(args.lengths) < 0:
        raise MatrixFileError(f"lengths must be nonnegative, got {args.lengths}")
    _require_seed(args.seed)
    rho, omega, inputs = _load_pair(args)
    dim = rho.dim
    m = args.m if args.m is not None else dim
    lengths = tuple(args.lengths) if args.lengths else (dim, dim)
    report = random_search(rho, omega, m, lengths, args.samples, args.seed)
    results = {
        "m": report.m,
        "samples": report.samples,
        "lengths": [int(lengths[0]), int(lengths[1])],
        "best_value": report.best_value,
        "best_seed": report.best_seed,
        "upper_bound": report.upper_bound,
        "violation": report.violation,
        "attained": report.attained,
    }
    code = EXIT_OK if (not report.violation and report.attained) else EXIT_VIOLATION
    return inputs, results, code


def cmd_nielsen(args) -> tuple[dict, dict, int]:
    tau, digest = load_state(args.tau)
    weights = np.asarray(args.weights, dtype=float)
    deco = nielsen_decomposition(tau, weights)
    norms = deco.norms_squared
    results = {
        "weights": floats(weights),
        "vectors": [vector_payload(v) for v in deco.vectors],
        "norms_squared": floats(norms),
        "norm_errors": floats(np.abs(norms - weights)),
        "reconstruction_ok": bool(is_decomposition_of(deco, tau)),
    }
    return {"tau": digest}, results, EXIT_OK


def cmd_concavity_search(args) -> tuple[dict, dict, int]:
    if args.dim < 2:
        raise MatrixFileError(f"dim must be at least 2, got {args.dim}")
    if not 1 <= args.m <= args.dim:
        raise MatrixFileError(f"m must be in 1..{args.dim}, got {args.m}")
    if args.trials < 1:
        raise MatrixFileError(f"trials must be at least 1, got {args.trials}")
    _require_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    mix_weights = (0.25, 0.5, 0.75)
    defects = []  # (trial, t, concavity defect, convexity defect)
    for trial in range(args.trials):
        rho1 = random_state_operator(args.dim, rng=rng)
        omega1 = random_state_operator(args.dim, rng=rng)
        rho2 = random_state_operator(args.dim, rng=rng)
        omega2 = random_state_operator(args.dim, rng=rng)
        f1 = partial_fidelity_plus(rho1, omega1, args.m)
        f2 = partial_fidelity_plus(rho2, omega2, args.m)
        for t in mix_weights:
            mixed = partial_fidelity_plus(
                mix(rho1, rho2, t), mix(omega1, omega2, t), args.m
            )
            combo = t * f1 + (1.0 - t) * f2
            # not -(mixed - combo): that is -0.0 when the two are equal
            defects.append((trial, t, mixed - combo, combo - mixed))
    results = {"dim": int(args.dim), "m": int(args.m), "trials": int(args.trials)}
    for kind, column in (("concavity", 2), ("convexity", 3)):
        # min keeps the first of equal defects
        worst = min(defects, key=lambda row: row[column])
        results[kind] = {"defect": float(worst[column]), "trial": worst[0], "t": worst[1]}
    return {}, results, EXIT_OK


def cmd_regularize(args) -> tuple[dict, dict, int]:
    c_list = [float(c) for c in args.c]
    if any(not 0.0 < c < np.inf for c in c_list) or any(
        later >= earlier for earlier, later in zip(c_list[:-1], c_list[1:])
    ):
        raise MatrixFileError("--c values must be positive, finite and strictly decreasing")
    rho, omega, inputs = _load_pair(args)
    dim = rho.dim
    exact = floats(fidelity_spectrum(rho, omega).cumulative)
    try:
        reduction_steps = len(support_reduction(rho, omega).steps)
    except BothZeroError:
        reduction_steps = None

    rows = []
    for c in c_list:
        values = floats(regularized_profile(rho, omega, c).cumulative)
        deviation = max(abs(v - e) for v, e in zip(values, exact))
        rows.append({"c": c, "partial_plus": values, "max_deviation": deviation})

    nodes = [np.sqrt(c) for c in c_list]
    extrapolated = [
        extrapolate_to_zero(nodes, [row["partial_plus"][m] for row in rows])
        for m in range(dim + 1)
    ]
    results = {
        "c": c_list,
        "rows": rows,
        "exact": exact,
        "extrapolated": floats(extrapolated),
        "extrapolation_error": max(abs(x - e) for x, e in zip(extrapolated, exact)),
        "reduction_steps": reduction_steps,
    }
    return inputs, results, EXIT_OK


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdecomp",
        description="Partial fidelities and optimal simultaneous decompositions "
                    "of positive operator pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_cmd(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("rho")
        p.add_argument("omega")
        p.set_defaults(func=func)
        return p

    pair_cmd("spectrum", cmd_spectrum, "fidelity spectrum and partial fidelities of a pair")
    pair_cmd("decompose", cmd_decompose, "optimal simultaneous decompositions of a pair")

    p = pair_cmd("verify", cmd_verify, "randomized search certifying the pairing upper bound")
    p.add_argument("--m", type=int, default=None, help="pairing size (default: dim)")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--lengths", type=int, nargs=2, default=None,
                   help="decomposition lengths (default: dim dim)")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("nielsen", help="decomposition with prescribed vector norms")
    p.add_argument("tau")
    p.add_argument("--weights", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_nielsen)

    p = sub.add_parser("concavity-search",
                       help="search for concavity/convexity defects of a partial fidelity")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_concavity_search)

    p = pair_cmd("regularize", cmd_regularize, "regularization path toward a singular pair")
    p.add_argument("--c", type=float, nargs="+", default=[1e-2, 1e-4, 1e-6],
                   help="regularization constants relative to each operator's trace, "
                        "strictly decreasing")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        inputs, results, code = args.func(args)
    except MatrixFileError as exc:
        print(f"pairdecomp: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotMajorizedError as exc:
        print(
            f"pairdecomp: {exc} (first violated prefix: {exc.violated_prefix})",
            file=sys.stderr,
        )
        return EXIT_NOT_MAJORIZED
    except PairDecompError as exc:
        print(f"pairdecomp: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(render_report(build_report(args.command, inputs, results, args)))
    return code


def run() -> None:
    sys.exit(main())
