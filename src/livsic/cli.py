"""Deterministic command line front end.

Every command reads a system document, writes canonical JSON to standard
output and signals its result through the exit code: 0 when the checked
property holds or the requested artifact was produced, 1 when the
property fails (with a witness in the payload), 2 for invalid input with
a structured error on standard error.

The solver layer is imported inside the handlers that solve or verify,
and the matrix layer, with numpy, inside those that handle a matrix
document, so `validate`, `check-transitivity` and `orbits` load neither
and commands on rational documents never load numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    AlphaNotConstant,
    BadShape,
    CocycleObstruction,
    DimensionMismatch,
    DocumentError,
    LivsicError,
)
from .serialization import (
    SolutionEnvelope,
    SystemEnvelope,
    canonical_json,
    class_tag_doc,
    error_doc,
    fields_doc,
    fraction_to_str,
    make_provenance,
    pair_witness_doc,
    parse_matrix_list,
    parse_rational,
    parse_solution_document,
    parse_system_document,
    solution_to_doc,
    system_to_doc,
    transitivity_doc,
    violation_witness_doc,
    word_table,
    word_to_key,
)
from .sft import validate_sft
from .skew import check_transitivity, class_tag, orbit_weights


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="livsic",
        description="Cohomology and transitivity toolkit for group "
        "extensions of subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("system", help="path to a system document")
        return p

    add("validate", "parse and validate a system document")
    add("check-transitivity", "decide transitivity of the skew product")

    p = add("orbits", "list primitive periodic orbits with class tags")
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--trivial-only", action="store_true")

    p = add("verify-vanishing", "check sums over trivial-class orbits")
    p.add_argument("--max-period", type=int, required=True)

    p = add("solve", "solve the cohomological equation")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="residual tolerance for matrix cocycles")
    p.add_argument("--out", help="also write the solution document here")

    p = add("verify-solution", "recheck a solution document against the system")
    p.add_argument("--solution", required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="residual tolerance for matrix solutions, scaled as in solve")

    p = add("generate", "build a solvable rational cocycle into the document")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--u", help="JSON file mapping blocks to rationals")
    src.add_argument("--random", action="store_true",
                     help="draw u at random (requires --seed)")
    p.add_argument("--alpha", default="0",
                   help='"0" or comma separated rationals, one per rank')
    p.add_argument("--seed", type=int)
    p.add_argument("--range", type=int, default=1, dest="block_range")
    p.add_argument("--out", help="also write the generated document here")

    p = add("distortion", "estimate expansion rates of a matrix cocycle")
    p.add_argument("--depth", type=int, required=True)
    alg = p.add_mutually_exclusive_group()
    alg.add_argument("--algebra", help="JSON file with a Lie algebra basis")
    alg.add_argument("--ambient", action="store_true",
                     help="ignore any declared algebra")

    p = add("check-distortion", "compare a Holder exponent with the threshold")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--depth", type=int, default=6)
    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_system(path: str) -> SystemEnvelope:
    return parse_system_document(_load_json(path))


def _require(env: SystemEnvelope, kind: str):
    """The document's cocycle, which must be of the given kind."""
    if env.cocycle is None or env.cocycle.kind != kind:
        raise DocumentError("/cocycle", f"this command needs a {kind} cocycle")
    return env.cocycle


def _emit(payload, out_path: str | None = None) -> None:
    text = canonical_json(payload)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _witness_doc(witness, k: int, kind: str) -> dict:
    if kind == "rational":
        from .abelian import EqualWeightPair

        if isinstance(witness, EqualWeightPair):
            return pair_witness_doc(witness, k)
    return violation_witness_doc(witness, k)


def _cmd_validate(args, command_line: str) -> int:
    env = _load_system(args.system)
    sft, group, cocycle = env.system.sft, env.system.group, env.cocycle
    group_doc = {
        "type": group.variant,
        "order": group.order,
        "rank": group.rank or None,
    }
    cocycle_doc = None
    if cocycle is not None:
        cocycle_doc = {"kind": cocycle.kind, "range": cocycle.block_range}
    report = validate_sft(sft)
    _emit(fields_doc(report, sft.k, None, ok=True, k=sft.k, group=group_doc,
                     cocycle=cocycle_doc))
    return 0


def _cmd_check_transitivity(args, command_line: str) -> int:
    env = _load_system(args.system)
    verdict = check_transitivity(env.system)
    _emit(transitivity_doc(verdict, env.system.sft.k))
    return 0 if verdict.status == "transitive" else 1


def _cmd_orbits(args, command_line: str) -> int:
    env = _load_system(args.system)
    system = env.system
    group = system.group
    k = system.sft.k
    pairs = list(orbit_weights(system, args.max_period))
    if args.trivial_only:
        pairs = [pair for pair in pairs if pair[1] == group.identity]
    tags: dict = {}
    for _, weight in pairs:
        if weight not in tags:
            tags[weight] = class_tag_doc(class_tag(group, weight), group)
    _emit(
        {
            "max_period": args.max_period,
            "count": len(pairs),
            "orbits": [
                {
                    "word": word_to_key(word, k),
                    "period": len(word),
                    "class": tags[weight],
                }
                for word, weight in pairs
            ],
        }
    )
    return 0


def _cmd_verify_vanishing(args, command_line: str) -> int:
    from .abelian import verify_vanishing

    env = _load_system(args.system)
    cocycle = _require(env, "rational")
    witness = verify_vanishing(env.system, cocycle, args.max_period)
    if witness is None:
        _emit({"holds": True, "max_period": args.max_period})
        return 0
    _emit(
        {
            "holds": False,
            "max_period": args.max_period,
            "witness": violation_witness_doc(witness, env.system.sft.k),
        }
    )
    return 1


def _cmd_solve(args, command_line: str) -> int:
    env = _load_system(args.system)
    system = env.system
    k = system.sft.k
    cocycle = env.cocycle
    if cocycle is None:
        raise DocumentError("/cocycle", "missing field")
    kind = cocycle.kind
    try:
        if kind == "matrix":
            from .matrix import solve_matrix_finite

            solution = solve_matrix_finite(system, cocycle, tol=args.tol)
        else:
            from .abelian import _solve_cover

            solution = _solve_cover(system, cocycle)
    except CocycleObstruction as exc:
        _emit({"solvable": False, "witness": _witness_doc(exc.witness, k, kind)})
        return 1
    except AlphaNotConstant as exc:
        block, eta, gamma, deviation = exc.witness
        _emit(
            {
                "solvable": False,
                "reason": "alpha_not_constant",
                "witness": {
                    "block": word_to_key(block, k),
                    "eta": eta,
                    "gamma": gamma,
                    "deviation": float(deviation),
                },
            }
        )
        return 1
    envelope = SolutionEnvelope(
        kind=kind,
        k=k,
        solution=solution,
        provenance=make_provenance(command_line),
    )
    _emit(solution_to_doc(envelope), args.out)
    return 0


def _cmd_verify_solution(args, command_line: str) -> int:
    env = _load_system(args.system)
    sol_env = parse_solution_document(_load_json(args.solution))
    system = env.system
    k = system.sft.k
    if sol_env.k != k:
        raise DimensionMismatch(f"solution is for {sol_env.k} symbols, the system has {k}")
    cocycle = _require(env, sol_env.kind)
    if sol_env.kind == "rational":
        from .abelian import verify_solution

        report = verify_solution(system, cocycle, sol_env.solution)
        failures = [
            {"word": word_to_key(w, k), "residual": fraction_to_str(res)}
            for w, res in report.failures
        ]
        _emit(fields_doc(report, k, None, failures=failures))
        return 0 if report.certified else 1
    import numpy as np

    from .matrix import certification_tolerance, invert_blocks, verify_matrix_solution

    solution = sol_env.solution
    # Scale the caller's tolerance as solve does, from u itself: every
    # tolerance and defect the document states is a claim under test.
    u_inv = invert_blocks(solution.u)
    check_tol = certification_tolerance(
        args.tol, np.stack(list(solution.u.values())), np.stack(list(u_inv.values()))
    )
    report = verify_matrix_solution(system, cocycle, solution, tol=check_tol)
    _emit(fields_doc(report, k, {"tol": "tolerance"}))
    return 0 if report.certified else 1


def _parse_alpha_spec(text: str):
    text = text.strip()
    if text in ("", "0"):
        return None
    return tuple(parse_rational(part.strip(), "/alpha") for part in text.split(","))


def _cmd_generate(args, command_line: str) -> int:
    from .abelian import generate_cocycle

    env = _load_system(args.system)
    system = env.system
    k = system.sft.k
    alpha = _parse_alpha_spec(args.alpha)
    u = None
    if args.u is not None:
        u = word_table(_load_json(args.u), k, "", parse_rational)
    cocycle = generate_cocycle(
        system, u, alpha, block_range=args.block_range, seed=args.seed
    )
    out_env = SystemEnvelope(system=system, cocycle=cocycle, group_doc=env.group_doc)
    _emit(system_to_doc(out_env), args.out)
    return 0


def _cmd_distortion(args, command_line: str) -> int:
    from .matrix import estimate_distortion, make_matrix_cocycle

    env = _load_system(args.system)
    cocycle = _require(env, "matrix")
    if args.ambient or args.algebra is not None:
        algebra = None if args.ambient else parse_matrix_list(_load_json(args.algebra), "")
        cocycle = make_matrix_cocycle(
            cocycle.sft, cocycle.block_range, cocycle.values, algebra=algebra
        )
    report = estimate_distortion(cocycle, args.depth)
    _emit(fields_doc(report, cocycle.sft.k, {"n_max": "depth"}))
    return 0


def _cmd_check_distortion(args, command_line: str) -> int:
    from .matrix import check_distortion_assumption, estimate_distortion

    env = _load_system(args.system)
    cocycle = _require(env, "matrix")
    report = estimate_distortion(cocycle, args.depth)
    verdict = check_distortion_assumption(report, args.theta)
    _emit(fields_doc(verdict, cocycle.sft.k, {"n_max": "depth"}))
    return 0 if verdict.status == "satisfied" else 1


def _check_flags(args) -> None:
    """A --tol must be finite and at least 0, a --theta finite and a
    --max-period at least 1."""
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise BadShape(f"--tol must be a finite number >= 0, got {tol}")
    theta = getattr(args, "theta", 0.0)
    if not math.isfinite(theta):
        raise BadShape(f"--theta must be a finite number, got {theta}")
    max_period = getattr(args, "max_period", 1)
    if max_period < 1:
        raise BadShape(f"--max-period must be at least 1, got {max_period}")


_HANDLERS = {
    "validate": _cmd_validate,
    "check-transitivity": _cmd_check_transitivity,
    "orbits": _cmd_orbits,
    "verify-vanishing": _cmd_verify_vanishing,
    "solve": _cmd_solve,
    "verify-solution": _cmd_verify_solution,
    "generate": _cmd_generate,
    "distortion": _cmd_distortion,
    "check-distortion": _cmd_check_distortion,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    command_line = " ".join(["livsic", *argv])
    try:
        _check_flags(args)
        return _HANDLERS[args.command](args, command_line)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            canonical_json({"error": "JSONDecodeError", "message": str(exc)})
        )
        return 2
    except OSError as exc:
        sys.stderr.write(canonical_json({"error": "IOError", "message": str(exc)}))
        return 2
    except LivsicError as exc:
        sys.stderr.write(canonical_json(error_doc(exc)))
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        sys.stderr.write(canonical_json(error_doc(exc)))
        return 3


if __name__ == "__main__":
    sys.exit(main())
