"""Command-line frontend: parse ANF/truth-table inputs, run the analyses,
emit ClassReport JSON, and bundle the published fixtures behind the
verify-paper regression command.

Reports serialize with sorted keys and two-space indentation, so parsing a
report and re-serializing it is byte-identical (timings aside, same input
and flags always produce the same JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import msub
from .boolfun import (
    BooleanFunction,
    algebraic_degree,
    format_anf,
    from_anf,
    from_tt_hex,
    is_bent,
    parse_anf,
    to_anf,
    to_tt_hex,
)
from .construct import (
    ConcatQuadruple,
    PreconditionError,
    concat4,
    dual_bent_condition,
    extend_permutation,
    mm_bent,
    theorem53_certify,
    theorem55_construct,
    theorem57_check,
)
from .gf2 import Subspace
from .msub import MSubspaceProfile, msubspace_profile, msubspaces
from .psclass import PsSharpWitness, is_in_ps_sharp, is_partial_spread
from .vectorial import (
    VectorialFunction,
    check_p2,
    from_coordinate_anfs,
    from_vf_text,
    has_p1,
    is_apn,
    is_permutation,
    linear_structures_vf,
    to_vf_text,
)

# Unused here, kept while perfbench/tracer.py looks it up (ROADMAP item 5a).
is_in_mm_sharp = msub.is_in_mm_sharp


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _maybe_file(text: str) -> str:
    p = Path(text)
    try:
        is_file = p.is_file()
    except OSError:  # e.g. a literal longer than a file name may be
        is_file = False
    return p.read_text() if is_file else text


def load_boolean(args) -> BooleanFunction:
    if args.tt is not None:
        return _sized(from_tt_hex(_maybe_file(args.tt).strip()), args.n)
    return load_boolean_source(args.anf, args.n)


def load_boolean_source(source: str, n: int | None = None) -> BooleanFunction:
    text = _maybe_file(source).strip()
    if text.startswith("tt:"):
        return _sized(from_tt_hex(text), n)
    return from_anf(parse_anf(text, n))


def _sized(f: BooleanFunction, n: int | None) -> BooleanFunction:
    if n is not None and f.n != n:
        raise ValueError(f"truth table has n = {f.n}, but n = {n} was asked for")
    return f


def _load_quadruple(args) -> ConcatQuadruple:
    return ConcatQuadruple(
        *(load_boolean_source(getattr(args, k), n=args.n) for k in ("f1", "f2", "f3", "f4"))
    )


def load_vectorial(source: str) -> VectorialFunction:
    text = _maybe_file(source).strip()
    if text.startswith("vf:"):
        return from_vf_text(text)
    if text.startswith("gf2m:"):
        from .gf2m import parse_power_map

        return parse_power_map(text)
    return from_coordinate_anfs(text)


@dataclass
class ClassReport:
    n: int
    is_bent: bool
    degree: int
    weight: int
    msubspace_profile: MSubspaceProfile
    mm_sharp: Subspace | None
    ps_sharp: PsSharpWitness | None
    ps_sharp_ran: bool
    timings: dict[str, int]

    def as_dict(self) -> dict:
        out = {
            "n": self.n,
            "is_bent": self.is_bent,
            "degree": self.degree,
            "weight": self.weight,
            "msubspace_profile": self.msubspace_profile.as_dict(),
            "mm_sharp": None if self.mm_sharp is None else self.mm_sharp.rows(),
            "timings": self.timings,
        }
        if self.ps_sharp_ran:
            out["ps_sharp"] = None if self.ps_sharp is None else self.ps_sharp.as_dict()
        return out


def analyze(f: BooleanFunction, sharp: bool = False) -> ClassReport:
    timings: dict[str, int] = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[stage] = int((time.perf_counter() - t0) * 1000)
        return out

    ps = None
    if sharp:
        # first, so the sweep rejects an unsupported input before the profile
        ps = timed("ps_sharp", lambda: is_in_ps_sharp(f))
    bent = timed("bent", lambda: is_bent(f))
    degree = timed("degree", lambda: algebraic_degree(f))
    profile = timed("profile", lambda: msubspace_profile(f))
    # Dillon's criterion: a bent f is in MM# iff it has an n/2-dimensional
    # M-subspace, and the profile's walk keeps the first it meets
    mm = profile.witness if bent else None
    return ClassReport(
        f.n, bent, degree, f.weight(), profile, mm, ps, sharp, timings
    )


def _cmd_analyze(args) -> int:
    f = load_boolean(args)
    report = analyze(f, sharp=args.sharp)
    _emit(report.as_dict())
    return 0


def _cmd_msub(args) -> int:
    f = load_boolean(args)
    _emit({"dim": args.dim, "subspaces": [V.rows() for V in msubspaces(f, args.dim)]})
    return 0


def _cmd_psclass(args) -> int:
    w = is_partial_spread(load_boolean(args))
    _emit(None if w is None else w.as_dict())
    return 0


def _cmd_construct_mm(args) -> int:
    pi = load_vectorial(args.pi)
    f = mm_bent(pi, load_boolean_source(args.h, n=pi.m))
    _emit({"tt": to_tt_hex(f), "is_bent": is_bent(f)})
    return 0


def _cmd_construct_concat(args) -> int:
    q = _load_quadruple(args)
    f = concat4(q)
    try:
        condition = dual_bent_condition(q)
    except ValueError:  # some piece is not bent
        condition = None
    _emit(
        {
            "tt": to_tt_hex(f),
            "is_bent": is_bent(f),
            "dual_bent_condition": condition,
            "anf": format_anf(to_anf(f)),
        }
    )
    return 0


def _cmd_construct_extend_perm(args) -> int:
    ext = extend_permutation(load_vectorial(args.sigma1), load_vectorial(args.sigma2))
    _emit({"vf": to_vf_text(ext), "has_p1": has_p1(ext)[0]})
    return 0


def _cmd_construct_thm55(args) -> int:
    pi = load_vectorial(args.pi)
    sigma = load_vectorial(args.sigma)
    h1 = load_boolean_source(args.h1, n=pi.m)
    h2 = load_boolean_source(args.h2, n=pi.m)
    res = theorem55_construct(pi, sigma, h1, h2)
    _emit({"tt": to_tt_hex(res.function), "certificate": res.certificate.as_dict()})
    return 0


def _cmd_certify(args) -> int:
    q = _load_quadruple(args)
    cert = theorem53_certify(q) if args.theorem == "thm53" else theorem57_check(q)
    _emit(cert.as_dict())
    return 0 if cert.verdict == "outside_mm_sharp" else 1


def _cmd_perm_check(args) -> int:
    F = load_vectorial(args.vf)
    out: dict = {"m": F.m, "is_permutation": is_permutation(F)}
    if args.property == "apn":
        out["is_apn"] = is_apn(F)
    elif args.property == "p1":
        ok, witness = has_p1(F)
        out["has_p1"] = ok
        if witness is not None:
            out["witness"] = witness.rows()
    elif args.property == "p2":
        report = check_p2(F)
        out["fully_satisfies_p2"] = report.fully_satisfies
        out["max_vanishing_dim"] = report.max_vanishing_dim
        out["subspaces_checked"] = len(report.per_subspace)
    elif args.property == "linstruct":
        out["linear_structures"] = sorted(linear_structures_vf(F))
    _emit(out)
    return 0


def _cmd_verify_paper(args) -> int:
    from .verify import run_claims

    failures = run_claims()
    print(f"# {'OK' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--tt", help="truth table literal tt:n=..:<hex>, or a file holding one")
    source.add_argument("--anf", help="ANF text (or a file): monomials joined by +, products with *")
    p.add_argument("--n", type=int, help="variable count (ANF: default the largest variable index; tt: must match)")


def _add_quadruple_flags(p: argparse.ArgumentParser) -> None:
    for k in ("f1", "f2", "f3", "f4"):
        p.add_argument(f"--{k}", required=True)
    p.add_argument("--n", type=int)


def _add_recipe(recipes, name: str, fn, *flags: str) -> argparse.ArgumentParser:
    r = recipes.add_parser(name)
    for k in flags:
        r.add_argument(f"--{k}", required=True)
    r.set_defaults(fn=fn)
    return r


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bentforge",
        description="Bent Boolean function analysis and construction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full class report for one function")
    _add_input_flags(p)
    p.add_argument("--sharp", action="store_true", help="also run the PS# sweep")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("msub", help="list M-subspaces of one dimension")
    _add_input_flags(p)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(fn=_cmd_msub)

    p = sub.add_parser("psclass", help="partial spread membership")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_psclass)

    p = sub.add_parser("construct", help="run one of the generative recipes")
    recipes = p.add_subparsers(dest="recipe", required=True)
    _add_recipe(recipes, "mm", _cmd_construct_mm, "pi", "h")
    _add_quadruple_flags(_add_recipe(recipes, "concat", _cmd_construct_concat))
    _add_recipe(recipes, "extend-perm", _cmd_construct_extend_perm, "sigma1", "sigma2")
    _add_recipe(recipes, "thm55", _cmd_construct_thm55, "pi", "sigma", "h1", "h2")

    p = sub.add_parser("certify", help="outside-MM# certificates for a quadruple")
    p.add_argument("theorem", choices=["thm53", "thm57"])
    _add_quadruple_flags(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("perm-check", help="permutation property checks")
    p.add_argument("property", choices=["apn", "p1", "p2", "linstruct"])
    p.add_argument("--vf", required=True)
    p.set_defaults(fn=_cmd_perm_check)

    p = sub.add_parser("verify-paper", help="run the published-fixture regression battery")
    p.set_defaults(fn=_cmd_verify_paper)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        witness = None if exc.witness is None else exc.witness.rows()
        _emit({"error": str(exc), "witness": witness})
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at devnull, so the
        # flush at exit of what is still buffered does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
