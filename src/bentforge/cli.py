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
import sys
import time
from dataclasses import dataclass
from pathlib import Path

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
from .msub import MSubspaceProfile, is_in_mm_sharp, msubspace_profile, msubspaces
from .psclass import PsSharpWitness, check_sweep_size, is_in_ps_sharp, is_partial_spread
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


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(obj) -> None:
    print(_json_dump(obj))


def _maybe_file(text: str) -> str:
    p = Path(text)
    try:
        is_file = len(text) < 4096 and p.is_file()
    except OSError:  # e.g. a literal longer than a file name may be
        is_file = False
    return p.read_text() if is_file else text


def _infer_n(anf_text: str) -> int:
    import re

    indices = [int(m) for m in re.findall(r"[xyz](\d+)", anf_text)]
    if not indices:
        raise SystemExit("cannot infer the variable count; pass --n")
    return max(indices)


def load_boolean(args, attr: str = "tt", anf_attr: str = "anf") -> BooleanFunction:
    tt = getattr(args, attr, None)
    anf = getattr(args, anf_attr, None)
    if tt:
        return from_tt_hex(_maybe_file(tt).strip())
    if anf:
        text = _maybe_file(anf)
        n = getattr(args, "n", None) or _infer_n(text)
        return from_anf(parse_anf(text, n))
    raise SystemExit("need --tt or --anf")


def load_boolean_source(source: str, n: int | None = None) -> BooleanFunction:
    text = _maybe_file(source).strip()
    if text.startswith("tt:"):
        return from_tt_hex(text)
    return from_anf(parse_anf(text, n or _infer_n(text)))


def load_vectorial(source: str) -> VectorialFunction:
    text = _maybe_file(source).strip()
    if text.startswith("vf:"):
        return from_vf_text(text)
    if text.startswith("gf2m:"):
        # power map over a field: gf2m:m=<m>[,mod=<hexmask>],pow=<d>
        from .gf2m import parse_field, power_map

        spec, sep, power = text.rpartition(",pow=")
        if not (sep and power.isdecimal()):
            raise ValueError("field input needs a ,pow=<d> suffix for the power map")
        return power_map(parse_field(spec), int(power))
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
            "mm_sharp": None if self.mm_sharp is None else self.mm_sharp.to_text().split("\n"),
            "timings": self.timings,
        }
        if self.ps_sharp_ran:
            out["ps_sharp"] = None if self.ps_sharp is None else self.ps_sharp.as_dict()
        return out


def analyze(f: BooleanFunction, sharp: bool = False, resume=None) -> ClassReport:
    timings: dict[str, int] = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[stage] = int((time.perf_counter() - t0) * 1000)
        return out

    bent = timed("bent", lambda: is_bent(f))
    # reject an unsupported sweep before the profile and MM# stages
    if sharp:
        if f.n % 2 or not bent:
            raise SystemExit("PS# analysis needs a bent function on even n")
        check_sweep_size(f.n)
    degree = timed("degree", lambda: algebraic_degree(f))
    profile = timed("profile", lambda: msubspace_profile(f))
    mm = None
    if bent and f.n % 2 == 0:
        mm = timed("mm_sharp", lambda: is_in_mm_sharp(f))
    ps = None
    if sharp:
        ps = timed("ps_sharp", lambda: is_in_ps_sharp(f, resume=resume))
    return ClassReport(
        f.n, bent, degree, f.weight(), profile, mm, ps, sharp, timings
    )


def _cmd_analyze(args) -> int:
    f = load_boolean(args)
    report = analyze(f, sharp=args.sharp, resume=args.resume)
    _emit(report.as_dict())
    return 0


def _cmd_msub(args) -> int:
    f = load_boolean(args)
    subs = msubspaces(f, args.dim)
    if args.json:
        _emit({"dim": args.dim, "subspaces": [V.to_text().split("\n") for V in subs]})
    else:
        for V in subs:
            print(V.to_text())
            print()
        print(f"# {len(subs)} subspaces of dimension {args.dim}")
    return 0


def _cmd_profile(args) -> int:
    f = load_boolean(args)
    _emit(msubspace_profile(f).as_dict())
    return 0


def _cmd_psclass(args) -> int:
    f = load_boolean(args)
    if args.sharp:
        w = is_in_ps_sharp(f, resume=args.resume)
    else:
        w = is_partial_spread(f)
    _emit(None if w is None else w.as_dict())
    return 0


def _cmd_construct(args) -> int:
    if args.mode == "mm":
        pi = load_vectorial(args.pi)
        h = load_boolean_source(args.h, n=pi.m)
        f = mm_bent(pi, h)
        _emit({"tt": to_tt_hex(f), "is_bent": is_bent(f)})
        return 0
    if args.mode == "concat":
        q = ConcatQuadruple(
            *(load_boolean_source(getattr(args, k), n=args.n) for k in ("f1", "f2", "f3", "f4"))
        )
        f = concat4(q)
        _emit(
            {
                "tt": to_tt_hex(f),
                "is_bent": is_bent(f),
                "dual_bent_condition": dual_bent_condition(q)
                if all(is_bent(g) for g in q.functions)
                else None,
                "anf": format_anf(to_anf(f)),
            }
        )
        return 0
    if args.mode == "extend-perm":
        s1 = load_vectorial(args.sigma1)
        s2 = load_vectorial(args.sigma2)
        try:
            ext = extend_permutation(s1, s2)
        except PreconditionError as exc:
            _emit({"error": str(exc), "witness": exc.witness.to_text().split("\n")})
            return 2
        _emit({"vf": to_vf_text(ext), "has_p1": has_p1(ext)[0]})
        return 0
    if args.mode == "thm55":
        pi = load_vectorial(args.pi)
        sigma = load_vectorial(args.sigma)
        h1 = load_boolean_source(args.h1, n=pi.m)
        h2 = load_boolean_source(args.h2, n=pi.m)
        try:
            res = theorem55_construct(pi, sigma, h1, h2)
        except PreconditionError as exc:
            witness = exc.witness.to_text().split("\n") if exc.witness else None
            _emit({"error": str(exc), "witness": witness})
            return 2
        _emit({"tt": to_tt_hex(res.function), "certificate": res.certificate.as_dict()})
        return 0
    raise SystemExit(f"unknown construct mode {args.mode}")


def _cmd_certify(args) -> int:
    q = ConcatQuadruple(
        *(load_boolean_source(getattr(args, k), n=args.n) for k in ("f1", "f2", "f3", "f4"))
    )
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
            out["witness"] = witness.to_text().split("\n")
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

    failures = run_claims(fast=args.fast)
    print(f"# {'OK' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tt", help="truth table literal tt:n=..:<hex>, or a file holding one")
    p.add_argument("--anf", help="ANF text (or a file): monomials joined by +, products with *")
    p.add_argument("--n", type=int, help="variable count for ANF input (default: inferred)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bentforge",
        description="Bent Boolean function analysis and construction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full class report for one function")
    _add_input_flags(p)
    p.add_argument("--sharp", action="store_true", help="also run the PS# sweep")
    p.add_argument("--resume", help="checkpoint file for long PS# sweeps")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("msub", help="list M-subspaces of one dimension")
    _add_input_flags(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_msub)

    p = sub.add_parser("profile", help="M-subspace counts by dimension (JSON)")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("psclass", help="partial spread membership")
    _add_input_flags(p)
    p.add_argument("--sharp", action="store_true", help="sweep shifts and affine offsets")
    p.add_argument("--resume")
    p.set_defaults(fn=_cmd_psclass)

    p = sub.add_parser("construct", help="run one of the generative recipes")
    p.add_argument("mode", choices=["mm", "concat", "extend-perm", "thm55"])
    p.add_argument("--pi", help="permutation (vf literal or coordinate ANF file)")
    p.add_argument("--h", help="ANF of h")
    p.add_argument("--sigma")
    p.add_argument("--sigma1")
    p.add_argument("--sigma2")
    p.add_argument("--h1")
    p.add_argument("--h2")
    p.add_argument("--f1")
    p.add_argument("--f2")
    p.add_argument("--f3")
    p.add_argument("--f4")
    p.add_argument("--n", type=int)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("certify", help="outside-MM# certificates for a quadruple")
    p.add_argument("theorem", choices=["thm53", "thm57"])
    for k in ("f1", "f2", "f3", "f4"):
        p.add_argument(f"--{k}", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("perm-check", help="permutation property checks")
    p.add_argument("property", choices=["apn", "p1", "p2", "linstruct"])
    p.add_argument("--vf", required=True)
    p.set_defaults(fn=_cmd_perm_check)

    p = sub.add_parser("verify-paper", help="run the published-fixture regression battery")
    p.add_argument("--fast", action="store_true", help="skip the PS# sweeps")
    p.set_defaults(fn=_cmd_verify_paper)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # input-loading shortcuts
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return 2
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
