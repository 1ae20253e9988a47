"""Command-line surface for the involute library.

Every subcommand prints deterministically for a fixed argv and seed.
Exit codes: 0 success, 2 precondition or validation failure (with a
diagnostic naming the violated condition), 1 internal error.

`continuum` is imported inside the two handlers that use it, because it
loads numpy and every other command is exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import classify as cls
from . import spectral, transform, walk
from ._continuum import CONVERGENCE_MAX_N, CONVERGENCE_MAX_SIZES
from .errors import InvoluteError
from .serialize import (
    format_rational,
    format_vector,
    matrix_from_csv,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_pretty,
    parse_rational,
    parse_rational_list,
)
from .weights import Custom, DeltaAB, GammaAB, GammaC, custom_from_csv, spec_label


class CheckFailed(Exception):
    """A requested property check failed; carries the diagnostic."""


def _family_from_args(args) -> object:
    sources = [
        args.gamma is not None,
        args.gammac is not None,
        args.delta is not None,
        getattr(args, "lam", None) is not None,
        getattr(args, "custom", None) is not None,
    ]
    if sum(sources) != 1:
        raise InvoluteError(
            "exactly one of --gamma/--gammac/--delta/--lambda/--custom is required"
        )
    if args.gamma is not None:
        return GammaAB(parse_rational(args.gamma[0]), parse_rational(args.gamma[1]))
    if args.gammac is not None:
        return GammaC(parse_rational(args.gammac))
    if args.delta is not None:
        return DeltaAB(parse_rational(args.delta[0]), parse_rational(args.delta[1]))
    if getattr(args, "lam", None) is not None:
        return parse_rational_list(args.lam)
    return custom_from_csv(_read_file(args.custom))


def _read_file(path: str) -> str:
    """Contents of a file named on the command line; unreadable is bad input."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InvoluteError(f"cannot read {path}: {exc.strerror}") from None


def _walk_from_source(source, n) -> walk.WalkMatrix:
    if isinstance(source, list):  # an eigenvalue sequence
        return transform.lambda_walk(source)
    if n is None:
        if isinstance(source, Custom):
            n = source.n
        else:
            raise InvoluteError("--n is required for family weights")
    return walk.transition_matrix(source, n)


def _add_family_flags(p: argparse.ArgumentParser, with_lambda: bool = True):
    p.add_argument("--gamma", nargs=2, metavar=("A", "B"), help="gamma(a,b) weight")
    p.add_argument("--gammac", metavar="C", help="gamma(c) weight")
    p.add_argument("--delta", nargs=2, metavar=("AP", "BP"), help="delta(a',b') weight")
    if with_lambda:
        p.add_argument("--lambda", dest="lam", metavar="L0,L1,...", help="eigenvalue sequence")
    p.add_argument("--custom", metavar="FILE", help="custom weight CSV (rows y,x,p/q)")
    p.add_argument("--n", type=int, help="number of states")


def _emit_matrix(rows, fmt: str, **meta):
    if fmt == "csv":
        sys.stdout.write(matrix_to_csv(rows))
    elif fmt == "json":
        print(matrix_to_json(rows, **meta))
    else:
        print(matrix_to_pretty(rows))


def _emit_vector(v, fmt: str, name: str):
    if fmt == "csv":
        print(",".join(format_vector(v)))
    elif fmt == "json":
        print(json.dumps({name: format_vector(v)}))
    else:
        print("  ".join(format_vector(v)))


def cmd_matrix(args):
    spec = _family_from_args(args)
    w = _walk_from_source(spec, args.n)
    _emit_matrix(w.H if args.down_step else w.P, args.format)


def cmd_stationary(args):
    spec = _family_from_args(args)
    w = _walk_from_source(spec, args.n)
    pi = walk.stationary(w)
    _emit_vector(pi.weights, args.format, "pi")


def cmd_spectrum(args):
    spec = _family_from_args(args)
    if isinstance(spec, list):
        # the sequence lists H's eigenvalues; P alternates their signs
        signed = [(-1) ** d * v for d, v in enumerate(spec)]
    else:
        if args.n is None:
            raise InvoluteError("--n is required")
        signed = spectral.eigenvalues_closed_form(spec, args.n)
    _emit_vector(signed, args.format, "eigenvalues")


def cmd_eigvec(args):
    spec = _family_from_args(args)
    if not isinstance(spec, GammaAB):
        raise InvoluteError("eigvec requires --gamma A B")
    system = spectral.right_eigenvectors(spec, args.n, dmax=args.d)
    if args.format == "json":
        print(json.dumps(system.to_dict()))
        return
    for d, (value, vec) in enumerate(zip(system.eigenvalues, system.right_vectors)):
        print(f"d={d}  eigenvalue={format_rational(value)}  right=" + ",".join(format_vector(vec)))
    print("final-left=" + ",".join(format_vector(spectral.final_left_eigenvector(args.n))))


def _check_source(args):
    """An eigenvalue list, a WalkMatrix, or --matrix rows for matrix properties."""
    if args.matrix is None:
        spec = _family_from_args(args)
        return spec if isinstance(spec, list) else _walk_from_source(spec, args.n)
    if args.property in ("stochastic", "globally-reversible"):
        raise InvoluteError(f"check {args.property} needs --lambda")
    rows = matrix_from_csv(_read_file(args.matrix))
    if args.property in ("ergodic", "reversible", "kolmogorov"):
        return walk.WalkMatrix.from_p(rows)  # square, stochastic, anti-triangular
    return rows


def cmd_check(args):
    prop = args.property
    source = _check_source(args)
    if prop == "stochastic":
        if not isinstance(source, list):
            raise InvoluteError("check stochastic needs --lambda")
        res = transform.is_stochastic(source)
        if not res:
            raise CheckFailed(f"not stochastic: {res.reason}"
                              + (f" (witness z={res.witness})" if res.witness is not None else ""))
        print("stochastic: all alternating sums are non-negative")
        return
    if prop == "ergodic":
        if isinstance(source, list):
            ok = transform.is_ergodic_lambda(source)
            if not ok:
                raise CheckFailed("not ergodic: the support graph does not mix")
            print("ergodic")
            return
        report = walk.ergodicity(source)
        if not report.ergodic:
            raise CheckFailed(
                f"not ergodic: irreducible={report.irreducible} aperiodic={report.aperiodic}"
            )
        print("ergodic")
        return
    if prop in ("reversible", "globally-reversible", "kolmogorov"):
        if prop == "globally-reversible":
            if not isinstance(source, list):
                raise InvoluteError("check globally-reversible needs --lambda")
            if not cls.is_globally_reversible(source):
                raise CheckFailed("not globally reversible: a top-right submatrix fails")
            print("globally reversible")
            return
        w = transform.lambda_walk(source) if isinstance(source, list) else source
        if prop == "kolmogorov":
            if not walk.kolmogorov(w):
                raise CheckFailed("kolmogorov: a cycle product depends on direction")
            print("kolmogorov criterion holds")
            return
        found = walk._potentials(w)
        if found is not None:
            _, trees = found
            print("reversible" if trees == 1
                  else "reversible (chain is reducible; distribution not unique)")
            return
        # Transient states carry no stationary mass, so detailed balance
        # against a unique stationary law can hold on an asymmetric support.
        try:
            balanced = walk.detailed_balance(w, walk.stationary(w))
        except InvoluteError:
            balanced = False
        if not balanced:
            raise CheckFailed("not reversible: detailed balance fails")
        print("reversible")
        return
    # matrix-shaped properties
    if isinstance(source, list) and source and isinstance(source[0], Fraction):
        mat = transform.binomial_transform(source)
    elif isinstance(source, walk.WalkMatrix):
        mat = source.H
    else:
        mat = source
    if prop in ("adep", "gadep", "binomial-transform"):
        report = transform.property_report(mat)
        if args.format == "json":
            print(json.dumps(report.to_dict()))
        verdict = {
            "adep": report.adep,
            "gadep": report.gadep,
            "binomial-transform": report.is_binomial_transform,
        }[prop]
        if not verdict:
            raise CheckFailed(f"{prop} fails (witness: {report.witness})")
        if args.format != "json":
            print(f"{prop} holds")
    elif prop == "conjugator":
        if not transform.check_conjugator(mat, global_check=args.global_check):
            raise CheckFailed("not an anti-diagonal conjugator")
        print("anti-diagonal conjugator" + (" (global)" if args.global_check else ""))
    else:
        raise InvoluteError(f"unknown property {prop!r}")


def cmd_classify(args):
    lam = parse_rational_list(args.lam)
    result = cls.classify_walk(lam)
    if args.format == "json":
        print(json.dumps({"classification": cls.classification_label(result)}))
    else:
        print(cls.classification_label(result))


def cmd_ladder(args):
    mu = parse_rational(args.mu)
    rows = cls.exceptional_ladder(mu, args.n)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"m": m, "nu": format_rational(nu), "a_prime": format_rational(ap)}
                    for m, nu, ap in rows
                ]
            )
        )
        return
    print("m,nu,a_prime")
    for m, nu, ap in rows:
        print(f"{m},{format_rational(nu)},{format_rational(ap)}")


def cmd_simulate(args):
    spec = _family_from_args(args)
    w = _walk_from_source(spec, args.n)
    result = walk.simulate(w, args.start, args.steps, args.seed)
    if args.empirical:
        print(",".join(f"{f:.6f}" for f in result.empirical))
        return
    print("step,state")
    for t, x in enumerate(result.trajectory):
        print(f"{t},{x}")


def cmd_subsets(args):
    sub = walk.subset_walk(args.m, parse_rational(args.p))
    if args.matrix:
        _emit_matrix(sub.walk.P, args.format)
        return
    print("pi=" + ",".join(format_vector(sub.pi.weights)))
    print("eigenvalues=" + ",".join(format_vector(sub.eigenvalues)))


def _parse_sizes(text: str) -> list:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise InvoluteError(f"--sizes needs comma-separated integers, got {text!r}") from None


def cmd_continuum(args):
    from . import continuum as cont

    if args.trig and args.kappa is not None:
        raise InvoluteError("choose one of --kappa/--trig")
    modes = (args.residual is not None, args.fixed_point, args.invariant,
             args.convergence is not None)
    if sum(modes) != 1:
        raise InvoluteError("choose one of --residual/--fixed-point/--invariant/--convergence")
    if args.sizes is not None and args.convergence is None:
        raise InvoluteError("--sizes applies only to --convergence")
    kappa = args.kappa or (0, 0)
    w = cont.trig_walk() if args.trig else cont.kappa_walk(*kappa)
    if args.residual is not None:
        residuals = cont.eigen_residuals(w, args.residual)
        print("d,residual")
        for d, r in enumerate(residuals):
            print(f"{d},{r:.3e}")
    elif args.fixed_point:
        print(f"fixed_point_residual,{cont.fixed_point_residual(w):.3e}")
    elif args.invariant:
        print("x,pi")
        for k in range(1, cont.GRID_POINTS + 1):
            x = k / cont.GRID_POINTS
            print(f"{x:.6f},{cont.cts_invariant(w, x):.12f}")
    else:
        if args.trig:
            raise InvoluteError("--convergence compares with the discrete gamma(a,b) walk; "
                                "use --kappa, not --trig")
        sizes = _parse_sizes(args.sizes or "10,20,40,80")
        dists = cont.discrete_convergence(*kappa, args.convergence, sizes)
        print("n,distance")
        for n, dist in zip(sizes, dists):
            print(f"{n},{dist:.8f}")


def cmd_conjecture(args):
    summary = cls.conjecture_search(args.n, max_denominator=args.max_denominator)
    for record in summary.records:
        print(json.dumps(record.to_dict()))
    bad = summary.unclassified_reversible
    print(
        json.dumps(
            {
                "n": summary.n,
                "evaluated": summary.stochastic,  # the grid holds only stochastic points
                "stochastic": summary.stochastic,
                "reversible": summary.reversible,
                "unclassified_reversible": len(bad),
            }
        ),
        file=sys.stderr,
    )
    if bad:
        raise CheckFailed(f"{len(bad)} reversible sequences escaped classification")


def cmd_repro(args):
    target = args.target
    if target == "intro-matrices":
        for spec in (
            GammaAB(0, 0),
            GammaAB(1, 0),
            GammaAB(0, 1),
            GammaC(Fraction(1, 2)),
            GammaC(2),
            DeltaAB(4, 2),
        ):
            print(f"P for {spec_label(spec)}, n=4:")
            print(matrix_to_pretty(walk.transition_matrix(spec, 4).P))
            print()
    elif target == "section7-hl":
        lam = [Fraction(1), Fraction(2, 3), Fraction(1, 3)]
        print("H for lambda = 1, 2/3, 1/3 (the two-band case nu = 2 mu - 1):")
        print(matrix_to_pretty(transform.binomial_transform(lam), structural_dots=False))
    elif target == "example2-matrices":
        for which in ("L4", "H5"):
            for tau in (Fraction(1, 4), Fraction(1)):
                mat = transform.gadep_counterexample(which, tau)
                rep = transform.property_report(mat)
                print(f"{which} at tau={format_rational(tau)}: "
                      f"gadep={rep.gadep} binomial_transform={rep.is_binomial_transform}")
                print(matrix_to_pretty(mat, structural_dots=False))
                print()
    elif target == "example7-table":
        print("nu,a_prime,m")
        for m, nu, ap in cls.exceptional_ladder(Fraction(2, 3), 10):
            print(f"{format_rational(nu)},{format_rational(ap)},{m}")
    elif target == "fig1-ladder":
        print("m,nu_m(2/3)")
        for m in range(2, 7):
            print(f"{m},{format_rational(cls.nu_ladder(m, Fraction(2, 3)))}")
    elif target == "fig2-convergence":
        from . import continuum as cont

        print("d,n,distance")
        sizes = [10, 20, 40, 80]
        for d, dists in zip((1, 2), cont.convergence_table(0, 0, (1, 2), sizes)):
            for n, dist in zip(sizes, dists):
                print(f"{d},{n},{dist:.8f}")
    else:
        raise InvoluteError(f"unknown repro target {target!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involute",
        description="Exact analysis of involutive random walks on total orders",
    )
    parser.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the transition matrix")
    _add_family_flags(p)
    p.add_argument("--down-step", action="store_true", help="print H instead of P")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("stationary", help="exact stationary distribution")
    _add_family_flags(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("spectrum", help="closed-form signed eigenvalues")
    _add_family_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("eigvec", help="pi-orthogonal right eigenvectors (gamma(a,b))")
    _add_family_flags(p, with_lambda=False)
    p.add_argument("--d", type=int, default=None, help="largest eigenvector index")
    p.set_defaults(func=cmd_eigvec)

    p = sub.add_parser("check", help="property checks; exit 2 with a witness on failure")
    _add_family_flags(p)
    p.add_argument("--matrix", metavar="FILE", help="CSV matrix of p/q entries")
    p.add_argument("--global", dest="global_check", action="store_true",
                   help="check the global (all top-left sizes) variant")
    p.add_argument(
        "property",
        choices=(
            "stochastic", "ergodic", "reversible", "globally-reversible", "kolmogorov",
            "adep", "gadep", "binomial-transform", "conjugator",
        ),
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="identify the family from an eigenvalue sequence")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ladder", help="exceptional nu_m(mu) ladder")
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("simulate", help="seeded trajectory CSV")
    _add_family_flags(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--empirical", action="store_true", help="print visit frequencies instead")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("subsets", help="Kronecker subset walk")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--matrix", action="store_true", help="print the 2^m transition matrix")
    p.set_defaults(func=cmd_subsets)

    p = sub.add_parser("continuum", help="interval walk residuals and invariants")
    p.add_argument("--kappa", nargs=2, type=int, metavar=("A", "B"),
                   help="kappa(a,b) weight (default 0 0)")
    p.add_argument("--trig", action="store_true")
    p.add_argument("--residual", type=int, metavar="DMAX")
    p.add_argument("--fixed-point", action="store_true")
    p.add_argument("--invariant", action="store_true")
    p.add_argument("--convergence", type=int, metavar="D")
    p.add_argument("--sizes",
                   help=f"comma-separated n for --convergence (default 10,20,40,80): at most "
                        f"{CONVERGENCE_MAX_SIZES} sizes, each n <= {CONVERGENCE_MAX_N}")
    p.set_defaults(func=cmd_continuum)

    p = sub.add_parser("conjecture", help="desk-scale reversibility sweep (JSON lines)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-denominator", type=int, default=8)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("repro", help="reproduce the reference displays and tables")
    p.add_argument(
        "target",
        choices=(
            "intro-matrices", "section7-hl", "example2-matrices",
            "example7-table", "fig1-ladder", "fig2-convergence",
        ),
    )
    p.set_defaults(func=cmd_repro)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by later calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (InvoluteError, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
