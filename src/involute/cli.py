"""Command-line surface for the involute library.

Every subcommand prints deterministically for a fixed argv and seed.
Exit codes: 0 success, 2 precondition or validation failure (with a
diagnostic naming the violated condition), 1 internal error.

A call pays at start-up only for what its command uses:
- `continuum` is imported inside the two handlers that use it, because it
  loads numpy and every other command is exact;
- no module the CLI loads imports `dataclasses` (see `_record`);
- `json` is imported by the functions that print JSON, and by no other;
- `build_parser` registers every subcommand with its help line alone, and
  a subcommand's arguments are defined when it is parsed (`_Subcommand`).
The `involute.*` imports stay at module level: they are the exact core
that every command but `continuum` runs, so deferring them would only move
their cost into the first call, and the traced benchmark wraps only the
modules loaded before its jobs start.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import classify as cls
from . import spectral, transform, walk
from ._continuum import CONVERGENCE_MAX_N, CONVERGENCE_MAX_SIZES
from .errors import InvoluteError
from .serialize import (
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


def _source_from_args(args) -> tuple:
    """The one input the source flags name, as (source, n).

    An eigenvalue sequence comes back as its list with its length, and the
    rows of a `check --matrix` file with their number; a weight spec with
    --n, else the custom table's size.  No walk is built here.
    """
    matrix = getattr(args, "matrix", None)
    sources = [args.gamma, args.gammac, args.delta, args.lam, args.custom, matrix]
    if sum(s is not None for s in sources) != 1:
        names = "--gamma/--gammac/--delta/--lambda/--custom"
        if hasattr(args, "matrix"):
            names += "/--matrix"
        raise InvoluteError(f"exactly one of {names} is required")
    if args.n is not None and (args.lam is not None or matrix is not None):
        raise InvoluteError("--n applies only to a weight: a --lambda or --matrix walk "
                            "has one state per entry or row")
    if matrix is not None:
        rows = matrix_from_csv(_read_file(matrix))
        return rows, len(rows)
    if args.lam is not None:
        seq = parse_rational_list(args.lam)
        return seq, len(seq)
    if args.gamma is not None:
        spec = GammaAB(parse_rational(args.gamma[0]), parse_rational(args.gamma[1]))
    elif args.gammac is not None:
        spec = GammaC(parse_rational(args.gammac))
    elif args.delta is not None:
        spec = DeltaAB(parse_rational(args.delta[0]), parse_rational(args.delta[1]))
    else:
        spec = custom_from_csv(_read_file(args.custom))
    if args.n is None and not isinstance(spec, Custom):
        raise InvoluteError("--n is required for family weights")
    return spec, spec.n if args.n is None else args.n


def _walk(source, n) -> list:
    """The rows of P for a resolved source: the lambda walk of a list, else
    the weight's."""
    if isinstance(source, list):
        return transform.lambda_walk(source)
    return walk.transition_matrix(source, n)


def _sequence_from_args(args) -> list:
    """The eigenvalue sequence of the walk the source flags name: a --lambda
    list once it passes the stochasticity check of `matrix --lambda`, else
    the named family's down-step diagonal."""
    source, n = _source_from_args(args)
    if isinstance(source, list):
        return transform.stochastic_sequence(source)
    return spectral.family_sequence(source, n)


def _read_file(path: str) -> str:
    """Contents of a file named on the command line; unreadable is bad input."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InvoluteError(f"cannot read {path}: {exc.strerror}") from None


def _add_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--gamma", nargs=2, metavar=("A", "B"), help="gamma(a,b) weight")
    p.add_argument("--gammac", metavar="C", help="gamma(c) weight")
    p.add_argument("--delta", nargs=2, metavar=("AP", "BP"), help="delta(a',b') weight")
    p.add_argument("--lambda", dest="lam", metavar="L0,L1,...", help="eigenvalue sequence")
    p.add_argument("--custom", metavar="FILE", help="custom weight CSV (rows y,x,p/q)")
    p.add_argument("--n", type=int, help="number of states")


def _emit_matrix(rows, fmt: str):
    if fmt == "csv":
        sys.stdout.write(matrix_to_csv(rows))
    elif fmt == "json":
        print(matrix_to_json(rows))
    else:
        print(matrix_to_pretty(rows))


def _emit_vector(v, fmt: str, name: str):
    if fmt == "csv":
        print(",".join(map(str, v)))
    elif fmt == "json":
        import json

        print(json.dumps({name: list(map(str, v))}))
    else:
        print("  ".join(map(str, v)))


def _down_step(p: list) -> list:
    """H for the rows of P: each row reversed, since P = H J."""
    return [row[::-1] for row in p]


def cmd_matrix(args):
    p = _walk(*_source_from_args(args))
    _emit_matrix(_down_step(p) if args.down_step else p, args.format)


def cmd_stationary(args):
    source, n = _source_from_args(args)
    if isinstance(source, (GammaAB, GammaC, DeltaAB)):
        pi = walk.invariant_closed_form(source, n)
    else:
        pi = walk.stationary(_walk(source, n))
    _emit_vector(pi, args.format, "pi")


def cmd_spectrum(args):
    signed = spectral.signed_eigenvalues(_sequence_from_args(args))
    _emit_vector(signed, args.format, "eigenvalues")


def cmd_eigvec(args):
    lam = _sequence_from_args(args)
    rights = spectral.right_eigenvectors(lam, args.d)
    eigenvalues = spectral.signed_eigenvalues(lam[:len(rights)])
    if args.format == "json":
        import json

        lefts, pi = spectral.left_side(lam, args.d)
        print(json.dumps({"n": len(lam), "eigenvalues": list(map(str, eigenvalues)),
                          "right_vectors": [list(map(str, v)) for v in rights],
                          "left_vectors": [list(map(str, u)) for u in lefts],
                          "pi": list(map(str, pi))}))
        return
    # formatted whole before any of it is written, so a failure leaves stdout empty
    lines = [f"d={d}  eigenvalue={value}  right=" + ",".join(map(str, vec))
             for d, (value, vec) in enumerate(zip(eigenvalues, rights))]
    lines.append("final-left=" + ",".join(map(str, spectral.final_left_eigenvector(len(lam)))))
    print("\n".join(lines))


_LAMBDA_PROPERTIES = ("stochastic", "globally-reversible")
_WALK_PROPERTIES = ("ergodic", "reversible", "kolmogorov")
# each verdict's own test, and its field in the full PropertyReport
_TRIANGULAR_PROPERTIES = {
    "adep": (transform.check_adep, "adep"),
    "gadep": (transform.check_gadep, "gadep"),
    "binomial-transform": (transform.is_binomial_transform, "is_binomial_transform"),
}


def _check_source(args):
    """The input resolved for the property's group: the eigenvalue list for
    the lambda properties, the rows of P for the walk properties, and the
    lower-triangular matrix (H, or the --matrix rows) for the rest."""
    prop = args.property
    source, n = _source_from_args(args)
    if prop in _LAMBDA_PROPERTIES:
        if args.lam is None:
            raise InvoluteError(f"check {prop} needs --lambda")
        return source
    if args.matrix is not None:
        # a walk is square, stochastic and anti-triangular
        return walk.checked_walk(source) if prop in _WALK_PROPERTIES else source
    if args.lam is not None and prop not in _WALK_PROPERTIES:
        return transform.binomial_transform(source)
    p = _walk(source, n)
    return p if prop in _WALK_PROPERTIES else _down_step(p)


def cmd_check(args):
    prop = args.property
    if args.global_check and prop != "conjugator":
        raise InvoluteError(f"--global applies only to check conjugator, not {prop}")
    source = _check_source(args)
    if prop == "stochastic":
        res = transform.is_stochastic(source)
        if not res:
            raise CheckFailed(f"not stochastic: {res.reason}"
                              + (f" (witness z={res.witness})" if res.witness is not None else ""))
        print("stochastic: all alternating sums are non-negative")
    elif prop == "globally-reversible":
        if not cls.is_globally_reversible(source):
            raise CheckFailed("not globally reversible: a top-right submatrix fails")
        print("globally reversible")
    elif prop == "ergodic":
        report = walk.ergodicity(source)
        if not report.ergodic:
            raise CheckFailed(
                f"not ergodic: irreducible={report.irreducible} aperiodic={report.aperiodic}"
            )
        print("ergodic")
    elif prop == "kolmogorov":
        if not walk.kolmogorov(source):
            raise CheckFailed("kolmogorov: a cycle product depends on direction")
        print("kolmogorov criterion holds")
    elif prop == "reversible":
        # reversible against a strictly positive law, the sweep's verdict
        found = walk._potentials(source)
        if found is None:
            raise CheckFailed("not reversible: detailed balance fails")
        print("reversible" if found[1] == 1
              else "reversible (chain is reducible; distribution not unique)")
    elif prop in _TRIANGULAR_PROPERTIES:
        decide, field = _TRIANGULAR_PROPERTIES[prop]
        # the whole report is built only to print it or to name a witness
        report = transform.property_report(source) if args.format == "json" else None
        if report is not None:
            import json

            print(json.dumps(report.to_dict()))
        if not (getattr(report, field) if report else decide(source)):
            report = report or transform.property_report(source)
            raise CheckFailed(f"{prop} fails (witness: {report.witness})")
        if report is None:
            print(f"{prop} holds")
    else:  # conjugator; argparse's choices admit no other property
        if not transform.check_conjugator(source, global_check=args.global_check):
            raise CheckFailed("not an anti-diagonal conjugator")
        print("anti-diagonal conjugator" + (" (global)" if args.global_check else ""))


def cmd_classify(args):
    lam = parse_rational_list(args.lam)
    result = cls.classify_walk(lam)
    if args.format == "json":
        import json

        print(json.dumps({"classification": cls.classification_label(result)}))
    else:
        print(cls.classification_label(result))


def cmd_ladder(args):
    mu = parse_rational(args.mu)
    rows = cls.exceptional_ladder(mu, args.n)
    if args.format == "json":
        import json

        print(json.dumps([{"m": m, "nu": str(nu), "a_prime": str(ap)} for m, nu, ap in rows]))
        return
    print("m,nu,a_prime")
    for m, nu, ap in rows:
        print(f"{m},{nu},{ap}")


# trajectory lines formatted per write: a chunk's strings take under 100 kB,
# so peak memory does not grow past that of writing line by line
_SIMULATE_CHUNK = 1024


def cmd_simulate(args):
    p = _walk(*_source_from_args(args))
    traj = walk.simulate(p, args.start, args.steps, args.seed)
    if args.empirical:
        print(",".join(f"{f:.6f}" for f in walk.visit_frequencies(traj, len(p))))
        return
    suffix = [f",{x}\n" for x in range(len(p))]
    out = sys.stdout
    out.write("step,state\n")
    for start in range(0, len(traj), _SIMULATE_CHUNK):
        chunk = traj[start:start + _SIMULATE_CHUNK]
        # "t" and ",x\n" interleaved: the steps by str, the states by lookup
        parts = [""] * (2 * len(chunk))
        parts[::2] = map(str, range(start, start + len(chunk)))
        parts[1::2] = map(suffix.__getitem__, chunk)
        out.write("".join(parts))


def cmd_subsets(args):
    sub = walk.subset_walk(args.m, parse_rational(args.p))
    if args.matrix:
        _emit_matrix(walk.subset_matrix(sub), args.format)
        return
    print("pi=" + ",".join(map(str, sub.pi)))
    print("eigenvalues=" + ",".join(map(str, sub.eigenvalues)))


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
        xs = cont.grid()
        print("x,pi")
        for x, density in zip(xs, cont.cts_invariant(w, xs)):
            print(f"{x:.6f},{density:.12f}")
    else:
        if args.trig:
            raise InvoluteError("--convergence compares with the discrete gamma(a,b) walk; "
                                "use --kappa, not --trig")
        sizes = _parse_sizes(args.sizes or "10,20,40,80")
        (dists,) = cont.convergence_table(*kappa, [args.convergence], sizes)
        print("n,distance")
        for n, dist in zip(sizes, dists):
            print(f"{n},{dist:.8f}")


def cmd_conjecture(args):
    import json

    summary = cls.conjecture_search(args.n, max_denominator=args.max_denominator)
    sys.stdout.write("".join(json.dumps(record.to_dict()) + "\n"
                             for record in summary.records))
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
            print(matrix_to_pretty(walk.transition_matrix(spec, 4)))
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
                print(f"{which} at tau={tau}: "
                      f"gadep={rep.gadep} binomial_transform={rep.is_binomial_transform}")
                print(matrix_to_pretty(mat, structural_dots=False))
                print()
    elif target == "example7-table":
        print("nu,a_prime,m")
        for m, nu, ap in cls.exceptional_ladder(Fraction(2, 3), 10):
            print(f"{nu},{ap},{m}")
    elif target == "fig1-ladder":
        print("m,nu_m(2/3)")
        for m in range(2, 7):
            print(f"{m},{cls.nu_ladder(m, Fraction(2, 3))}")
    else:  # fig2-convergence; argparse's choices admit no other target
        from . import continuum as cont

        print("d,n,distance")
        sizes = [10, 20, 40, 80]
        for d, dists in zip((1, 2), cont.convergence_table(0, 0, (1, 2), sizes)):
            for n, dist in zip(sizes, dists):
                print(f"{d},{n},{dist:.8f}")


def _define_matrix(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.add_argument("--down-step", action="store_true", help="print H instead of P")
    p.set_defaults(func=cmd_matrix)


def _define_stationary(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.set_defaults(func=cmd_stationary)


def _define_spectrum(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.set_defaults(func=cmd_spectrum)


def _define_eigvec(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.add_argument("--d", type=int, default=None, help="largest eigenvector index")
    p.set_defaults(func=cmd_eigvec)


def _define_check(p: argparse.ArgumentParser):
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


def _define_classify(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_classify)


def _define_ladder(p: argparse.ArgumentParser):
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"number of states (at most {cls.LADDER_BUDGET})")
    p.set_defaults(func=cmd_ladder)


def _define_simulate(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000,
                   help=f"number of steps (default 1000, at most {walk.SIMULATION_BUDGET})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--empirical", action="store_true", help="print visit frequencies instead")
    p.set_defaults(func=cmd_simulate)


def _define_subsets(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--matrix", action="store_true", help="print the 2^m transition matrix")
    p.set_defaults(func=cmd_subsets)


def _define_continuum(p: argparse.ArgumentParser):
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


def _define_conjecture(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-denominator", type=int, default=8, metavar="D",
                   help=f"grid denominators up to D (default 8); the lattice may visit at "
                        f"most {transform.LATTICE_BUDGET} suffixes, enough for n=4 at D=20 "
                        f"and n=6 at D=16")
    p.set_defaults(func=cmd_conjecture)


def _define_repro(p: argparse.ArgumentParser):
    p.add_argument(
        "target",
        choices=(
            "intro-matrices", "section7-hl", "example2-matrices",
            "example7-table", "fig1-ladder", "fig2-convergence",
        ),
    )
    p.set_defaults(func=cmd_repro)


# each subcommand's name, its line in `involute --help`, and its definer
_SUBCOMMANDS = (
    ("matrix", "print the transition matrix", _define_matrix),
    ("stationary", "exact stationary distribution", _define_stationary),
    ("spectrum", "closed-form signed eigenvalues", _define_spectrum),
    ("eigvec", "right and left eigenvectors and the stationary law", _define_eigvec),
    ("check", "property checks; exit 2 with a witness on failure", _define_check),
    ("classify", "identify the family from an eigenvalue sequence", _define_classify),
    ("ladder", "exceptional nu_m(mu) ladder", _define_ladder),
    ("simulate", "seeded trajectory CSV", _define_simulate),
    ("subsets", "Kronecker subset walk", _define_subsets),
    ("continuum", "interval walk residuals and invariants", _define_continuum),
    ("conjecture", "desk-scale reversibility sweep (JSON lines)", _define_conjecture),
    ("repro", "reproduce the reference displays and tables", _define_repro),
)

# argparse takes only integers and decimals for negative numbers, so "-1/3"
# would read as a flag; every negative rational is a value here
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, whose definer adds its arguments on its first parse.

    A call parses one subcommand, so it defines the arguments of that one
    only; `involute --help` and the command list need just the help lines.
    """

    def __init__(self, *, define, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER
        self._define = define

    def parse_known_args(self, args=None, namespace=None):
        if self._define is not None:
            self._define(self)
            self._define = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involute",
        description="Exact analysis of involutive random walks on total orders",
    )
    parser.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, define in _SUBCOMMANDS:
        sub.add_parser(name, help=help_line, define=define)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by later calls
    return build_parser()


# the ValueError Python raises when an int has more decimal digits than its
# limit (sys.set_int_max_str_digits): a result too large to print, so exit 2
_DIGIT_LIMIT = re.compile(r"Exceeds the limit \((\d+) digits\) for integer string conversion")


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
        limit = _DIGIT_LIMIT.match(str(exc)) if isinstance(exc, ValueError) else None
        if limit:
            print(f"error: a number in the result has more than {limit[1]} digits, "
                  "the limit of Python's integer string conversion", file=sys.stderr)
            return 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
