"""Command-line surface for the involute library.

Every subcommand prints deterministically for a fixed argv and seed.
Exit codes: 0 success, 2 precondition or validation failure (with a
diagnostic naming the violated condition), 1 internal error.

A call pays at start-up only for what its command uses:
- `continuum` is imported inside the two handlers that use it, because it
  loads numpy and every other command is exact;
- no module the CLI loads imports `dataclasses` (see `_record`);
- `json` is imported by the two functions that print JSON through
  `json.dumps`, `_print_json` and `cmd_conjecture`: a matrix's JSON is one
  template filled with the text of its entries (`serialize.matrix_to_json`),
  so `--format json matrix` loads no `json`;
- `build_parser` constructs one `ArgumentParser` and registers every
  subcommand with its help line alone; a subcommand's parser is built and
  its arguments defined when a call first parses it (`_Subcommand`);
- no module of the package imports `typing`, and the error path compiles
  no regex (`_DIGIT_LIMIT`).
The `involute.*` imports stay at module level: they are the exact core
that every command but `continuum` runs, so deferring them would only move
their cost into the first call, and the traced benchmark wraps only the
modules loaded before its jobs start.
"""

from __future__ import annotations

import argparse
import functools
import operator
import re
import sys
from fractions import Fraction

from . import _linalg, spectral, transform, walk, weights
from . import classify as cls
from ._continuum import CONVERGENCE_MAX_N, CONVERGENCE_MAX_SIZES
from .errors import InvoluteError
from .serialize import (
    _rational_text,
    matrix_from_csv,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_pretty,
    parse_rational,
    parse_rational_list,
)
from .weights import Custom, DeltaAB, GammaAB, GammaC, custom_from_csv, spec_label


def _source_from_args(args) -> tuple:
    """The input of the one source flag argparse admits, as (source, n).

    An eigenvalue sequence comes back as its list with its length, and the
    rows of a `check --matrix` file with their number; a weight spec with
    --n, else the custom table's size.  No walk is built here.
    """
    matrix = getattr(args, "matrix", None)
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


def _walk(source, n, entry=Fraction) -> list:
    """The rows of P for a resolved source, the lambda walk of a list or the
    weight's, each entry made by entry from an integer pair (`walk.transition_matrix`)."""
    if isinstance(source, list):
        return transform.lambda_walk(source, entry)
    return walk.transition_matrix(source, n, entry)


def _sequence(source, n) -> list:
    """The eigenvalue sequence of the walk of a resolved source: a --lambda
    list once it passes the stochasticity check of `matrix --lambda`, else
    the named family's down-step diagonal."""
    if isinstance(source, list):
        return transform.stochastic_sequence(source)
    return weights.family_sequence(source, n)


def _read_file(path: str) -> str:
    """Contents of a UTF-8 file named on the command line; unreadable is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvoluteError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvoluteError(f"cannot read {path}: {exc}") from None


def _add_family_flags(p: argparse.ArgumentParser):
    # --n first: a group shows in the usage line only when its flags are adjacent
    p.add_argument("--n", type=int, help="number of states")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gamma", nargs=2, metavar=("A", "B"), help="gamma(a,b) weight")
    source.add_argument("--gammac", metavar="C", help="gamma(c) weight")
    source.add_argument("--delta", nargs=2, metavar=("AP", "BP"), help="delta(a',b') weight")
    source.add_argument("--lambda", dest="lam", metavar="L0,L1,...", help="eigenvalue sequence")
    source.add_argument("--custom", metavar="FILE", help="custom weight CSV (rows y,x,p/q)")
    return source  # one of them is required; `check` adds --matrix


def _emit_matrix(rows, fmt: str | None):
    if fmt == "csv":
        sys.stdout.write(matrix_to_csv(rows))
    elif fmt == "json":
        print(matrix_to_json(rows))
    else:
        print(matrix_to_pretty(rows))


def _print_json(value):
    import json

    print(json.dumps(value))


def _emit_vector(v, fmt: str | None, name: str):
    if fmt == "csv":
        print(",".join(map(str, v)))
    elif fmt == "json":
        _print_json({name: list(map(str, v))})
    else:
        print("  ".join(map(str, v)))


def _down_step(p: list) -> list:
    """H for the rows of P: each row reversed, since P = H J."""
    return [row[::-1] for row in p]


def cmd_matrix(args):
    # the entries are only printed, so they are built as text from integer pairs
    p = _walk(*_source_from_args(args), _rational_text)
    _emit_matrix(_down_step(p) if args.down_step else p, args.format)


def cmd_stationary(args):
    source, n = _source_from_args(args)
    if isinstance(source, (GammaAB, GammaC, DeltaAB)):
        pi = weights.invariant_closed_form(source, n)
    else:
        pi = walk.stationary(_walk(source, n))
    _emit_vector(pi, args.format, "pi")


def cmd_spectrum(args):
    signed = spectral.signed_eigenvalues(_sequence(*_source_from_args(args)))
    _emit_vector(signed, args.format, "eigenvalues")


def cmd_eigvec(args):
    source, n = _source_from_args(args)
    if isinstance(source, list):
        # the triangles' size is read off the length, so an oversized
        # sequence is refused before its stochastic check walks it; json
        # solves the left side too, on the whole n x n triangle
        _linalg.check_table(n if args.d is None or args.format == "json"
                            else min(args.d + 1, n))
    lam = _sequence(source, n)
    rights = spectral.right_eigenvectors(lam, args.d)
    eigenvalues = spectral.signed_eigenvalues(lam[:len(rights)])
    if args.format == "json":
        lefts, pi = spectral.left_side(lam, args.d)
        _print_json({"n": len(lam), "eigenvalues": list(map(str, eigenvalues)),
                     "right_vectors": [list(map(str, v)) for v in rights],
                     "left_vectors": [list(map(str, u)) for u in lefts],
                     "pi": list(map(str, pi))})
        return
    # formatted whole before any of it is written, so a failure leaves stdout empty
    lines = [f"d={d}  eigenvalue={value}  right=" + ",".join(map(str, vec))
             for d, (value, vec) in enumerate(zip(eigenvalues, rights))]
    lines.append("final-left=" + ",".join(map(str, spectral.final_left_eigenvector(len(lam)))))
    print("\n".join(lines))


# each property, in `check --help` order, and the input it reads: the
# --lambda sequence, the walk's rows, or the matrix (H, or the --matrix rows)
_CHECKS = {
    "stochastic": "lambda", "ergodic": "walk", "reversible": "walk",
    "globally-reversible": "lambda", "kolmogorov": "walk", "adep": "matrix",
    "gadep": "matrix", "binomial-transform": "matrix", "conjugator": "matrix",
}
# each triangular property's witness function, None when it holds, and its
# key in the JSON report (`transform.property_report`)
_TRIANGULAR_PROPERTIES = {
    "adep": (transform.adep_witness, "adep"),
    "gadep": (transform.gadep_witness, "gadep"),
    "binomial-transform": (transform.binomial_transform_witness, "is_binomial_transform"),
}


def _check_source(args):
    """The input `_CHECKS` names for the property: the eigenvalue list, the
    walk's rows or the matrix (H, or the --matrix rows).  A named family is
    the walk of its eigenvalue sequence, so it takes the --lambda path,
    once the domain and the table budget admit n (`walk._table_sequence`):
    the walk's rows are the integer L * M of `transform._scaled_walk`, whose
    support, classes, potentials' verdict and tree count, all a walk verdict
    reads, are P's, and H is the binomial transform of the sequence."""
    prop, kind = args.property, _CHECKS[args.property]
    source, n = _source_from_args(args)
    if kind == "lambda":
        if args.lam is None:
            raise InvoluteError(f"check {prop} needs --lambda")
        return source
    if args.matrix is not None:
        # a walk is square, stochastic and anti-triangular
        return walk.checked_walk(source) if kind == "walk" else source
    if isinstance(source, Custom):
        p = _walk(source, n)
        return p if kind == "walk" else _down_step(p)
    lam = source if args.lam is not None else walk._table_sequence(source, n)
    return transform._scaled_walk(lam)[1] if kind == "walk" else transform.binomial_transform(lam)


def cmd_check(args):
    prop = args.property
    if args.global_check and prop != "conjugator":
        raise InvoluteError(f"--global applies only to check conjugator, not {prop}")
    source = _check_source(args)
    if prop == "stochastic":
        res = transform.is_stochastic(source)
        if not res:
            raise InvoluteError(f"not stochastic: {res.reason}"
                                + (f" (witness z={res.witness})" if res.witness is not None else ""))
        print("stochastic: all alternating sums are non-negative")
    elif prop == "globally-reversible":
        if not cls.is_globally_reversible(source):
            raise InvoluteError("not globally reversible: a top-right submatrix fails")
        print("globally reversible")
    elif prop == "ergodic":
        report = walk.ergodicity(source)
        if not report.ergodic:
            raise InvoluteError(
                f"not ergodic: irreducible={report.irreducible} aperiodic={report.aperiodic}"
            )
        print("ergodic")
    elif prop == "kolmogorov":
        if not walk.kolmogorov(source):
            raise InvoluteError("kolmogorov: a cycle product depends on direction")
        print("kolmogorov criterion holds")
    elif prop == "reversible":
        # reversible against a strictly positive law, the sweep's verdict
        found = walk._potentials(source)
        if found is None:
            raise InvoluteError("not reversible: detailed balance fails")
        print("reversible" if found[1] == 1
              else "reversible (chain is reducible; distribution not unique)")
    elif prop in _TRIANGULAR_PROPERTIES:
        find, key = _TRIANGULAR_PROPERTIES[prop]
        if args.format == "json":
            report = transform.property_report(source)
            _print_json(report)
            # a failing ADEP fails GADEP too, whose first failing block the
            # report names; an entry off the transform needs no polynomial
            witness = (None if report[key] else find(source) if key == "is_binomial_transform"
                       else report["witness"])
        elif (witness := find(source)) is None:
            print(f"{prop} holds")
        if witness is not None:
            raise InvoluteError(f"{prop} fails (witness: {witness})")
    else:  # conjugator; argparse's choices admit no other property
        if not transform.check_conjugator(source, global_check=args.global_check):
            raise InvoluteError("not an anti-diagonal conjugator")
        print("anti-diagonal conjugator" + (" (global)" if args.global_check else ""))


def cmd_classify(args):
    label = cls.classification_label(cls.classify_walk(parse_rational_list(args.lam)))
    if args.format == "json":
        _print_json({"classification": label})
    else:
        print(label)


def cmd_ladder(args):
    mu = parse_rational(args.mu)
    rows = cls.exceptional_ladder(mu, args.n)
    if args.format == "json":
        _print_json([{"m": m, "nu": str(nu), "a_prime": str(ap)} for m, nu, ap in rows])
        return
    print("m,nu,a_prime")
    for m, nu, ap in rows:
        print(f"{m},{nu},{ap}")


# trajectory lines formatted per write: a block's strings take under 100 kB,
# so peak memory does not grow past that of writing line by line; step
# 1000 b + r of block b >= 1 prints as str(b) and r on 3 digits
_SIMULATE_CHUNK = 1000


def cmd_simulate(args):
    # the rows as floats from their integer pairs, bit for bit the floats of
    # the exact rows (`walk.transition_matrix`), so the trajectory is theirs
    p = _walk(*_source_from_args(args), operator.truediv)
    traj = walk.simulate(p, args.start, args.steps, args.seed)
    if args.empirical:
        print(",".join(f"{f:.6f}" for f in walk.visit_frequencies(traj, len(p))))
        return
    suffix = [f",{x}\n" for x in range(len(p))]
    # the 3-digit step numbers, built per call: a table at import would slow
    # every command's start-up
    digits = "0123456789"
    low = [a + b + c for a in digits for b in digits for c in digits]
    out = sys.stdout
    out.write("step,state\n")
    for block, start in enumerate(range(0, len(traj), _SIMULATE_CHUNK)):
        chunk = traj[start:start + _SIMULATE_CHUNK]
        m = len(chunk)
        # three parts a line, "b", "rrr" and ",x\n", so no line is concatenated;
        # block 0 has no prefix and prints r as it is
        parts = [""] * (3 * m)
        if block:
            parts[::3] = [str(block)] * m
            parts[1::3] = low[:m]
        else:
            parts[1::3] = map(str, range(m))
        parts[2::3] = map(suffix.__getitem__, chunk)
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
    # every record is a point of the stochastic lattice; a rational's text
    # needs no JSON escape, a classification label (quotes, reasons) does
    line = '{"lambda": ["%s"], "stochastic": true, "reversible": %s, "classification": %s}\n'
    lines = []
    for r in summary.records:
        lam = '", "'.join(map(str, r.lam))
        if r.reversible:
            label = json.dumps(cls.classification_label(r.classification))
            lines.append(line % (lam, "true", label))
        else:
            lines.append(line % (lam, "false", "null"))
    sys.stdout.write("".join(lines))
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
        raise InvoluteError(f"{len(bad)} reversible sequences escaped classification")


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
                      f"gadep={rep['gadep']} binomial_transform={rep['is_binomial_transform']}")
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


def _define_eigvec(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.add_argument("--d", type=int, default=None, help="largest eigenvector index")


def _define_check(p: argparse.ArgumentParser):
    _add_family_flags(p).add_argument("--matrix", metavar="FILE",
                                      help="CSV matrix of p/q entries")
    p.add_argument("--global", dest="global_check", action="store_true",
                   help="check the global (all top-left sizes) variant")
    p.add_argument("property", choices=tuple(_CHECKS))


def _define_classify(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", required=True)


def _define_ladder(p: argparse.ArgumentParser):
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"number of states (at most {cls.LADDER_BUDGET})")


def _define_simulate(p: argparse.ArgumentParser):
    _add_family_flags(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000,
                   help=f"number of steps (default 1000, at most {walk.SIMULATION_BUDGET})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--empirical", action="store_true", help="print visit frequencies instead")


def _define_subsets(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--matrix", action="store_true", help="print the 2^m transition matrix")


def _define_continuum(p: argparse.ArgumentParser):
    walk_flags = p.add_mutually_exclusive_group()
    walk_flags.add_argument("--kappa", nargs=2, type=int, metavar=("A", "B"),
                            help="kappa(a,b) weight (default 0 0)")
    walk_flags.add_argument("--trig", action="store_true")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--residual", type=int, metavar="DMAX")
    mode.add_argument("--fixed-point", action="store_true")
    mode.add_argument("--invariant", action="store_true")
    mode.add_argument("--convergence", type=int, metavar="D")
    p.add_argument("--sizes",
                   help=f"comma-separated n for --convergence (default 10,20,40,80): at most "
                        f"{CONVERGENCE_MAX_SIZES} sizes, each n <= {CONVERGENCE_MAX_N}")


def _define_conjecture(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-denominator", type=int, default=8, metavar="D",
                   help=f"grid denominators up to D (default 8); the lattice may visit at "
                        f"most {transform.LATTICE_BUDGET} suffixes, enough for n=4 at D=20 "
                        f"and n=6 at D=16")


def _define_repro(p: argparse.ArgumentParser):
    p.add_argument(
        "target",
        choices=(
            "intro-matrices", "section7-hl", "example2-matrices",
            "example7-table", "fig1-ladder", "fig2-convergence",
        ),
    )


# each subcommand's name, its line in `involute --help`, its handler and its definer
_SUBCOMMANDS = (
    ("matrix", "print the transition matrix", cmd_matrix, _define_matrix),
    ("stationary", "exact stationary distribution", cmd_stationary, _add_family_flags),
    ("spectrum", "closed-form signed eigenvalues", cmd_spectrum, _add_family_flags),
    ("eigvec", "right and left eigenvectors and the stationary law", cmd_eigvec, _define_eigvec),
    ("check", "property checks; exit 2 with a witness on failure", cmd_check, _define_check),
    ("classify", "identify the family from an eigenvalue sequence", cmd_classify, _define_classify),
    ("ladder", "exceptional nu_m(mu) ladder", cmd_ladder, _define_ladder),
    ("simulate", "seeded trajectory CSV", cmd_simulate, _define_simulate),
    ("subsets", "Kronecker subset walk", cmd_subsets, _define_subsets),
    ("continuum", "interval walk residuals and invariants", cmd_continuum, _define_continuum),
    ("conjecture", "desk-scale reversibility sweep (JSON lines)", cmd_conjecture,
     _define_conjecture),
    ("repro", "reproduce the reference displays and tables", cmd_repro, _define_repro),
)

# argparse takes only integers and decimals for negative numbers, so "-1/3"
# would read as a flag; every negative rational is a value here
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, built at its first use and defined by its first parse.

    argparse 3.10-3.13's `add_parser` only constructs and stores a subparser,
    and a parse calls `parse_known_args` on the one subparser it reaches;
    `involute --help` and the invalid-choice message read the names and help
    lines alone.  So a call builds the parser of its own subcommand and no
    other.  An argparse that reads a subparser before parsing it (3.14 checks
    each help line as it adds one) finds it built by `__getattr__`.
    """

    def __init__(self, *, handler, define, **kwargs):
        self._pending = kwargs
        self._handler, self._define = handler, define

    def _build(self):
        kwargs, self._pending = self._pending, None
        super().__init__(**kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def __getattr__(self, name):
        # reached only for an attribute that is not set
        if self.__dict__.get("_pending") is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build()
        return getattr(self, name)

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            self._build()
        if self._define is not None:
            self._define(self)
            self.set_defaults(func=self._handler)
            self._define = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involute",
        description="Exact analysis of involutive random walks on total orders",
    )
    parser.add_argument("--format", choices=("csv", "json", "pretty"), default=None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, handler, define in _SUBCOMMANDS:
        sub.add_parser(name, help=help_line, handler=handler, define=define)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by later calls
    return build_parser()


# the --format names of the forms of each command that prints more than one;
# `check` prints two for a triangular property only, `subsets` three with --matrix
_FORMS = dict.fromkeys(("matrix", "stationary", "spectrum", "subsets"), ("csv", "json", "pretty"))
_FORMS.update(eigvec=("json", "pretty"), classify=("json", "pretty"), check=("json", "pretty"),
              ladder=("csv", "json"))


def _refuse_unread_format(args):
    """An explicit --format that the command does not print is refused, not ignored."""
    command, forms = args.command, _FORMS.get(args.command, ())
    if command == "check":
        command = f"check {args.property}"
        forms = forms if args.property in _TRIANGULAR_PROPERTIES else ()
    elif command == "subsets" and not args.matrix:
        command, forms = "subsets without --matrix", ()
    if not forms:
        raise InvoluteError(f"--format does not apply to {command}: it has one form")
    if args.format not in forms:
        raise InvoluteError(f"--format {args.format} does not apply to {command}: "
                            f"it prints {' or '.join(forms)}")


# the start of the ValueError Python raises when an int has more decimal
# digits than its limit (sys.set_int_max_str_digits), in 3.10's wording,
# "Exceeds the limit (4300) for ...", and in 3.11's, "Exceeds the limit
# (4300 digits) for ...": a result too large to print, so exit 2
_DIGIT_LIMIT = "Exceeds the limit ("


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.format is not None:
            _refuse_unread_format(args)
        args.func(args)
    except InvoluteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - internal errors
        if isinstance(exc, ValueError) and str(exc).startswith(_DIGIT_LIMIT):
            print("error: a number in the result has more than "
                  f"{sys.get_int_max_str_digits()} digits, "
                  "the limit of Python's integer string conversion", file=sys.stderr)
            return 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
