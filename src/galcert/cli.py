"""Command-line front end: parse a polynomial, run the pipeline, report.

Exit codes: 0 all checks pass, 2 parse or domain error, 3 certification
failure, 4 a mathematical assertion failed.  All configuration is by
flags; no environment variables are consulted, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import lcm

from .correspondence import CorrespondenceReport, correspondence_lattice
from .errors import CertificationError, InputError, TheoremError
from .groups import Arrangement, arrangement_array
from .numberfield import automorphism_table, express_roots
from .poly import UniPoly
from .record import Record
from .resolvent import ResolventSpec, certify_distinct_values, identify_galois, search_resolvent
from .roots import PREC_CAP, isolate_roots

_LABELS = "abcdefgh"


# -- expression parser -------------------------------------------------------

class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                try:
                    value = int(text[i:j])
                except ValueError:  # beyond the interpreter's digit limit
                    raise InputError(
                        f"number too long ({j - i} digits) at position {i}"
                    ) from None
                self.items.append(("num", value, i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalnum():
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^":
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise InputError(f"unexpected character {ch!r} at position {i}")
        self.items.append(("end", None, len(text)))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok


def parse_poly(text: str) -> UniPoly:
    """Parse a univariate polynomial expression.

    Grammar (LL(1)):
        poly    := sign? term (("+" | "-") term)*
        term    := factor (("*")? factor | "/" number)*
        factor  := number | name ("^" number)?

    One variable name only; rational coefficients via "/"; implicit
    multiplication between adjacent factors ("3x^2").
    """
    toks = _Tokens(text)
    var_name = None
    coeffs: dict[int, Fraction] = {}

    def add_term(coeff, power):
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff

    def parse_term(sign):
        nonlocal var_name
        coeff = Fraction(sign)
        power = 0
        saw_factor = False
        while True:
            kind, value, pos = toks.peek()
            if kind == "num":
                toks.next()
                coeff *= value
                saw_factor = True
            elif kind == "name":
                toks.next()
                if var_name is None:
                    var_name = value
                elif value != var_name:
                    raise InputError(
                        f"unexpected second variable {value!r} at position {pos}"
                    )
                exp = 1
                if toks.peek()[0] == "^":
                    toks.next()
                    k2, v2, p2 = toks.next()
                    if k2 != "num":
                        raise InputError(f"expected an exponent at position {p2}")
                    exp = v2
                power += exp
                saw_factor = True
            elif kind == "*":
                toks.next()
                if toks.peek()[0] not in ("num", "name"):
                    raise InputError(
                        f"expected a factor at position {toks.peek()[2]}"
                    )
            elif kind == "/":
                toks.next()
                k2, v2, p2 = toks.next()
                if k2 != "num":
                    raise InputError(f"expected a number at position {p2}")
                if v2 == 0:
                    raise InputError(f"division by zero at position {p2}")
                coeff /= v2
            else:
                break
        if not saw_factor:
            _, _, pos = toks.peek()
            raise InputError(f"expected a term at position {pos}")
        add_term(coeff, power)

    sign = 1
    kind, _, _ = toks.peek()
    if kind in ("+", "-"):
        toks.next()
        sign = -1 if kind == "-" else 1
    parse_term(sign)
    while True:
        kind, _, pos = toks.peek()
        if kind == "end":
            break
        if kind not in ("+", "-"):
            raise InputError(f"expected '+' or '-' at position {pos}")
        toks.next()
        parse_term(-1 if kind == "-" else 1)

    # reject a high degree before a dense coefficient list is built;
    # terms that cancel do not count
    coeffs = {k: c for k, c in coeffs.items() if c}
    if coeffs and max(coeffs) > 4:
        raise InputError("the degree must be between 2 and 4")
    return UniPoly.from_dict(coeffs)


def normalize_monic_integer(f: UniPoly):
    """Monic integer-coefficient polynomial with the same splitting field,
    by dividing out the leading coefficient and substituting x -> x/c.
    Returns (g, c): the roots of g are c times the roots of f."""
    if f.is_zero() or f.degree == 0:
        raise InputError("a nonconstant polynomial is required")
    g = f.monic()
    denoms = [Fraction(c).denominator for c in g.coeffs]
    c = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    if c == 1:
        return g, 1
    scaled = g.substitute_scaled(c)
    return UniPoly([int(v) for v in scaled.coeffs]), c


def _check_digits(numbers):
    """InputError for a numerator or denominator longer than the
    interpreter's int digit limit, which number tokens obey too: products
    of shorter tokens or the x -> x/c scaling can build one, and it could
    not be rendered."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    bound = 10**limit
    for c in map(Fraction, numbers):
        if abs(c.numerator) >= bound or c.denominator >= bound:
            raise InputError(f"coefficient too long (more than {limit} digits)")


# -- pipeline ----------------------------------------------------------------

class AnalysisConfig(Record):
    """The pipeline's settings, validated on construction."""

    __slots__ = ("precision_bits", "resolvent_norm_bound", "output_format",
                 "emit_array", "seed_spec")

    def __init__(self, precision_bits: int = 128, resolvent_norm_bound: int = 8,
                 output_format: str = "text", emit_array: bool = False,
                 seed_spec: tuple | None = None):
        if precision_bits < 64:
            raise InputError("precision must be at least 64 bits")
        # the certification schedule stops doubling at PREC_CAP, and an
        # isolation far above it runs for minutes
        if precision_bits > PREC_CAP:
            raise InputError(f"precision must be at most {PREC_CAP} bits")
        if resolvent_norm_bound < 1:
            raise InputError("the resolvent norm bound must be at least 1")
        if output_format not in ("text", "json"):
            raise InputError(f"unknown output format {output_format!r}")
        Record.__init__(self, precision_bits, resolvent_norm_bound, output_format,
                        emit_array, seed_spec)


def analyze(text: str, cfg: AnalysisConfig | None = None) -> CorrespondenceReport:
    """Full pipeline: isolate roots, certify a resolvent, identify the
    Galois group, build the splitting field, certify the correspondence."""
    cfg = cfg or AnalysisConfig()
    parsed = parse_poly(text)
    if parsed.degree is None or not 2 <= parsed.degree <= 4:
        raise InputError("the degree must be between 2 and 4")
    f, scale = normalize_monic_integer(parsed)
    _check_digits(parsed.coeffs + f.coeffs + (scale,))
    rs = isolate_roots(f, cfg.precision_bits)
    if cfg.seed_spec is not None:
        if len(cfg.seed_spec) != f.degree:
            raise InputError("the explicit weight list must match the degree")
        if not certify_distinct_values(tuple(cfg.seed_spec), rs):
            raise CertificationError(
                "the explicit weight vector could not be certified injective"
            )
        spec = ResolventSpec(tuple(cfg.seed_spec))
    else:
        spec = search_resolvent(rs, cfg.resolvent_norm_bound)
    gd = identify_galois(f, spec, rs)
    roots = express_roots(gd, rs)
    sf = automorphism_table(gd, roots, rs)
    report = correspondence_lattice(sf)
    report.input_polynomial = parsed
    report.scale = Fraction(scale)
    if cfg.emit_array:
        report.arrangement_arrays = render_arrangement_arrays(sf, rs)
    return report


def render_arrangement_arrays(sf, rs):
    """Figure-style blocks for each subgroup: rows are arrangements of
    the root letters, annotated with the conjugate value on the left."""
    from .groups import all_subgroups
    from .resolvent import conjugate_balls

    n = sf.poly.degree
    base = Arrangement(tuple(range(n)))
    vals = conjugate_balls(sf.galois.spec, rs)
    out = []
    for h in all_subgroups(sf.galois.group):
        lines = [f"subgroup of order {h.order}: "
                 + ", ".join(p.cycle_string(_LABELS) for p in h)]
        blocks = arrangement_array(sf.galois.group, h, base)
        for bi, block in enumerate(blocks):
            lines.append(f"  block {bi + 1}:")
            for row in block.rows:
                perm = _perm_for_row(sf.galois.group, base, row)
                z = vals[perm].to_complex()
                lines.append(
                    f"    {_fmt_complex(z):>24}   {' '.join(row.labels(_LABELS))}"
                )
        out.append("\n".join(lines))
    return out


def _perm_for_row(group, base, row):
    for p in group:
        if base.act(p) == row:
            return p
    raise CertificationError("arrangement row outside the group orbit")


def _fmt_complex(z):
    if z.imag == 0:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g} {sign} {abs(z.imag):.6g}i"


# -- output ------------------------------------------------------------------

def report_to_dict(report: CorrespondenceReport) -> dict:
    """The report as JSON-ready data.  Every coefficient is an int or a
    ``Fraction``, so ``str`` writes it exactly, as "p" or "p/q"."""
    data = {
        "polynomial": {
            "input": report.input_polynomial.render(),
            "analyzed": report.polynomial.render(),
            "coefficients": list(map(str, report.polynomial.coeffs)),
            "root_scale": str(report.scale),
        },
        "resolvent": {
            "weights": list(report.weights),
            "degree": report.min_poly.degree,
            "min_poly": list(map(str, report.min_poly.coeffs)),
        },
        "group": {
            "order": report.group_order,
            "elements": [list(p.images) for p in report.group],
        },
        "subgroups": [
            {
                "order": e.subgroup.order,
                "elements": [list(p.images) for p in e.subgroup],
                "dim": e.dim,
                "basis": [list(map(str, b.coeffs)) for b in e.subfield.basis],
                "primitive_element": list(map(str, e.primitive.coeffs)),
                "primitive_min_poly": list(map(str, e.primitive_min_poly.coeffs)),
                "fixed_field_equal": e.fixed_field_equal,
            }
            for e in report.entries
        ],
        "checks": [{"name": name, "pass": ok} for name, ok in report.checks],
    }
    if report.arrangement_arrays is not None:
        data["arrangement_arrays"] = report.arrangement_arrays
    return data


def render_text(report: CorrespondenceReport) -> str:
    lines = []
    lines.append(f"polynomial: {report.input_polynomial.render()}")
    if report.scale != 1:
        lines.append(
            f"analyzed as {report.polynomial.render()} "
            f"(roots scaled by {report.scale})"
        )
    lines.append(f"resolvent weights: {list(report.weights)}")
    lines.append(
        f"splitting field degree: {report.min_poly.degree}; "
        f"minimal polynomial: {report.min_poly.render()}"
    )
    lines.append(
        f"galois group: order {report.group_order}: "
        + ", ".join(p.cycle_string(_LABELS) for p in report.group)
    )
    lines.append(f"subgroups and subfields ({len(report.entries)}):")
    for e in report.entries:
        perms = ", ".join(p.cycle_string(_LABELS) for p in e.subgroup)
        lines.append(f"  order {e.subgroup.order}: {{{perms}}}")
        lines.append(
            f"    subfield dim {e.dim}; basis: "
            + "; ".join(b.render() for b in e.subfield.basis)
        )
        lines.append(
            f"    primitive element {e.primitive.render()} with minimal "
            f"polynomial {e.primitive_min_poly.render()}"
        )
        lines.append(
            "    equals fixed field: " + ("yes" if e.fixed_field_equal else "NO")
        )
    if report.arrangement_arrays is not None:
        lines.append("arrangement arrays:")
        for block in report.arrangement_arrays:
            lines.append(block)
    lines.append("checks:")
    for name, ok in report.checks:
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}")
    return "\n".join(lines) + "\n"


def render_json(report: CorrespondenceReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


# -- entry point -------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="galcert",
        description=(
            "Construct the splitting field of a small rational polynomial "
            "and certify the subgroup/subfield correspondence exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full certified pipeline")
    pa.add_argument("poly", help="polynomial expression, e.g. 'x^3 - 2'")
    pa.add_argument("--precision", type=int, default=128, metavar="N",
                    help="initial ball precision in bits (default 128)")
    pa.add_argument("--norm-bound", type=int, default=8, metavar="K",
                    help="max-norm bound for the weight search (default 8)")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--array", action="store_true",
                    help="render the arrangement arrays per subgroup")
    pa.add_argument("--spec", default=None, metavar="a1,a2,...",
                    help="explicit resolvent weights (still certified)")

    sub.add_parser("selftest", help="run the acceptance suite and report")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()
    try:
        seed = None
        if args.spec is not None:
            try:
                seed = tuple(int(w) for w in args.spec.split(","))
            except ValueError:
                raise InputError(f"could not parse the weight list {args.spec!r}")
        cfg = AnalysisConfig(
            precision_bits=args.precision,
            resolvent_norm_bound=args.norm_bound,
            output_format=args.format,
            emit_array=args.array,
            seed_spec=seed,
        )
        report = analyze(args.poly, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except TheoremError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 4
    out = render_json(report) if cfg.output_format == "json" else render_text(report)
    sys.stdout.write(out)
    return 0 if report.all_passed() else 4


if __name__ == "__main__":
    sys.exit(main())
