"""Command-line front end: parse a polynomial, run the pipeline, report.

Exit codes: 0 all checks pass, 2 parse or domain error, 3 certification
failure, 4 a mathematical assertion failed.  All configuration is by
flags; no environment variables are consulted, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from decimal import MAX_EMAX, Context, Decimal
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd, isinf

from .correspondence import CorrespondenceReport, correspondence_lattice
from .errors import CertificationError, InputError, TheoremError
from .groups import Arrangement, Permutation, all_subgroups, arrangement_array
from .numberfield import automorphism_table, express_roots
from .poly import UniPoly
from .resolvent import (
    Ladder,
    Roots,
    certify_distinct_values,
    identify_galois,
    search_resolvent,
)
from .roots import isolate_roots

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
            # isdecimal, not isdigit: int() reads only decimal digits
            if ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
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
                name = text[i:j]
                if not name.isalpha():  # "1e3x" or "x2": a digit in a name is a typo
                    raise InputError(f"variable name {name!r} at position {i} contains a digit")
                self.items.append(("name", name, i))
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
    return UniPoly([coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)])


def normalize_monic_integer(f: UniPoly):
    """Monic integer-coefficient polynomial with the same splitting field,
    by dividing out the leading coefficient and substituting x -> x/c.
    Returns (g, c): the roots of g are c times the roots of f."""
    if f.is_zero() or f.degree == 0:
        raise InputError("a nonconstant polynomial is required")
    g = f.monic()
    # g.den is the lcm of the denominators of g's coefficients
    return g.substitute_scaled(g.den), g.den


def _check_digits(numbers):
    """InputError for a numerator or denominator over the int digit limit,
    which short number tokens reach through products, scaling or weights."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    bound = _power_of_ten(limit)
    for c in numbers:
        if abs(c.numerator) >= bound or c.denominator >= bound:
            raise InputError(f"coefficient too long (more than {limit} digits)")


@cache
def _power_of_ten(k):
    return 10**k


def _printed_numbers(report):
    """The numbers a report prints, or that bound its printed coordinates."""
    yield from report.weights
    yield from report.min_poly.coeffs
    for e in report.entries:
        yield from e.primitive.num
        yield e.primitive.den
        yield from e.primitive_min_poly.coeffs
        for row in e.subfield.rows:
            yield from row


# -- pipeline ----------------------------------------------------------------

def analyze(text: str, weights=None, array: bool = False) -> CorrespondenceReport:
    """Full pipeline: certify a resolvent (from ``weights`` if given),
    identify the Galois group, build the splitting field, certify the
    correspondence; ``array`` adds the arrangement arrays.  The roots are
    isolated only where balls are read: for a group other than S_n, and
    for the arrays."""
    parsed = parse_poly(text)
    if parsed.degree is None or not 2 <= parsed.degree <= 4:
        raise InputError("the degree must be between 2 and 4")
    f, scale = normalize_monic_integer(parsed)
    _check_digits(parsed.coeffs + f.coeffs + (scale,))
    if weights is not None:
        given = tuple(weights)
        try:
            weights = tuple(int(w) for w in given)
        except (TypeError, ValueError, OverflowError):
            weights = None
        if weights != given:
            raise InputError(f"the weights must be integers, got {list(given)!r}")
        if len(weights) != f.degree:
            raise InputError("the explicit weight list must match the degree")
    # ``Roots`` decides squarefreeness once, for the search and the
    # ladders; the roots are isolated on first use, which an S_n field
    # without arrays never makes: its report does not depend on the
    # root order
    roots = Roots(f, isolate_roots)
    if weights is None:
        ladder = search_resolvent(roots)
    else:
        ladder = Ladder(weights, roots)
        if not certify_distinct_values(ladder):
            raise CertificationError("the explicit weight vector could not be certified injective")
    gd = identify_galois(ladder)
    # the report prints the minimal polynomial: refuse it before the
    # stages that build on it
    _check_digits(gd.min_poly.coeffs)
    sf = automorphism_table(gd, express_roots(gd))
    report = correspondence_lattice(sf)
    _check_digits(_printed_numbers(report))
    report.input_polynomial = parsed
    report.scale = Fraction(scale)
    if array:
        report.arrangement_arrays = render_arrangement_arrays(sf)
    return report


def render_arrangement_arrays(sf):
    """Figure-style blocks for each subgroup: rows are arrangements of
    the root letters, annotated with the conjugate value on the left,
    read off the unrefined rung of the ladder."""
    base = Arrangement(tuple(range(sf.poly.degree)))
    _, vals, _ = sf.galois.ladder.base
    out = []
    for h in all_subgroups(sf.galois.group):
        lines = [f"subgroup of order {h.order}: "
                 + ", ".join(p.cycle_string(_LABELS) for p in h)]
        blocks = arrangement_array(sf.galois.group, h, base)
        for bi, block in enumerate(blocks):
            lines.append(f"  block {bi + 1}:")
            for row in block.rows:
                # row is base.act(p) for the identity base, so row.order
                # lists the images of p's inverse
                ball = vals[Permutation(row.order).inverse()]
                lines.append(
                    f"    {_fmt_complex(ball):>24}   {' '.join(row.labels(_LABELS))}"
                )
        out.append("\n".join(lines))
    return out


def _fmt_complex(ball):
    """The ball's center to 6 significant digits, from its floats."""
    z = ball.to_complex()
    re = _fmt_part(z.real, ball.x, ball.exp)
    if z.imag == 0:
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re} {sign} {_fmt_part(abs(z.imag), abs(ball.y), ball.exp)}i"


def _fmt_part(v: float, m: int, e: int) -> str:
    """v, the float of m * 2**e; past the float range, m * 2**e rounded
    once from exact ints, its trailing zeros dropped as ``.6g`` drops them."""
    if not isinf(v):
        return f"{v:.6g}"
    six = Context(prec=6, Emax=MAX_EMAX)
    exact = six.divide(Decimal(m << max(e, 0)), Decimal(1 << max(-e, 0)))
    return format(six.normalize(exact), "g")


# -- output ------------------------------------------------------------------

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
        lines.append("    equals fixed field: yes")
    if report.arrangement_arrays is not None:
        lines.append("arrangement arrays:")
        for block in report.arrangement_arrays:
            lines.append(block)
    lines.append("checks:")
    for name, ok in report.checks:
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}")
    return "\n".join(lines) + "\n"


def _array(items, pad):
    """A JSON array of encoded items as ``json.dumps(indent=2)`` lays it out,
    one item per line, at the depth whose indent is pad."""
    if not items:
        return "[]"
    inner = "\n  " + pad
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _object(pairs, pad):
    """A JSON object of (key, encoded value) pairs, laid out as ``_array``."""
    inner = "\n  " + pad
    return "{" + inner + ("," + inner).join(f'"{k}": {v}' for k, v in pairs) + "\n" + pad + "}"


def _strings(values, pad):
    """A JSON array of the values' ``str``: ints and ``Fraction``s, "p" or "p/q"."""
    return _array([f'"{v}"' for v in values], pad)


def _ints(values, pad):
    return _array(list(map(str, values)), pad)


def _coordinates(num, den, pad):
    """The coordinates num / den of a field element as ``_strings`` writes
    their ``Fraction``s, "p" or "p/q" in lowest terms, with one gcd each."""
    out = []
    for c in num:
        g = gcd(c, den)
        q = den // g
        out.append(f'"{c // g}"' if q == 1 else f'"{c // g}/{q}"')
    return _array(out, pad)


def _perms(group, pad):
    inner = pad + "  "
    return _array([_ints(p.images, inner) for p in group], pad)


def render_json(report: CorrespondenceReport) -> str:
    """The report as JSON text, byte for byte what ``json.dumps(data,
    indent=2)`` writes for it, with a final newline.  Every coefficient is
    an int or a ``Fraction``, which ``str`` writes exactly as "p" or "p/q";
    field elements are written from their integer vectors the same way."""
    quote = encode_basestring_ascii
    p4, p6, p8 = " " * 4, " " * 6, " " * 8
    subgroups = [
        _object((
            ("order", e.subgroup.order),
            ("elements", _perms(e.subgroup, p6)),
            ("dim", e.dim),
            ("basis", _array([_coordinates(r, r[p], p8)
                              for r, p in zip(e.subfield.rows, e.subfield.pivots)], p6)),
            ("primitive_element", _coordinates(e.primitive.num, e.primitive.den, p6)),
            ("primitive_min_poly", _strings(e.primitive_min_poly.coeffs, p6)),
            ("fixed_field_equal", "true"),
        ), p4)
        for e in report.entries
    ]
    checks = [_object((("name", quote(name)), ("pass", "true" if ok else "false")), p4)
              for name, ok in report.checks]
    sections = [
        ("polynomial", _object((
            ("input", quote(report.input_polynomial.render())),
            ("analyzed", quote(report.polynomial.render())),
            ("coefficients", _strings(report.polynomial.coeffs, p4)),
            ("root_scale", f'"{report.scale}"'),
        ), "  ")),
        ("resolvent", _object((
            ("weights", _ints(report.weights, p4)),
            ("degree", report.min_poly.degree),
            ("min_poly", _strings(report.min_poly.coeffs, p4)),
        ), "  ")),
        ("group", _object((
            ("order", report.group_order),
            ("elements", _perms(report.group, p4)),
        ), "  ")),
        ("subgroups", _array(subgroups, "  ")),
        ("checks", _array(checks, "  ")),
    ]
    if report.arrangement_arrays is not None:
        sections.append(("arrangement_arrays",
                         _array(list(map(quote, report.arrangement_arrays)), "  ")))
    return _object(sections, "") + "\n"


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
        weights = None
        if args.spec is not None:
            try:
                weights = [int(w) for w in args.spec.split(",")]
            except ValueError:
                raise InputError(f"could not parse the weight list {args.spec!r}")
        report = analyze(args.poly, weights, args.array)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except TheoremError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 4
    out = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(out)
    return 0 if report.all_passed() else 4


if __name__ == "__main__":
    sys.exit(main())
