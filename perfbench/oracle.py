"""Independent expected outcomes, from sympy rather than from galcert.

For a polynomial of degree at most 4 the Galois group of the splitting
field is read off its irreducible factors: at most one factor of degree 3
or 4 can occur, and two quadratic factors give the Klein four-group unless
the product of their discriminants is a square (then the group has order
2).  The subgroup count comes from a hand-written table of the groups that
can arise.
"""

from __future__ import annotations

from fractions import Fraction

# subgroups of every group a polynomial of degree <= 4 can have
SUBGROUP_COUNT = {"C1": 1, "C2": 2, "C3": 2, "S3": 6, "C4": 3, "V4": 5,
                  "D4": 10, "A4": 10, "S4": 30}
_ORDER = {"C1": 1, "C2": 2, "C3": 3, "S3": 6, "C4": 4, "V4": 4, "D4": 8,
          "A4": 12, "S4": 24}
_BY_ORDER = {1: "C1", 2: "C2", 3: "C3", 6: "S3", 8: "D4", 12: "A4", 24: "S4"}


def expected(poly_text: str):
    """(outcome, group name, order, subgroup count); outcome is "ok" or
    "InputError" for a polynomial with a repeated root."""
    import sympy
    from sympy.polys.numberfields.galoisgroups import galois_group

    x = sympy.Symbol("x")
    p = sympy.Poly(sympy.sympify(_sympy_syntax(poly_text)), x, domain=sympy.QQ)
    if sympy.degree(sympy.gcd(p, p.diff(x)), x) > 0:
        return ("InputError", None, None, None)
    _, factors = p.factor_list()
    nonlinear = [f for f, _ in factors if f.degree() >= 2]
    if not nonlinear:
        name = "C1"
    elif len(nonlinear) == 1:
        group, _ = galois_group(nonlinear[0], by_name=False)
        name = _BY_ORDER.get(group.order()) or ("C4" if group.is_cyclic else "V4")
    else:
        d1, d2 = (f.discriminant() for f in nonlinear)
        name = "C2" if _is_rational_square(Fraction(str(d1 * d2))) else "V4"
    return ("ok", name, _ORDER[name], SUBGROUP_COUNT[name])


def _sympy_syntax(text: str) -> str:
    """'5/7x^2 - 3x + 1' -> '(5/7)*x**2 - 3*x + 1' (the benchmark's own
    rendering: numbers, one variable x, + and -)."""
    out = []
    for term in text.replace("- ", "+ -").split("+ "):
        term = term.strip()
        if not term:
            continue
        coeff, _, power = term.partition("x")
        if "x" not in term:
            out.append(f"({coeff})")
            continue
        coeff = {"": "1", "-": "-1"}.get(coeff, coeff)
        exp = power[1:] if power.startswith("^") else "1"
        out.append(f"({coeff})*x**{exp}")
    return " + ".join(out)


def _is_rational_square(q: Fraction) -> bool:
    from math import isqrt

    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d
