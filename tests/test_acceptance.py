"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or use
the `galcert selftest` CLI subcommand, which drives the same functions.
"""

import pytest

from galcert import selftest
from galcert.correspondence import Subfield
from galcert.groups import all_subgroups
from galcert.selftest import CRITERIA, corpus_pipeline


@pytest.mark.parametrize(
    "index,name,check",
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA, start=1)],
    ids=[f"criterion_{i}_{name.replace(' ', '_')}" for i, (name, _) in enumerate(CRITERIA, start=1)],
)
def test_acceptance_criterion(index, name, check):
    ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'}  criterion {index}: {name} ({detail})")
    assert ok, f"criterion {index} ({name}): {detail}"


def test_criterion_2_fails_on_a_wrong_fixed_field(monkeypatch):
    # the criterion compares an independently solved fixed field with
    # the symmetric-value field, so a wrong one is named, with its
    # polynomial and subgroup
    def whole_field(h, sf):
        d = sf.field.degree
        return Subfield(sf.field, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))

    monkeypatch.setattr(selftest, "fixed_field", whole_field)
    ok, detail = selftest.criterion_2_fields_coincide()
    group = [h for h in all_subgroups(corpus_pipeline("x^2 - 2").gd.group) if h.order == 2]
    assert not ok
    assert detail == f"x^2 - 2: mismatch at subgroup {group[0]!r}"
