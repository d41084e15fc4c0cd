"""Mutation gate: a fault planted in a frame's tables fails some row of
the verification matrix, or is one of the pinned survivors.

Hand-text mutants drop, negate or double one top-level term of one text
of frames._HAND_TEXT; their forms are rebuilt with the uncached
_hand_forms.  Lame mutants build a frame of a known name from a wrong
Lame table, so its first-order forms are wrong and its hand forms are
not.  A mutant survives when every row that VERIFICATION_MATRIX lists
for its frame has zero residuals.  The survivors are pinned as one set:
the test fails when a mutant outside the set survives, and also when one
inside it is killed, so the set can only shrink, and visibly.  A second
layer judges every mutant with test_operator_oracle's check, which does
not rest on frames.py's text, and pins the mutants it misses the same
way.  Run with -s to print the counts.
"""

import re

import pytest

from fracquat import quatops
from fracquat.frames import FRAMES, _HAND_TEXT, Frame, _hand_forms, apply_table
from fracquat.parser import parse

from test_operator_oracle import CASES, field, load_bench, mismatches, operator_reference

HAND_FORMS = ("delta0", "laplacian", "bitsadze")


def split_terms(text):
    """(sign, body) for each top-level term: the texts write every binary
    + and - with spaces around it, and no parenthesis holds a spaced sign."""
    parts = re.split(r" ([+-]) ", text)
    first = parts[0]
    terms = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    terms += zip(parts[1::2], parts[2::2])
    return terms


def join_terms(terms):
    if not terms:
        return "0"
    (sign, body), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def term_mutants(text):
    """(label, mutated text) for each top-level term: dropped, negated and
    doubled.  A text that is "0" has no term to mutate."""
    if text == "0":
        return
    terms = split_terms(text)
    for i, (sign, body) in enumerate(terms):
        flipped = "-" if sign == "+" else "+"
        yield f"{i}:drop", join_terms(terms[:i] + terms[i + 1:])
        yield f"{i}:negate", join_terms(terms[:i] + [(flipped, body)] + terms[i + 1:])
        yield f"{i}:double", join_terms(terms[:i] + [(sign, f"2*{body}")] + terms[i + 1:])


def hand_text_mutants():
    """(frame, operator, component, label, the frame's mutated text map);
    component is None for delta0, whose text is one string."""
    for name, texts in _HAND_TEXT.items():
        for op in HAND_FORMS:
            if op == "delta0":
                for label, mutated in term_mutants(texts[op]):
                    yield name, op, None, label, {**texts, op: mutated}
                continue
            for k, text in enumerate(texts[op]):
                for label, mutated in term_mutants(text):
                    yield name, op, k, label, {**texts, op: texts[op][:k] + (mutated,) + texts[op][k + 1:]}


def failed_rows(frame_name, forms):
    """The rows of the frame's matrix entries with a nonzero residual."""
    return {
        name
        for name, frame_names in quatops.VERIFICATION_MATRIX.items()
        if frame_name in frame_names
        and not all(r.is_zero() for r in quatops._residuals(name, forms))
    }


# the mutants that pass every row: each of the five terms of the three
# Cartesian Bitsadze texts, dropped, negated and doubled, since the
# bitsadze_factorization row lists the curved frames only
SURVIVORS = {
    ("cartesian", "bitsadze", k, f"{i}:{how}")
    for k in range(3)
    for i in range(5)
    for how in ("drop", "negate", "double")
}


def test_hand_text_mutants_fail_a_row_or_are_pinned_survivors(monkeypatch):
    survivors, count = set(), 0
    for name, op, k, label, texts in hand_text_mutants():
        frame = FRAMES[name]
        monkeypatch.setitem(_HAND_TEXT, name, texts)
        forms = {**frame.forms, **dict(zip(HAND_FORMS, _hand_forms.__wrapped__(name, frame.variables)))}
        assert forms[op] != frame.forms[op], (name, op, k, label)  # a survivor is a real fault
        count += 1
        if not failed_rows(name, forms):
            survivors.add((name, op, k, label))
    print(f"\nhand-text mutants: {count}, surviving every verify row: {len(survivors)}")
    assert count == 267
    assert survivors == SURVIVORS


# a wrong Lame table: (frame, its Lame texts)
LAME_MUTANTS = (
    ("cylindrical", ("1", "1", "1")),
    ("cylindrical", ("1", "P(r,2)", "1")),
    ("cylindrical", ("1", "2*P(r,1)", "1")),
    ("spherical", ("1", "1", "P(r,1)*sina(theta)")),
    ("spherical", ("1", "P(r,1)", "P(r,1)")),
    ("spherical", ("1", "P(r,1)", "sina(theta)")),
)


def lame_frame(name, lame):
    variables = FRAMES[name].variables
    return Frame(name, variables, tuple(parse(text, variables) for text in lame))


@pytest.mark.parametrize("name, lame", LAME_MUTANTS)
def test_lame_mutants_fail_a_row(name, lame):
    rows = failed_rows(name, lame_frame(name, lame).forms)
    print(f"\nLame mutant {name} {lame}: fails {sorted(rows)}")
    assert rows


# The oracle layer: a hand-text mutant is applied through the operator
# its form feeds (delta0 is the Laplacian's scalar part and sits in each
# of its vector components), a Lame mutant through mt and mt-right, on
# the frame's seeded fields; it is killed when some output component is
# off the bench oracle's value.  The set it misses is empty.
ORACLE_OPERATOR = {"delta0": "laplacian", "laplacian": "laplacian", "bitsadze": "bitsadze"}
ORACLE_SURVIVORS = set()


def test_mutants_fail_the_oracle_or_are_pinned_oracle_survivors(monkeypatch):
    bench, references = load_bench(), {}
    fields = [(name, field(name, texts).components, texts, context)
              for name, texts, context in CASES]

    def killed(name, operator, form):
        for n, (case_name, comps, texts, context) in enumerate(fields):
            if case_name != name:
                continue
            if (n, operator) not in references:
                references[n, operator] = operator_reference(bench, operator, name, texts, context)
            if mismatches(bench, apply_table(form, comps), references[n, operator], name, context):
                return True
        return False

    own = {"mt": "left", "mt-right": "right", "laplacian": "laplacian", "bitsadze": "bitsadze"}
    for name, frame in FRAMES.items():  # the check passes the frames' own forms
        for operator, op in own.items():
            assert not killed(name, operator, frame.forms[op]), (name, operator)
    survivors, count = set(), 0
    for name, op, k, label, texts in hand_text_mutants():
        monkeypatch.setitem(_HAND_TEXT, name, texts)
        forms = dict(zip(HAND_FORMS, _hand_forms.__wrapped__(name, FRAMES[name].variables)))
        count += 1
        if not killed(name, ORACLE_OPERATOR[op], forms[ORACLE_OPERATOR[op]]):
            survivors.add((name, op, k, label))
    for name, lame in LAME_MUTANTS:
        forms = lame_frame(name, lame).forms
        for side, operator in (("left", "mt"), ("right", "mt-right")):
            count += 1
            if not killed(name, operator, forms[side]):
                survivors.add((name, lame, operator))
    print(f"\nmutants judged by the oracle: {count}, missed: {len(survivors)}")
    assert count == 267 + 2 * len(LAME_MUTANTS)
    assert survivors == ORACLE_SURVIVORS
