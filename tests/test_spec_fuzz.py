"""Arbitrary text fed to the two spec grammars fails precisely or not at all.

``FaultPlan.parse`` (the ``--fault-plan`` / ``$REPRO_FAULT_PLAN`` grammar)
may raise only ``DistribError``, and every plan it accepts must be safe to
fire: finite, non-negative args.  ``apply_mutation_spec`` (the
``resurvey --mutate`` grammar) may raise only a ``ValueError`` that names
the spec.  Text comes both raw and shaped like the grammars, so the
fuzzing reaches past the first split.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.distrib import DistribError, FaultPlan
from repro.distrib.faults import VALID_FAULTS
from repro.topology.changes import ChangeJournal, apply_mutation_spec
from repro.topology.generator import GeneratorConfig, InternetGenerator

TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)

#: Numbers as text, the awkward ones included.
NUMBERS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "-0", "0",
                     "0.5", "1", "2", "-1", "", " ", "x", "0x10", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str))

#: Mostly (op, point) pairs the plan grammar accepts, some it does not.
FAULT_SLOTS = st.one_of(
    st.sampled_from(sorted(VALID_FAULTS)),
    st.tuples(st.sampled_from(["kill", "explode", ""]),
              st.sampled_from(["send", "nowhere", ""])))

#: An arg is read as a float: non-finite and negative ones are bad.
FAULT_ARGS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "1e309", "-inf", "-1", "0",
                     "0.5", "x", ""]),
    NUMBERS)

FAULT_PARTS = st.one_of(
    st.builds(lambda slot, nth: f"{slot[0]}:{slot[1]}:{nth}",
              FAULT_SLOTS, NUMBERS),
    st.builds(lambda slot, nth, arg: f"{slot[0]}:{slot[1]}:{nth}:{arg}",
              FAULT_SLOTS, st.integers(-1, 4).map(str), FAULT_ARGS),
    NUMBERS.map(lambda seed: f"seed={seed}"),
    st.text(max_size=12))

FAULT_PLANS = st.one_of(
    st.text(),
    st.lists(FAULT_PARTS, max_size=3).map(",".join))


@settings(max_examples=400, deadline=None)
@given(text=FAULT_PLANS)
def test_fault_plan_parse_raises_only_distrib_error(text):
    try:
        plan = FaultPlan.parse(text)
    except DistribError:
        return
    for action in plan.actions:
        assert math.isfinite(action.arg) and action.arg >= 0
        assert action.nth >= 1


MUTATION_KINDS = st.sampled_from(["set-ns", "add-ns", "drop-ns",
                                  "add-server", "remove-server",
                                  "set-software", "move-region", "dnssec",
                                  "frob", ""])
MUTATION_KEYS = st.sampled_from(["zone", "ns", "host", "software", "region",
                                 "org", "fraction", "sign_tlds", "seed", "x"])
#: Names that exist in the TINY world, names that do not, and broken ones.
MUTATION_NAMES = st.sampled_from([
    "com", "net", "", ".", "..", "a..b", "-", "site1.com",
    "a.gtld-servers.net", "a.root-servers.net", "a2.nstld.com",
    "aeronic.net", "agency3.gov", "ns1.aeronic.net", "ns.nowhere.zz",
    "ns1.example.com+ns2.example.com", "+", "a" * 70 + ".com"])
MUTATION_VALUES = st.one_of(MUTATION_NAMES, NUMBERS, st.text(max_size=10))

MUTATION_SPECS = st.one_of(
    st.text(),
    st.builds(lambda kind, options: kind + ":" + ";".join(
        f"{key}={value}" for key, value in options),
        MUTATION_KINDS,
        st.lists(st.tuples(MUTATION_KEYS, MUTATION_VALUES), max_size=4)))


@settings(max_examples=150, deadline=None)
@given(spec=MUTATION_SPECS)
def test_mutation_spec_raises_only_a_named_value_error(spec):
    journal = ChangeJournal(InternetGenerator(TINY).generate())
    try:
        apply_mutation_spec(journal, spec)
    except ValueError as error:
        assert repr(spec.strip()) in str(error)
