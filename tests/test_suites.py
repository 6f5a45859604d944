"""The self-check suites behind the verify command."""

import pytest

from fermiqec.suites import SUITES, run_suites

#: Every check ``verify`` reports, in the order it reports them, so that no
#: claim can drop out of the battery unnoticed.
CHECK_NAMES = [
    "codes: stabilizers fix codewords",
    "codes: codewords at half filling",
    "codes: lowering kills logical vacuum",
    "codes: logical ladder anticommutator",
    "codes: syndrome table",
    "codes: dephasing correctability",
    "dual: dual-representation run",
    "gadgets: phase gadget",
    "gadgets: density gadget",
    "gadgets: hardware tunneling",
    "gadgets: fswap conjugation",
    "gadgets: stabilizer readout",
    "recovery: single-flip correction",
    "recovery: bank dephasing recovery",
    "reference: dressed anticommutators",
    "reference: edge operator commutator",
    "reference: edge/site anticommutation",
    "reference: dressed bilinears",
    "rotations: decomposed Majorana rotation",
    "steane: loss ladder weights",
    "steane: loss cross terms",
]


@pytest.mark.parametrize("seed", [0, 13])
def test_every_suite_passes_and_reports_distinct_checks(seed):
    checks = run_suites(sorted(SUITES), seed=seed)
    assert [c.name for c in checks] == CHECK_NAMES
    failures = [c.name for c in checks if not c.passed]
    assert failures == []


def test_suite_registry_is_stable():
    assert sorted(SUITES) == [
        "codes",
        "dual",
        "gadgets",
        "recovery",
        "reference",
        "rotations",
        "steane",
    ]
