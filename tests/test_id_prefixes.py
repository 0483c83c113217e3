"""Every collected test id stays distinct once cut to its first 100 characters.

A list of test ids kept in the ``tests.<module>.<Class>::<test>[<params>]``
form and cut to 100 characters (trailing spaces stripped) cannot tell
apart two ids that share that prefix, so a long test name or a long
parameter id that comes before the part that differs hides a case.  The
test functions in :data:`KNOWN_REPEATS` still have such cases: their
parameter ids come from fixtures that other tests share, so fixing them
renames the cases of those tests too.  No other test may add one.
"""

from __future__ import annotations

from collections import defaultdict

#: Characters of an id that such a list keeps.
ID_CHARS = 100

#: Test functions (node ids without parameters) whose cases may still share
#: a cut id.
KNOWN_REPEATS = frozenset({
    "tests/test_backend_parity.py::TestCrossBackendParity::"
    "test_radius_hits_identical_across_backends",
    "tests/test_backend_parity.py::TestCrossBackendParity::"
    "test_knn_neighbors_identical_across_backends",
    "tests/test_backend_parity.py::TestRecordedParity::"
    "test_execution_config_hardware_bitwise_unchanged",
    "tests/test_flat_traversal.py::TestDegenerateKNN::"
    "test_batched_knn_matches_brute_force",
    "tests/test_flat_traversal.py::TestDegenerateKNN::"
    "test_counters_independent_of_batch_split",
    "tests/test_flat_traversal.py::TestDegenerateKNN::"
    "test_each_leaf_scanned_once_per_query",
    "tests/test_scenario_parity.py::TestTier1Parity::"
    "test_bonsai_matches_baseline_results",
})


def cut_id(nodeid: str) -> str:
    """``tests/x.py::C::t[p]`` as ``tests.x.C::t[p]``, cut to ``ID_CHARS``."""
    path, _, rest = nodeid.partition("::")
    classes, _, test = rest.rpartition("::")
    dotted = path[:-len(".py")].replace("/", ".")
    if classes:
        dotted += "." + classes.replace("::", ".")
    return f"{dotted}::{test}"[:ID_CHARS].rstrip()


def test_cut_id_form():
    assert cut_id("tests/test_x.py::TestA::test_b[c-d]") == "tests.test_x.TestA::test_b[c-d]"
    assert cut_id("perfbench/tests/test_y.py::test_z") == "perfbench.tests.test_y::test_z"
    assert cut_id("tests/t.py::test_" + "x" * 120) == "tests.t::test_" + "x" * 86


def test_cut_ids_are_unique(request):
    ids_by_cut = defaultdict(list)
    for item in request.session.items:
        ids_by_cut[cut_id(item.nodeid)].append(item.nodeid)
    repeats = sorted(
        cut for cut, ids in ids_by_cut.items()
        if len(ids) > 1 and not {i.partition("[")[0] for i in ids} <= KNOWN_REPEATS)
    assert repeats == []
