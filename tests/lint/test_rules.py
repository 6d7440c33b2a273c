"""Positive and negative fixtures for every invariant-lint rule.

Each rule gets at least one source snippet that must fire and one that must
stay silent, laid out under scope-matching paths in a tmp tree (see
``conftest.lint_tree``).
"""

from __future__ import annotations

from textwrap import dedent

import pytest

#: Path inside the dispatch scope, so every scoped rule sees the fixtures.
ENGINE_PATH = "src/repro/dispatch/module_under_test.py"


def rules_fired(report):
    return sorted({finding.rule for finding in report.findings})


# --------------------------------------------------------------------- #
# DET001 — wall-clock reads
# --------------------------------------------------------------------- #


def test_det001_flags_wall_clock_reads(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import time
                from time import perf_counter
                import datetime

                def run():
                    a = time.time()
                    b = perf_counter()
                    c = datetime.datetime.now()
                    return a, b, c
                """
            )
        },
        rules=["DET001"],
    )
    assert len(report.findings) == 3
    assert rules_fired(report) == ["DET001"]
    assert all("wall-clock read" in f.message for f in report.findings)


def test_identical_violating_lines_give_one_finding_each(lint_tree):
    source = "import time\n\ndef run():\n    a = time.time()\n    a = time.time()\n    return a\n"
    report = lint_tree({ENGINE_PATH: source}, rules=["DET001"])
    assert [(f.line, f.rule) for f in report.findings] == [(4, "DET001"), (5, "DET001")]


def test_det001_allows_sanctioned_seams_and_out_of_scope_code(lint_tree):
    clocky = "import time\n\ndef now():\n    return time.time()\n"
    report = lint_tree(
        {
            # The timing seam itself is allowlisted...
            "src/repro/utils/timer.py": clocky,
            # ...the service front end's metrics layer is allowlisted...
            "src/repro/service/server.py": clocky,
            # ...and benchmarks are outside the src/repro/ scope entirely.
            "benchmarks/bench_clock.py": clocky,
            # wall_clock() itself is an ordinary call, not a time.* read.
            ENGINE_PATH: (
                "from repro.utils.timer import wall_clock\n"
                "def run():\n    return wall_clock()\n"
            ),
        },
        rules=["DET001"],
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# DET002 — global RNG streams
# --------------------------------------------------------------------- #


def test_det002_flags_global_stream_draws(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import random
                import numpy as np

                def run(values):
                    np.random.shuffle(values)
                    np.random.seed(0)
                    return random.randint(0, 10)
                """
            )
        },
        rules=["DET002"],
    )
    assert len(report.findings) == 3
    assert rules_fired(report) == ["DET002"]


def test_det002_allows_seeded_generators_and_instances(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import random
                import numpy as np

                def run(values):
                    rng = np.random.default_rng(7)
                    rng.shuffle(values)
                    local = random.Random(7)
                    return local.randint(0, 10)
                """
            )
        },
        rules=["DET002"],
    )
    assert report.findings == []


def test_det002_resolves_import_aliases(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: (
                "import numpy.random as npr\n"
                "def run(values):\n    npr.shuffle(values)\n"
            )
        },
        rules=["DET002"],
    )
    assert len(report.findings) == 1


# --------------------------------------------------------------------- #
# DET003 — unstable sorts
# --------------------------------------------------------------------- #


def test_det003_flags_unstable_sorts(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np

                def run(values, keys):
                    order = np.argsort(keys)
                    other = values.argsort()
                    flat = np.sort(values)
                    tied = sorted({1, 2, 3}, key=abs)
                    return order, other, flat, tied
                """
            )
        },
        rules=["DET003"],
    )
    assert len(report.findings) == 4
    assert rules_fired(report) == ["DET003"]


def test_det003_allows_stable_kind_and_ordered_inputs(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np

                def run(values, keys, rows):
                    order = np.argsort(keys, kind="stable")
                    other = values.argsort(kind="stable")
                    flat = np.sort(values, kind="stable")
                    listy = sorted(rows, key=abs)      # builtin sorted is stable
                    total = sorted({1, 2, 3})          # no key: total order
                    return order, other, flat, listy, total
                """
            ),
            # Outside the dispatch/service/sweep/fuzz scope the rule is off.
            "src/repro/core/math_helpers.py": (
                "import numpy as np\n\ndef run(v):\n    return np.sort(v)\n"
            ),
        },
        rules=["DET003"],
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# DET004 — canonical JSON
# --------------------------------------------------------------------- #


def test_det004_flags_non_canonical_dumps(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import json

                def run(payload, handle):
                    a = json.dumps(payload)
                    json.dump(payload, handle, sort_keys=True)  # no layout
                    b = json.dumps(payload, separators=(",", ":"))  # no sort
                    return a, b
                """
            )
        },
        rules=["DET004"],
    )
    assert len(report.findings) == 3
    assert rules_fired(report) == ["DET004"]


def test_det004_allows_canonical_forms_and_the_encoder_module(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import json

                def run(payload, handle):
                    a = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                    json.dump(payload, handle, indent=2, sort_keys=True)
                    return a
                """
            ),
            # The blessed encoder is the one place allowed to spell it raw.
            "src/repro/utils/cache.py": (
                "import json\n\ndef canonical_json(v):\n    return json.dumps(v)\n"
            ),
        },
        rules=["DET004"],
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# DET005 — set-order iteration
# --------------------------------------------------------------------- #


def test_det005_flags_set_iteration(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                def run(values):
                    out = []
                    for item in {1, 2, 3}:
                        out.append(item)
                    comp = [item for item in set(values)]
                    listed = list({v for v in values})
                    return out, comp, listed
                """
            )
        },
        rules=["DET005"],
    )
    assert len(report.findings) == 3
    assert rules_fired(report) == ["DET005"]


def test_det005_allows_sorted_sets_membership_and_out_of_scope(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                def run(values, probe):
                    total = sorted(set(values))
                    hit = probe in {1, 2, 3}
                    return total, hit
                """
            ),
            # The rule audits engine/metrics paths only.
            "src/repro/core/helpers.py": (
                "def run(values):\n    return [v for v in set(values)]\n"
            ),
        },
        rules=["DET005"],
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# CONC001 — unlocked writes and reads of lock-guarded state
# --------------------------------------------------------------------- #

_SCHEDULER_TEMPLATE = """
import threading


class AdmissionScheduler:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._orders = []

    def admit(self, order):
        with self._lock:
            self._count += 1
            self._orders.append(order)

    def reset(self):
{reset_body}
"""


def test_conc001_flags_unlocked_write_to_guarded_attr(lint_tree):
    source = _SCHEDULER_TEMPLATE.format(reset_body="        self._count = 0\n")
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert len(report.findings) == 1
    (finding,) = report.findings
    assert finding.rule == "CONC001"
    assert "_count" in finding.message


def test_conc001_allows_locked_writes_and_init(lint_tree):
    source = _SCHEDULER_TEMPLATE.format(
        reset_body="        with self._lock:\n            self._count = 0\n"
    )
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert report.findings == []


def test_conc001_audits_every_class_that_creates_a_lock(lint_tree):
    source = _SCHEDULER_TEMPLATE.format(reset_body="        self._count = 0\n").replace(
        "AdmissionScheduler", "ScratchBuffer"
    )
    report = lint_tree({"src/repro/sweep/buffer.py": source}, rules=["CONC001"])
    assert len(report.findings) == 1
    assert "ScratchBuffer._count" in report.findings[0].message


def test_conc001_ignores_classes_that_create_no_lock(lint_tree):
    # The lock is handed in, not created: the class owns no lock to audit.
    source = _SCHEDULER_TEMPLATE.format(reset_body="        self._count = 0\n").replace(
        "def __init__(self):\n        self._lock = threading.Lock()",
        "def __init__(self, lock):\n        self._lock = lock",
    )
    assert "threading.Lock()" not in source
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert report.findings == []


def test_conc001_flags_subscript_mutation_outside_lock(lint_tree):
    source = _SCHEDULER_TEMPLATE.format(reset_body="        self._orders[0] = None\n")
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert len(report.findings) == 1
    assert "_orders" in report.findings[0].message


@pytest.mark.parametrize(
    "mutation",
    [
        "        del self._orders[0]\n",
        "        del self._count\n",
        "        self._orders[0] += 1\n",
        "        self._orders[0][1] = None\n",
        "        self._orders.append(None)\n",
    ],
)
def test_conc001_flags_deletion_and_nested_subscript_stores(lint_tree, mutation):
    source = _SCHEDULER_TEMPLATE.format(reset_body=mutation)
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert len(report.findings) == 1
    assert report.findings[0].rule == "CONC001"


def test_conc001_allows_deletion_under_the_lock(lint_tree):
    source = _SCHEDULER_TEMPLATE.format(
        reset_body="        with self._lock:\n            del self._orders[0]\n"
    )
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert report.findings == []


_READER_TEMPLATE = """
import threading


class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def snapshot(self):
{snapshot_body}
"""


def test_conc001_flags_unlocked_read_of_guarded_attr(lint_tree):
    source = _READER_TEMPLATE.format(snapshot_body="        return self._count\n")
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.rule == "CONC001"
    assert "Service._count" in finding.message
    assert "read here without the lock" in finding.message


def test_conc001_allows_reads_under_the_lock_and_in_init(lint_tree):
    source = _READER_TEMPLATE.format(
        snapshot_body="        with self._lock:\n            return self._count\n"
    ).replace("self._count = 0", "self._count = 0\n        self._seen = self._count")
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert report.findings == []


def test_conc001_ignores_reads_of_attrs_never_written_under_a_lock(lint_tree):
    # _label is only ever written in __init__ — it is not part of the
    # lock-guarded state, so bare reads of it are fine.
    source = _READER_TEMPLATE.format(snapshot_body="        return self._label\n").replace(
        "self._count = 0", 'self._count = 0\n        self._label = "svc"'
    )
    report = lint_tree({"src/repro/service/sched.py": source}, rules=["CONC001"])
    assert report.findings == []


# --------------------------------------------------------------------- #
# CONC002 — swallowed exceptions
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "handler",
    [
        "except Exception:\n        pass",
        "except BaseException:\n        failures += 1",
        "except (ValueError, Exception):\n        pass",
        "except:\n        pass",
    ],
)
def test_conc002_flags_swallowing_handlers(lint_tree, handler):
    source = f"def run(failures):\n    try:\n        work()\n    {handler}\n"
    report = lint_tree({"src/repro/service/loop.py": source}, rules=["CONC002"])
    assert len(report.findings) == 1
    assert report.findings[0].rule == "CONC002"


@pytest.mark.parametrize(
    "handler",
    [
        # Narrow handlers are a deliberate decision the rule trusts.
        "except ValueError:\n        pass",
        # Re-raising (even translated) is not swallowing.
        "except Exception as exc:\n        raise RuntimeError('ctx') from exc",
        # Supervisor capture: the traceback reaches the failure record.
        "except BaseException:\n        tb = traceback.format_exc()",
    ],
)
def test_conc002_allows_handled_exceptions(lint_tree, handler):
    source = (
        "import traceback\n\n"
        f"def run():\n    try:\n        work()\n    {handler}\n"
    )
    report = lint_tree({"src/repro/service/loop.py": source}, rules=["CONC002"])
    assert report.findings == []


def test_conc002_scoped_to_the_service_layer(lint_tree):
    source = "def run():\n    try:\n        work()\n    except Exception:\n        pass\n"
    report = lint_tree({ENGINE_PATH: source}, rules=["CONC002"])
    assert report.findings == []


# --------------------------------------------------------------------- #
# PARSE001 and rule selection plumbing
# --------------------------------------------------------------------- #


def test_syntax_error_becomes_a_finding(lint_tree):
    report = lint_tree({ENGINE_PATH: "def broken(:\n"})
    assert len(report.findings) == 1
    assert report.findings[0].rule == "PARSE001"


def test_rule_selection_runs_only_requested_rules(lint_tree):
    source = (
        "import time\nimport numpy as np\n\n"
        "def run(v):\n    t = time.time()\n    return np.sort(v), t\n"
    )
    report = lint_tree({ENGINE_PATH: source}, rules=["DET003"])
    assert rules_fired(report) == ["DET003"]
