"""Positive and negative fixtures for the project rules and their summaries.

DET006 (mixed RNG provenance) and DET007 (spawn order tied to dict/set
iteration) run over the per-function RNG summaries of every scanned file,
so the fixtures here exercise provenance through helper returns, not just
single-function syntax.
"""

from __future__ import annotations

import ast
import pickle
from textwrap import dedent

from repro.lint import ModuleContext, ProjectIndex, module_name_for, summarize_module

ENGINE_PATH = "src/repro/dispatch/module_under_test.py"


def rules_fired(report):
    return sorted({finding.rule for finding in report.findings})


# --------------------------------------------------------------------- #
# DET006 — RNG provenance
# --------------------------------------------------------------------- #


def test_det006_flags_zero_arg_default_rng(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np


                def sample():
                    rng = np.random.default_rng()
                    return rng.normal()
                """
            )
        },
        rules=["DET006"],
    )
    assert len(report.findings) == 1
    assert "OS-entropy" in report.findings[0].message


def test_det006_flags_generator_param_mixed_with_fresh_stream(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np


                def perturb(rng, scale):
                    extra = np.random.default_rng(123)
                    return rng.normal() * scale + extra.normal()
                """
            )
        },
        rules=["DET006"],
    )
    assert rules_fired(report) == ["DET006"]
    assert any("mixed stream provenance" in f.message for f in report.findings)


def test_det006_allows_spawned_children_and_seeded_roots(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np

                from repro.utils.rng import default_rng, spawn_rng


                def fan_out(rng, count):
                    children = spawn_rng(rng, count)
                    return [child.normal() for child in children]


                def build(seed):
                    rng = default_rng(seed)
                    return rng.normal()
                """
            )
        },
        rules=["DET006"],
    )
    assert report.findings == []


def test_det006_resolves_fresh_roots_through_helper_returns(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np


                def _mint():
                    return np.random.default_rng(7)


                def blend(rng):
                    extra = _mint()
                    return rng.normal() + extra.normal()
                """
            )
        },
        rules=["DET006"],
    )
    assert rules_fired(report) == ["DET006"]
    assert any("mixed stream provenance" in f.message for f in report.findings)


HELPER_PATH = "src/repro/dispatch/helpers_under_test.py"


def test_cross_module_calls_resolve_through_from_imports(lint_tree):
    report = lint_tree(
        {
            HELPER_PATH: dedent(
                """
                import numpy as np


                def mint():
                    return np.random.default_rng(7)
                """
            ),
            ENGINE_PATH: dedent(
                """
                from repro.dispatch.helpers_under_test import mint


                def blend(rng):
                    extra = mint()
                    return rng.normal() + extra.normal()
                """
            ),
        },
        rules=["DET006"],
    )
    assert rules_fired(report) == ["DET006"]
    assert {f.path for f in report.findings} == {ENGINE_PATH}
    assert any("mixed stream provenance" in f.message for f in report.findings)


def test_det006_quiet_when_imported_helper_returns_the_callers_stream(lint_tree):
    report = lint_tree(
        {
            HELPER_PATH: dedent(
                """
                from repro.utils.rng import spawn_rng


                def child(rng):
                    return spawn_rng(rng, 1)[0]
                """
            ),
            ENGINE_PATH: dedent(
                """
                from repro.dispatch.helpers_under_test import child


                def blend(rng):
                    extra = child(rng)
                    return rng.normal() + extra.normal()
                """
            ),
        },
        rules=["DET006"],
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# DET007 — spawn order vs dict/set iteration
# --------------------------------------------------------------------- #


def test_det007_flags_spawning_inside_set_iteration(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                from repro.utils.rng import spawn_rng


                def assign(rng, regions):
                    streams = {}
                    for region in set(regions):
                        streams[region] = spawn_rng(rng, 1)
                    return streams
                """
            )
        },
        rules=["DET007"],
    )
    assert len(report.findings) == 1
    assert "dict/set iteration" in report.findings[0].message


def test_det007_flags_drawing_from_spawned_stream_in_dict_iteration(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                from repro.utils.rng import spawn_rng


                def jitter(rng, offsets):
                    child = spawn_rng(rng, 1)[0]
                    out = {}
                    for name in offsets.keys():
                        out[name] = child.normal()
                    return out
                """
            )
        },
        rules=["DET007"],
    )
    assert len(report.findings) == 1


def test_det007_quiet_for_ordered_iteration(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                from repro.utils.rng import spawn_rng


                def assign(rng, regions):
                    streams = {}
                    for region in sorted(set(regions)):
                        streams[region] = spawn_rng(rng, 1)
                    return streams
                """
            )
        },
        rules=["DET007"],
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# Plumbing shared with the per-module rules
# --------------------------------------------------------------------- #


def test_project_findings_are_suppressible(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                import numpy as np


                def sample():
                    # repro-lint: disable=DET006 -- fixture: an entropy root on purpose
                    rng = np.random.default_rng()
                    return rng.normal()
                """
            )
        },
        rules=["DET006"],
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "DET006"


def test_unused_suppression_of_project_rule_is_flagged(lint_tree):
    report = lint_tree(
        {
            ENGINE_PATH: dedent(
                """
                from repro.utils.rng import spawn_rng


                def assign(rng, regions):
                    streams = {}
                    for region in sorted(set(regions)):
                        # repro-lint: disable=DET007 -- stale justification
                        streams[region] = spawn_rng(rng, 1)
                    return streams
                """
            )
        },
        rules=["DET007", "API001"],
    )
    assert rules_fired(report) == ["API001"]
    assert "unused suppression" in report.findings[0].message


# --------------------------------------------------------------------- #
# Module summaries
# --------------------------------------------------------------------- #


def test_module_name_for_strips_src_and_init():
    assert module_name_for("src/repro/service/server.py") == "repro.service.server"
    assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name_for("benchmarks/bench_clock.py") == "benchmarks.bench_clock"


def test_module_summary_round_trips_through_pickle():
    # ``--jobs N`` builds summaries in worker processes.
    source = dedent(
        """
        import numpy as np


        class Sampler:
            def draw(self, rng):
                return np.random.default_rng(3).normal() + rng.normal()
        """
    )
    context = ModuleContext(
        path=ENGINE_PATH, source=source, lines=tuple(source.splitlines())
    )
    summary = summarize_module(ast.parse(source), context)
    (fn,) = summary.functions
    assert fn.qualname == "repro.dispatch.module_under_test.Sampler.draw"
    assert fn.rng_params == ("rng",)
    assert [event.kind for event in fn.rng_events] == ["create-fresh", "draw"]
    assert pickle.loads(pickle.dumps(summary)) == summary


def test_project_index_is_independent_of_summary_order():
    def summary(path, source):
        source = dedent(source)
        context = ModuleContext(path=path, source=source, lines=tuple(source.splitlines()))
        return summarize_module(ast.parse(source), context)

    alpha = summary(
        "src/repro/alpha.py",
        """
        import numpy as np


        def helper(seed):
            return np.random.default_rng(seed)
        """,
    )
    beta = summary(
        "src/repro/beta.py",
        """
        from repro.alpha import helper


        def run(rng):
            extra = helper(2)
            return rng.normal() + extra.normal()
        """,
    )
    forward = ProjectIndex([alpha, beta]).functions
    backward = ProjectIndex([beta, alpha]).functions
    assert list(forward.items()) == list(backward.items())
    assert list(forward) == ["repro.alpha.helper", "repro.beta.run"]
    assert forward["repro.beta.run"].rng_events[-1].root == "ret:repro.alpha.helper"
