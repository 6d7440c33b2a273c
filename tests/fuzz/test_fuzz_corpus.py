"""Replay the graduated corpus: every committed repro must hold its verdict.

``tests/corpus/`` holds shrunk fuzz survivors and hand-pinned degenerate
worlds.  Each file declares what its replay must produce:

* ``"expect": "identical"`` — every engine mode matches the scalar oracle
  bit-exactly (verdict ``"ok"``);
* ``"expect": "benign-tie"`` — the world documents an equal-objective
  Hungarian tie between the dense and sparse pipelines; its replay must never
  be a *real* divergence (a future solver may legitimately resolve the tie
  identically, so ``"ok"`` is also acceptable).

A new corpus entry is added by shrinking a fuzz failure (``repro fuzz``
writes repro files in exactly this format) and committing the file here.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.fuzz.generator import WORLD_SCHEMA, FuzzWorld
from repro.fuzz.runner import run_differential

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

EXPECTED_VERDICTS = {
    "identical": ("ok",),
    "benign-tie": ("benign-tie", "ok"),
}


def test_corpus_is_not_empty():
    assert len(CORPUS_FILES) >= 5


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_entry_replays_to_its_expected_verdict(path):
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["expect"] in EXPECTED_VERDICTS
    assert payload["note"], "corpus entries must say why they are pinned"
    world = FuzzWorld.from_payload(payload["world"])
    assert payload["world"]["schema"] == WORLD_SCHEMA
    result = run_differential(world)
    assert result.verdict in EXPECTED_VERDICTS[payload["expect"]], (
        path.name,
        result.verdict,
        [d.to_payload() for d in result.divergences],
    )


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_entry_round_trips_through_the_payload(path):
    payload = json.loads(path.read_text())
    world = FuzzWorld.from_payload(payload["world"])
    assert FuzzWorld.from_payload(world.to_payload()) == world


def test_greedy_matching_is_exact_on_the_hungarian_tie_world():
    """The greedy scan decomposes exactly, so it needs no tie grace.

    The world that splits the Hungarian solvers' dense and sparse pipelines
    is replayed under POLAR's greedy matcher: the dense, sparse and mixed
    vector runs must agree bit for bit — metrics, fleet state and RNG
    position — with each other and with the scalar oracle.
    """
    payload = json.loads((CORPUS_DIR / "hungarian_tie.json").read_text())
    world = dataclasses.replace(FuzzWorld.from_payload(payload["world"]), policy="polar_greedy")
    result = run_differential(world)
    assert result.verdict == "ok", [d.to_payload() for d in result.divergences]
    dense = result.outcomes["vector-dense"]
    for mode in ("vector-sparse", "vector-mixed"):
        assert result.outcomes[mode].diff_against(dense) == [], mode
