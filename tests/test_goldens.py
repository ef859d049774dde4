"""The golden-corpus regression gate and the registry determinism sweep.

Two properties over *every* registered scenario and study, trimmed by
:mod:`repro.scenarios.goldens`:

* **Golden match** — a fresh run diffs clean (zero tolerance, via
  :mod:`repro.analysis.diff`) against the committed JSON under
  ``tests/goldens/`` and is byte-identical to it.  The goldens were
  produced by a *different process* (``make goldens``), so this also
  proves cross-process determinism — the class of regression where seed
  derivation leaks through ``PYTHONHASHSEED`` (the historic
  ``SeededRNG.fork``/``hash()`` bug) fails here for the whole registry,
  not just PoW.
* **Determinism** — running the same trimmed configuration twice in one
  process yields byte-identical ``to_json()`` output.
* **Read-only specs** — every run leaves the canonical JSON of each slot
  and unit-job spec of its plan unchanged.

The first run of each configuration is shared between the two tests, so
the whole gate costs roughly two trimmed passes over the registry.
"""

import pytest

from repro.analysis.diff import diff_resultsets
from repro.analysis.resultset import ResultSet
from repro.scenarios import goldens
from repro.scenarios.execution import execute_plan
from repro.scenarios.registry import scenario_names
from repro.scenarios.study import study_names

ENTRIES = goldens.golden_entries()
IDS = [name for _, name in ENTRIES]

#: First-run JSON per (kind, name), shared by the golden and determinism
#: tests so the registry is executed twice, not three times.
_FIRST_RUN: dict = {}


def _spec_snapshot(plan) -> list:
    return ([slot.spec.canonical_json() for slot in plan.slots]
            + [job.spec.canonical_json() for job in plan.jobs])


def _run(kind: str, name: str) -> str:
    """The golden's serial run; asserts that running it wrote into no spec.

    Job specs share their nested sections (``architecture``, ``workload``,
    ``topology``, ``churn``) with their point and each other, so an
    experiment that writes into one would leak into every other job.
    """
    plan = goldens.golden_plan(kind, name)
    before = _spec_snapshot(plan)
    text = execute_plan(plan).to_json()
    assert _spec_snapshot(plan) == before, (
        f"running {kind} {name!r} wrote into a slot or job spec; "
        f"experiments must treat specs as read-only"
    )
    return text


def _first_run(kind: str, name: str) -> str:
    key = (kind, name)
    if key not in _FIRST_RUN:
        _FIRST_RUN[key] = _run(kind, name)
    return _FIRST_RUN[key]


def test_trims_cover_the_whole_registry():
    """Registering a scenario or study without a golden trim fails tier-1."""
    assert set(goldens.SCENARIO_TRIMS) == set(scenario_names()), (
        "SCENARIO_TRIMS and the scenario registry disagree; add a trim "
        "entry (and run `make goldens`) for every registered scenario"
    )
    assert set(goldens.STUDY_TRIMS) == set(study_names()), (
        "STUDY_TRIMS and the study registry disagree; add a trim entry "
        "(and run `make goldens`) for every registered study"
    )


@pytest.mark.parametrize("kind,name", ENTRIES, ids=IDS)
def test_matches_committed_golden(kind, name):
    """A fresh trimmed run diffs clean against tests/goldens at tolerance 0."""
    path = goldens.golden_path(kind, name)
    assert path.exists(), (
        f"missing golden {path}; generate the corpus with `make goldens` "
        f"and commit it"
    )
    golden_text = path.read_text(encoding="utf-8").rstrip("\n")
    current_text = _first_run(kind, name)

    report = diff_resultsets(
        ResultSet.from_json(golden_text),
        ResultSet.from_json(current_text),
        a_label=f"golden:{name}",
        b_label=f"run:{name}",
    )
    assert report.identical, (
        f"{kind} {name!r} drifted from its golden; if intentional run "
        f"`make goldens` and commit the diff\n{report.table().render()}"
    )
    # Belt and braces: the structural diff above explains *what* moved,
    # byte equality also catches drift in names/labels/spec echoes.
    assert current_text == golden_text, (
        f"{kind} {name!r} output is not byte-identical to its golden "
        f"(metrics match within structure — check labels/spec fields); "
        f"regenerate with `make goldens` if intentional"
    )


@pytest.mark.parametrize("kind,name", ENTRIES, ids=IDS)
def test_fixed_seed_run_twice_is_byte_identical(kind, name):
    """No hash()-style nondeterminism anywhere in the registry."""
    assert _first_run(kind, name) == _run(kind, name)
