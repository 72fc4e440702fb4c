"""The answer corpus: every recorded answer, bit for bit.

``tests/data/answers.json`` (written by ``tests/data/make_answers.py``)
holds the plans, costs and counters of 354 solves as ``float.hex``, and
digests of complete matrices and of the split loop's final graphs. A change
that means to keep every answer must pass these tests unchanged; one that
moves answers regenerates the corpus and lists each moved answer.
"""

import importlib.util
import json
from pathlib import Path

import numpy
import pytest
import scipy

from lotpath import solve_instance

_spec = importlib.util.spec_from_file_location(
    "make_answers", Path(__file__).resolve().parent / "data" / "make_answers.py"
)
make_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_answers)


@pytest.fixture(scope="module")
def corpus():
    return json.loads(make_answers.CORPUS.read_text())


def check(corpus, section, got):
    """Fail naming the first key and field where ``got`` differs from the
    corpus's ``section``, with what to do about it."""
    recorded = corpus[section]
    for key, have in got.items():
        want = recorded.get(key)
        if want is None:
            pytest.fail(f"{section}: {key} is not in {make_answers.CORPUS.name}")
        field = next((f for f in want if want[f] != have.get(f)), None)
        if field is None:
            continue
        recorded_value, value = want[field], have.get(field)
        if isinstance(value, list) and len(value) == len(recorded_value):
            i = next(i for i, (a, b) in enumerate(zip(recorded_value, value)) if a != b)
            field, recorded_value, value = f"{field}[{i}]", recorded_value[i], value[i]
        stamp = corpus["stamp"]
        versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if any(stamp[lib] != v for lib, v in versions.items()):
            advice = (
                f"The corpus was made with numpy {stamp['numpy']} and scipy "
                f"{stamp['scipy']}, this run has numpy {versions['numpy']} and scipy "
                f"{versions['scipy']}, which may round ndtr or exp differently: run "
                f"tests/data/make_answers.py on revision {stamp['revision']} under these "
                "versions, then run this test on this tree against that corpus."
            )
        else:
            advice = (
                "The program moved an answer. Mend it; regenerate the corpus only in a "
                "change meant to move answers, listing every moved answer."
            )
        pytest.fail(
            f"{section}: {key}: field {field} differs: recorded {recorded_value!r}, "
            f"got {value!r}. {advice}"
        )


def test_corpus_covers_the_listed_solves(corpus):
    assert set(corpus["stamp"]) == {"numpy", "scipy", "revision"}
    listed = make_answers.desk_instances() + make_answers.other_instances()
    assert list(corpus["solves"]) == [make_answers.key(inst) for inst in listed]


def test_desk_grid_answers(corpus, desk_sweep):
    solved = [make_answers.key(sol.instance) for *_, sol in desk_sweep]
    assert solved == [make_answers.key(inst) for inst in make_answers.desk_instances()]
    check(corpus, "solves", {
        make_answers.key(sol.instance): make_answers.answer(sol) for *_, sol in desk_sweep
    })


def test_other_answers(corpus):
    # lumpy and erratic T=30, lumpy T=30 with z=2, lumpy-long, lumpy T=400
    # and zero-mean leading periods
    check(corpus, "solves", {
        make_answers.key(inst): make_answers.answer(solve_instance(inst))
        for inst in make_answers.other_instances()
    })


def test_complete_matrix_digests(corpus):
    check(corpus, "matrices", {
        make_answers.key(inst): make_answers.matrix_digest(inst)
        for inst in make_answers.matrix_instances()
    })


def test_split_loop_digests(corpus):
    check(corpus, "loops", {
        make_answers.key(inst): make_answers.loop_digest(inst)
        for inst in make_answers.loop_instances()
    })


def test_a_moved_answer_names_its_key_field_and_remedy():
    corpus = {
        "stamp": {"numpy": "0.0", "scipy": "0.0", "revision": "abc123"},
        "solves": {"x@seed7": {"spans": [[0, 1]], "costs": ["0x1.0p+0", "0x1.0p+1"]}},
    }
    same = {"x@seed7": {"spans": [[0, 1]], "costs": ["0x1.0p+0", "0x1.0p+1"]}}
    check(corpus, "solves", same)
    moved = {"x@seed7": {"spans": [[0, 1]], "costs": ["0x1.0p+0", "0x1.0p+2"]}}
    with pytest.raises(pytest.fail.Exception, match=(
        r"solves: x@seed7: field costs\[1\] differs: recorded '0x1.0p\+1', got '0x1.0p\+2'\. "
        r"The corpus was made with numpy 0.0 and scipy 0.0, .* run "
        r"tests/data/make_answers.py on revision abc123"
    )):
        check(corpus, "solves", moved)
    with pytest.raises(pytest.fail.Exception, match="solves: y is not in answers.json"):
        check(corpus, "solves", {"y": {}})
