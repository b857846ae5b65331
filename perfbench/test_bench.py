"""Tests of the benchmark itself: each answer check accepts the program's
right answers and rejects a planted wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import io
import json
import contextlib
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import exact  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from cellsheaf import cli  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = {}
    for workload in gen.WORKLOADS:
        directory = tmp_path_factory.mktemp(workload)
        manifest = json.loads(gen.write_inputs(workload, SEED, directory).read_text())
        for op in manifest["ops"]:
            op["argv"] = [str(directory / op["doc"]) if a == "{doc}" else a
                          for a in op["argv"]]
        out[workload] = manifest["ops"]
    return out


def run(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(op["argv"])
        except Exception as exc:
            rc = exc
    return rc, buf.getvalue()


def first(ops, pred):
    return next(op for op in ops if pred(op))


def answer(op):
    """The program's answer to `op`, which must pass its check."""
    rc, out = run(op)
    assert checks.verify(op, rc, out) is None
    return rc, json.loads(out)


def rejects(op, rc, report):
    return checks.verify(op, rc, json.dumps(report)) is not None


# -- check-corpus ----------------------------------------------------------


def valid_check(inputs, extra=False):
    return first(inputs["check-corpus"], lambda op: op["expect"]["kind"] == "valid"
                 and "fault" not in op and bool(op["expect"]["morphisms"]) == extra)


def test_check_rejects_wrong_basic_cover_count(inputs):
    op = valid_check(inputs)
    rc, report = answer(op)
    bad = copy.deepcopy(report)
    for c in bad["checks"]:
        if c["name"].startswith("basic-cover-exactness"):
            n = op["expect"]["basic_covers"]
            c["detail"] = c["detail"].replace(f" {n} covers", f" {n - 1} covers")
    assert rejects(op, rc, bad)


@pytest.mark.parametrize("count", [lambda u: u - 1, lambda u: 51 * u + 1])
def test_check_rejects_open_cover_count_out_of_range(inputs, count):
    op = valid_check(inputs)
    rc, report = answer(op)
    for c in report["checks"]:
        if c["name"].startswith("open-cover-exactness"):
            c["detail"] = f"open-cover-exactness: {count(op['expect']['up_sets'])}" \
                          " covers checked, 0 failures"
    assert rejects(op, rc, report)


def test_check_rejects_changed_normalized_map(inputs):
    op = first(inputs["check-corpus"], lambda op: "fault" not in op
               and op["expect"]["kind"] == "valid"
               and any(op["expect"]["sheaves"]["main"].values()))
    rc, report = answer(op)
    p = checks.field_prime(op["expect"]["field"])
    edge, text = next(iter(op["expect"]["sheaves"]["main"].items()))
    doc = report["data"]["normalized_document"]
    line = f"map {edge} = {text}"
    assert line in doc
    m = checks.parse_matrix(text, p)
    m[0][0] += 1
    report["data"]["normalized_document"] = doc.replace(
        line, f"map {edge} = {gen.matrix_text(m, p)}")
    assert rejects(op, rc, report)


def test_check_rejects_swapped_morphism_names(inputs):
    op = valid_check(inputs, extra=True)
    rc, report = answer(op)
    doc = report["data"]["normalized_document"]
    report["data"]["normalized_document"] = doc.replace(
        "source = main\ntarget = other", "source = other\ntarget = main")
    assert rejects(op, rc, report)


def test_check_rejects_failed_check_and_wrong_exit(inputs):
    op = valid_check(inputs)
    rc, report = answer(op)
    failing = copy.deepcopy(report)
    failing["checks"][-1]["status"] = "fail"
    assert rejects(op, rc, failing)
    assert rejects(op, 1, report)
    assert checks.verify(op, ZeroDivisionError("boom"), "") is not None


def test_functoriality_break_must_name_the_pair(inputs):
    op = first(inputs["check-corpus"], lambda op: op["expect"]["kind"] == "functoriality")
    rc, report = answer(op)
    assert rc == 1
    for c in report["checks"]:
        c["detail"] = c["detail"].replace("from b to t", "from l to t")
    assert rejects(op, rc, report)


def test_shape_error_must_name_the_line(inputs):
    op = first(inputs["check-corpus"], lambda op: op["doc"] == "bad-shape.sheaf")
    rc, report = answer(op)
    assert rc == 2
    line = op["expect"]["line"]
    report["error"] = report["error"].replace(f"line {line}:", f"line {line + 1}:")
    assert rejects(op, rc, report)


def test_fault_f1_fails_today_and_its_right_answer_passes(inputs):
    op = first(inputs["check-corpus"], lambda op: op.get("fault") == "F1")
    rc, out = run(op)
    assert checks.verify(op, rc, out) is not None
    right = {"command": "check", "seed": 0, "checks": [], "data": {},
             "error": "line 9: division by zero in GF(5)"}
    assert checks.verify(op, 2, json.dumps(right)) is None
    assert rejects(op, 2, dict(right, error="line 8: division by zero in GF(5)"))


def test_fault_f2_fails_today_and_its_right_answer_passes(inputs):
    op = first(inputs["check-corpus"], lambda op: op.get("fault") == "F2")
    rc, out = run(op)
    assert checks.verify(op, rc, out) is not None
    report = json.loads(out)
    doc = report["data"]["normalized_document"]
    report["data"]["normalized_document"] = doc.replace(
        "source = main\ntarget = main", "source = other\ntarget = other")
    assert checks.verify(op, rc, json.dumps(report)) is None


def test_fault_documents_do_not_depend_on_the_seed():
    ops = [{op["doc"]: op for op in gen.invalid_documents(seed)} for seed in (1, 2)]
    for doc in ("fault-f1.sheaf", "fault-f2.sheaf"):
        assert ops[0][doc] == ops[1][doc]


# -- grid-sections ---------------------------------------------------------


def sections_op(inputs, whole):
    return first(inputs["grid-sections"],
                 lambda op: ("set:all" in op["argv"]) == whole and op["expect"]["dim"] > 1)


@pytest.mark.parametrize("whole", [True, False])
def test_sections_reject_wrong_dimension(inputs, whole):
    op = sections_op(inputs, whole)
    rc, report = answer(op)
    short = copy.deepcopy(report)
    short["data"]["basis"] = short["data"]["basis"][:-1]
    short["data"]["dim"] -= 1
    assert rejects(op, rc, short)


def test_sections_reject_a_vector_off_the_maps(inputs):
    op = sections_op(inputs, True)
    rc, report = answer(op)
    vec = report["data"]["basis"][0]
    x = next(x for x in op["expect"]["members"] if any(t != "0" for t in vec[x]))
    p = checks.field_prime(op["expect"]["field"])
    vec[x] = [exact.fmt(exact.parse_entry(t, p) * 2, p) for t in vec[x]]
    assert rejects(op, rc, report)


def test_sections_reject_rows_not_in_echelon_form(inputs):
    op = sections_op(inputs, True)
    rc, report = answer(op)
    p = checks.field_prime(op["expect"]["field"])
    a, b = report["data"]["basis"][:2]
    for x in a:  # a + b is still a section, but the rows lose echelon form
        a[x] = [exact.fmt(exact.parse_entry(s, p) + exact.parse_entry(t, p), p)
                for s, t in zip(a[x], b[x])]
    assert rejects(op, rc, report)


# -- stalk-limits ----------------------------------------------------------


def test_stalk_rejects_wrong_dim_and_singular_witness(inputs):
    op = first(inputs["stalk-limits"], lambda op: op["expect"]["dim"] >= 1)
    rc, report = answer(op)
    wrong_dim = copy.deepcopy(report)
    wrong_dim["data"]["dim"] += 1
    assert rejects(op, rc, wrong_dim)
    singular = copy.deepcopy(report)
    singular["data"]["witness"][0] = ["0"] * op["expect"]["dim"]
    assert rejects(op, rc, singular)
    not_square = copy.deepcopy(report)
    not_square["data"]["witness"].append(["1"] * op["expect"]["dim"])
    assert rejects(op, rc, not_square)


# -- large-docs ------------------------------------------------------------


def test_large_docs_reject_wrong_star_dim_and_flags(inputs):
    star = first(inputs["large-docs"], lambda op: op["check"] == "star")
    rc, report = answer(star)
    report["data"]["dim"] += 1
    assert rejects(star, rc, report)
    for iso in (True, False):
        op = first(inputs["large-docs"], lambda op: op["check"] == "morphism"
                   and op["expect"]["isomorphism"] == iso)
        rc, report = answer(op)
        report["data"]["surjective"] = not iso
        assert rejects(op, rc, report)


# -- inputs, oracles and tracing -------------------------------------------


def test_inputs_follow_the_seed(tmp_path):
    texts = []
    for seed, name in ((1, "a"), (1, "b"), (2, "c")):
        gen.write_inputs("stalk-limits", seed, tmp_path / name)
        texts.append((tmp_path / name / "manifest.json").read_text())
    assert texts[0] == texts[1] != texts[2]


def test_up_set_search_matches_power_set_filter():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        leq = exact.closure(range(n), gen.random_poset(rng, n, rng.random()))
        searched = sorted(exact.up_set_masks(n, leq))
        filtered = sorted(sum(1 << i for i in u) for u in exact.up_sets(range(n), leq))
        assert searched == filtered


def test_tracer_counts_layers_and_restores_the_program(inputs):
    import cellsheaf.linalg
    import cellsheaf.sheaf
    before = (cellsheaf.sheaf.kernel_basis, cellsheaf.linalg.Matrix.rank, cli.main)
    tracer = tracing.Tracer()
    tracer.install({layer: sys.modules[f"cellsheaf.{layer}"] for layer in tracing.LAYERS})
    try:
        op = sections_op(inputs, True)
        rc, out = run(op)
    finally:
        tracer.uninstall()
    assert checks.verify(op, rc, out) is None
    assert (cellsheaf.sheaf.kernel_basis, cellsheaf.linalg.Matrix.rank, cli.main) == before
    metrics = tracer.metrics()
    assert metrics["sheaf.sections_over_calls"][0] == 1
    assert metrics["sheaf.section_solves"][0] == 1
    assert metrics["linalg.eliminations"][0] >= 1
    assert metrics["topology.opens_enumerated"][0] == 0
    assert metrics["linalg.self_s"][0] > 0
