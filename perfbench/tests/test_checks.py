"""Each workload check accepts the program's outputs on a small plan and
rejects them once perturbed."""

import copy
import json
from fractions import Fraction

import pytest

import checks
import inputs
from workload import Ops


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out = {}
    for name in inputs.WORKLOADS:
        run_dir = tmp_path_factory.mktemp(name)
        plan = inputs.make_plan(name, seed=7, small=True)
        record, attempted, failed = Ops(plan, str(run_dir)).round()
        assert attempted > 0 and failed == 0
        out[name] = (plan, record)
    return out


def _errors(name, plan, record):
    return checks.CHECKS[name](plan, record)[0]


def _edit_json(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_check_accepts_program_output(rounds, name):
    plan, record = rounds[name]
    assert _errors(name, plan, record) == []


def test_plan_is_a_function_of_the_seed():
    for name in inputs.WORKLOADS:
        assert inputs.make_plan(name, 3) == inputs.make_plan(name, 3)
        assert inputs.make_plan(name, 3) != inputs.make_plan(name, 4)


def test_ptas_check_rejects_perturbed_output(rounds):
    plan, record = rounds["ptas_exact"]

    def bump_value(out):
        out["discrete_value"] = str(Fraction(out["discrete_value"]) + Fraction(1, 1000))

    def bump_payment(out):
        out["contract"][1] = str(Fraction(out["contract"][1]) + Fraction(1, 7))

    def wrong_k(out):
        out["k"] += 1

    for edit in (bump_value, bump_payment, wrong_k):
        bad = copy.deepcopy(record)
        bad["ptas"][0] = _edit_json(bad["ptas"][0], edit)
        assert _errors("ptas_exact", plan, bad), edit.__name__


def test_hardness_check_rejects_perturbed_output(rounds):
    plan, record = rounds["hardness_verify"]

    def bump_total(out):
        out["total"] = str(Fraction(out["total"]) + Fraction(1, 10**30))

    def not_ok(out):
        out["onlyif"]["ok"] = False

    for edit in (bump_total, not_ok):
        bad = copy.deepcopy(record)
        bad["systems"][0]["verify"] = _edit_json(bad["systems"][0]["verify"], edit)
        assert _errors("hardness_verify", plan, bad), edit.__name__
    bad = copy.deepcopy(record)
    bad["systems"][0]["onlyif"][0]["total"] += "1"
    assert _errors("hardness_verify", plan, bad)
    bad = copy.deepcopy(record)
    bad["systems"][0]["onlyif"][1]["ok"] = False
    assert _errors("hardness_verify", plan, bad)


def test_regret_check_rejects_perturbed_output(rounds):
    plan, record = rounds["learn_regret"]
    bad = copy.deepcopy(record)
    bad["means"][0] += 1e-6
    assert _errors("learn_regret", plan, bad)
    bad = copy.deepcopy(record)
    curve = bad["curves"][0]
    curve[5:] = [x + 1e-3 for x in curve[5:]]  # one round adds no gap
    assert _errors("learn_regret", plan, bad)
    bad = copy.deepcopy(record)
    bad["curves"][1] = bad["curves"][1][:-1]
    assert _errors("learn_regret", plan, bad)
    bad = copy.deepcopy(record)
    bad["curves"][0] = [0.0] * plan["horizon"]  # R_T must be positive
    assert _errors("learn_regret", plan, bad)


def test_pac_check_rejects_perturbed_output(rounds):
    plan, record = rounds["learn_pac"]

    def too_many_samples(out):
        out["samples"] = 10**9

    def outside_box(out):
        out["contract"][1] = "3/2"

    def wrong_dimension(out):
        out["dimension"] += 1

    for edit in (too_many_samples, outside_box, wrong_dimension):
        bad = copy.deepcopy(record)
        bad["pac"][0] = _edit_json(bad["pac"][0], edit)
        assert _errors("learn_pac", plan, bad), edit.__name__

