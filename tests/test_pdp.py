import operator
import os
import random
import re
import subprocess
import sys

import pytest

from labelflow.pdp import (
    BENCH_CSV_HEADER,
    DecisionRequest,
    DecisionResult,
    apply_label_transform,
    bench_csv,
    bench_decide,
    bench_request,
    decide,
    linear_fit_r2,
    most_restrictive,
    rule_matches,
    worst_case_policy,
)
from labelflow.policy import Decision, FlowRule, PolicyAst, ServiceDecl, parse_policy
from labelflow import kernel, pdp, policy_compiler
from labelflow.kernel import label_test, matched_labels
from labelflow.policy_compiler import compile_policy, covering_declarations
from labelflow.terms import Atom, Compound, Int, Str, Var

from .helpers import (
    LABEL_POOL,
    SERVICE_POOL,
    match_pattern,
    random_policy,
    reference_label_transform,
)

POLICY = """
service { id sensor endpoint "sensor://.+" creates_label raw }
service { id merge endpoint "bean://merge" removes_label raw creates_label merge(10) }

flow_rule {
  id dontPublishRaw
  when service { endpoint "http[s]?://.+" } receives raw
  decide drop
    require log("leak", message) otherwise error
}

flow_rule {
  id onlySmallWindows
  when service { endpoint "http[s]?://.+" } receives merge(X)
  decide error
}

flow_rule {
  id auditSensor
  when sensor receives raw
  decide allow
    require audit(message)
}
"""


@pytest.fixture
def compiled():
    return compile_policy(parse_policy(POLICY))


def test_most_restrictive_fold():
    assert most_restrictive([]) == "allow"
    assert most_restrictive(["allow", "drop"]) == "drop"
    assert most_restrictive(["drop", "error", "allow"]) == "error"


def test_apply_label_transform_basic():
    labels = frozenset({Atom("raw"), Atom("temperature")})
    out = apply_label_transform(labels, {Atom("raw")}, {Compound("merge", (Int(10),))})
    assert out == frozenset({Atom("temperature"), Compound("merge", (Int(10),))})


def test_apply_label_transform_removes_by_unification():
    labels = frozenset(
        {Compound("classification", (Atom("secret"),)), Atom("raw")}
    )
    out = apply_label_transform(
        labels, {Compound("classification", (Var("X"),))}, ()
    )
    assert out == frozenset({Atom("raw")})


def test_no_match_defaults_to_allow(compiled):
    req = DecisionRequest("ftp://internal/", frozenset({Atom("raw")}))
    result = decide(compiled, req)
    assert result.effect == "allow"
    assert result.matched_rules == ()
    assert result.effect_rule is None


def test_default_deny(compiled):
    req = DecisionRequest("ftp://internal/", frozenset({Atom("raw")}))
    assert decide(compiled, req, default_effect="drop").effect == "drop"


@pytest.mark.parametrize("effect", ["allow", "drop", "error"])
def test_no_match_gives_the_plain_default_result(compiled, effect):
    uncovered = DecisionRequest("ftp://internal/", frozenset({Atom("raw")}))
    unmatched = DecisionRequest("https://mq.example/out", frozenset({Atom("la")}))
    first = decide(compiled, uncovered, effect)
    assert first == DecisionResult(effect)
    # One immutable result per default effect serves every such decision.
    assert decide(compiled, unmatched, effect) is first


def test_url_match_with_trigger_label(compiled):
    req = DecisionRequest("https://mq.example/out", frozenset({Atom("raw")}))
    result = decide(compiled, req)
    assert result.effect == "drop"
    assert result.effect_rule == "dontPublishRaw"


def test_labels_missing_means_no_match(compiled):
    req = DecisionRequest("https://mq.example/out", frozenset({Atom("temperature")}))
    assert decide(compiled, req).effect == "allow"


def test_trigger_matches_label_up_to_unification(compiled):
    req = DecisionRequest(
        "https://mq.example/out", frozenset({Compound("merge", (Int(10),))})
    )
    result = decide(compiled, req)
    assert result.effect == "error"
    assert result.effect_rule == "onlySmallWindows"


def test_effect_fold_across_matching_rules(compiled):
    req = DecisionRequest(
        "https://mq.example/out",
        frozenset({Atom("raw"), Compound("merge", (Int(3),))}),
    )
    result = decide(compiled, req)
    assert result.effect == "error"  # error beats the drop of dontPublishRaw
    assert set(result.matched_rules) == {"dontPublishRaw", "onlySmallWindows"}
    assert result.effect_rule == "onlySmallWindows"


def test_service_id_match(compiled):
    req = DecisionRequest("sensor", frozenset({Atom("raw")}))
    result = decide(compiled, req)
    assert result.effect == "allow"
    assert result.matched_rules == ("auditSensor",)


def test_secondary_service_id(compiled):
    # URL target misses, but the known service id still matches the rule.
    req = DecisionRequest("sensor", frozenset({Atom("raw")}), url="ftp://weird/")
    assert decide(compiled, req).matched_rules == ("auditSensor",)


def test_obligations_concatenate_and_bind_message(compiled):
    req = DecisionRequest(
        "https://mq.example/out",
        frozenset({Atom("raw")}),
        message_ref=Str("m7"),
    )
    result = decide(compiled, req)
    (ob,) = result.obligations
    assert ob.action == Compound("log", (Str("leak"), Str("m7")))
    assert ob.otherwise == "error"
    assert ob.rule == "dontPublishRaw"


def test_obligation_action_binds_message_at_every_depth():
    depth = 900
    text = POLICY.replace(
        'log("leak", message)',
        "both(" + "f(" * depth + "message" + ")" * depth
        + ', g(message, 1, h(message, k(a)), "s"))',
    )
    req = DecisionRequest(
        "https://mq.example/out", frozenset({Atom("raw")}), message_ref=Str("m7")
    )
    (ob,) = decide(compile_policy(parse_policy(text)), req).obligations
    deep, mixed = ob.action.args
    for _ in range(depth):
        assert deep.functor == "f"
        (deep,) = deep.args
    assert deep == Str("m7")
    m7 = Str("m7")
    assert mixed == Compound(
        "g", (m7, Int(1), Compound("h", (m7, Compound("k", (Atom("a"),)))), Str("s"))
    )


def test_empty_target_rejected():
    with pytest.raises(ValueError):
        DecisionRequest("", frozenset())


def test_decision_is_pure(compiled):
    req = DecisionRequest("https://mq.example/out", frozenset({Atom("raw")}))
    assert decide(compiled, req) == decide(compiled, req)


# -- differential check against a from-scratch matcher ----------------------


def reference_decide(policy, req, default_effect="allow"):
    matched = []
    for name, rule in policy.rule_index.items():
        decl = policy.ast.service(rule.target)
        covers = False
        for target in (req.service, req.url):
            if target is None:
                continue
            if target == rule.target or re.fullmatch(decl.endpoint, target):
                covers = True
        if covers and all(
            any(match_pattern(t, l) is not None for l in req.labels)
            for t in rule.trigger_labels
        ):
            matched.append(name)
    if not matched:
        return default_effect, ()
    effects = [policy.rule_index[n].decision.effect for n in matched]
    return most_restrictive(effects), tuple(matched)


@pytest.mark.parametrize("seed", range(40))
def test_decide_agrees_with_reference(seed):
    rng = random.Random(seed)
    policy = random_policy(rng)
    for _ in range(25):
        target = rng.choice(
            [f"svc://s{rng.randint(1, 5)}", "s1", "s2", "other://x"]
        )
        labels = frozenset(
            Atom(l) for l in rng.sample(LABEL_POOL, rng.randint(0, 4))
        )
        atom = rng.choice(SERVICE_POOL + (None,))
        if atom is None:
            req = DecisionRequest(target, labels)
        else:
            req = DecisionRequest(atom, labels, url=target)
        got = decide(policy, req)
        effect, matched = reference_decide(policy, req)
        assert got.effect == effect
        assert got.matched_rules == matched


def test_monotonicity_in_labels(compiled):
    # Adding labels can only keep or escalate the decision, never relax it.
    rng = random.Random(1)
    order = {"allow": 0, "drop": 1, "error": 2}
    for _ in range(50):
        small = frozenset(Atom(l) for l in rng.sample(LABEL_POOL, 2)) | {
            Atom("raw")
        }
        big = small | {Compound("merge", (Int(rng.randint(0, 5)),))}
        url = "https://mq.example/out"
        e_small = decide(compiled, DecisionRequest(url, small)).effect
        e_big = decide(compiled, DecisionRequest(url, big)).effect
        assert order[e_big] >= order[e_small]


# -- benchmark harness ------------------------------------------------------


def test_worst_case_policy_all_rules_match():
    policy = worst_case_policy(7)
    req = bench_request(3)
    covering = covering_declarations(policy, req.service, req.url)
    assert covering.rules == tuple(policy.rule_index.values())
    assert all(rule_matches(t, req.labels) for t in covering.triggers)
    assert len(policy.rule_index) == 7


class _CountingPattern:
    def __init__(self, pattern, calls):
        self.pattern = pattern
        self.calls = calls

    def fullmatch(self, target):
        self.calls.append(target)
        return self.pattern.fullmatch(target)


def test_repeated_decide_runs_no_regex():
    policy = worst_case_policy(50)
    calls: list = []
    # The matcher reads each endpoint's compiled pattern from the AST.
    for _, endpoint in policy.endpoint_patterns.values():
        policy.ast.endpoint_regexes[endpoint] = _CountingPattern(
            re.compile(endpoint), calls
        )
    req = bench_request(3)
    first = decide(policy, req)
    assert calls == [req.service]
    calls.clear()
    assert decide(policy, req) == first
    assert calls == []
    assert len(first.matched_rules) == 50


def test_decide_resolves_coverage_once(monkeypatch):
    calls: list = []

    def counting(policy, service, url=None):
        calls.append((service, url))
        return covering_declarations(policy, service, url)

    monkeypatch.setattr(pdp, "covering_declarations", counting)
    result = decide(worst_case_policy(50), bench_request(3))
    assert len(calls) == 1
    assert len(result.matched_rules) == 50


@pytest.mark.parametrize("n_rules", [10, 300])
def test_worst_case_decide_scans_every_rule(monkeypatch, n_rules):
    scanned: list = []

    def counting(triggers, labels):
        scanned.append(triggers)
        return rule_matches(triggers, labels)

    monkeypatch.setattr(pdp, "rule_matches", counting)
    policy = worst_case_policy(n_rules)
    req = bench_request(3)
    plan = covering_declarations(policy, req.service, req.url)
    # Every rule has the same triggers, so the scanned tests are told apart
    # by identity and named by the planned rule they belong to.
    names = {id(t): r.name for r, t in zip(plan.rules, plan.triggers)}
    for _ in range(2):
        scanned.clear()
        result = decide(policy, req)
        assert [names[id(t)] for t in scanned] == list(policy.rule_index)
        assert result.matched_rules == tuple(policy.rule_index)


def test_rule_plan_is_memoised_with_the_coverage():
    policy = compile_policy(parse_policy(POLICY))
    covering = covering_declarations(policy, "mq", "https://mq.example/out")
    assert covering_declarations(policy, "mq", "https://mq.example/out") is covering
    assert [r.name for r in covering.rules] == [
        r.name for r in policy.rule_index.values() if r.target in covering
    ]
    assert covering_declarations(policy, "nobody").rules == ()


def test_two_decides_build_each_trigger_test_once_and_scan_the_plan_in_order(
    monkeypatch,
):
    built: list = []
    scanned: list = []

    def counting_label_test(terms):
        built.append(tuple(terms))
        return label_test(terms)

    def counting_rule_matches(triggers, labels):
        scanned.append(triggers)
        return rule_matches(triggers, labels)

    monkeypatch.setattr(policy_compiler, "label_test", counting_label_test)
    monkeypatch.setattr(pdp, "rule_matches", counting_rule_matches)
    policy = compile_policy(parse_policy(SHAPES + OTHER_TARGET))
    req = DecisionRequest("s", frozenset({Compound("w", (Int(1),)), Atom("raw")}))
    for _ in range(2):
        scanned.clear()
        assert decide(policy, req).matched_rules == ("wx", "wy", "any")
        plan = covering_declarations(policy, "s")
        assert len(scanned) == len(plan.triggers)
        assert all(map(operator.is_, scanned, plan.triggers))
    planned = [r for r in policy.rule_index.values() if r.target == "s"]
    assert plan.rules == tuple(planned)
    assert built == [r.trigger_labels for r in planned]


def _loaded_by_import_labelflow(module: str) -> bool:
    src = os.path.dirname(os.path.dirname(pdp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, labelflow; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip() == "True"


def test_import_leaves_tracemalloc_unloaded():
    # Only bench_decide needs tracemalloc; loading it (and pickle) costs
    # every process that imports labelflow about 0.3 MiB of RSS.
    assert not _loaded_by_import_labelflow("tracemalloc")


def test_import_leaves_statistics_unloaded():
    # statistics loads decimal and fractions, about 0.7 MiB of RSS, and
    # bench_decide needs only a mean.
    assert not _loaded_by_import_labelflow("statistics")


def test_bench_rows_and_csv():
    rows = bench_decide([5, 10], [2], trials=3)
    assert [(r.n_rules, r.n_labels) for r in rows] == [(5, 2), (10, 2)]
    text = bench_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3


def test_linear_fit_r2():
    xs = [1, 2, 3, 4]
    assert linear_fit_r2(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)
    assert linear_fit_r2(xs, [5, 5, 5, 5]) == pytest.approx(1.0)
    assert linear_fit_r2([1, 2, 3, 4], [1, -4, 9, -2]) < 0.9
    assert linear_fit_r2([3, 3, 3], [1, 2, 3]) == 1.0  # no spread in x


# -- trigger shapes and one-way matching -----------------------------------

SHAPES = """
service { id s endpoint "svc://s" }
flow_rule { id wx when s receives w(X) decide drop }
flow_rule { id wy when s receives w(Y) decide drop }
flow_rule { id same when s receives pair(X, X) decide drop }
flow_rule { id int when s receives 5 decide drop }
flow_rule { id str when s receives "s" decide drop }
flow_rule { id level when s receives level(3, X) decide drop }
flow_rule { id shared when s receives p(X), q(X) decide drop }
flow_rule { id any when s receives X decide drop }
"""
OTHER_TARGET = """
service { id t endpoint "svc://t" }
flow_rule { id other when t receives raw decide drop }
"""


def _pair(x, y):
    return Compound("pair", (x, y))


def _matched(policy, *labels):
    return decide(policy, DecisionRequest("s", frozenset(labels))).matched_rules


def test_alpha_equivalent_rules_decide_alike():
    policy = compile_policy(parse_policy(SHAPES))
    for labels in (
        (),
        (Atom("w"),),
        (Compound("w", (Int(1),)),),
        (Compound("w", (Atom("a"), Atom("b"))),),
        (Compound("w", (Str("x"),)), Atom("raw")),
    ):
        matched = _matched(policy, *labels)
        assert ("wx" in matched) == ("wy" in matched), labels
    assert {"wx", "wy"} <= set(_matched(policy, Compound("w", (Int(1),))))


def test_non_linear_trigger_and_removal():
    a, b = Atom("a"), Atom("b")
    policy = compile_policy(parse_policy(SHAPES))
    assert "same" in _matched(policy, _pair(a, a))
    assert "same" not in _matched(policy, _pair(a, b))
    assert "same" in _matched(policy, _pair(a, b), _pair(b, b))
    removed = apply_label_transform(
        frozenset({_pair(a, a), _pair(a, b)}), {_pair(Var("X"), Var("X"))}, ()
    )
    assert removed == frozenset({_pair(a, b)})


def test_int_and_str_triggers_match_int_and_str_labels():
    policy = compile_policy(parse_policy(SHAPES))
    assert _matched(policy, Int(5)) == ("int", "any")
    assert _matched(policy, Str("s")) == ("str", "any")
    assert _matched(policy, Str("5"), Int(6)) == ("any",)
    level = Compound("level", (Int(3), Atom("high")))
    assert "level" in _matched(policy, level)
    assert "level" not in _matched(policy, Compound("level", (Str("3"), Atom("high"))))


def test_shared_trigger_variables_bind_independently():
    # Each trigger is tested on its own, so X need not be the same label
    # argument in p(X) and q(X) (see the pdp module docstring).
    policy = compile_policy(parse_policy(SHAPES))
    p_a = Compound("p", (Atom("a"),))
    q_a = Compound("q", (Atom("a"),))
    q_b = Compound("q", (Atom("b"),))
    assert "shared" in _matched(policy, p_a, q_b)
    assert "shared" in _matched(policy, p_a, q_a)
    assert "shared" not in _matched(policy, p_a)


def test_bare_variable_trigger_matches_any_label():
    policy = compile_policy(parse_policy(SHAPES))
    assert _matched(policy) == ()
    assert _matched(policy, Atom("anything")) == ("any",)


def test_decide_and_removal_never_unify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unification called")

    monkeypatch.setattr(kernel, "unify", refuse)
    monkeypatch.setattr(kernel, "unify_inplace", refuse)
    policy = compile_policy(parse_policy(SHAPES))
    labels = (
        Compound("w", (Int(1),)),
        _pair(Atom("a"), Atom("a")),
        Int(5),
        Compound("p", (Atom("a"),)),
        Compound("q", (Atom("b"),)),
    )
    assert _matched(policy, *labels) == ("wx", "wy", "same", "int", "shared", "any")
    assert _matched(policy, Atom("raw")) == ("any",)
    out = apply_label_transform(
        frozenset(labels),
        {Int(5), Compound("w", (Var("X"),)), _pair(Var("X"), Var("X"))},
        {Atom("new")},
    )
    assert out == frozenset(labels[3:] + (Atom("new"),)) - {Int(5)}


def test_request_keeps_its_frozenset():
    labels = frozenset({Atom("raw")})
    assert DecisionRequest("s", labels).labels is labels
    assert DecisionRequest("s", [Atom("raw")]).labels == labels


# -- the from-scratch matcher, over pattern triggers ------------------------

_PATTERN_TRIGGERS = (
    Atom("la"),
    Compound("w", (Var("X"),)),
    Compound("w", (Int(3),)),
    _pair(Var("X"), Var("X")),
    _pair(Var("X"), Var("Y")),
    Compound("cls", (Str("s"),)),
    Int(5),
    Var("X"),
    Compound("p", (Var("X"),)),
    Compound("q", (Var("X"),)),
)
_GROUND_LABELS = (
    Atom("la"),
    Compound("w", (Int(1),)),
    Compound("w", (Int(3),)),
    _pair(Atom("a"), Atom("a")),
    _pair(Atom("a"), Atom("b")),
    Compound("cls", (Str("s"),)),
    Compound("cls", (Str("t"),)),
    Int(5),
    Str("s"),
    Compound("p", (Atom("a"),)),
    Compound("q", (Atom("b"),)),
)


def _pattern_policy(rng):
    services = (ServiceDecl("s1", "svc://s1"), ServiceDecl("s2", "svc://.+"))
    rules = tuple(
        FlowRule(
            f"r{i}",
            rng.choice(services).id,
            tuple(rng.sample(_PATTERN_TRIGGERS, rng.randint(1, 3))),
            Decision(rng.choice(("allow", "drop", "error"))),
        )
        for i in range(rng.randint(1, 8))
    )
    return compile_policy(PolicyAst(services, rules))


@pytest.mark.parametrize("seed", range(40))
def test_pattern_triggers_agree_with_reference(seed):
    rng = random.Random(seed)
    policy = _pattern_policy(rng)
    for _ in range(15):
        labels = frozenset(rng.sample(_GROUND_LABELS, rng.randint(0, 4)))
        req = DecisionRequest(rng.choice(("s1", "s2")), labels, url="svc://s1")
        got = decide(policy, req)
        assert (got.effect, got.matched_rules) == reference_decide(policy, req)
        removes = rng.sample(_PATTERN_TRIGGERS, rng.randint(0, 2))
        kept = {
            l for l in labels if all(match_pattern(r, l) is None for r in removes)
        }
        assert apply_label_transform(labels, removes, ()) == kept


# -- label removal: ground removes by set difference, patterns by match ------

_NONGROUND_LABELS = (
    Var("L"),
    Compound("w", (Var("L"),)),
    _pair(Var("L"), Atom("a")),
    _pair(Atom("a"), Var("L")),
)
_GROUND_REMOVES = _GROUND_LABELS[:8] + (
    Atom("gone"),
    Compound("w", (Int(9),)),
    _pair(Atom("b"), Atom("a")),
)
_PATTERN_REMOVES = (
    Var("X"),
    Compound("w", (Var("X"),)),
    _pair(Var("X"), Var("X")),
    _pair(Var("X"), Var("Y")),
    _pair(Var("X"), Atom("a")),
    Compound("cls", (Var("X"),)),
    Compound("p", (Var("X"),)),
)
_CONTAINERS = (set, tuple, frozenset)


def _some(rng, pool, most):
    return rng.sample(pool, rng.randint(0, most))


@pytest.mark.parametrize("seed", range(25))
def test_label_transform_agrees_with_the_per_pair_definition(seed):
    rng = random.Random(seed)
    for _ in range(24):  # 600 cases over the 25 seeds
        labels = frozenset(
            _some(rng, _GROUND_LABELS, 5) + _some(rng, _NONGROUND_LABELS, 1)
        )
        removes = _some(rng, _GROUND_REMOVES, 3)
        if rng.random() < 0.5:
            removes += _some(rng, _PATTERN_REMOVES, 2)
        removes = rng.choice(_CONTAINERS)(rng.sample(removes, len(removes)))
        creates = rng.choice(_CONTAINERS)(_some(rng, _GROUND_LABELS, 2))
        got = apply_label_transform(labels, removes, creates)
        assert type(got) is frozenset
        assert got == reference_label_transform(labels, removes, creates)
        # The label test that the transform, the rule plan and the verifier
        # share, against the same per-pair definition.
        hit = matched_labels(label_test(removes), labels)
        assert hit == {l for l in labels if any(kernel.match(t, l) for t in removes)}


def test_only_non_ground_removes_call_match(monkeypatch):
    calls: list = []
    match = kernel.match

    def counting(pattern, term):
        calls.append(pattern)
        return match(pattern, term)

    monkeypatch.setattr(kernel, "match", counting)
    labels = frozenset(_GROUND_LABELS + _NONGROUND_LABELS)
    for removes in (set(), (), frozenset()):
        out = apply_label_transform(labels, removes, {Atom("new")})
        assert out == labels | {Atom("new")}
    for removes in (_GROUND_REMOVES, set(_GROUND_REMOVES)):
        out = apply_label_transform(labels, removes, ())
        assert out == labels - set(_GROUND_REMOVES)
    assert calls == []
    # A pattern is matched once against each label the ground removes kept.
    pattern = Compound("nothing", (Var("X"),))
    out = apply_label_transform(labels, (Atom("la"), Int(5), pattern), ())
    assert out == labels - {Atom("la"), Int(5)}
    assert calls == [pattern] * len(out)
