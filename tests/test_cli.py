import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import labelflow
from labelflow import cli
from labelflow.cli import build_parser, build_registries, main
from labelflow.engine import parse_program
from labelflow.policy import parse_policy
from labelflow.policy_compiler import compile_policy

from .conftest import FIXTURES, read_fixture
from .helpers import _same_term

POLICY = str(FIXTURES / "dont_publish_raw.lucon")
ROUTE = str(FIXTURES / "sensor.route")
CHAIN_POLICY = str(FIXTURES / "measurement_chain.lucon")
CHAIN_ROUTE = str(FIXTURES / "measurement_chain.route")
MANIFEST = str(FIXTURES / "stub_services.json")
# An integer literal one digit past what ``int`` converts from text.
_LONG_INT = "9" * (sys.get_int_max_str_digits() + 1)


def test_compile_prints_clauses(capsys):
    assert main(["compile", POLICY]) == 0
    out = capsys.readouterr().out
    assert "rule(dontPublishRaw)." in out
    assert "creates_label(sensor, raw)." in out


def test_compile_emit_clauses_to_file(tmp_path, capsys):
    target = tmp_path / "policy.pl"
    assert main(["compile", POLICY, "--emit-clauses", str(target)]) == 0
    assert "has_effect(dec_dontPublishRaw, drop)." in target.read_text()


@pytest.mark.parametrize("name", ["dont_publish_raw", "measurement_chain"])
def test_compile_prints_golden_clause_dump(capsys, name):
    assert main(["compile", str(FIXTURES / f"{name}.lucon")]) == 0
    assert capsys.readouterr().out == read_fixture(f"{name}.clauses")


def test_check_builds_no_knowledge_base(capsys, kb_builds):
    assert main(["check", ROUTE, POLICY]) == 1
    assert main(["check", CHAIN_ROUTE, CHAIN_POLICY]) == 0
    assert kb_builds == []


@pytest.mark.parametrize(
    "argv",
    [
        lambda bad: ["compile", bad],
        lambda bad: ["check", bad, POLICY],
        lambda bad: ["run", CHAIN_ROUTE, CHAIN_POLICY, "--services", bad],
    ],
    ids=["policy", "route", "manifest"],
)
def test_non_utf8_input_is_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff\xfe")
    assert main(argv(str(bad))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8 text\n"


def test_compile_missing_file_is_usage_error(capsys):
    assert main(["compile", "no/such/file.lucon"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_invalid_policy_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.lucon"
    bad.write_text("service { id s }")
    assert main(["compile", str(bad)]) == 2
    assert "endpoint" in capsys.readouterr().err


def test_check_non_decimal_digit_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.lucon"
    bad.write_text('service {\n  id s\n  endpoint "s://x"\n  creates_label a(²)\n}\n')
    assert main(["check", ROUTE, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unexpected character '²' (line 4, column 19)" in err
    assert "Traceback" not in err


def test_compile_non_ground_created_label_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.lucon"
    bad.write_text('service {\n  id s\n  endpoint "s://x"\n  creates_label pair(b, X)\n}\n')
    assert main(["compile", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "service 's' creates non-ground label pair(b, X)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "endpoint",
    ["x{4294967295}", "(" * 600 + "a" + ")" * 600],
    ids=["repeat_overflow", "nested_groups"],
)
@pytest.mark.parametrize("command", ["compile", "check", "run"])
def test_endpoint_regex_rejected_without_re_error_is_input_error(
    tmp_path, capsys, endpoint, command
):
    # re raises OverflowError and RecursionError for these, not re.error.
    bad = tmp_path / "bad.lucon"
    bad.write_text(f'service {{ id s endpoint "{endpoint}" }}\n')
    argv = [command, str(bad)] if command == "compile" else [command, ROUTE, str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {bad}: service 's' has an invalid endpoint regex: "
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "policy, compiled",
    [
        # sensor covers its atom by id; only the inline target's pattern
        # must be matched, against mqueue's URL
        ("dont_publish_raw.lucon", ["http[s]?://.+"]),
        # every service covers its atom by id, and no endpoint's literal
        # prefix admits another atom or URL of the route
        ("measurement_chain.lucon", []),
    ],
)
def test_check_compiles_only_endpoints_a_route_target_can_match(
    monkeypatch, capsys, policy, compiled
):
    calls: list = []
    compile_regex = re.compile

    def counting(pattern, flags=0):
        calls.append(pattern)
        return compile_regex(pattern, flags)

    endpoints = {s.endpoint for s in parse_policy(read_fixture(policy)).services}
    monkeypatch.setattr(re, "compile", counting)
    main(["check", ROUTE, str(FIXTURES / policy)])
    capsys.readouterr()
    assert sorted(p for p in calls if p in endpoints) == sorted(compiled)


def _nested(depth, leaf):
    return "f(" * depth + leaf + ")" * depth


@pytest.mark.parametrize("deep", ["creates_label", "trigger"])
def test_deeply_nested_policy_terms_compile_check_and_run(tmp_path, capsys, deep):
    # 10,000 levels, at the default recursion limit: compiling hashes each
    # label term, and deciding compares them, without recursing. Only with a
    # deep ``creates_label`` does the sensor's label meet the trigger.
    label = _nested(10_000, "a")
    text = read_fixture("dont_publish_raw.lucon").replace("receives raw", f"receives {label}")
    if deep == "creates_label":
        text = text.replace("creates_label raw", f"creates_label {label}")
    policy = tmp_path / "p.lucon"
    policy.write_text(text)
    violated = deep == "creates_label"
    assert main(["compile", str(policy)]) == 0
    assert f"creates_label(sensor, {label if violated else 'raw'})." in capsys.readouterr().out
    assert main(["check", ROUTE, str(policy)]) == int(violated)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if violated:
        assert "dontPublishRaw" in captured.out
    else:
        assert "is valid" in captured.out
    assert main(["run", ROUTE, str(policy), "--services", MANIFEST]) == int(violated)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads(captured.out)
    if violated:
        assert (summary["status"], summary["at_statement"]) == ("dropped", 6)
        assert summary["rule"] == "dontPublishRaw"
    else:
        assert summary["status"] == "completed"


def test_deeply_nested_route_term_checks_and_runs(tmp_path, capsys):
    # Route terms parse, verify and prove on explicit stacks at any depth.
    route = tmp_path / "r.route"
    route.write_text(
        "route r {\n  1: from(a)\n"
        f"  2: when {_nested(3000, 'ok')} then goto 3 otherwise goto 3\n"
        "  3: to(b)\n}\n"
    )
    assert main(["check", str(route), POLICY]) == 0
    assert "Route r is valid." in capsys.readouterr().out
    assert main(["run", str(route), POLICY]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["status"] == "completed"


@pytest.mark.parametrize(
    "command, long_file",
    [("compile", "policy"), ("check", "policy"), ("check", "route"), ("run", "policy")],
)
def test_over_long_integer_literal_is_input_error(tmp_path, capsys, command, long_file):
    policy, route = tmp_path / "p.lucon", tmp_path / "r.route"
    policy.write_text(read_fixture("dont_publish_raw.lucon"))
    route.write_text(read_fixture("sensor.route"))
    if long_file == "policy":
        long = policy
        policy.write_text(
            f'service {{\n  id s\n  endpoint "s://x"\n  creates_label n({_LONG_INT})\n}}\n'
        )
        position = "(line 4, column 19)"
    else:
        long = route
        route.write_text(
            "route r {\n  1: from(a)\n"
            f"  2: when f({_LONG_INT}) then goto 3 otherwise goto 3\n"
            "  3: to(b)\n}\n"
        )
        position = "(line 3, column 13)"
    argv = [command, str(policy)] if command == "compile" else [command, str(route), str(policy)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {long}: integer literal too long ({len(_LONG_INT)} digits) {position}\n"
    )


def test_check_invalid_route_exits_1_with_golden_text(capsys):
    assert main(["check", ROUTE, POLICY]) == 1
    out = capsys.readouterr().out
    assert out == read_fixture("expected_counterexample.txt")


def test_check_json_format(capsys):
    assert main(["check", ROUTE, POLICY, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["route"] == "Sensor_Messaging"
    assert report["valid"] is False
    (ce,) = report["counterexamples"]
    assert ce["rule"] == "dontPublishRaw"
    assert ce["service"] == "mqueue"


def test_check_valid_route_exits_0(capsys):
    assert main(["check", CHAIN_ROUTE, CHAIN_POLICY]) == 0
    assert "is valid" in capsys.readouterr().out


def test_check_warns_about_undeclared_services(capsys):
    main(["check", ROUTE, CHAIN_POLICY])
    assert "warning:" in capsys.readouterr().err


def test_run_dropped_route_exits_1(capsys, tmp_path):
    audit = tmp_path / "audit.jsonl"
    code = main(
        ["run", ROUTE, POLICY, "--services", MANIFEST, "--audit", str(audit)]
    )
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "dropped"
    assert summary["at_statement"] == 6
    assert summary["rule"] == "dontPublishRaw"
    records = [json.loads(line) for line in audit.read_text().splitlines()]
    assert records[-1]["decision"] == "drop"
    assert records[-1]["node"] == "mqueue"


def test_run_writes_the_golden_audit_trail(capsys, tmp_path):
    audit = tmp_path / "audit.jsonl"
    argv = ["run", ROUTE, POLICY, "--services", MANIFEST, "--audit", str(audit)]
    assert main(argv) == 1
    assert audit.read_bytes() == (FIXTURES / "expected_audit.jsonl").read_bytes()


def test_run_completed_route_exits_0(capsys):
    assert main(["run", CHAIN_ROUTE, CHAIN_POLICY]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "completed"
    (msg,) = summary["final_messages"]
    assert sorted(msg["labels"]) == ["merge(10)", "temperature"]


def test_run_multiple_routes_worst_exit_code(capsys):
    # Both routes publish raw data; without a manifest the log obligation
    # cannot run, so each publish is rejected via its otherwise-effect.
    code = main(["run", CHAIN_ROUTE, ROUTE, POLICY])
    assert code == 1
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    summaries, pos = [], 0
    while pos < len(out.rstrip()):
        summary, end = decoder.raw_decode(out, pos)
        summaries.append(summary)
        pos = end + 1
    assert [s["status"] for s in summaries] == ["errored", "errored"]


@pytest.mark.parametrize("later", ["missing", "unparsable"])
def test_run_loads_every_route_before_running_any(tmp_path, capsys, later):
    # An input error in a later route file leaves no summary and no audit
    # of the routes before it.
    bad = tmp_path / f"{later}.route"
    if later == "unparsable":
        bad.write_text("route r {\n  1: from(\n}\n")
    audit = tmp_path / "audit.jsonl"
    argv = ["run", ROUTE, str(bad), POLICY, "--services", MANIFEST]
    assert main(argv + ["--audit", str(audit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(bad) in captured.err
    assert not audit.exists()


def test_run_manifest_missing_services_is_usage_error(capsys):
    assert main(["run", CHAIN_ROUTE, CHAIN_POLICY, "--services", MANIFEST]) == 2
    assert "no handler" in capsys.readouterr().err


def test_run_checks_every_route_for_handlers_before_running_any(tmp_path, capsys):
    # The manifest lacks the second route's services, so the first route,
    # which it could run, runs neither: no summary and no audit.
    audit = tmp_path / "audit.jsonl"
    argv = ["run", ROUTE, CHAIN_ROUTE, POLICY, "--services", MANIFEST]
    assert main(argv + ["--audit", str(audit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no handler for service(s): ['service_a', 'service_c']\n"
    )
    assert not audit.exists()


def test_run_default_deny(capsys):
    # No flow rule covers the chain services, so default-deny rejects the
    # first decision point outright.
    assert main(["run", CHAIN_ROUTE, CHAIN_POLICY, "--default-deny"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "dropped"
    assert summary["at_statement"] == 2
    assert summary["rule"] is None


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--rules", "5,10", "--labels", "2", "--trials", "3", "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_rules,n_labels,mean_us,p95_us,mem_bytes"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["--trials", "0"],
        ["--rules", "ten"],
        ["--rules", "10,"],
        ["--rules", "-5"],
        ["--rules", "0"],
        ["--labels", "0"],
    ],
)
def test_bench_bad_arguments_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", *args])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{args[0]}: expected an integer >= 1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"services": ', "services.json"),
        ("[]", "manifest"),
        ('{"services": {"sensor": "echo"}}', "service 'sensor'"),
        ('{"services": {"sensor": {"kind": "const", "payload": 5}}}', "payload"),
        ('{"obligations": {"log": "succeed"}}', "obligation 'log'"),
        ('{"obligations": {"log/2": "sucess"}}', "obligation 'log/2'"),
        (
            '{"services": {"sensor": {"kind": "source", "props": {"t": "Bad Term("}}}}',
            "service 'sensor' props",
        ),
        (
            '{"services": {"sensor": {"kind": "source", "props": {"my key": 1}}}}',
            "'my key'",
        ),
        # what ``json.loads`` and ``int`` refuse to convert
        pytest.param("[" * 200000, "JSON nested too deeply", id="deep"),
        pytest.param(
            '{"services": {"s": {"kind": "source", "props": {"t": %s}}}}' % _LONG_INT,
            "services.json: integer literal too long",
            id="long-integer",
        ),
        pytest.param(
            '{"obligations": {"log/%s": "succeed"}}' % _LONG_INT,
            "expected name/arity",
            id="long-arity",
        ),
        # obligation names that no policy can write
        ('{"obligations": {"/2": "succeed"}}', "obligation '/2'"),
        ('{"obligations": {" log /2": "fail"}}', "obligation ' log /2'"),
    ],
)
def test_run_malformed_manifest_is_input_error(tmp_path, capsys, text, named):
    manifest = tmp_path / "services.json"
    manifest.write_text(text)
    assert main(["run", ROUTE, POLICY, "--services", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert named in captured.err
    assert "Traceback" not in captured.err


def test_run_deep_source_prop_is_carried(tmp_path, capsys):
    value = _nested(3000, "a")
    route = tmp_path / "r.route"
    manifest = tmp_path / "services.json"
    route.write_text("route r {\n  1: from(s)\n  2: to(b)\n}\n")
    services = {"s": {"kind": "source", "props": {"t": value}}, "b": {"kind": "sink"}}
    manifest.write_text(json.dumps({"services": services}))
    assert main(["run", str(route), POLICY, "--services", str(manifest)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (message,) = json.loads(captured.out)["final_messages"]
    assert message["props"] == {"t": value}


def test_build_registries_stub_kinds():
    from labelflow.cli import CliError
    from labelflow.terms import parse_term

    manifest = json.loads(read_fixture("stub_services.json"))
    services, obligations = build_registries(manifest)
    payload, props = services.handler("sensor")(b"p", {})
    assert "t" in props
    assert obligations.invoke(parse_term('log("x", m)'), None)
    # Endpoint URLs come from the route alone; a manifest may not set one.
    manifest["services"]["mqueue"]["url"] = "https://mq.example/out"
    with pytest.raises(CliError, match="services block"):
        build_registries(manifest)


def test_build_registries_rejects_unknown_kind():
    from labelflow.cli import CliError

    with pytest.raises(CliError):
        build_registries({"services": {"x": {"kind": "quantum"}}})


# ---------------------------------------------------------------------------
# check and run resolve a service's endpoint from the same source.
# ---------------------------------------------------------------------------

PUBLIC_POLICY = """
service { id sensor endpoint "sensor://.+" creates_label raw }
flow_rule {
  id noRawPublic
  when service { endpoint "https://public.example/.+" } receives raw
  decide drop
}
"""

PUBLIC_ROUTE = """
route R {
  services {
    pub = "https://public.example/in"
  }
  1: from(sensor)
  2: to(pub)
}
"""


def _write_public_case(tmp_path, route_text, manifest):
    policy = tmp_path / "public.lucon"
    route = tmp_path / "public.route"
    services = tmp_path / "services.json"
    policy.write_text(PUBLIC_POLICY)
    route.write_text(route_text)
    services.write_text(json.dumps(manifest))
    return str(route), str(policy), str(services)


def test_check_and_run_agree_on_route_endpoint(tmp_path, capsys):
    manifest = {"services": {"sensor": {"kind": "source"}, "pub": {"kind": "sink"}}}
    route, policy, services = _write_public_case(tmp_path, PUBLIC_ROUTE, manifest)
    assert main(["check", route, policy, "--format", "json"]) == 1
    (ce,) = json.loads(capsys.readouterr().out)["counterexamples"]
    assert main(["run", route, policy, "--services", services]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "dropped"
    assert summary["rule"] == ce["rule"] == "noRawPublic"
    assert summary["at_statement"] == ce["trace"][-1]["statement"] == 2


# The public case with ``pub`` at a URL that no rule covers.
PRIVATE_ROUTE = PUBLIC_ROUTE.replace('"https://public.example/in"', '"svc://pub"')


def test_run_const_stub_replaces_the_payload(tmp_path, capsys):
    manifest = {
        "services": {
            "sensor": {"kind": "source"},
            "pub": {"kind": "const", "payload": "fixed body"},
        }
    }
    route, policy, services = _write_public_case(tmp_path, PRIVATE_ROUTE, manifest)
    assert main(["run", route, policy, "--services", services]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "completed"
    (msg,) = summary["final_messages"]
    assert msg["payload"] == "fixed body"


def test_run_fail_stub_errors_at_its_statement(tmp_path, capsys):
    manifest = {"services": {"sensor": {"kind": "source"}, "pub": {"kind": "fail"}}}
    route, policy, services = _write_public_case(tmp_path, PRIVATE_ROUTE, manifest)
    assert main(["run", route, policy, "--services", services]) == 1
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["status"] == "errored"
    assert summary["at_statement"] == 2
    assert "Traceback" not in captured.out + captured.err


ENV_WRITER = """
route writer {
  1: from(a)
  2: set_env_prop seen := 7
}
"""
ENV_READER = """
route reader {
  1: from(a)
  2: set_msg_prop copied := env(seen)
}
"""


def test_run_env_reset_gives_each_route_file_fresh_globals(tmp_path, capsys):
    writer, reader = tmp_path / "writer.route", tmp_path / "reader.route"
    writer.write_text(ENV_WRITER)
    reader.write_text(ENV_READER)
    policy = tmp_path / "empty.lucon"
    policy.write_text('service { id a endpoint "svc://a" }\n')
    argv = ["run", str(writer), str(reader), str(policy)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    first, end = decoder.raw_decode(out)
    second, _ = decoder.raw_decode(out, end + 1)
    assert [first["status"], second["status"]] == ["completed", "completed"]
    assert second["final_messages"][0]["props"] == {"copied": "7"}
    assert main(argv + ["--env-reset"]) == 2
    captured = capsys.readouterr()
    assert "unbound variable env(seen)" in captured.err
    assert "Traceback" not in captured.err


PROBE_ROUTE = """
route R {
  1: from(src)
  2: when msg_prop(k, v) then goto 3 otherwise goto 5
  3: split parts -> 4, 5
  4: to(a) -> 6
  5: to(b) -> 6
  6: aggregate concat
  7: to(z)
}
"""


def test_check_and_run_reject_a_choice_into_a_split_branch(tmp_path, capsys):
    route = tmp_path / "probe.route"
    policy = tmp_path / "src.lucon"
    route.write_text(PROBE_ROUTE)
    policy.write_text('service { id src endpoint "src://.+" }\n')
    errors = []
    for command in ("check", "run"):
        assert main([command, str(route), str(policy)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == 2 * [
        f"error: {route}: statement 5 is reached inside split 3 on one path "
        "and outside it on another\n"
    ]


# Statement 3 is a choice inside split 2 whose "then" target is the join.
# Every other path removes raw before the join, so only that jump carries
# raw on to pub.
JOIN_JUMP_POLICY = """
service { id src endpoint "src://.+" creates_label raw }
service { id clean endpoint "clean://.+" removes_label raw }
service { id pub endpoint "pub://.+" }
flow_rule { id noRawPub when pub receives raw decide drop }
"""

JOIN_JUMP_ROUTE = """
route R {
  1: from(src)
  2: split parts -> 3, 4
  3: when msg_prop(a, b) then goto 5 otherwise goto 6
  4: bean(clean) -> 5
  5: aggregate concat -> 7
  6: bean(clean) -> 5
  7: to(pub)
}
"""


def test_check_and_run_agree_on_a_choice_that_jumps_to_its_join(tmp_path, capsys):
    policy = tmp_path / "join.lucon"
    route = tmp_path / "join.route"
    services = tmp_path / "services.json"
    policy.write_text(JOIN_JUMP_POLICY)
    route.write_text(JOIN_JUMP_ROUTE)
    manifest = {
        "services": {
            "src": {"kind": "source", "props": {"a": "b"}},
            "clean": {"kind": "echo"},
            "pub": {"kind": "sink"},
        }
    }
    services.write_text(json.dumps(manifest))
    assert main(["check", str(route), str(policy), "--format", "json"]) == 1
    (ce,) = json.loads(capsys.readouterr().out)["counterexamples"]
    assert main(["run", str(route), str(policy), "--services", str(services)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "dropped"
    assert summary["rule"] == ce["rule"] == "noRawPub"
    assert summary["at_statement"] == ce["trace"][-1]["statement"] == 7
    # without the prop the run takes the "otherwise" branch and completes
    assert main(["run", str(route), str(policy)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "completed"


def test_non_atom_msg_key_is_valid_for_check_and_an_input_error_for_run(
    tmp_path, capsys
):
    policy = tmp_path / "src.lucon"
    route = tmp_path / "key.route"
    policy.write_text('service { id src endpoint "src://.+" }\n')
    route.write_text("route R {\n  1: from(src)\n  2: set_msg_prop a := msg(1)\n}\n")
    assert main(["check", str(route), str(policy)]) == 0
    capsys.readouterr()
    assert main(["run", str(route), str(policy)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: msg(..) needs an atom key: msg(1)\n"


def test_run_condition_mixing_a_read_and_a_variable(tmp_path, capsys):
    policy = tmp_path / "props.lucon"
    route = tmp_path / "props.route"
    audit = tmp_path / "audit.jsonl"
    policy.write_text(
        'service { id src endpoint "src://.+" }\n'
        'service { id pub endpoint "https://.+" properties public }\n'
    )
    route.write_text(
        """
        route R {
          1: from(src)
          2: set_msg_prop dest := pub
          3: when has_property(msg(dest), P) then goto 4 otherwise goto 5
          4: to(pub) -> end
          5: to(z)
        }
        """
    )
    assert main(["run", str(route), str(policy), "--audit", str(audit)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "completed"
    lines = audit.read_text().splitlines()
    assert [json.loads(line)["statement"] for line in lines] == [1, 2, 3, 4]


def test_run_manifest_url_is_input_error(tmp_path, capsys):
    manifest = {
        "services": {
            "sensor": {"kind": "source"},
            "pub": {"kind": "sink", "url": "https://public.example/in"},
        }
    }
    bare = PUBLIC_ROUTE.replace('pub = "https://public.example/in"', "")
    route, policy, services = _write_public_case(tmp_path, bare, manifest)
    assert main(["run", route, policy, "--services", services]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "url" in captured.err


@pytest.mark.parametrize(
    "statement",
    [
        "2: set_msg_prop x := msg(nope)",
        "2: when lt(msg(x), 3) then goto 3 otherwise goto 3",
    ],
)
def test_run_eval_error_is_input_error(tmp_path, capsys, statement):
    text = PUBLIC_ROUTE.replace("2: to(pub)", f"{statement}\n  3: to(pub)")
    route, policy, _ = _write_public_case(tmp_path, text, {})
    assert main(["run", route, policy]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unbound variable msg(")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "pattern", ["x{4294967295}", "(" * 1200 + ")" * 1200], ids=["overflow", "nested"]
)
def test_run_regex_rejected_without_re_error_is_input_error(tmp_path, capsys, pattern):
    # re raises OverflowError and RecursionError for these, not re.error.
    statement = f'2: when regex("{pattern}", "abc", true) then goto 3 otherwise goto 3'
    text = PUBLIC_ROUTE.replace("2: to(pub)", f"{statement}\n  3: to(pub)")
    route, policy, _ = _write_public_case(tmp_path, text, {})
    assert main(["run", route, policy]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "failed: bad regular expression" in captured.err
    assert "Traceback" not in captured.err


def test_run_deep_obligation_action_reports_its_outcome(tmp_path, capsys):
    action = _nested(900, "message")
    policy = tmp_path / "deep.lucon"
    policy.write_text(PUBLIC_POLICY.replace(
        "decide drop", f"decide allow\n  require {action} otherwise error"
    ))
    manifest = {"services": {"sensor": {"kind": "source"}, "pub": {"kind": "sink"}}}
    for behavior, code, status in (("succeed", 0, "completed"), ("fail", 1, "errored")):
        manifest["obligations"] = {"f/1": behavior}
        route, _, services = _write_public_case(tmp_path, PUBLIC_ROUTE, manifest)
        assert main(["run", route, str(policy), "--services", services]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["status"] == status


@pytest.mark.parametrize("depth", [400, 900])
def test_compile_deep_obligation_action_round_trips(tmp_path, capsys, depth):
    policy = tmp_path / "deep.lucon"
    policy.write_text(PUBLIC_POLICY.replace(
        "decide drop", f"decide allow\n  require {_nested(depth, 'message')} otherwise error"
    ))
    assert main(["compile", str(policy)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    parsed = parse_program(captured.out)
    expected = compile_policy(parse_policy(policy.read_text())).kb.clauses
    assert len(parsed) == len(expected)
    for got, want in zip(parsed, expected):
        assert got.body == want.body == ()
        assert _same_term(got.head, want.head)


@pytest.mark.parametrize("depth", [600, 900])
def test_run_deep_set_msg_prop_prints_the_value(tmp_path, capsys, depth):
    value = _nested(depth, "1")
    text = PUBLIC_ROUTE.replace("2: to(pub)", f"2: set_msg_prop x := {value}")
    route, policy, _ = _write_public_case(tmp_path, text, {})
    assert main(["run", route, policy]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (message,) = json.loads(captured.out)["final_messages"]
    assert message["props"] == {"x": value}


@pytest.mark.parametrize("depth", [600, 900])
def test_run_deep_condition_proves(tmp_path, capsys, depth):
    # Only a proof skips the public sink, which drops the raw message.
    statements = (
        f"2: set_msg_prop x := {_nested(depth, 'a')}\n"
        f"  3: when msg_prop(x, {_nested(depth, 'V')}) then goto 5 otherwise goto 4\n"
        "  4: to(pub)\n"
        "  5: set_msg_prop proved := 1"
    )
    text = PUBLIC_ROUTE.replace("2: to(pub)", statements)
    route, policy, _ = _write_public_case(tmp_path, text, {})
    assert main(["run", route, policy]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (message,) = json.loads(captured.out)["final_messages"]
    assert message["props"]["proved"] == "1"


@pytest.mark.parametrize("depth", [600, 900])
def test_run_condition_reading_a_deep_value_completes(tmp_path, capsys, depth):
    # msg_prop renames the value it answers with; that walk must not recurse.
    statements = (
        f"2: set_msg_prop x := {_nested(depth, '1')}\n"
        "  3: when msg_prop(x, V) then goto 4 otherwise goto 4\n"
        "  4: to(pub)"
    )
    text = PUBLIC_ROUTE.replace("2: to(pub)", statements)
    route, policy, _ = _write_public_case(tmp_path, text, {})
    Path(policy).write_text(PUBLIC_POLICY.replace("decide drop", "decide allow"))
    assert main(["run", route, policy]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["status"] == "completed"


def test_run_condition_with_a_cyclic_binding_proves(tmp_path, capsys):
    # pair(Y, f(Y)) unifies with the trigger pair(X, X) only by binding Y
    # to a term that contains Y; without an occurs check that is a proof.
    statements = (
        "2: when receives_label(r1, pair(Y, f(Y))) then goto 4 otherwise goto 3\n"
        "  3: to(pub)\n"
        "  4: set_msg_prop proved := 1"
    )
    text = PUBLIC_ROUTE.replace("2: to(pub)", statements)
    route, policy, _ = _write_public_case(tmp_path, text, {})
    Path(policy).write_text(
        PUBLIC_POLICY
        + "flow_rule { id r1 when sensor receives pair(X, X) decide allow }\n"
    )
    assert main(["run", route, policy]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (message,) = json.loads(captured.out)["final_messages"]
    assert message["props"]["proved"] == "1"


def test_run_condition_unifying_two_cyclic_bindings_terminates(tmp_path):
    # Unifying the trigger binds Y = f(Y) and Z = f(Z), then compares them.
    statements = (
        "2: when receives_label(r1, t(Y, Z, Y, f(Y), Z, f(Z)))"
        " then goto 4 otherwise goto 3\n"
        "  3: to(pub)\n"
        "  4: set_msg_prop proved := 1"
    )
    text = PUBLIC_ROUTE.replace("2: to(pub)", statements)
    route, policy, _ = _write_public_case(tmp_path, text, {})
    Path(policy).write_text(
        PUBLIC_POLICY
        + "flow_rule { id r1 when sensor receives t(V, V, X, X, W, W) decide allow }\n"
    )
    result = _module_cli("run", route, policy, timeout=20)
    assert result.returncode == 0, result.stderr
    (message,) = json.loads(result.stdout)["final_messages"]
    assert message["props"]["proved"] == "1"


AUDITED_DROP_POLICY = """
service { id sensor endpoint "sensor://.+" creates_label raw }
service { id pub endpoint "https://public.example/.+" }
flow_rule { id dropRaw when pub receives raw decide drop }
flow_rule {
  id auditRaw
  when pub receives raw
  decide allow
    require audit(message) otherwise allow
}
"""


def test_failing_obligation_does_not_loosen_another_rules_drop(tmp_path, capsys):
    route, policy, _ = _write_public_case(tmp_path, PUBLIC_ROUTE, {})
    Path(policy).write_text(AUDITED_DROP_POLICY)
    assert main(["check", route, policy, "--format", "json"]) == 1
    (ce,) = json.loads(capsys.readouterr().out)["counterexamples"]
    # audit/1 is not registered, so the obligation fails; its otherwise
    # (allow) ranks below the folded drop and does not replace it.
    assert main(["run", route, policy]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "dropped"
    assert summary["rule"] == ce["rule"] == "dropRaw"


def test_non_callable_condition_is_input_error(tmp_path, capsys):
    statement = "2: when 2 then goto 3 otherwise goto 3"
    text = PUBLIC_ROUTE.replace("2: to(pub)", f"{statement}\n  3: to(pub)")
    route, policy, _ = _write_public_case(tmp_path, text, {})
    for command in ("check", "run"):
        assert main([command, route, policy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "choice condition must be an atom or compound: 2" in captured.err
        assert "Traceback" not in captured.err


def test_condition_evaluating_to_a_number_is_input_error(tmp_path, capsys):
    statements = (
        "2: set_msg_prop x := 3\n  3: when msg(x) then goto 4 otherwise goto 4"
    )
    text = PUBLIC_ROUTE.replace("2: to(pub)", f"{statements}\n  4: to(pub)")
    route, policy, _ = _write_public_case(tmp_path, text, {})
    assert main(["check", route, policy]) == 1
    capsys.readouterr()
    assert main(["run", route, policy]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: condition msg(x) failed: literal must")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# Help and usage errors, and the console entry path.
# ---------------------------------------------------------------------------

USAGE = json.loads(read_fixture("cli_usage.json"))


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "case", USAGE["cases"], ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, case):
    """Help and usage-error output, at 80 columns, is what the full parser
    prints; byte for byte as recorded on the fixture's Python, whose argparse
    wording and layout other versions change."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _exit_and_output(capsys, main, case["argv"])
    full = _exit_and_output(capsys, build_parser().parse_args, case["argv"])
    assert got == full
    if platform.python_version() == USAGE["python"]:
        assert got == (case["code"], case["stdout"], case["stderr"])


_ONE_CALL_PER_SUBCOMMAND = [
    (["compile", POLICY], 0),
    (["check", ROUTE, POLICY], 1),
    (["run", ROUTE, POLICY], 1),
    (["bench", "--rules", "5", "--labels", "1", "--trials", "1"], 0),
]


@pytest.mark.parametrize(
    "argv, code",
    _ONE_CALL_PER_SUBCOMMAND,
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_process_builds_the_command_tree_once(monkeypatch, capsys, argv, code):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(argv) == code
    assert built == [
        "labelflow",
        "labelflow compile",
        "labelflow check",
        "labelflow run",
        "labelflow bench",
    ]
    built.clear()
    for later_argv, later_code in _ONE_CALL_PER_SUBCOMMAND:
        assert main(later_argv) == later_code
    assert built == []


def _module_cli(*args, timeout=60):
    """``python -m labelflow.cli *args``, importing this checkout's package."""
    src = str(Path(labelflow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "labelflow.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def test_module_entry_reads_sys_argv():
    result = _module_cli("check", ROUTE, POLICY)
    assert result.returncode == 1
    assert result.stdout == read_fixture("expected_counterexample.txt")


def test_module_entry_without_arguments_is_usage_error():
    result = _module_cli()
    assert result.returncode == 2
    assert "the following arguments are required: command" in result.stderr


# ---------------------------------------------------------------------------
# Route length and split nesting are not bounded by Python's recursion limit.
# ---------------------------------------------------------------------------

LONG_POLICY = """
service { id src endpoint "svc://src" creates_label s }
service { id out endpoint "svc://out" }
flow_rule { id noS when out receives s decide drop }
"""


def _long_route():
    lines = ["route Long {", '  services { a = "svc://src" }', "  1: from(a)"]
    for n in range(2, 10_001):
        lines.append(f"  {n}: to(b)" if n % 2 else f"  {n}: set_msg_prop x := {n}")
    return "\n".join(lines + ["}"])


def _wide_route():
    # A split whose two branches each run 3,000 statements before the
    # aggregate; the publish after it receives the source's label.
    lines = [
        "route Wide {",
        '  services { a = "svc://src" o = "svc://out" }',
        "  1: from(a)",
        "  2: split parts -> 3, 3003",
    ]
    lines += [f"  {n}: to(b)" for n in range(3, 3002)]
    lines.append("  3002: to(b) -> 6003")
    lines += [f"  {n}: set_msg_prop y := 1" for n in range(3003, 6003)]
    lines += ["  6003: aggregate concat", "  6004: to(o)", "}"]
    return "\n".join(lines)


def _nested_route(depth=400):
    # Split i (statement 2 + 2i) runs split i + 1 (or, at the bottom, one
    # to(b)) and a set_msg_prop; the aggregates close in reverse order.
    bottom = 2 + 2 * depth
    lines = ["route Nested {", '  services { a = "svc://src" }', "  1: from(a)"]
    for i in range(depth):
        split = 2 + 2 * i
        lines.append(f"  {split}: split parts -> {split + 2}, {split + 1}")
        lines.append(f"  {split + 1}: set_msg_prop y := {i} -> {bottom + depth - i}")
    lines.append(f"  {bottom}: to(b)")
    lines += [f"  {bottom + k}: aggregate concat" for k in range(1, depth + 1)]
    lines += [f"  {bottom + depth + 1}: to(b)", "}"]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "text, check_code, run_status, at_statement",
    [
        (_long_route(), 0, "completed", None),
        (_wide_route(), 1, "dropped", 6004),
        (_nested_route(), 0, "completed", None),
    ],
    ids=["long", "wide", "nested"],
)
def test_very_long_routes_check_and_run(
    tmp_path, capsys, text, check_code, run_status, at_statement
):
    policy = tmp_path / "p.lucon"
    route = tmp_path / "r.route"
    policy.write_text(LONG_POLICY)
    route.write_text(text)
    assert main(["check", str(route), str(policy), "--format", "json"]) == check_code
    report = json.loads(capsys.readouterr().out)
    assert len(report["counterexamples"]) == check_code
    for ce in report["counterexamples"]:
        # The reported flow runs through the whole first branch.
        assert len(ce["trace"]) == 3004
        assert ce["trace"][-1]["statement"] == at_statement
    assert main(["run", str(route), str(policy)]) == check_code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads(captured.out)
    assert summary["status"] == run_status
    assert summary["at_statement"] == at_statement
