import json

import pytest

from labelflow.cli import build_registries, main

from .conftest import FIXTURES, read_fixture

POLICY = str(FIXTURES / "dont_publish_raw.lucon")
ROUTE = str(FIXTURES / "sensor.route")
CHAIN_POLICY = str(FIXTURES / "measurement_chain.lucon")
CHAIN_ROUTE = str(FIXTURES / "measurement_chain.route")
MANIFEST = str(FIXTURES / "stub_services.json")


def test_compile_prints_clauses(capsys):
    assert main(["compile", POLICY]) == 0
    out = capsys.readouterr().out
    assert "rule(dontPublishRaw)." in out
    assert "creates_label(sensor, raw)." in out


def test_compile_emit_clauses_to_file(tmp_path, capsys):
    target = tmp_path / "policy.pl"
    assert main(["compile", POLICY, "--emit-clauses", str(target)]) == 0
    assert "has_effect(dec_dontPublishRaw, drop)." in target.read_text()


def test_compile_missing_file_is_usage_error(capsys):
    assert main(["compile", "no/such/file.lucon"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_invalid_policy_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.lucon"
    bad.write_text("service { id s }")
    assert main(["compile", str(bad)]) == 2
    assert "endpoint" in capsys.readouterr().err


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


def test_run_manifest_missing_services_is_usage_error(capsys):
    assert main(["run", CHAIN_ROUTE, CHAIN_POLICY, "--services", MANIFEST]) == 2
    assert "no handler" in capsys.readouterr().err


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
