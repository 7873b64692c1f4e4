import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capsep
from capsep.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlphaCommand:
    def test_pentagon_power_two(self, capsys):
        code, out, _ = run(capsys, "alpha", "--graph", "C5xC5")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 5
        assert payload["upper"] == 5
        assert payload["exact"] is True

    def test_product_reference_is_case_blind(self, capsys):
        code, out, _ = run(capsys, "alpha", "--graph", "c5xc5")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"] == "C5xC5"
        assert payload["lower"] == 5


class TestReportCommand:
    def test_p41_separates(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "G", "--p", "41")
        assert code == 0
        payload = json.loads(out)
        assert payload["separation"] is True

    def test_p3_does_not(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "H", "--p", "3")
        assert code == 0
        assert json.loads(out)["separation"] is False

    def test_bad_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "report", "--family", "G", "--p", "9")
        assert code == 1
        assert "error" in err


class TestGraphCommands:
    def test_gen_graph_json(self, capsys):
        code, out, _ = run(capsys, "gen-graph", "--family", "G", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex_count"] == 462

    def test_gen_graph_dimacs(self, capsys):
        code, out, _ = run(capsys, "gen-graph", "--family", "C", "--n", "5",
                           "--format", "dimacs")
        assert code == 0
        assert out.startswith("p edge 5 5")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run(capsys, "gen-graph", "--family", "G", "--n", "3",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["vertex_count"] == 3


    def test_huge_cycle_refused_before_any_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen-graph", "--family", "C", "--n", "100000000")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cap" in err
        assert time.perf_counter() - start < 1.0


class TestHadamardCommand:
    def test_auto_paley(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--size", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 12
        assert payload["construction"] == "paley(11)"
        assert len(payload["rows"]) == 12

    def test_uncovered_size_reports_not_found(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--size", "28")
        assert code == 0
        assert json.loads(out) == {"size": 28, "found": False}

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--size", "2", "--format", "text")
        assert code == 0
        assert out.strip().split("\n") == ["++", "+-"]


class TestCertCommands:
    def test_cert_and_verify_round_trip(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _, _ = run(capsys, "cert", "--family", "H", "--n", "11",
                         "--output", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["M"] == 8
        assert payload["verification"]["passed"] is True

        code, out, _ = run(capsys, "verify-cert", "--input", str(target))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_cert_detects_corruption(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        run(capsys, "cert", "--family", "H", "--n", "3", "--output", str(target))
        payload = json.loads(target.read_text())
        payload["ops"][0]["matrix"] = (
            np.zeros_like(np.array(payload["ops"][0]["matrix"]))).tolist()
        target.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify-cert", "--input", str(target))
        assert code == 2
        assert json.loads(out)["passed"] is False


    @staticmethod
    def _h3_cert(capsys, tmp_path):
        target = tmp_path / "cert.json"
        run(capsys, "cert", "--family", "H", "--n", "3", "--output", str(target))
        return target, json.loads(target.read_text())

    def _assert_rejected(self, capsys, target, phrase):
        code, out, err = run(capsys, "verify-cert", "--input", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and phrase in err
        assert "Traceback" not in err

    def test_verify_cert_unknown_vertex(self, capsys, tmp_path):
        target, payload = self._h3_cert(capsys, tmp_path)
        payload["ops"][0]["vertex"] = "999"
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "'999'")

    @staticmethod
    def _squared_cert(name):
        if name == "H3xH3":
            rep = capsep.ortho_rep_H(3)
            seed = capsep.clique_from_hadamard_H(capsep.sylvester(2))
            base = capsep.cert_from_packing(rep, capsep.pack_cliques(rep.graph, seed))
        else:
            base = capsep.classical_embedding(capsep.build_cycle(5), [0, 2])
        payload = capsep.tensor(base, base).to_json()
        assert payload["graph"] == name
        return payload

    @pytest.mark.parametrize("name", ["H3xH3", "C5xC5"])
    def test_verify_cert_product_from_file(self, capsys, tmp_path, name):
        target = tmp_path / "cert.json"
        payload = self._squared_cert(name)
        target.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify-cert", "--input", str(target))
        assert code == 0 and json.loads(out)["passed"] is True
        payload["ops"][0]["matrix"][0][0] *= -1
        target.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify-cert", "--input", str(target))
        assert code == 2 and json.loads(out)["passed"] is False

    @pytest.mark.parametrize("label", ["(0,2", "(0,2,1)", "(00,2)"])
    def test_verify_cert_product_unknown_vertex(self, capsys, tmp_path, label):
        target = tmp_path / "cert.json"
        payload = self._squared_cert("C5xC5")
        assert [op["vertex"] for op in payload["ops"]] == ["(0,0)", "(0,2)", "(2,0)", "(2,2)"]
        payload["ops"][1]["vertex"] = label
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "unknown vertex")

    def test_verify_cert_missing_rho(self, capsys, tmp_path):
        target, payload = self._h3_cert(capsys, tmp_path)
        del payload["rho"]
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "'rho'")

    def test_verify_cert_truncated_file(self, capsys, tmp_path):
        target, _ = self._h3_cert(capsys, tmp_path)
        target.write_text(target.read_text()[:100])
        self._assert_rejected(capsys, target, "malformed certificate")

    def test_verify_cert_wrong_matrix_shape(self, capsys, tmp_path):
        target, payload = self._h3_cert(capsys, tmp_path)
        payload["ops"][0]["matrix"] = [[1, 0], [0, 1]]
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "shape")


    def test_verify_cert_repeated_entry(self, capsys, tmp_path):
        target, payload = self._h3_cert(capsys, tmp_path)
        first = payload["ops"][0]
        payload["ops"].insert(0, {**first, "matrix": [[7] * 4] * 4})  # not PSD
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target,
                              f"vertex '{first['vertex']}', i = {first['i']}")

    @staticmethod
    def _integer_paths(payload):
        """Where the certificate format holds an integer, as key paths."""
        square = [(r, c) for r in range(payload["dim"]) for c in range(payload["dim"])]
        return ([("M",), ("dim",), ("denominator",)]
                + [("rho", r, c) for r, c in square]
                + [("ops", k, "i") for k in range(len(payload["ops"]))]
                + [("ops", k, "matrix", r, c)
                   for k in range(len(payload["ops"])) for r, c in square])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=st.one_of(st.booleans(), st.floats()))
    def test_verify_cert_non_integer_value(self, capsys, tmp_path, data, value):
        target, payload = self._h3_cert(capsys, tmp_path)
        *path, last = data.draw(st.sampled_from(self._integer_paths(payload)))
        node = payload
        for key in path:
            node = node[key]
        node[last] = value
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "malformed certificate")

    def test_verify_cert_untrusted_message_count(self, capsys, tmp_path):
        target, payload = self._h3_cert(capsys, tmp_path)
        payload["M"] = 100000
        target.write_text(json.dumps(payload))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify-cert", "--input", str(target))
        assert time.perf_counter() - start < 0.1
        assert code == 2 and len(out) < 10_000
        doc = json.loads(out)
        assert doc["violations"]["sum_to_rho"] == 99999
        assert doc["witnesses"][0]["first"] == list(range(2, 12))

    def test_verify_cert_huge_values(self, capsys, tmp_path):
        target, payload = self._h3_cert(capsys, tmp_path)
        for field, value, condition in [("M", 10**30, "sum_to_rho"),
                                        ("entry", 2**62, "psd")]:
            edited = json.loads(json.dumps(payload))
            if field == "M":
                edited["M"] = value
            else:
                edited["ops"][0]["matrix"][0][0] = value
            target.write_text(json.dumps(edited))
            code, out, err = run(capsys, "verify-cert", "--input", str(target))
            assert code == 2 and "Traceback" not in err
            assert json.loads(out)["conditions"][condition] is False


class TestPackCommand:
    def test_pack_h11(self, capsys):
        code, out, _ = run(capsys, "pack", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] >= 8
        assert payload["target_met"] is True


class TestGeometryCommands:
    def test_orthorep(self, capsys):
        code, out, _ = run(capsys, "orthorep", "--family", "G", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["normalizer"] == 4
        assert payload["vectors"]["011"] == [1, -1, -1, 1]

    def test_clique(self, capsys):
        code, out, _ = run(capsys, "clique", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 12
        assert "0" * 11 in payload["vertices"]

    def test_clique_unavailable_hadamard(self, capsys):
        # no covered construction of size 28 exists
        code, _, err = run(capsys, "clique", "--family", "G", "--n", "27")
        assert code == 1
        assert "28" in err


class TestHaemersCommand:
    def test_g11(self, capsys):
        code, out, _ = run(capsys, "haemers", "--family", "G", "--n", "11",
                           "--p", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["fits"] is True
        assert payload["rank"] == 55
        assert payload["rank"] <= payload["bound"] == 67

    def test_g19_over_memory_cap_exits_quickly(self, capsys):
        # T would be 92378 x 5036 int64 plus a working copy: refused up front
        start = time.perf_counter()
        code, out, err = run(capsys, "haemers", "--family", "G", "--n", "19",
                             "--p", "5")
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert "92378 x 5036" in err and "cap" in err


class TestChannelSimCommand:
    def test_h3_trials(self, capsys):
        code, out, _ = run(capsys, "channel-sim", "--family", "H", "--n", "3",
                           "--trials", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert payload["zero_error"]["passed"] is True


class TestPipelineCommand:
    def test_h11_consolidated(self, capsys):
        code, out, _ = run(capsys, "pipeline", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["cert"]["M"] == 8
        assert payload["cert"]["verified"] is True
        assert payload["haemers"]["rank"] <= 67
        assert payload["haemers"]["fits"] is True
        assert payload["packing"]["target_met"] is True
        assert payload["report"]["separation"] is False

    def test_g19_skips_rank_section_over_memory_cap(self, capsys):
        code, out, _ = run(capsys, "pipeline", "--family", "G", "--n", "19")
        assert code == 0
        payload = json.loads(out)
        assert "cap" in payload["haemers"]["skipped"]
        assert payload["alpha"] == {"lower": 1001, "upper": None}
        assert payload["cert"]["M"] == 256 and payload["cert"]["verified"] is True
        assert payload["restricted_set"]["verified"] is True

    def test_g7_skips_rank_section(self, capsys):
        # (7+1)/4 = 2 is not an odd prime, so the mod-p machinery is skipped
        code, out, _ = run(capsys, "pipeline", "--family", "G", "--n", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["cert"]["verified"] is True
        assert "skipped" in payload["haemers"]
        assert payload["report"] is None


class TestEmptyPacking:
    @pytest.mark.parametrize("command", ["cert", "pipeline", "channel-sim"])
    def test_budget_zero_exits_with_message(self, capsys, command):
        code, out, err = run(capsys, command, "--family", "G", "--n", "11",
                             "--budget", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "budget" in err
        assert "Traceback" not in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nonsense")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "gen-graph", "--family", "G")[0] == 1

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "gen-graph", "--family", "Z", "--n", "5")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("argv", [
    "pipeline --family G --n 11",
    "channel-sim --family H --n 7",
    "channel-sim --family H --n 11 --trials 10",
])
def test_cli_run_does_not_import_numpy_ma(argv):
    # numpy loads numpy.ma lazily, e.g. on a bare np.unique of an integer array
    script = ("import contextlib, io, sys\n"
              "from capsep.cli import cli_main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli_main({argv.split()!r})\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(capsep.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.split() == ["0", "False"], out.stderr
