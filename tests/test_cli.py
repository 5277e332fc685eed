"""CLI subcommands, exit codes, and the experiment CSV contract."""

import csv
import json
import math

import pytest

from vrank import cli, engine
from vrank.cli import CSV_COLUMNS, ExperimentSpec, main, run_experiment
from vrank.families import Family, FamilyParams, generate
from vrank.stencil import read_stencil
from vrank.gf import WitnessMatrix, free_stars, minrank_bruteforce, validate_witness
from vrank.tensor import tensor_power_vrank


@pytest.fixture
def d3_path(tmp_path):
    p = tmp_path / "d3.stn"
    p.write_text("stencil 3 3\n0**\n*0*\n**0\n")
    return str(p)


@pytest.fixture
def zero_column_path(tmp_path):
    """A 1 x 0 stencil whose one row carries an arity-2 label."""
    p = tmp_path / "zero-cols.json"
    p.write_text(json.dumps({"rows": 1, "cols": 0, "row_labels": [[1, 1]]}))
    return str(p)


def assert_not_json_error(capsys, path, *argv):
    """The command, given the file ``path`` that does not parse as JSON,
    exits 2 with a one-line message naming it."""
    path.write_text('{"n": 3, "sets":')
    assert assert_input_error(capsys, *argv).startswith(f"error: {path} is not valid JSON (")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_input_error(capsys, *argv) -> str:
    """The command exits 2 with a one-line message, which is returned, and
    no output."""
    code = main(list(argv))
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    return cap.err


class TestGen:
    def test_gen_to_stdout(self, capsys):
        code, out = run(capsys, "gen", "--family", "lrc", "--n", "6", "--ell", "2", "--seed", "1")
        assert code == 0
        assert out.startswith("stencil 6 6\n")

    def test_gen_to_file_records_seed(self, capsys, tmp_path):
        out_path = str(tmp_path / "h.json")
        code, out = run(capsys, "gen", "--family", "drgp", "--n", "8", "--t", "2",
                        "--seed", "3", "-o", out_path)
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_gen_deterministic(self, capsys):
        a = run(capsys, "gen", "--family", "lcc", "--n", "30", "--q", "3",
                "--delta", "0.1", "--seed", "5")
        b = run(capsys, "gen", "--family", "lcc", "--n", "30", "--q", "3",
                "--delta", "0.1", "--seed", "5")
        assert a == b

    def test_gen_bad_params_exit_2(self, capsys):
        code, _ = run(capsys, "gen", "--family", "lrc", "--n", "4", "--ell", "9")
        assert code == 2

    def test_gen_missing_param_exit_2(self, capsys):
        assert_input_error(capsys, "gen", "--family", "lrc", "--n", "4")


class TestVrank:
    def test_d3(self, capsys, d3_path):
        code, out = run(capsys, "vrank", d3_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["lower"] == doc["upper"] == 2 and doc["exact"]

    def test_missing_file_exit_2(self, capsys):
        code, _ = run(capsys, "vrank", "/nonexistent.stn")
        assert code == 2

    @pytest.mark.parametrize(
        "stars",
        [[[1, "a"]], [[1]], [5], 5, [[3, 1]]],
        ids=["non-integer-entry", "short-pair", "not-a-pair", "not-a-list", "out-of-range"],
    )
    def test_malformed_stars_exit_2(self, capsys, tmp_path, stars):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"rows": 2, "cols": 2, "stars": stars}))
        assert_input_error(capsys, "vrank", str(p))

    @pytest.mark.parametrize(
        "argv, data",
        [(["vrank", "FILE"], b"stencil 2 2\n*\xc3\xa9\n0*\n"),
         (["spanoid", "rank", "FILE"], b'\xef\xbb\xbf{"n": 2, "sets": [[1, 2]]}'),
         (["verify", "STENCIL", "--certificate", "FILE"], b'{"rows": [1], "cols": ["\xe9"]}'),
         (["experiment", "--spec", "FILE"], b'\xef\xbb\xbf{"family": "drgp"}'),
         (["vrank", "FILE"], b"\xff"),
         (["tensor", "FILE", "--power", "2"], b'{"rows": 1, "cols": 1, "stars": [[1, "\xe9"]]}'),
         (["verify", "FILE", "--family", "drgp"], b"\xef\xbb\xbfstencil 0 0\n")],
        ids=["vrank-non-ascii", "spanoid-bom", "certificate-non-ascii", "spec-bom",
             "vrank-first-byte", "tensor-json-non-ascii", "verify-stencil-bom"],
    )
    def test_non_ascii_input_exit_2(self, capsys, tmp_path, d3_path, argv, data):
        # The message names the file and its first byte past ASCII.
        p = tmp_path / "bad"
        p.write_bytes(data)
        err = assert_input_error(
            capsys, *[{"FILE": str(p), "STENCIL": d3_path}.get(a, a) for a in argv]
        )
        at = next(i for i, byte in enumerate(data) if byte > 127)
        assert err == f"error: {p} is not ASCII (byte {data[at]:#x} at offset {at})\n"

    @pytest.mark.parametrize(
        "argv",
        [["vrank"], ["tensor", "--power", "2"], ["certify", "--power", "2"],
         ["minrank", "--field", "3"], ["witness", "--field", "67"],
         ["verify", "--family", "drgp"]],
        ids=lambda argv: argv[0],
    )
    def test_stencil_not_json_exit_2(self, capsys, tmp_path, argv):
        # A stencil document that opens as JSON and does not parse.
        p = tmp_path / "h.json"
        assert_not_json_error(capsys, p, argv[0], str(p), *argv[1:])

    @pytest.mark.parametrize(
        "labels",
        [{"row_labels": 5}, {"row_labels": [[1], "x"]}, {"col_labels": [[1]]},
         {"col_labels": [[1], [2.5]]}],
        ids=["not-a-list", "non-list-entry", "wrong-count", "non-integer-label"],
    )
    def test_malformed_labels_exit_2(self, capsys, tmp_path, labels):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"rows": 2, "cols": 2, **labels}))
        assert_input_error(capsys, "vrank", str(p))

    @pytest.mark.parametrize(
        "dims",
        [{"rows": 2.7, "cols": 2}, {"rows": True, "cols": "3"}, {"rows": 2},
         {"rows": -1, "cols": 2}],
        ids=["float-rows", "bool-rows-string-cols", "missing-cols", "negative-rows"],
    )
    def test_malformed_dimensions_exit_2(self, capsys, tmp_path, dims):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({**dims, "stars": []}))
        assert_input_error(capsys, "vrank", str(p))

    def test_negative_grid_dimensions_exit_2(self, capsys, tmp_path):
        p = tmp_path / "h.stn"
        p.write_text("stencil -1 2\n")
        assert_input_error(capsys, "vrank", str(p))

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_resource_exhaustion_exit_2(self, capsys, monkeypatch, d3_path, exc):
        def exhausted(args):
            raise exc()

        monkeypatch.setattr(cli, "cmd_vrank", exhausted)
        assert_input_error(capsys, "vrank", d3_path)


class TestCertify:
    def test_drgp_certifies(self, capsys, tmp_path):
        p = str(tmp_path / "h.json")
        run(capsys, "gen", "--family", "drgp", "--n", "8", "--t", "2", "--seed", "3", "-o", p)
        code, out = run(capsys, "certify", p, "--power", "2")
        assert code == 0
        assert json.loads(out)["certified_vrk_power_lower_bound"] == 8

    def test_non_certifying_exit_1(self, capsys, tmp_path):
        # all-star group columns: the AND sub-stencil is all-star, not identity
        p = tmp_path / "h.json"
        doc = {
            "rows": 4, "cols": 2,
            "row_labels": [[1, 1], [1, 2], [2, 1], [2, 2]],
            "col_labels": [[1], [2]],
            "stars": [[i, j] for i in range(1, 5) for j in range(1, 3)],
        }
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "certify", str(p), "--power", "2")
        assert code == 1
        assert not json.loads(out)["identity"]

    def test_power_zero_exit_2(self, capsys, tmp_path):
        p = str(tmp_path / "h.json")
        run(capsys, "gen", "--family", "drgp", "--n", "8", "--t", "2", "--seed", "3", "-o", p)
        code = main(["certify", p, "--power", "0"])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == ""
        assert "requires t >= 1" in cap.err

    def test_zero_columns_exit_2(self, capsys, zero_column_path):
        assert_input_error(capsys, "certify", zero_column_path, "--power", "2")


class TestTensor:
    def test_power_zero_exit_2(self, capsys, d3_path):
        code = main(["tensor", d3_path, "--power", "0"])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == ""
        assert "requires k_max >= 1" in cap.err

    def test_zero_columns(self, capsys, zero_column_path):
        code, out = run(capsys, "tensor", zero_column_path, "--power", "2")
        assert code == 0
        assert json.loads(out) == {
            "per_level": {str(k): {"lower": 0, "upper": 0, "exact": True} for k in (1, 2)},
            "best": 0.0,
        }

    @pytest.mark.parametrize("name", ["out.stn", "out.json"])
    def test_write_power(self, capsys, d3_path, tmp_path, name):
        out_path = str(tmp_path / name)
        code, out = run(capsys, "tensor", d3_path, "--power", "2", "-o", out_path)
        assert code == 0 and json.loads(out) == {"written": out_path, "rows": 9, "cols": 9}
        code, out = run(capsys, "vrank", out_path)
        doc = json.loads(out)
        assert code == 0 and doc["lower"] == doc["upper"] == 4

    def test_read_back_power_searched_up_to_reversal(self, capsys, tmp_path, monkeypatch):
        # The power written to JSON keeps its labels, from which the search
        # of the read-back power finds the factor reversal.
        h, p = str(tmp_path / "h.json"), str(tmp_path / "p.json")
        run(capsys, "gen", "--family", "drgp", "--n", "6", "--t", "2", "--seed", "0", "-o", h)
        run(capsys, "tensor", h, "--power", "2", "-o", p)
        want = tensor_power_vrank(read_stencil(h), 2)
        flips, search = [], engine._urm_search

        def recording(*args, flip=None, **kwargs):
            flips.append(flip)
            return search(*args, flip=flip, **kwargs)

        monkeypatch.setattr(engine, "_urm_search", recording)
        code, out = run(capsys, "vrank", p)
        doc = json.loads(out)
        assert code == 0 and len(flips) == 1 and flips[0] is not None
        assert (doc["lower"], doc["upper"], doc["exact"]) == (
            want.lower_bound, want.upper_bound, want.exact,
        ) == (25, 25, True)

    def test_write_power_one_past_the_entry_limit(self, capsys, tmp_path):
        # 512 x 256 = 131,072 entries, over the limit that binds powers k >= 2.
        big, out_path = str(tmp_path / "big.json"), str(tmp_path / "out.json")
        run(capsys, "gen", "--family", "drgp", "--n", "256", "--t", "2", "--seed", "0", "-o", big)
        code, out = run(capsys, "tensor", big, "--power", "1", "-o", out_path)
        assert code == 0 and json.loads(out) == {"written": out_path, "rows": 512, "cols": 256}

    def test_high_powers(self, capsys, tmp_path):
        # I3's level k is 3^k: past the float range at k = 700, and past the
        # 4,300-digit int-to-str limit at k = 9100.
        p = tmp_path / "i3.stn"
        p.write_text("stencil 3 3\n*00\n0*0\n00*\n")
        code, out = run(capsys, "tensor", str(p), "--power", "700")
        assert code == 0 and json.loads(out)["per_level"]["700"]["lower"] == 3**700
        assert_input_error(capsys, "tensor", str(p), "--power", "9100")

    def test_levels_carry_upper(self, capsys, d3_path):
        # D3: vrk 2, and its GF(3) witness has rank 2.
        code, out = run(capsys, "tensor", d3_path, "--power", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["per_level"] == {
            "1": {"lower": 2, "upper": 2, "exact": True},
            "2": {"lower": 4, "upper": 4, "exact": True},
        }


class TestMinrankWitness:
    def test_minrank_d3(self, capsys, d3_path):
        code, out = run(capsys, "minrank", d3_path, "--field", "3")
        doc = json.loads(out)
        assert code == 0 and doc["minrank"] == 2 and doc["exhaustive"]

    def test_minrank_time_budget(self, capsys, tmp_path):
        p = str(tmp_path / "h.json")
        run(capsys, "gen", "--family", "drgp", "--n", "8", "--t", "2", "--seed", "0", "-o", p)
        code, out = run(capsys, "minrank", p, "--field", "3", "--budget-ms", "200")
        doc = json.loads(out)
        assert code == 0 and not doc["exhaustive"]
        assert doc["minrank"] >= 6

    def test_minrank_nonprime_exit_2(self, capsys, d3_path):
        code, _ = run(capsys, "minrank", d3_path, "--field", "4")
        assert code == 2

    def test_witness_d3(self, capsys, d3_path):
        code, out = run(capsys, "witness", d3_path, "--field", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["rank"] <= doc["max_row_zeros"] + 1

    def test_witness_construction_choices(self, capsys, d3_path):
        default = run(capsys, "witness", d3_path, "--field", "5")
        assert run(capsys, "witness", d3_path, "--field", "5", "--construct", "low-rank") == default
        assert default[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["witness", d3_path, "--field", "5", "--construct", "foo"])
        assert exc.value.code == 2

    def test_witness_default_output(self, capsys, d3_path):
        code, out = run(capsys, "witness", d3_path, "--field", "5")
        assert code == 0 and out == (
            '{"p": 5, "entries": [[0, 1, 2], [4, 0, 1], [3, 4, 0]], "rank": 2, '
            '"max_row_zeros": 1}\n'
        )

    def test_witness_stopping_set(self, capsys, tmp_path):
        p = str(tmp_path / "h.json")
        run(capsys, "gen", "--family", "drgp", "--n", "6", "--t", "2", "--seed", "0", "-o", p)
        code, out = run(capsys, "witness", p, "--field", "7", "--construct", "stopping-set")
        doc = json.loads(out)
        H = read_stencil(p)
        assert code == 0 and set(doc) == {"p", "entries", "rank", "stopping_set"}
        assert doc["p"] == 7 and doc["rank"] == 5 and doc["stopping_set"] == [1, 2, 3, 4, 5]
        W = WitnessMatrix(7, tuple(map(tuple, doc["entries"])), H)
        assert validate_witness(W) == (True, None)
        assert all(sum(row[j - 1] for j in doc["stopping_set"]) % 7 == 0 for row in W.entries)

    def test_witness_stopping_set_empty(self, capsys, tmp_path):
        p = tmp_path / "i3.stn"
        p.write_text("stencil 3 3\n*00\n0*0\n00*\n")
        code, out = run(capsys, "witness", str(p), "--field", "3", "--construct", "stopping-set")
        assert code == 0 and json.loads(out) == {
            "p": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "rank": 3, "stopping_set": [],
        }

    @pytest.mark.parametrize("construct", ["low-rank", "stopping-set"])
    def test_witness_small_field_exit_2(self, capsys, d3_path, construct):
        assert "p >= n" in assert_input_error(
            capsys, "witness", d3_path, "--field", "2", "--construct", construct
        )

    @pytest.mark.parametrize("construct", ["low-rank", "stopping-set"])
    def test_witness_invalid_exit_1(self, capsys, monkeypatch, d3_path, construct):
        def broken(H, p, *_):
            return WitnessMatrix(p, ((1,) * H.n,) * H.m, H)

        name = {"low-rank": "low_rank_witness", "stopping-set": "stopping_set_witness"}
        monkeypatch.setattr(cli.gf, name[construct], broken)
        code, out = run(capsys, "witness", d3_path, "--field", "5", "--construct", construct)
        assert code == 1 and json.loads(out)["entries"] == [[1, 1, 1]] * 3


class TestSpanoid:
    def test_rank_and_check(self, capsys, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"n": 3, "sets": [[1, 2], [2, 3]]}))
        code, out = run(capsys, "spanoid", "rank", str(p))
        assert code == 0 and json.loads(out)["rank"] == 1
        code, out = run(capsys, "spanoid", "check", str(p), "--columns")
        assert code == 0 and json.loads(out)["identity_holds"]

    @pytest.mark.parametrize("action", ["rank", "check"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"sets": [[1, 2]]},
            {"n": 3, "sets": [[1, "2"]]},
            {"n": 3, "sets": [1, 2]},
            {"n": -1, "sets": []},
        ],
        ids=["missing-n", "non-integer-element", "sets-not-list-of-lists", "negative-n"],
    )
    def test_malformed_json_exit_2(self, capsys, tmp_path, action, doc):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "spanoid", action, str(p))

    @pytest.mark.parametrize("action", ["rank", "check"])
    def test_not_json_exit_2(self, capsys, tmp_path, action):
        p = tmp_path / "s.json"
        assert_not_json_error(capsys, p, "spanoid", action, str(p))


class TestVerify:
    def test_certificate_round_trip(self, capsys, d3_path, tmp_path):
        _, out = run(capsys, "vrank", d3_path)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out = run(capsys, "verify", d3_path, "--certificate", str(cert_path))
        assert code == 0 and json.loads(out)["certificate_valid"]

    def test_tampered_certificate_exit_1(self, capsys, d3_path, tmp_path):
        _, out = run(capsys, "vrank", d3_path)
        doc = json.loads(out)["certificate"]
        doc["rows"] = list(reversed(doc["rows"]))
        doc["rows"][0] = doc["rows"][0] % 3 + 1
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        code, _ = run(capsys, "verify", d3_path, "--certificate", str(cert_path))
        assert code in (0, 1)  # tampering may accidentally stay valid ...
        doc["peel_order"] = []
        cert_path.write_text(json.dumps(doc))
        code, _ = run(capsys, "verify", d3_path, "--certificate", str(cert_path))
        assert code == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": [1]},
            [1, 2],
            {"rows": [1], "cols": ["1"], "row_perm": [1], "col_perm": [1],
             "peel_order": [[1, 1]]},
            {"rows": [1], "cols": [1], "row_perm": [1], "col_perm": [1],
             "peel_order": [[1]]},
            {"certificate": {"rows": [1], "cols": [1], "row_perm": [1], "col_perm": [1],
                             "peel_order": 7}},
        ],
        ids=["missing-keys", "not-an-object", "non-integer-entry", "short-peel-pair",
             "peel-order-not-a-list"],
    )
    def test_malformed_certificate_exit_2(self, capsys, d3_path, tmp_path, doc):
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", d3_path, "--certificate", str(cert_path))

    def test_certificate_not_json_exit_2(self, capsys, d3_path, tmp_path):
        p = tmp_path / "c.json"
        assert_not_json_error(capsys, p, "verify", d3_path, "--certificate", str(p))

    def test_family_membership(self, capsys, tmp_path):
        p = str(tmp_path / "h.json")
        run(capsys, "gen", "--family", "drgp", "--n", "8", "--t", "2", "--seed", "3", "-o", p)
        code, out = run(capsys, "verify", p, "--family", "drgp", "--n", "8", "--t", "2")
        assert code == 0 and json.loads(out)["valid"]

    def test_wrong_family_exit_1(self, capsys, tmp_path):
        p = str(tmp_path / "h.json")
        run(capsys, "gen", "--family", "tensor-gap", "--n", "8", "--t", "3", "--seed", "3", "-o", p)
        code, out = run(capsys, "verify", p, "--family", "drgp", "--n", "8", "--t", "3")
        assert code == 1 and not json.loads(out)["valid"]

    def test_no_mode_exit_2(self, capsys, d3_path):
        code, _ = run(capsys, "verify", d3_path)
        assert code == 2


class TestExperiment:
    def test_csv_schema_and_determinism(self, tmp_path):
        spec = ExperimentSpec(Family.LRC, [8], [2], trials=3, seed=11,
                              csv_path=str(tmp_path / "out.csv"))
        rows1 = run_experiment(spec)
        with open(tmp_path / "out.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_COLUMNS
            assert len(list(reader)) == 3
        rows2 = run_experiment(spec)
        strip = lambda rs: [{k: v for k, v in r.items() if k != "ms"} for r in rs]
        assert strip(rows1) == strip(rows2)

    def test_lrc_rows_meet_greedy_floor(self):
        spec = ExperimentSpec(Family.LRC, [8, 12], [2], trials=2, seed=0)
        for row in run_experiment(spec):
            assert row["vrk_lb"] >= math.ceil(row["n"] / 3)

    def test_drgp_rows_flag_tensor_certificate(self):
        spec = ExperimentSpec(Family.DRGP, [8], [2], trials=2, seed=0)
        for row in run_experiment(spec):
            assert row["tensor_cert"] == "true"

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(Family.LRC, [], [2])
        with pytest.raises(ValueError):
            ExperimentSpec(Family.LRC, [8], [2], trials=0)

    def test_infeasible_point_reported_run_continues(self):
        spec = ExperimentSpec(Family.LRC, [4], [2, 9], trials=1, seed=0)
        rows = run_experiment(spec)
        assert len(rows) == 2
        assert str(rows[1]["vrk_lb"]).startswith("error")

    def test_cli_flags(self, capsys):
        code, out = run(capsys, "experiment", "--family", "lrc", "--n", "6,8",
                        "--ell", "2", "--trials", "1", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].rstrip() == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_cli_csv_file(self, capsys, tmp_path):
        path = str(tmp_path / "out.csv")
        code, out = run(capsys, "experiment", "--family", "lrc", "--n", "8", "--ell", "2",
                        "--csv", path)
        assert code == 0 and json.loads(out) == {"rows": 1, "csv": path}
        with open(path, newline="", encoding="ascii") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == CSV_COLUMNS and len(lines) == 2
        assert lines[1][:3] == ["lrc", "8", "2"]

    @pytest.mark.parametrize(
        "doc",
        [{}, [1], {"family": "nope", "n": [8], "param": [2]},
         {"family": "lrc", "n": 8, "param": [2]}, {"family": "lrc", "n": [], "param": [2]},
         {"family": "lrc", "n": [8], "param": [2], "field": "3"},
         {"family": "lrc", "n": [8], "param": [2], "delta": "x"},
         {"family": "lrc", "n": [8], "param": [2], "csv": 5},
         {"family": "lrc", "n": [8], "param": [2], "field": 4},
         {"family": "lrc", "n": [8], "param": [2], "field": 65537},
         {"family": "lrc", "n": [8], "param": [2], "budget_ms": -5},
         {"family": "lrc", "param": [2]},
         {"family": "lrc", "n": [8], "param": [2], "seed": -3}],
        ids=["empty-object", "not-an-object", "unknown-family", "n-not-a-list", "empty-sweep",
             "non-integer-field", "non-number-delta", "non-string-csv", "non-prime-field",
             "prime-field-over-limit", "negative-budget", "no-n", "negative-seed"],
    )
    def test_malformed_spec_exit_2(self, capsys, tmp_path, doc):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "experiment", "--spec", str(p))

    def test_spec_not_json_exit_2(self, capsys, tmp_path):
        p = tmp_path / "spec.json"
        assert_not_json_error(capsys, p, "experiment", "--spec", str(p))

    @pytest.mark.parametrize(
        "argv",
        [["experiment", "--family", "lrc", "--n", "8", "--ell", "2", "--field", "4"],
         ["experiment", "--family", "lrc", "--n", "8", "--ell", "2", "--budget-ms", "-5"],
         ["vrank", "STENCIL", "--budget-ms", "-5"],
         ["tensor", "STENCIL", "--power", "2", "--budget-ms", "-5"],
         ["minrank", "STENCIL", "--field", "3", "--budget-ms", "-5"],
         ["minrank", "STENCIL", "--field", "3", "--budget", "-1"],
         ["gen", "--family", "drgp", "--n", "6", "--t", "2", "--seed", "-1"],
         ["experiment", "--family", "lrc", "--n", "8", "--ell", "2", "--trials", "1",
          "--seed", "-5"],
         ["verify", "STENCIL", "--family", "lrc", "--n", "3", "--ell", "1", "--seed", "-1"]],
        ids=["non-prime-field", "negative-budget", "negative-budget-vrank",
             "negative-budget-tensor", "negative-budget-minrank", "negative-node-budget-minrank",
             "negative-seed-gen", "negative-seed-experiment", "negative-seed-verify"],
    )
    def test_malformed_flags_exit_2(self, capsys, d3_path, argv):
        assert_input_error(capsys, *[d3_path if a == "STENCIL" else a for a in argv])

    def test_minrank_gate_counts_free_stars(self):
        # 2^24 witnesses over GF(3), but only the 2^9 on free stars are walked.
        (row,) = run_experiment(ExperimentSpec(Family.LRC, [8], [2], seed=0, field_p=3))
        H = generate(FamilyParams(Family.LRC, 8, 2, seed=row["seed"]))
        assert (H.star_count(), len(free_stars(H))) == (24, 9)
        assert row["minrank_p"] == 3
        assert row["minrank_val"] == minrank_bruteforce(H, 3).value

    def test_spec_file(self, capsys, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"family": "drgp", "n": [6], "param": [2], "trials": 1}))
        code, out = run(capsys, "experiment", "--spec", str(p))
        assert code == 0 and len(out.strip().splitlines()) == 2


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["gen", "--n", "8", "--t", "2"], ["gen", "--family", "drgp", "--t", "2"],
         ["verify", "STENCIL", "--family", "lcc", "--n", "8"],
         ["experiment", "--family", "drgp", "--n", "8"]],
        ids=["gen-no-family", "gen-no-n", "verify-no-q", "experiment-no-t"],
    )
    def test_missing_family_flag_exit_2(self, capsys, d3_path, argv):
        assert_input_error(capsys, *[d3_path if a == "STENCIL" else a for a in argv])

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
