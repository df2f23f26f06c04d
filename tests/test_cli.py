"""Command-line surface: subcommands, formats, exit codes."""

import json

import pytest

from oakit.cli import main
from oakit.constructions import trivial_moa
from oakit.formats import parse_array, serialize_array


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "fix.moa"
    code = main(["catalog", "build", "thm1/3^1x2^9", "-o", str(path)])
    assert code == 0
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_passing_report(self, fixture_file, capsys):
        code, out, err = run(
            capsys, "verify", str(fixture_file), "--strength", "2", "--irredundant", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "oakit-report-v1"
        assert report["strength"]["holds"] and report["strength"]["lambda"] is None
        assert report["distance"]["min"] == 3
        assert report["irredundant"] == {"k": 2, "holds": True}
        assert "strength 2 holds" in err

    def test_failing_strength_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.moa"
        path.write_text(serialize_array(trivial_moa((2, 2))).replace("0 1", "0 0", 1))
        code, out, _ = run(capsys, "verify", str(path), "--strength", "2")
        assert code == 2
        assert json.loads(out)["strength"]["witness"]["columns"] == [0, 1]

    def test_missing_file_exits_4(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent.moa", "--strength", "2")
        assert code == 4


class TestDistanceStateUniformity:
    def test_distance(self, fixture_file, capsys):
        code, out, _ = run(capsys, "distance", str(fixture_file))
        assert code == 0 and json.loads(out)["distance"]["min"] == 3

    def test_state_ket(self, fixture_file, capsys):
        code, out, _ = run(capsys, "state", str(fixture_file), "--format", "ket")
        assert code == 0
        terms = out.strip().split(" + ")
        assert len(terms) == 24
        assert terms[0].startswith("|") and terms[0].endswith("⟩")

    def test_state_json(self, fixture_file, capsys):
        code, out, _ = run(capsys, "state", str(fixture_file), "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data["kets"]) == 24
        assert data["amplitude"] == "1/sqrt(24)"

    def test_uniformity(self, fixture_file, capsys):
        code, out, _ = run(capsys, "uniformity", str(fixture_file), "--k", "2")
        report = json.loads(out)
        assert code == 0
        assert report["uniformity"] == {
            "k": 2,
            "holds": True,
            "subsets_checked": 45,
            "subsets_total": 45,
        }

    def test_uniformity_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ff.moa"
        path.write_text(serialize_array(trivial_moa((2, 2, 2))))
        code, out, _ = run(capsys, "uniformity", str(path), "--k", "2")
        assert code == 2 and not json.loads(out)["uniformity"]["holds"]


class TestConstructReplaceSearch:
    def test_construct_writes_certificate(self, tmp_path, capsys):
        out_path = tmp_path / "x.moa"
        code, _, _ = run(
            capsys, "construct", "thm8",
            "--params", "N=4", "M=4", "d=2", "-o", str(out_path),
        )
        assert code == 0
        cert = json.loads((tmp_path / "x.moa.cert.json").read_text())
        assert cert["verified"] and cert["profile"] == "4^1 2^4"

    def test_construct_unknown_pipeline(self, capsys):
        code, _, _ = run(capsys, "construct", "nope")
        assert code == 4

    def test_replace(self, tmp_path, capsys):
        host = tmp_path / "host.moa"
        run(capsys, "construct", "thm8", "--params", "N=4", "M=4", "d=2", "-o", str(host))
        rep = tmp_path / "rep.moa"
        rep.write_text(serialize_array(trivial_moa((2, 2))))
        out_path = tmp_path / "out.moa"
        code, _, _ = run(
            capsys, "replace", str(host), "--column", "0",
            "--with", str(rep), "-o", str(out_path),
        )
        assert code == 0
        arr = parse_array(out_path.read_text())
        assert arr.profile() == "2^6" and arr.runs == 8

    def test_search_found(self, tmp_path, capsys):
        out_path = tmp_path / "s.moa"
        code, _, err = run(
            capsys, "search", "--runs", "6", "--levels", "6,3,2",
            "--strength", "1", "--min-distance", "2", "-o", str(out_path),
        )
        assert code == 0
        assert parse_array(out_path.read_text()).runs == 6

    def test_search_negative_verdict(self, capsys):
        code, out, _ = run(
            capsys, "search", "--runs", "4", "--levels", "2,2,2", "--strength", "3",
        )
        assert code == 2 and json.loads(out)["search"]["status"] == "infeasible"


class TestParameterParsing:
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "thm1", "--params", "m=1", "n=x"),
            ("construct", "thm7", "--params", "k=2", "factors=3,4", "split=abc"),
            ("search", "--runs", "4", "--levels", "2,x", "--strength", "1"),
            ("feasible", "--levels", "2,x"),
        ],
        ids=["construct-n", "construct-split", "search-levels", "feasible-levels"],
    )
    def test_non_integer_exits_4(self, argv, capsys):
        code, _, err = run(capsys, *argv)
        assert code == 4 and "must be an integer" in err


class TestFeasibleAndCatalog:
    def test_feasible(self, capsys):
        code, out, _ = run(capsys, "feasible", "--levels", "3,2,2,2,2")
        assert code == 0
        assert json.loads(out)["feasibility"]["verdict"] == "Impossible"
        code, out, _ = run(capsys, "feasible", "--levels", "2,3,3,3,3")
        assert json.loads(out)["feasibility"]["verdict"] == "NotRuledOut"

    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        entries = json.loads(out)["entries"]
        ids = {e["id"] for e in entries}
        assert code == 0 and "thm3/3^5x2^36" in ids and "table3/3^1x2^8" in ids
        assert any(not e["buildable"] for e in entries)

    def test_catalog_missing_seed_exits_3(self, capsys):
        code, _, err = run(capsys, "catalog", "build", "table5/12^1x6^6")
        assert code == 3 and "seed" in err

    def test_catalog_unknown_id_exits_4(self, capsys):
        code, _, _ = run(capsys, "catalog", "build", "nope/nope")
        assert code == 4

    def test_catalog_seed_of_wrong_kind_rejected(self, tmp_path, capsys):
        # the seed plumbing parses and validates --seed files; an array file
        # cannot satisfy a difference-scheme requirement
        path = tmp_path / "seed.moa"
        path.write_text(serialize_array(trivial_moa((2, 2))))
        code, _, err = run(
            capsys, "catalog", "build", "table5/12^1x6^6", "--seed", str(path)
        )
        assert code == 4 and "difference-scheme" in err
