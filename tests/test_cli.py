"""Command-line surface: subcommands, formats, exit codes."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakit.algebra import ds_linear
from oakit.arrays import MixedArray
from oakit.cli import main
from oakit.constructions import three_uniform_dm2n, trivial_moa
from oakit.formats import parse_array, serialize_array, serialize_scheme
from test_arrays import _relabelled


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

    def test_divisibility_witness_exits_2(self, tmp_path, capsys):
        path = tmp_path / "six.moa"
        rows = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1)]
        path.write_text(serialize_array(MixedArray.from_rows((2, 2), rows)))
        code, out, _ = run(capsys, "verify", str(path), "--strength", "2")
        assert code == 2
        assert json.loads(out)["strength"]["witness"] == {
            "columns": [0, 1],
            "reason": "run count not divisible by level product",
            "expected": "3/2",
        }

    def test_missing_file_exits_4(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent.moa", "--strength", "2")
        assert code == 4

    @pytest.mark.parametrize(
        "header, row",
        [
            ("", "9" * 20),  # symbol past int64
            ("kind \n", "0"),  # empty kind
            ("kind ds x 2\n", "0"),  # non-integer order
            ("kind ds 2 y\n", "0"),  # non-integer strength
        ],
    )
    def test_damaged_file_exits_4(self, tmp_path, capsys, header, row):
        path = tmp_path / "damaged.moa"
        path.write_text(f"moa v1\n{header}runs 1\nlevels 2\nrows:\n{row}\n")
        code, _, err = run(capsys, "verify", str(path), "--strength", "1")
        assert code == 4 and err.startswith("error: ")

    def test_negative_gf_order_exits_4(self, tmp_path, capsys):
        path = tmp_path / "negative.moa"
        path.write_text("moa v1\nkind ds -4 2 gf\nruns 1\nlevels -4 -4\nrows:\n0 1\n")
        code, _, err = run(capsys, "verify", str(path), "--strength", "1")
        assert code == 4 and err.startswith("error: ")


class TestUnreadablePaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "{dir}", "--strength", "1"),
            ("state", "{dir}"),
            ("verify", "{latin1}", "--strength", "1"),
            ("replace", "{array}", "--column", "0", "--with", "{dir}"),
            ("catalog", "build", "table5/12^1x6^6", "--seed", "{latin1}"),
            ("construct", "thm8", "--params", "N=4", "M=4", "d=2", "replace_with={dir}"),
            ("construct", "thm8", "--params", "N=4", "M=4", "d=2", "-o", "{dir}"),
            ("catalog", "build", "thm1/3^1x2^9", "-o", "{missing}/out.moa"),
        ],
        ids=[
            "verify-dir", "state-dir", "verify-latin1", "replace-with-dir",
            "catalog-seed-latin1", "construct-replace-with-dir", "construct-o-dir",
            "catalog-o-missing-dir",
        ],
    )
    def test_exits_4(self, tmp_path, capsys, argv):
        array = tmp_path / "a.moa"
        array.write_text(serialize_array(trivial_moa((2, 2))))
        latin1 = tmp_path / "latin1.moa"
        latin1.write_bytes(b"moa v1\nruns 1\nlevels 2\nrows:\n\xff\n")
        paths = {"dir": tmp_path, "latin1": latin1, "array": array, "missing": tmp_path / "no"}
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 4 and err.startswith("error: ")


    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "{crlf}", "--strength", "1"),
            ("catalog", "build", "table5/12^1x6^6", "--seed", "{crlf}"),
        ],
        ids=["verify", "catalog-seed"],
    )
    def test_crlf_file_is_parsed_as_its_bytes(self, tmp_path, capsys, argv):
        # moa v1 is LF-only: a file must reach the parser untranslated
        crlf = tmp_path / "crlf.moa"
        crlf.write_bytes(serialize_array(trivial_moa((2, 2))).replace("\n", "\r\n").encode())
        code, _, err = run(capsys, *(a.format(crlf=crlf) for a in argv))
        assert code == 4 and "expected 'moa v1' header, got 'moa v1\\r'" in err


# One command line per subcommand, well-formed when {path} is the 4-run
# array file and {rep} a 2-run replacement, with the exit code it documents
# undamaged; the fuzz test below fills in a path and damages the line.
_ARGV_TEMPLATES = {
    "verify {path} --strength 1 --irredundant 1": 2,  # minimal distance 1
    "distance {path}": 0,
    "construct thm1 --params m=1 n=9 -o out.moa": 0,
    "construct thm2 --params d=4 m=1 n=7 -o out.moa": 0,
    "construct thm4 --params d=5 m=4 n=54 -o out.moa": 0,
    "construct thm7 --params k=2 factors=3,4 -o out.moa": 0,
    "construct cor2 --params d=2 n=2 -o out.moa": 0,
    "construct thm8 --params N=4 M=4 d=2 replace_with={path}": 0,
    "replace {path} --column 0 --with {rep} --strength 1 -o out.moa": 2,  # not irredundant
    "state {path} --format json": 0,
    "uniformity {path} --k 1": 2,  # a full factorial is not 1-uniform
    "search --runs 4 --levels 2,2 --strength 1 --min-distance 1 --budget 10 -o out.moa": 0,
    "feasible --levels 3,2,2,2,2": 0,
    "catalog build thm1/3^1x2^9 -o out.moa": 0,
    "catalog list": 0,
}
_TOKENS = [
    "verify", "construct", "catalog", "build", "thm3", "thm8", "table5/12^1x6^6", "nope",
    "ket", "x", "", "2,3,2", "6,3,2", "--strength", "--params", "-o", "--column",
    "--with", "--k", "--runs", "--levels", "--min-distance", "--budget", "--seed",
]
_KEYS = ["m", "n", "N", "M", "d", "k", "factors", "scheme_keep"]


@pytest.fixture()
def argv_files(tmp_path, monkeypatch):
    """The template files in tmp_path, also the working directory for -o."""
    monkeypatch.chdir(tmp_path)
    array = tmp_path / "a.moa"
    array.write_text(serialize_array(trivial_moa((2, 2))))
    rep = tmp_path / "rep.moa"
    rep.write_text(serialize_array(trivial_moa((2,))))
    latin1 = tmp_path / "latin1.moa"
    latin1.write_bytes(b"moa v1\nruns 1\nlevels 2\nrows:\n\xff\n")
    return {"array": array, "rep": rep, "latin1": latin1}


@pytest.mark.parametrize("template", list(_ARGV_TEMPLATES))
def test_argv_template_exits_with_its_code(argv_files, template):
    argv = template.format(path=argv_files["array"], rep=argv_files["rep"]).split(" ")
    assert main(argv) == _ARGV_TEMPLATES[template]


def test_malformed_argv_exits_with_documented_codes(argv_files, tmp_path):
    rep = str(argv_files["rep"])
    paths = [
        str(argv_files["array"]), str(argv_files["latin1"]), str(tmp_path),
        str(tmp_path / "missing.moa"),
    ]
    small = st.integers(-1, 8)
    token = st.one_of(
        st.sampled_from(_TOKENS + paths),
        small.map(str),
        st.builds("{}={}".format, st.sampled_from(_KEYS), small),
        st.sampled_from(paths).map("replace_with={}".format),
    )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(list(_ARGV_TEMPLATES)), st.sampled_from(paths), st.data())
    def check(template, path, data):
        argv = template.format(path=path, rep=rep).split(" ")
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(argv)))
            cut = data.draw(st.integers(0, 1))
            argv[pos : pos + cut] = [data.draw(token)]
        assert main(argv) in (0, 2, 3, 4)

    check()


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

    @pytest.mark.parametrize("columns, code", [(8, 0), (4, 2)])
    def test_construct_thm8_scheme_prefix(self, tmp_path, capsys, columns, code):
        # with four scheme columns two runs differ in one column only: not irredundant
        out_path = tmp_path / "x.moa"
        assert run(
            capsys, "construct", "thm8",
            "--params", "N=12", f"M={columns}", "d=2", "-o", str(out_path),
        )[0] == code
        assert out_path.exists() == (code == 0)

    def test_construct_unknown_pipeline(self, capsys):
        code, _, _ = run(capsys, "construct", "nope")
        assert code == 4

    @pytest.mark.parametrize(
        "pipeline, params",
        [("cor2", ("d=-4", "n=1")), ("thm4", ("d=-4", "m=2", "n=2"))],
    )
    def test_negative_order_exits_4(self, capsys, pipeline, params):
        code, _, err = run(capsys, "construct", pipeline, "--params", *params)
        assert code == 4 and err.startswith("error: ")

    def test_cor2_above_the_cell_cap_exits_4(self, tmp_path, capsys):
        # 4^9 x (4^8 + 1) cells: numpy used to raise MemoryError out of main()
        out_path = tmp_path / "x.moa"
        code, out, err = run(
            capsys, "construct", "cor2", "--params", "d=4", "n=8", "-o", str(out_path)
        )
        assert code == 4 and err.startswith("error: ") and "cap" in err
        assert "MemoryError" not in err and not out and not out_path.exists()

    @pytest.mark.parametrize(
        "pipeline, params",
        [
            ("thm2", ("d=4", "m=1", "n=100000")),
            ("thm4", ("d=5", "m=4", "n=100000")),
            ("thm7", ("k=6", "factors=11,13")),
            ("thm8", ("N=65536", "M=2", "d=2")),
        ],
    )
    def test_above_the_cell_cap_exits_4_before_building(self, tmp_path, capsys, pipeline, params):
        # these used to raise MemoryError out of main() or run for minutes
        out_path = tmp_path / "x.moa"
        code, out, err = run(
            capsys, "construct", pipeline, "--params", *params, "-o", str(out_path)
        )
        assert code == 4 and err.startswith("error: ") and "cap" in err
        assert not out and not out_path.exists()

    def test_thm7_split_levels_checked_before_building(self, capsys):
        # the 10^9-run factorial used to be built before its run count was checked
        code, _, err = run(
            capsys, "construct", "thm7", "--params", "k=2", "factors=3,4",
            "split=0:1000,1000,1000",
        )
        assert code == 4 and "do not multiply to 12" in err

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

    def test_deep_search_found(self, tmp_path, capsys):
        # 128 rows of 8 cells: far deeper than one stack frame per cell allows
        out_path = tmp_path / "deep.moa"
        code, _, err = run(
            capsys, "search", "--runs", "128", "--levels", "2,2,2,2,2,2,2,2",
            "--strength", "1", "-o", str(out_path),
        )
        assert code == 0 and "after 1017 nodes" in err
        assert parse_array(out_path.read_text()).runs == 128

    @pytest.mark.parametrize("option", ["--budget", "--min-distance"])
    def test_search_negative_parameter_exits_4(self, capsys, option):
        code, _, err = run(
            capsys, "search", "--runs", "4", "--levels", "2,2", "--strength", "1", option, "-1",
        )
        assert code == 4 and err.startswith("error: ")

    def test_search_above_the_cell_cap_exits_4(self, capsys):
        code, out, err = run(
            capsys, "search", "--runs", "1000000000", "--levels", "2", "--strength", "1",
        )
        assert code == 4 and out == "" and err.startswith("error: ") and "cap" in err

    def test_search_above_the_candidate_cap_exits_4(self, capsys):
        code, out, err = run(
            capsys, "search", "--runs", "2", "--levels", ",".join(["2"] * 13), "--strength", "1",
        )
        assert code == 4 and out == "" and "8192 candidate rows exceed the cap" in err

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("construct", "thm1", "--params", "m=1", "n=9", "bogus=1"), "no param 'bogus'"),
            (("construct", "thm1", "--params", "m=1", "n=9", "n=10"), "'n' given twice"),
            (("construct", "thm7", "--params", "k=2", "factors=3,4", "n=1"), "no param 'n'"),
            (("construct", "thm8", "--params", "N=4", "M=4", "d=2", "d=2"), "'d' given twice"),
            (("construct", "thm8", "--params", "N=4", "M=4", "d=2", "k=2"), "no param 'k'"),
            (("verify", "{path}", "--strength", "2", "--irredundant", "7"), "in 1..2, got 7"),
            (("verify", "{path}", "--strength", "2", "--irredundant", "0"), "in 1..2, got 0"),
            (("catalog", "build", "thm1/3^1x2^9", "--seed", "{path}"), "takes no seed"),
            (("construct", "thm1", "--params", "m=1"), "pipeline thm1 needs params ['n']"),
            (("verify", "{path}", "--strength", "4"), "strength 4 exceeds column count 3"),
        ],
        ids=[
            "unknown-key", "repeated-key", "thm7-unknown-key", "thm8-repeated-key",
            "thm8-unknown-key", "irredundant-past-columns", "irredundant-0",
            "catalog-build-unused-seed", "missing-key", "strength-past-columns",
        ],
    )
    def test_rejected_parameters_exit_4(self, tmp_path, capsys, argv, message):
        # each of these used to exit 0, ignoring a key or the irredundancy check
        path = tmp_path / "a.moa"
        path.write_text(serialize_array(trivial_moa((2, 2, 2))))
        code, _, err = run(capsys, *(a.format(path=path) for a in argv))
        assert code == 4 and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--runs", "x", "--levels", "2,2", "--strength", "1"),
            ("verify", "f.moa", "--strength", "2", "--bogus"),
            ("search", "--levels", "2,2", "--strength", "1"),
            ("nope",),
            (),
            ("catalog", "list", "thm9/nope"),
        ],
        ids=[
            "invalid-int", "unknown-option", "missing-required", "unknown-command", "empty",
            "catalog-list-id",
        ],
    )
    def test_usage_error_exits_4(self, argv, capsys):
        code, _, err = run(capsys, *argv)
        assert code == 4 and "usage:" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


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

    def test_catalog_list_bytes_are_stable(self, capsys):
        # the benchmark picks its catalog builds from these buildable flags
        code, out, _ = run(capsys, "catalog", "list")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert code == 0
        assert digest == "5a37074b9b2c758da1265456d9f2632a93a055a384f0aa10039c3b4b8051e7ab"

    def test_catalog_seed_for_an_entry_without_builder_exits_4(self, tmp_path, capsys):
        # no seed can build an entry that has no builder; it used to exit 3
        path = tmp_path / "seed.moa"
        path.write_text(serialize_array(trivial_moa((2, 2))))
        code, _, err = run(
            capsys, "catalog", "build", "table1/6^7x3^1x2^1", "--seed", str(path)
        )
        assert code == 4 and "cannot build" in err
        code, _, err = run(capsys, "catalog", "build", "table1/6^7x3^1x2^1")
        assert code == 3 and "seed" in err

    def test_catalog_seed_failing_its_predicate_exits_4(self, tmp_path, capsys):
        path = tmp_path / "seed.moa"
        path.write_text(serialize_scheme(ds_linear(2, 2)))
        code, _, err = run(
            capsys, "catalog", "build", "table5/12^1x6^6", "--seed", str(path)
        )
        assert code == 4
        assert "'scheme-12x6-over-6'" in err
        assert "(rows, columns, order, strength) is (4, 4, 2, 2), declared (12, 6, 6, 2)" in err


class TestVerifyOnce:
    def test_verify_computes_the_distance_spectrum_once(self, fixture_file, capsys, split_passes):
        # strength, spectrum and irredundancy of a passing array from one split pass
        code, out, _ = run(
            capsys, "verify", str(fixture_file), "--strength", "2", "--irredundant", "2"
        )
        assert code == 0 and json.loads(out)["irredundant"] == {"k": 2, "holds": True}
        assert len(split_passes) == 1

    def test_no_second_pass_where_the_voucher_would_run(self, tmp_path, capsys, split_passes):
        # 1000 x 58 at k = 3: verify_strength alone would ask the voucher for a pass
        arr = three_uniform_dm2n(5, 4, 54)[0]
        path = tmp_path / "dm2n.moa"
        path.write_text(serialize_array(arr))
        split_passes.clear()
        code, out, _ = run(capsys, "verify", str(path), "--strength", "3")
        assert code == 0 and json.loads(out)["distance"]["min"] == 4
        assert len(split_passes) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_uniformity_reads_the_strength_scans_pass(self, k, tmp_path, capsys, split_passes):
        # relabelled, so no coset: the voucher compares the 1000 x 58 array's
        # row pairs, and the report's distances come from that pass
        arr = _relabelled(three_uniform_dm2n(5, 4, 54)[0], np.random.default_rng(k))
        path = tmp_path / "dm2n.moa"
        path.write_text(serialize_array(arr))
        split_passes.clear()
        code, out, _ = run(capsys, "uniformity", str(path), "--k", str(k))
        doc = json.loads(out)
        assert code == 0 and doc["uniformity"]["holds"] and doc["distance"]["min"] == 4
        assert len(split_passes) == 1
