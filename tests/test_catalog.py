"""Seed registry, family registry, fixtures, and build determinism."""

import dataclasses
import importlib.resources
import re

import pytest

import oakit.search
from oakit import catalog
from oakit.arrays import min_distance, verify_strength
from oakit.catalog import (
    catalog_build,
    catalog_list,
    fixture_states,
    seed_array,
    seed_entries,
    self_test,
)
from oakit.constructions import trivial_moa
from oakit.errors import MissingSeedError, ParameterError, VerificationError
from oakit.formats import dump_json, serialize_array
from oakit.quantum import verify_k_uniform

SEARCH_SEEDS = {e.name: e for e in seed_entries() if e.origin == "search"}
SEED_DIR = importlib.resources.files("oakit") / "seeds"


def _stored(name):
    return (SEED_DIR / f"{name}.moa").read_text(encoding="utf-8")


def _with_last_row(text, row):
    head, last = text.rstrip("\n").rsplit("\n", 1)
    assert last != row
    return f"{head}\n{row}\n"


@pytest.fixture()
def seed_dir(monkeypatch, tmp_path):
    """An empty stand-in for the packaged seed directory, with a cold cache."""
    (tmp_path / "seeds").mkdir()
    monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
    monkeypatch.setattr(catalog, "_SEED_CACHE", {})
    return tmp_path / "seeds"


class TestSeeds:
    def test_self_test_covers_generatable_seeds(self):
        checked = self_test()
        assert "moa-12-3x2^4" in checked and "scheme-18x5-over-3" in checked

    def test_import_required_seed_raises(self):
        with pytest.raises(MissingSeedError, match="scheme-12x6-over-6"):
            seed_array("scheme-12x6-over-6")

    def test_unknown_seed(self):
        with pytest.raises(ParameterError):
            seed_array("no-such-seed")

    def test_entries_have_descriptions(self):
        for entry in seed_entries():
            assert entry.description
            assert entry.origin in ("generator", "search", "import-required")


class TestStoredSeeds:
    def test_one_file_per_search_seed(self):
        stored = sorted(path.name for path in SEED_DIR.iterdir())
        assert stored == sorted(f"{name}.moa" for name in SEARCH_SEEDS)

    @pytest.mark.parametrize("name", sorted(SEARCH_SEEDS))
    def test_regenerated_file_is_byte_identical(self, name):
        # the only place the seed searches run
        text = SEARCH_SEEDS[name].regenerate()
        assert text.startswith(f"# seed {name}: ")
        assert "\n# generated by search_" in text
        assert text.encode("utf-8") == (SEED_DIR / f"{name}.moa").read_bytes()

    def test_catalog_builds_without_searching(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a seed search ran")

        for module in (oakit.search, catalog):
            monkeypatch.setattr(module, "search_moa", refuse)
            monkeypatch.setattr(module, "search_scheme", refuse)
        monkeypatch.setattr(catalog, "_SEED_CACHE", {})
        for entry in catalog_list():
            if entry.builder is not None:
                assert catalog_build(entry.id)[1].verified
        assert set(SEARCH_SEEDS) <= set(catalog._SEED_CACHE)

    @pytest.mark.parametrize(
        "name, last_row",
        [
            ("moa-12-3x2^4", "2 1 0 1 1"),  # strength 2 fails
            ("moa-12-3x2^4", "2 1 0 1 5"),  # symbol out of range
            ("moa-6-6x3x2", "5 2 0"),  # strength 1 fails
            ("scheme-18x5-over-3", "0 2 2 1 2"),  # the expansion is not strength 3
        ],
    )
    def test_tampered_file_raises(self, seed_dir, name, last_row):
        (seed_dir / f"{name}.moa").write_text(_with_last_row(_stored(name), last_row))
        with pytest.raises(VerificationError, match=re.escape(repr(name))):
            catalog._materialize(name)
        assert name not in catalog._SEED_CACHE

    def test_valid_array_of_the_wrong_shape_fails_the_predicate(self, seed_dir):
        (seed_dir / "moa-6-6x3x2.moa").write_text(_stored("moa-12-3x2^4"))
        with pytest.raises(VerificationError, match="'moa-6-6x3x2' fails its predicate"):
            seed_array("moa-6-6x3x2")

    def test_missing_file_raises(self, seed_dir):
        with pytest.raises(VerificationError, match="'moa-12-3x2\\^4'.* is missing"):
            catalog_build("table3/3^1x2^8")

    def test_generator_seed_is_checked(self, monkeypatch):
        name = "moa-36-3^2x2^2"
        broken = dataclasses.replace(catalog._SEEDS[name], build=lambda: trivial_moa((3, 2, 2)))
        monkeypatch.setitem(catalog._SEEDS, name, broken)
        monkeypatch.setattr(catalog, "_SEED_CACHE", {})
        with pytest.raises(VerificationError, match=re.escape(repr(name))):
            seed_array(name)


class TestRegistry:
    def test_every_buildable_entry_builds_and_verifies(self):
        for entry in catalog_list():
            if entry.builder is None:
                continue
            array, cert = catalog_build(entry.id)
            assert cert.verified
            assert array.profile() == entry.profile
            assert cert.measured_md >= entry.md_floor
            assert verify_strength(array, entry.strength).holds

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            catalog_build("thm9/nope")

    def test_import_required_entry(self):
        with pytest.raises(MissingSeedError):
            catalog_build("table5/12^1x6^6")
        with pytest.raises(MissingSeedError):
            catalog_build("table1/6^7x3^1x2^1")

    def test_build_is_deterministic_in_process(self):
        a1, c1 = catalog_build("table3/3^1x2^8")
        a2, c2 = catalog_build("table3/3^1x2^8")
        assert serialize_array(a1, 2) == serialize_array(a2, 2)
        assert dump_json(c1.to_json()) == dump_json(c2.to_json())

    def test_named_examples(self):
        arr, _ = catalog_build("table3/3^1x2^8")
        assert arr.runs == 24 and arr.profile() == "3^1 2^8"
        arr, _ = catalog_build("thm3/3^5x2^36")
        assert arr.runs == 216 and arr.profile() == "3^5 2^36"


class TestFixtures:
    def test_the_three_named_states(self):
        states = fixture_states()
        assert set(states) == {"3^1x2^9", "3^1x2^10", "4^5x2^2"}
        s9 = states["3^1x2^9"]
        assert s9.terms == 24 and len(s9.levels) == 10
        s10 = states["3^1x2^10"]
        assert s10.terms == 24 and len(s10.levels) == 11
        s45 = states["4^5x2^2"]
        assert s45.terms == 64 and len(s45.levels) == 7

    def test_fixture_uniformity_claims(self):
        states = fixture_states()
        assert verify_k_uniform(states["3^1x2^9"].to_array(), 2).holds
        assert verify_k_uniform(states["3^1x2^10"].to_array(), 2).holds
        assert verify_k_uniform(states["4^5x2^2"].to_array(), 3).holds

    def test_corrupted_fixture_fails(self):
        import numpy as np

        from oakit.arrays import MixedArray

        arr = fixture_states()["3^1x2^9"].to_array()
        cells = arr.cells.copy()
        cells[5] = cells[4]
        assert not verify_k_uniform(MixedArray(arr.levels, cells), 2).holds

    def test_fixture_minimum_distances(self):
        states = fixture_states()
        assert min_distance(states["3^1x2^9"].to_array()) >= 3
        assert min_distance(states["4^5x2^2"].to_array()) >= 4
