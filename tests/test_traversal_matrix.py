"""The ``traversal_matrix`` registry family: pair subjects end to end.

Covers the subject enumeration contract (row-major ordered pairs, explicit
``matrix_pairs`` slices, CGN-sided variants), the single-pair probe outcomes
(cone pairs punch direct, symmetric pairs fall back to the relay), the cell
codec, and the campaign-engine guarantees the refactor exists for: a pair
campaign under ``jobs=N`` is byte-identical to ``jobs=1``, and a killed
campaign resumed with ``--resume`` converges to the same bytes.
"""

import json
import pathlib

import pytest

from repro.core import registry
from repro.core.store import CampaignStore
from repro.core.survey import SurveyRunner
from repro.devices.catalog import catalog_profiles
from repro.traversal.matrix import (
    MatrixKnobs,
    TraversalCell,
    matrix_subjects,
    pair_subject,
)

PAIR_SLICE = "al+be1,be1+al,al+ng1,ng1+smc"


def _profiles(tags=("al", "be1", "ng1", "smc")):
    return catalog_profiles(list(tags))


def _runner(pairs=PAIR_SLICE, jobs=1, **kwargs):
    return SurveyRunner(_profiles(), matrix_pairs=pairs, jobs=jobs, **kwargs)


def _tree(root):
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestSubjectEnumeration:
    def test_default_is_every_ordered_pair(self):
        profiles = _profiles(("al", "be1", "ng1"))
        subjects = matrix_subjects(profiles, MatrixKnobs())
        assert [subject.tag for subject in subjects] == [
            "al+be1", "al+ng1", "be1+al", "be1+ng1", "ng1+al", "ng1+be1",
        ]
        assert all(subject.kind == "pair" for subject in subjects)

    def test_full_catalog_is_about_1200_pairs(self):
        profiles = catalog_profiles()
        subjects = matrix_subjects(profiles, MatrixKnobs())
        n = len(profiles)
        assert len(subjects) == n * (n - 1) == 1122

    def test_explicit_pairs_slice(self):
        subjects = matrix_subjects(_profiles(), MatrixKnobs(matrix_pairs="al+be1, ng1+smc"))
        assert [subject.tag for subject in subjects] == ["al+be1", "ng1+smc"]
        # Explicit self-pairs are allowed (excluded only from the default).
        subjects = matrix_subjects(_profiles(), MatrixKnobs(matrix_pairs="al+al"))
        assert [subject.tag for subject in subjects] == ["al+al"]

    def test_bad_pair_tokens_raise(self):
        with pytest.raises(ValueError, match="expected '<tag>\\+<tag>'"):
            matrix_subjects(_profiles(), MatrixKnobs(matrix_pairs="albe1"))
        with pytest.raises(ValueError, match="unknown device"):
            matrix_subjects(_profiles(), MatrixKnobs(matrix_pairs="al+zz9"))

    def test_cgn_variants_quadruple_each_pair(self):
        subjects = matrix_subjects(
            _profiles(), MatrixKnobs(matrix_pairs="al+be1", matrix_cgn=True)
        )
        assert [subject.tag for subject in subjects] == [
            "al+be1", "al+be1.cgn-a", "al+be1.cgn-b", "al+be1.cgn-ab",
        ]
        assert [
            (subject.param("cgn_a"), subject.param("cgn_b")) for subject in subjects
        ] == [(False, False), (True, False), (False, True), (True, True)]

    def test_registry_family_enumerates_subjects(self):
        fam = registry.family("traversal_matrix")
        assert fam.subject_kind == "pair"
        assert not fam.default_selected
        subjects = fam.subjects_of(_profiles(), MatrixKnobs(matrix_pairs=PAIR_SLICE))
        assert len(subjects) == 4


class TestCellCodec:
    def test_round_trip_exact(self):
        cell = TraversalCell(
            pair="ng1+smc", tag_a="ng1", tag_b="smc", cgn_a=False, cgn_b=True,
            nat_a="symmetric", nat_b="symmetric", punched=False, relayed=True,
            connected=True, path="relayed", keepalive_interval=240.0,
            keepalive_censored=False,
        )
        fam = registry.family("traversal_matrix")
        restored = fam.decode(json.loads(json.dumps(fam.encode(cell))))
        assert restored == cell
        assert type(restored) is TraversalCell
        assert restored.keepalives_per_hour == pytest.approx(15.0)

    def test_censored_cell_has_no_keepalive_rate(self):
        cell = TraversalCell(
            pair="al+be1", tag_a="al", tag_b="be1", cgn_a=False, cgn_b=False,
            punched=True, connected=True, path="direct",
            keepalive_interval=None, keepalive_censored=True,
        )
        fam = registry.family("traversal_matrix")
        restored = fam.decode(json.loads(json.dumps(fam.encode(cell))))
        assert restored == cell
        assert restored.keepalives_per_hour is None


class TestMatrixCampaign:
    """Outcomes plus the determinism triangle: jobs=1 ≡ jobs=N ≡ resume."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("matrix") / "clean"
        runner = _runner(jobs=1, store_dir=str(out))
        return runner.run(tests=["traversal_matrix"]), out

    def test_pair_outcomes_match_nat_theory(self, clean):
        results, _out = clean
        cells = results.family("traversal_matrix")
        assert set(cells) == {"al+be1", "be1+al", "al+ng1", "ng1+smc"}
        # Two cone devices punch a direct path, both directions.
        for tag in ("al+be1", "be1+al"):
            assert cells[tag].punched and cells[tag].path == "direct"
        # A symmetric side defeats the punch; the relay carries the session.
        for tag in ("al+ng1", "ng1+smc"):
            cell = cells[tag]
            assert not cell.punched and cell.relayed and cell.path == "relayed"
        for cell in cells.values():
            assert cell.connected
            assert cell.keepalive_interval is not None

    def test_store_cells_keyed_by_pair_tag(self, clean):
        _results, out = clean
        store = CampaignStore.open(out)
        # Only pair subjects have cells (no device family was selected);
        # order follows the campaign manifest, not directory sort.
        assert store.subjects() == ["al+be1", "be1+al", "al+ng1", "ng1+smc"]
        blob = json.loads(store.cell_path("al+be1", "traversal_matrix").read_text())
        assert blob["subject"] == "al+be1"

    def test_jobs_n_matches_jobs_1(self, clean, tmp_path):
        _results, clean_out = clean
        out = tmp_path / "jobs4"
        _runner(jobs=4, store_dir=str(out)).run(tests=["traversal_matrix"])
        assert _tree(out) == _tree(clean_out)

    def test_killed_then_resumed_matches_clean(self, clean, tmp_path):
        clean_results, clean_out = clean
        out = tmp_path / "resumed"
        # "Kill" a jobs=4 campaign mid-flight: keep only some pair cells.
        _runner(jobs=4, store_dir=str(out)).run(tests=["traversal_matrix"])
        (out / CampaignStore.CELL_DIR / "be1+al" / "traversal_matrix.json").unlink()
        (out / CampaignStore.CELL_DIR / "ng1+smc" / "traversal_matrix.json").unlink()

        resumer = _runner(jobs=4, store_dir=str(out), resume=True)
        resumed = resumer.run(tests=["traversal_matrix"])
        assert resumer.last_skipped_cells > 0
        assert resumed == clean_results
        assert _tree(out) == _tree(clean_out)

    def test_in_memory_matches_store_load(self, clean):
        results, out = clean
        loaded = CampaignStore.open(out).load_results(families=["traversal_matrix"])
        assert loaded.family("traversal_matrix") == results.family("traversal_matrix")


class TestCgnVariant:
    def test_cgn_sided_pair_still_connects(self):
        runner = SurveyRunner(
            _profiles(("al", "be1")), matrix_pairs="al+be1", matrix_cgn=True,
        )
        results = runner.run(tests=["traversal_matrix"])
        cells = results.family("traversal_matrix")
        assert set(cells) == {"al+be1", "al+be1.cgn-a", "al+be1.cgn-b", "al+be1.cgn-ab"}
        for cell in cells.values():
            assert cell.connected

    def test_pair_subject_tags(self):
        al, be1 = _profiles(("al", "be1"))
        assert pair_subject(al, be1).tag == "al+be1"
        assert pair_subject(al, be1, cgn_a=True).tag == "al+be1.cgn-a"
        assert pair_subject(al, be1, cgn_b=True).tag == "al+be1.cgn-b"
        assert pair_subject(al, be1, cgn_a=True, cgn_b=True).tag == "al+be1.cgn-ab"


class TestTracedMatrix:
    """A traced, pcap'd matrix keeps every pair's files, the same under any ``jobs``."""

    TAGS = ("al", "be1", "ng1")

    @staticmethod
    def _files(root):
        root = pathlib.Path(root)
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        trees = {}
        for jobs in (1, 2):
            root = tmp_path_factory.mktemp(f"traced-jobs{jobs}")
            runner = SurveyRunner(
                _profiles(self.TAGS), jobs=jobs,
                trace_dir=str(root / "trace"), pcap_dir=str(root / "pcap"),
            )
            results = runner.run(tests=["traversal_matrix"])
            assert results.complete, results.errors
            trees[jobs] = (self._files(root / "trace"), self._files(root / "pcap"))
        return trees

    def test_one_set_of_files_per_pair(self, recorded):
        traces, pcaps = recorded[1]
        pairs = sorted(subject.tag for subject in matrix_subjects(_profiles(self.TAGS), MatrixKnobs()))
        for tree in (traces, pcaps):
            assert sorted({name.split("/", 1)[0] for name in tree}) == pairs
            assert all("/" in name for name in tree)
        for pair in pairs:
            tag_a, tag_b = pair.split("+")
            for name in ("a", "b", tag_a, tag_b):
                assert traces[f"{pair}/{name}.jsonl"]
            for side in "ab":
                for role in ("srv", "wan", "lan", "cli"):
                    assert pcaps[f"{pair}/{side}.traversal_matrix.{role}.pcap"]

    def test_jobs_2_writes_the_same_bytes(self, recorded):
        assert recorded[2] == recorded[1]

    def test_repro_trace_reads_every_pair(self, recorded, tmp_path):
        from repro.obs import summarize_paths

        traces, _pcaps = recorded[1]
        for name, data in traces.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes(data)
        devices = [summary["device"] for summary in summarize_paths([tmp_path])]
        assert sorted(devices) == sorted(name[: -len(".jsonl")] for name in traces)
        assert "al+be1/a" in devices
