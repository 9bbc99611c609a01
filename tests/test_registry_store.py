"""Experiment registry and versioned campaign store.

Covers the registry's descriptor contract (every family decodes what it
encodes, field for field, for measured cells and for generated instances of
every cell type), the store's resumability guarantee (an
interrupted ``jobs=N`` campaign resumed with ``--resume`` is byte-identical
on disk and field-for-field equal in memory to an uninterrupted run), and
the zero-resimulation guarantee of ``repro report --from``.
"""

import dataclasses
import json
import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import registry
from repro.core.store import (
    SCHEMA_VERSION,
    CampaignStore,
    IncompatibleStoreError,
    StoreError,
    campaign_fingerprint,
    ensure_distinct_dirnames,
    subject_dirname,
)
from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles
from repro.devices.profile import NatPolicy, UdpTimeoutPolicy
from repro.netsim.impair import Impairment
from repro.netsim.sim import Simulation
from tests.conftest import make_profile

FAMILIES = ["udp1", "udp5", "tcp1", "tcp2", "tcp4", "icmp", "transports", "dns"]


def _make_profiles():
    return [
        make_profile("quick", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 90.0),
                     nat=NatPolicy(max_tcp_bindings=20)),
        make_profile("slow", udp_timeouts=UdpTimeoutPolicy(120.0, 150.0, 180.0),
                     nat=NatPolicy(max_tcp_bindings=50)),
    ]


def _make_runner(jobs=1, **kwargs):
    return SurveyRunner(
        _make_profiles(), udp_repetitions=1, udp5_repetitions=1,
        tcp1_cutoff=300.0, transfer_bytes=256 * 1024, jobs=jobs, **kwargs,
    )


def _tree(root):
    """Relative paths and bytes of every file under a store directory."""
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestRegistry:
    def test_every_paper_family_registered(self):
        assert registry.runnable_names() == (
            "udp1", "udp2", "udp3", "udp5", "tcp1", "tcp2", "tcp4",
            "icmp", "transports", "dns", "options", "binding_rate", "pmtu",
            "stun_classify", "cgn_timeouts", "cgn_exhaustion",
            "metro_load", "workload_mix", "fwcost_scaling",
            "attack_portflood", "attack_keepalive", "attack_rst",
            "traversal_matrix",
        )
        assert "udp4" in registry.family_names()

    def test_default_selection_is_the_paper_menu(self):
        # The CGN families are opt-in (``--cgn``): running a survey without
        # an explicit selection must reproduce exactly the paper's tests.
        assert registry.default_names() == (
            "udp1", "udp2", "udp3", "udp5", "tcp1", "tcp2", "tcp4",
            "icmp", "transports", "dns",
        )

    def test_derived_family_links_to_parent(self):
        udp4 = registry.family("udp4")
        assert not udp4.runnable
        assert udp4.derived_from == "udp1"
        assert registry.derived_families("udp1") == [udp4]

    def test_unknown_family_error_lists_registry(self):
        with pytest.raises(KeyError, match="registered families.*udp1.*dns"):
            registry.family("udp9")

    def test_runner_validate_lists_registry(self):
        with pytest.raises(ValueError, match=r"\['udp9'\].*registered families are: udp1"):
            _make_runner().run(tests=["udp1", "udp9"])

    def test_report_sections_ordered(self):
        sections = registry.report_sections()
        orders = [(section.order, section.key) for section in sections]
        assert orders == sorted(orders)
        keys = {section.key for section in sections}
        assert "udp_timeouts" in keys and "table2" in keys

    @pytest.mark.parametrize("module", registry.FAMILY_MODULES + ("repro.cli",))
    def test_module_imports_first_in_a_fresh_interpreter(self, module):
        src = pathlib.Path(registry.__file__).resolve().parents[2]
        code = f"import {module}\nfrom repro.core import registry\nassert 'udp1' in registry.family_names()"
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


#: Campaign fingerprints pinned when the knobs moved into the registry:
#: declaring them there must not change a single stored cell's stamp.
#: The workload rows are the benchmark's campaigns at seed 42.
PINNED_FINGERPRINTS = {
    "default": ({}, None, "f91fbd1122cc89fc"),
    "paper_survey": ({"transfer_bytes": 256 * 1024}, None, "53b45a7b0952378f"),
    "chaos_staged": (
        {"transfer_bytes": 256 * 1024, "impairment": "reorder=5ms,dup=0.001"},
        ("ap", "be2", "dl10", "dl4", "dl7", "ed", "ls2", "ng1", "ng4", "owrt", "to"),
        "f3617f7e99bab3e6",
    ),
    "nat444_load": ({}, ("al", "be2", "dl2", "dl6", "ed", "ls3", "ng3", "owrt", "we"), "f3cdfdca1f00db25"),
    "pair_matrix": (
        {"matrix_cgn": True},
        ("al", "as1", "be2", "dl1", "dl2", "dl4", "dl6", "dl8", "ed",
         "ls1", "ls3", "ng1", "ng3", "ng5", "owrt", "te", "we"),
        "3f60b1cdedd71f1c",
    ),
}


class TestKnobs:
    def test_union_is_the_campaign_knobs(self):
        union = registry.knobs()
        assert set(union) == {
            "udp_repetitions", "udp5_repetitions", "tcp1_cutoff", "transfer_bytes",
            "cgn_subscribers", "cgn_block_size", "attack_rate", "attack_duration",
            "metro_requests", "metro_idle", "metro_flap", "matrix_pairs", "matrix_cgn",
            "workload_mix", "workload_ramp", "fw_rules",
        }
        assert {name for name, knob in union.items() if knob.selects} == {"matrix_pairs", "matrix_cgn"}
        # The NAT444 tier declares its population once for every family that reads it.
        owners = {registry.family(name).knobs for name in (
            "cgn_timeouts", "attack_portflood", "metro_load", "traversal_matrix", "workload_mix",
        )}
        assert all(issubclass(owner, union["cgn_subscribers"].owner) for owner in owners)

    def test_union_refuses_a_knob_two_classes_declare(self):
        @dataclasses.dataclass(frozen=True)
        class First:
            shared: int = 1

        @dataclasses.dataclass(frozen=True)
        class Second:
            shared: int = 1

        descriptors = [
            registry.ExperimentFamily(name=name, order=0, cell_type=int, knobs=knobs)
            for name, knobs in (("first", First), ("second", Second))
        ]
        with pytest.raises(TypeError, match="'shared' is declared by both"):
            registry.knobs(tuple(descriptors))

    def test_unknown_knob_names_the_known_ones(self):
        with pytest.raises(TypeError, match=r"\['udp_repetiton'\]; known knobs: .*udp_repetitions"):
            SurveyRunner(udp_repetiton=1)

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprints_pinned(self, name):
        extra, tags, fingerprint = PINNED_FINGERPRINTS[name]
        seed, kwargs = 0, {}
        if name != "default":
            seed = 42
            kwargs = dict(udp_repetitions=1, udp5_repetitions=1, tcp1_cutoff=600.0, **extra)
            if "impairment" in kwargs:
                kwargs["impairment"] = Impairment.parse(kwargs["impairment"])
        runner = SurveyRunner(catalog_profiles(tags), seed=seed, **kwargs)
        assert runner.fingerprint() == fingerprint

    def test_int_and_float_cutoff_are_one_campaign(self, tmp_path):
        assert SurveyRunner(tcp1_cutoff=600).fingerprint() == "3de3526a8495c7ec"
        assert SurveyRunner(tcp1_cutoff=600.0).fingerprint() == "3de3526a8495c7ec"
        for cutoff in (600, 600.0):
            runner = SurveyRunner(_make_profiles()[:1], tcp1_cutoff=cutoff, store_dir=str(tmp_path / repr(cutoff)))
            assert type(runner.knobs["tcp1_cutoff"]) is float
            runner.run(["tcp1"])
        assert _tree(tmp_path / "600") == _tree(tmp_path / "600.0")


class TestCellCodecs:
    """Every registered family must decode what it encodes, field for field."""

    @pytest.fixture(scope="class")
    def results(self):
        return _make_runner().run()  # every registered family

    @pytest.mark.parametrize("name", [
        "udp1", "udp2", "udp3", "udp4", "udp5", "tcp1", "tcp2", "tcp4",
        "icmp", "transports", "dns",
    ])
    def test_round_trip_exact(self, results, name):
        fam = registry.family(name)
        cells = results.family(name)
        assert cells, f"no cells for {name}"
        for tag, cell in cells.items():
            payload = fam.encode(cell)
            # through real JSON, like the store does
            restored = fam.decode(json.loads(json.dumps(payload)))
            assert restored == cell, f"{name}/{tag} lost fidelity"
            assert type(restored) is type(cell)

    def test_udp1_tuples_restored(self, results):
        fam = registry.family("udp1")
        for cell in results.family("udp1").values():
            restored = fam.decode(json.loads(json.dumps(fam.encode(cell))))
            for pair in restored.observed_ports:
                assert isinstance(pair, tuple)


def _without_nan(value):
    """``value`` with every NaN float replaced by 0.0 (NaN never equals itself)."""
    if isinstance(value, float):
        return 0.0 if math.isnan(value) else value
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return dataclasses.replace(value, **{f.name: _without_nan(getattr(value, f.name)) for f in fields})
    if isinstance(value, (list, tuple)):
        return type(value)(_without_nan(item) for item in value)
    if isinstance(value, dict):
        return {key: _without_nan(item) for key, item in value.items()}
    return value


def _assert_field_keys(value, payload):
    """Every encoded dataclass carries exactly its field names, recursively."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
        assert sorted(payload) == sorted(names), type(value).__name__
        for name in names:
            _assert_field_keys(getattr(value, name), payload[name])
    elif isinstance(value, (list, tuple)):
        assert len(payload) == len(value)
        for item, encoded in zip(value, payload):
            _assert_field_keys(item, encoded)
    elif isinstance(value, dict):
        assert list(payload) == list(value)
        for key, item in value.items():
            _assert_field_keys(item, payload[key])


class TestCellCodecProperties:
    """Generated instances of every registered cell type survive the store codec.

    Reaches the opt-in families no cheap campaign runs, and fails when a
    result field is added without reaching the stored payload.
    """

    @pytest.mark.parametrize("name", registry.family_names())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_through_json(self, name, data):
        fam = registry.family(name)
        cell = data.draw(st.from_type(fam.cell_type).map(_without_nan))
        payload = fam.encode(cell)
        _assert_field_keys(cell, payload)
        restored = fam.decode(json.loads(json.dumps(payload)))
        assert restored == cell
        # repr tells tuple from list, int from float and bool from int.
        assert repr(restored) == repr(cell)


class TestFingerprint:
    def test_stable_for_equal_config(self):
        knobs = {"udp_repetitions": 1, "tcp1_cutoff": 300.0}
        a = campaign_fingerprint(_make_profiles(), 7, knobs)
        b = campaign_fingerprint(_make_profiles(), 7, dict(knobs))
        assert a == b

    def test_sensitive_to_seed_profiles_and_knobs(self):
        knobs = {"udp_repetitions": 1}
        base = campaign_fingerprint(_make_profiles(), 7, knobs)
        assert campaign_fingerprint(_make_profiles(), 8, knobs) != base
        assert campaign_fingerprint(_make_profiles()[:1], 7, knobs) != base
        assert campaign_fingerprint(_make_profiles(), 7, {"udp_repetitions": 2}) != base


class TestStoreBasics:
    def test_open_missing_store_fails(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign store"):
            CampaignStore.open(tmp_path / "nope")

    def test_config_hash_mismatch_refused(self, tmp_path):
        CampaignStore.create_or_open(tmp_path, "aaaa", meta={"devices": []})
        with pytest.raises(IncompatibleStoreError, match="different campaign"):
            CampaignStore.create_or_open(tmp_path, "bbbb")

    def test_schema_version_enforced(self, tmp_path):
        store = CampaignStore.create_or_open(tmp_path, "aaaa")
        manifest = tmp_path / CampaignStore.MANIFEST
        data = json.loads(manifest.read_text())
        data["schema_version"] = SCHEMA_VERSION + 1
        manifest.write_text(json.dumps(data))
        with pytest.raises(IncompatibleStoreError, match="schema_version"):
            CampaignStore.open(tmp_path)
        del store

    def test_older_schema_version_refused(self, tmp_path):
        # A store of an older generation — a minimal manifest of the v3/v4
        # device-keyed engines, or of the v2 one before them — is refused for
        # reading and for writing, naming its schema and the fix; an
        # individually stale cell is caught even under a current manifest.
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for version in (2, 3, 4):
            (legacy / CampaignStore.MANIFEST).write_text(json.dumps(
                {"schema_version": version, "config_hash": "aaaa", "devices": ["al"], "families": ["udp1"]}
            ))
            for open_store in (CampaignStore.open, lambda root: CampaignStore.create_or_open(root, "aaaa")):
                with pytest.raises(IncompatibleStoreError,
                                   match=rf"schema_version={version}, this build reads {SCHEMA_VERSION}; regenerate"):
                    open_store(legacy)
        store = CampaignStore.create_or_open(tmp_path / "current", "aaaa")
        store.save_cell("dev", "udp1", {"x": 1})
        cell_path = store.cell_path("dev", "udp1")
        blob = json.loads(cell_path.read_text())
        blob["schema_version"] = SCHEMA_VERSION - 1
        cell_path.write_text(json.dumps(blob))
        with pytest.raises(IncompatibleStoreError,
                           match=f"schema_version={SCHEMA_VERSION - 1}, expected {SCHEMA_VERSION}"):
            store.load_cell("dev", "udp1")

    def test_cells_stamped_and_validated(self, tmp_path):
        store = CampaignStore.create_or_open(tmp_path, "aaaa")
        store.save_cell("dev", "udp1", {"x": 1})
        blob = json.loads(store.cell_path("dev", "udp1").read_text())
        assert blob["schema_version"] == SCHEMA_VERSION
        assert blob["config_hash"] == "aaaa"
        assert store.load_cell("dev", "udp1") == {"x": 1}
        other = CampaignStore(tmp_path, "bbbb")
        with pytest.raises(IncompatibleStoreError, match="belongs to campaign"):
            other.load_cell("dev", "udp1")

    def test_subject_mismatch_refused(self, tmp_path):
        # A cell whose stored identity disagrees with the directory it sits
        # in (corruption, or a sanitized-tag collision that slipped through)
        # must refuse instead of resuming with the wrong device's data.
        store = CampaignStore.create_or_open(tmp_path, "aaaa")
        store.save_cell("dev", "udp1", {"x": 1})
        cell_path = store.cell_path("dev", "udp1")
        blob = json.loads(cell_path.read_text())
        blob["subject"] = "other"
        cell_path.write_text(json.dumps(blob))
        with pytest.raises(IncompatibleStoreError, match="belongs to subject 'other'"):
            store.load_cell("dev", "udp1")


class TestSubjectDirnames:
    """Filesystem-safe subject directories and the collision guard."""

    def test_catalog_style_tags_pass_through(self):
        # Device and pair tags must map to themselves: that identity is what
        # keeps v5 device cells at the exact paths the v4 engine used.
        for tag in ("al", "dl5", "be1", "al+be1", "al+be1.cgn-ab", "x_y-z.9"):
            assert subject_dirname(tag) == tag

    def test_hostile_tags_are_escaped(self):
        assert subject_dirname("a b") == "a_b"
        assert subject_dirname("a/b") == "a_b"
        assert subject_dirname("..") == "_.."
        with pytest.raises(StoreError, match="non-empty"):
            subject_dirname("")

    def test_distinct_tags_ok(self):
        ensure_distinct_dirnames(["al", "be1", "al+be1", "al+be1.cgn-a"])

    def test_colliding_tags_raise(self):
        # The sanitizer is lossy, so two tags may alias one directory; the
        # campaign engine must refuse before any cell gets overwritten.
        with pytest.raises(StoreError, match="both sanitize"):
            ensure_distinct_dirnames(["a b", "a_b"])
        with pytest.raises(StoreError, match="both sanitize"):
            ensure_distinct_dirnames(["x/y", "x y"])


class TestResumableCampaign:
    """The tentpole guarantee: interrupt + resume ≡ uninterrupted run."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("campaign") / "clean"
        runner = _make_runner(jobs=1, store_dir=str(out))
        return runner.run(tests=FAMILIES), out

    def test_store_results_equal_in_memory_results(self, clean):
        results, _out = clean
        assert results == _make_runner().run(tests=FAMILIES)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupted_then_resumed_is_identical(self, clean, tmp_path, jobs):
        clean_results, clean_out = clean
        out = tmp_path / "resumed"
        # "Interrupt" the campaign: a first invocation that only got through
        # a subset of the families before dying.
        _make_runner(jobs=jobs, store_dir=str(out)).run(tests=FAMILIES[:3])
        # Simulate a cell lost mid-write on one device too.
        (out / CampaignStore.CELL_DIR / "slow" / "tcp1.json").unlink(missing_ok=True)
        # Overwrite the manifest with the full family list the real campaign
        # would have written before its shards started.
        manifest_path = clean_out / CampaignStore.MANIFEST
        (out / CampaignStore.MANIFEST).write_bytes(manifest_path.read_bytes())

        resumer = _make_runner(jobs=jobs, store_dir=str(out), resume=True)
        resumed = resumer.run(tests=FAMILIES)
        assert resumer.last_skipped_cells > 0
        assert resumed == clean_results
        assert _tree(out) == _tree(clean_out)

    def test_resume_skips_every_completed_cell(self, clean):
        clean_results, clean_out = clean
        runner = _make_runner(jobs=1, store_dir=str(clean_out), resume=True)
        rerun = runner.run(tests=FAMILIES)
        assert runner.last_skipped_cells == len(FAMILIES) * 2
        assert rerun == clean_results

    def test_jobs_n_store_matches_jobs_1(self, clean, tmp_path):
        _clean_results, clean_out = clean
        out = tmp_path / "par"
        _make_runner(jobs=4, store_dir=str(out)).run(tests=FAMILIES)
        assert _tree(out) == _tree(clean_out)

    def test_mismatched_config_refused_with_or_without_resume(self, clean, tmp_path):
        _results, clean_out = clean
        for resume in (False, True):
            runner = _make_runner(jobs=1, store_dir=str(clean_out), resume=resume)
            runner.seed = 99  # different campaign now
            with pytest.raises(IncompatibleStoreError):
                runner.run(tests=FAMILIES)

    def test_worker_persists_cells_as_families_complete(self, tmp_path, monkeypatch):
        # A shard that dies mid-run keeps the families it finished: udp1
        # completes, then tcp4 raises; udp1's cells (and derived udp4's) are
        # on disk, written by the shard as the family completed.
        def dying(knobs):
            def run_all(bed):
                raise RuntimeError("probe died")
            return run_all

        tcp4 = dataclasses.replace(registry.family("tcp4"), probe_factory=dying)
        monkeypatch.setitem(registry._FAMILIES, "tcp4", tcp4)
        out = tmp_path / "partial"
        results = SurveyRunner(
            _make_profiles()[:1], udp_repetitions=1, udp5_repetitions=1,
            tcp1_cutoff=300.0, transfer_bytes=256 * 1024, store_dir=str(out),
        ).run(["udp1", "tcp4"])
        store = CampaignStore.open(str(out))
        assert store.completed_families("quick") == {"udp1", "udp4"}
        assert [(e.tag, e.family, e.error) for e in results.errors] == [("quick", "tcp4", "RuntimeError")]
        # run() keeps the finished cells too, exactly as the store decodes them.
        loaded = store.load_results()
        assert loaded.families == results.families and set(results.families) == {"udp1", "udp4"}
        assert [(e.tag, e.family, e.error) for e in loaded.errors] == [("quick", "tcp4", "MissingCell")]


class TestReportFromStore:
    def test_report_renders_with_zero_simulation(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "campaign"
        _make_runner(jobs=1, store_dir=str(out)).run(tests=FAMILIES)
        before = Simulation.constructed_total
        store = CampaignStore.open(str(out))
        results = store.load_results()
        from repro.analysis import render_report

        report = render_report(results)
        assert Simulation.constructed_total == before, "report --from must not simulate"
        assert "## UDP binding timeouts (Figures 2-5)" in report
        assert "## Other tests (Table 2)" in report
        # and through the CLI entry point, still zero construction
        rc = main(["report", "--from", str(out), "--output", str(tmp_path / "r.md")])
        assert rc == 0
        assert Simulation.constructed_total == before
        assert "## TCP-4: binding capacity (Figure 10)" in (tmp_path / "r.md").read_text()

    def test_report_from_missing_store_is_a_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no campaign store"):
            main(["report", "--from", str(tmp_path / "missing")])

    @pytest.mark.parametrize("family, fields, corrupt, error", [
        ("attack_rst", {"tag": "al", "subscribers": 4, "filtering": "EIF"},
         lambda p: p.pop("onset"), "KeyError: 'onset'"),
        ("udp1", {"tag": "al", "variant": "udp1", "observed_ports": [(0, 20001)]},
         lambda p: p["observed_ports"][0].append(7), "ValueError"),
        ("icmp", {"tag": "al"}, lambda p: p.update(udp=[]), "AttributeError"),
    ])
    def test_corrupt_cell_is_a_clean_error(self, tmp_path, family, fields, corrupt, error):
        # Both `report --from` and the final decode of `survey --resume`
        # load through load_results: a cell that no longer matches its
        # result type must name the file instead of raising a traceback.
        from repro.cli import main

        fam = registry.family(family)
        payload = fam.encode(fam.cell_type(**fields))
        corrupt(payload)
        store = CampaignStore.create_or_open(tmp_path, "aaaa", meta={"subjects": ["al"]})
        store.save_cell("al", family, payload)
        with pytest.raises(StoreError, match=rf"undecodable cell .*{family}\.json: {error}"):
            store.load_results()
        with pytest.raises(SystemExit, match="undecodable cell"):
            main(["report", "--from", str(tmp_path)])


class TestCliFamilies:
    def test_comma_joined_families_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "store"
        rc = main([
            "survey", "--tags", "al", "--families", "udp1,tcp4",
            "--repetitions", "1", "--out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "udp1: 1 device(s)" in printed
        store = CampaignStore.open(str(out))
        assert store.completed_families("al") == {"udp1", "udp4", "tcp4"}

    def test_bad_family_lists_registry(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="registered families are: udp1"):
            main(["survey", "--tags", "al", "--families", "udp1,bogus"])
