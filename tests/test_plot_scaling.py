"""``tools/plot_scaling.py`` draws the workload curves from a campaign store."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import main

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "plot_scaling.py"


@pytest.fixture(scope="module")
def plot_scaling():
    spec = importlib.util.spec_from_file_location("plot_scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("workload")
    argv = ["survey", "--workload", "--tags", "al", "--load-ramp", "1,2", "--rules", "0,256", "--out", str(store)]
    assert main(argv) == 0
    return store


def test_draws_both_sections(plot_scaling, workload_store, capsys):
    assert plot_scaling.main([str(workload_store)]) == 0
    out = capsys.readouterr().out
    assert "== workload_mix: goodput vs. active subscribers ==" in out
    assert "== fwcost_scaling: throughput vs. rule count / conntrack size ==" in out


def test_json_emits_both_curve_sets(plot_scaling, workload_store, capsys):
    assert plot_scaling.main([str(workload_store), "--json"]) == 0
    curves = json.loads(capsys.readouterr().out)
    assert sorted(curves) == ["fwcost_scaling", "workload_mix"]
    assert [point["subscribers"] for point in curves["workload_mix"]["al"]["points"]] == [1, 2]


def test_a_store_without_workload_cells_exits_with_a_hint(plot_scaling, tmp_path):
    assert main(["survey", "--families", "udp1", "--tags", "je", "--repetitions", "1", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit, match="store holds no workload_mix/fwcost_scaling cells"):
        plot_scaling.main([str(tmp_path)])
