"""What a process loads: the package namespace resolves its public names
on first use, and each CLI command imports only the modules it runs."""

import importlib
import os
import subprocess
import sys

import pytest

from conftest import readme_example
import spinsqueeze

PUBLIC = [
    "AngularMomentumError", "ChannelFrame", "ChannelSqueezing", "ChannelState",
    "CorrelationMismatch", "Correlations", "EulerAngles", "FrameResult",
    "HalfInt", "HermiticityError", "LakinFrameUndefined", "NoAlignment",
    "OrientationReport", "PositivityReport", "ScanConfig", "ScanResult",
    "SchemaError", "Spin1Bound", "SpinDensity", "SqueezingReport",
    "TensorParams", "ThresholdScanConfig", "ThresholdScanResult",
    "UnphysicalStateError", "analyze", "angular", "build_tau", "channel",
    "channel_geometry", "channel_squeezing", "check_positivity",
    "classify_orientation", "clebsch_gordan", "clebsch_gordan_exact",
    "correlations", "correlations_oracle", "couple_spin1", "couple_spin1_9j",
    "density", "errors", "evaluate_points", "exact_thresholds", "frames",
    "from_tensors", "halfint", "lf_criterion", "lf_variances", "little_d",
    "load_state_file", "max_margin", "oriented_margin", "paaf",
    "polarization", "project_oracle", "purity_residual", "racah_w",
    "rotate_tensors", "rotation_matrix", "run_scan", "scan",
    "special_lakin_frame", "spin_matrices", "spin_scale_rank1",
    "spin_scale_rank2", "squeezing", "state_from_dict", "state_to_dict",
    "stream_scan", "tensor_ops", "tensor_params_from_dict", "threshold_scan",
    "to_tensors", "variance", "verify_correlations", "wigner_6j",
    "wigner_6j_exact", "wigner_9j", "wigner_d", "wigner_d_matrix",
    "write_csv", "write_json",
]

SUBMODULES = ["angular", "channel", "density", "errors", "frames", "halfint",
              "scan", "squeezing", "tensor_ops"]


def _defining_object(name):
    """The object ``name`` names where it is defined: the submodule itself,
    or the attribute of the module its ``__module__`` gives."""
    if name in SUBMODULES:
        return importlib.import_module(f"spinsqueeze.{name}")
    obj = getattr(spinsqueeze, name)
    assert obj.__module__.startswith("spinsqueeze."), name
    return getattr(importlib.import_module(obj.__module__), name)


def test_public_names_are_unchanged():
    assert spinsqueeze.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_its_defining_modules_object(name):
    assert getattr(spinsqueeze, name) is _defining_object(name)


def test_dir_lists_every_public_name():
    listed = dir(spinsqueeze)
    assert set(PUBLIC) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinsqueeze.no_such_name
    with pytest.raises(ImportError):
        from spinsqueeze import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spinsqueeze import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name, value in namespace.items():
        assert value is _defining_object(name), name


def _loaded_modules(code_or_args, tmp_path):
    """The spinsqueeze modules a fresh interpreter imports, from its
    ``-X importtime`` report, and its exit code."""
    src = os.path.dirname(os.path.dirname(spinsqueeze.__file__))
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *code_or_args],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    names = {line.rsplit("|", 1)[1].strip()
             for line in child.stderr.splitlines()
             if line.startswith("import time:")}
    return child.returncode, {n for n in names if n.split(".")[0] == "spinsqueeze"}


@pytest.mark.parametrize("source, expected", [
    ("import spinsqueeze", set()),
    ("import spinsqueeze; spinsqueeze.errors", {"spinsqueeze.errors"}),
    ("from spinsqueeze import SchemaError", {"spinsqueeze.errors"}),
])
def test_import_spinsqueeze_loads_only_the_names_used(tmp_path, source, expected):
    """``import spinsqueeze`` loads no submodule; a name loads its module,
    which the ``-X importtime`` report shows as any import statement's."""
    code, loaded = _loaded_modules(["-c", source], tmp_path)
    assert code == 0
    assert loaded == {"spinsqueeze", *expected}


def test_scan_loads_only_the_scan_modules(tmp_path):
    code, loaded = _loaded_modules(
        ["-m", "spinsqueeze.cli", "scan", "--p1", "0.5", "--p2", "0.5",
         "--theta", "0", "--phi", "0", "--output", str(tmp_path / "out.csv")],
        tmp_path)
    assert code == 0
    assert loaded == {"spinsqueeze", "spinsqueeze.errors", "spinsqueeze.scan",
                      "spinsqueeze._kernel"}


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_state_commands_load_no_channel_or_table(tmp_path, command):
    """scan is loaded by every command: cli binds the scan names that
    perfbench/spans.py patches on it when it is imported."""
    path = tmp_path / "state.json"
    path.write_text(readme_example("### State files", "json"))
    code, loaded = _loaded_modules(
        ["-m", "spinsqueeze.cli", command, str(path)], tmp_path)
    assert code == 0
    assert "spinsqueeze.density" in loaded
    assert not loaded & {"spinsqueeze.channel", "spinsqueeze.table1"}
