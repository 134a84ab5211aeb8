"""Inputs follow the seed: same seed, same bytes."""

import hashlib

import pytest

import workloads


def _digests(workload, seed, directory):
    directory.mkdir()
    workloads.generate(workload, seed, str(directory), smoke=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    first = _digests(workload, 5, tmp_path / "a")
    assert first == _digests(workload, 5, tmp_path / "b")


def test_seed_changes_field2d(tmp_path):
    first = _digests("field2d", 5, tmp_path / "a")
    other = _digests("field2d", 6, tmp_path / "b")
    assert first["field2d.model.json"] != other["field2d.model.json"]


def test_cantor5_model_ignores_seed(tmp_path):
    first = _digests("cantor5", 5, tmp_path / "a")
    other = _digests("cantor5", 6, tmp_path / "b")
    assert first["cantor.model.json"] == other["cantor.model.json"]


def test_every_round_runs_all_three_commands(tmp_path):
    manifest = workloads.generate("verify", 1, str(tmp_path), smoke=True)
    kinds = [kind for kind, _, _ in workloads.round_ops(manifest,
                                                        str(tmp_path))]
    assert kinds.count("verify") == 1
    assert kinds.count("compute") == kinds.count("probe") \
        == len(workloads.SMALL_CLASSES)
