"""The command-line shell: round trip, refusals, configuration and
per-series failure isolation."""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from wavets.cli import build_config, build_parser, main
from wavets.codebook import load_codebook
from wavets.data_io import load_dataset, save_dataset
from wavets.pipeline import RunConfig

FLAGS = ["--context-length", "64", "--horizon", "16", "--n-samples", "4", "--order", "2"]
N_SERIES = 6


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if "__meta__" not in r]


def round_trip(tmp, capsys):
    """synth -> fit-codebook -> tokenize -> detokenize -> train -> forecast -> eval."""
    data, cb, tok = tmp / "data.jsonl", tmp / "codebook.json", tmp / "tokens.jsonl"
    model, fc = tmp / "model.json", tmp / "forecast.jsonl"
    steps = [
        ["synth", "--out", data, "--n-series", N_SERIES],
        ["fit-codebook", "--data", data, "--out", cb],
        ["tokenize", "--data", data, "--codebook", cb, "--out", tok],
        ["detokenize", "--tokens", tok, "--codebook", cb, "--out", tmp / "detok.jsonl",
         "--reference", data],
        ["train", "--tokens", tok, "--codebook", cb, "--out", model],
        ["forecast", "--data", data, "--codebook", cb, "--model", model, "--out", fc],
        ["eval", "--data", data, "--forecasts", fc, "--out", tmp / "eval.csv"],
    ]
    for argv in steps:
        code, _, err = run(argv + FLAGS, capsys)
        assert code == 0, (argv[0], err)
        assert "error:" not in err


def make_inputs(tmp, capsys, broken_item="synth-00002"):
    """A clean dataset with its codebook and model, plus a copy in which
    one series has no observed context."""
    data, cb, tok, model = (tmp / n for n in ("data.jsonl", "cb.json", "tok.jsonl", "model.json"))
    for argv in (["synth", "--out", data, "--n-series", N_SERIES],
                 ["fit-codebook", "--data", data, "--out", cb],
                 ["tokenize", "--data", data, "--codebook", cb, "--out", tok],
                 ["train", "--tokens", tok, "--codebook", cb, "--out", model]):
        assert run(argv + FLAGS, capsys)[0] == 0
    dataset = load_dataset(data)
    for series in dataset.series:
        if series.item_id == broken_item:
            series.values[:-16] = np.nan
    broken = tmp / "broken.jsonl"
    save_dataset(dataset, broken)
    return broken, cb, model


class TestRoundTrip:
    def test_outputs(self, tmp_path, capsys):
        round_trip(tmp_path, capsys)
        records = read_records(tmp_path / "forecast.jsonl")
        assert len(records) == N_SERIES
        for record in records:
            paths = np.asarray(record["samples"])
            assert paths.shape == (4, 16)
            assert np.all(np.isfinite(paths))
        with open(tmp_path / "eval.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r[0] == "ALL" and r[2].startswith("relative_")]
        assert len(rows) == 6
        assert all(np.isfinite(float(r[3])) for r in rows)
        assert len(read_records(tmp_path / "detok.jsonl")) == 2 * N_SERIES

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        for directory in (first, second):
            directory.mkdir()
            round_trip(directory, capsys)
        names = sorted(p.name for p in first.iterdir())
        assert len(names) == 7
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_refuses_fingerprint_mismatch(tmp_path, capsys):
    data, cb, tok = tmp_path / "data.jsonl", tmp_path / "cb.json", tmp_path / "tok.jsonl"
    for argv in (["synth", "--out", data, "--n-series", 3],
                 ["fit-codebook", "--data", data, "--out", cb],
                 ["tokenize", "--data", data, "--codebook", cb, "--out", tok]):
        assert run(argv + FLAGS, capsys)[0] == 0
    code, _, err = run(["train", "--tokens", tok, "--codebook", cb,
                        "--out", tmp_path / "model.json", *FLAGS, "--seed", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "fingerprint" in err
    assert not (tmp_path / "model.json").exists()


def test_refuses_codebook_mismatch_naming_the_codebook(tmp_path, capsys):
    tok = tmp_path / "tok.jsonl"
    for name, n_series in (("a", 3), ("b", 4)):
        data, cb = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
        for argv in (["synth", "--out", data, "--n-series", n_series],
                     ["fit-codebook", "--data", data, "--out", cb]):
            assert run(argv + FLAGS, capsys)[0] == 0
    assert run(["tokenize", "--data", tmp_path / "a.jsonl", "--codebook", tmp_path / "a.json",
                "--out", tok, *FLAGS], capsys)[0] == 0
    code, _, err = run(["train", "--tokens", tok, "--codebook", tmp_path / "b.json",
                        "--out", tmp_path / "model.json", *FLAGS], capsys)
    assert code == 1
    assert err.startswith("error:") and "under codebook" in err and "current codebook" in err
    assert "fingerprint" not in err
    assert not (tmp_path / "model.json").exists()


class TestConfig:
    def parse(self, *extra):
        return build_parser().parse_args(
            ["tokenize", "--data", "d", "--codebook", "c", "--out", "o", *map(str, extra)])

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        config_file = tmp_path / "config.yaml"
        config_file.write_text("level: 3\norder: 5\n")
        config = build_config(self.parse("--config", config_file, "--level", "2"))
        assert config.level == 2  # flag
        assert config.order == 5  # file
        assert config.alpha == RunConfig().alpha  # default

    def test_rejects_unknown_key(self, tmp_path, capsys):
        config_file = tmp_path / "config.yaml"
        config_file.write_text("levels: 3\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config(self.parse("--config", config_file))
        code, _, err = run(["synth", "--out", tmp_path / "d.jsonl", "--config", config_file],
                           capsys)
        assert code == 1 and "error: unknown config keys" in err

    def test_one_flag_per_field(self):
        parser = build_parser()
        subcommands = parser._subparsers._group_actions[0].choices
        names = [f.name for f in fields(RunConfig)]
        assert len(subcommands) == 8
        for sub in subcommands.values():
            by_dest = {}
            for action in sub._actions:
                by_dest.setdefault(action.dest, []).append(action.option_strings)
            for name in names:
                assert by_dest.get(name) == [["--" + name.replace("_", "-")]], name


def test_fit_codebook_skips_unscalable_series(tmp_path, capsys):
    broken, _, _ = make_inputs(tmp_path, capsys)
    out = tmp_path / "codebook-broken.json"
    code, _, err = run(["fit-codebook", "--data", broken, "--out", out, *FLAGS], capsys)
    assert load_codebook(out).n_bins >= 3
    assert err.splitlines() == [
        "error: series 'synth-00002': cannot scale a window with no observed values"]
    assert code == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_forecast_isolates_failing_series(tmp_path, capsys, workers):
    broken, cb, model = make_inputs(tmp_path, capsys)
    out = tmp_path / "forecast.jsonl"
    code, _, err = run(["forecast", "--data", broken, "--codebook", cb, "--model", model,
                        "--out", out, "--workers", workers, *FLAGS], capsys)
    assert code == 1
    assert [r["item_id"] for r in read_records(out)] == [
        f"synth-{i:05d}" for i in range(N_SERIES) if i != 2]
    assert err.splitlines() == [
        "error: series 'synth-00002': cannot scale a window with no observed values"]


def test_forecast_is_byte_identical_across_worker_counts(tmp_path, capsys):
    make_inputs(tmp_path, capsys)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"forecast-{workers}.jsonl"
        code, _, err = run(["forecast", "--data", tmp_path / "data.jsonl",
                            "--codebook", tmp_path / "cb.json", "--model", tmp_path / "model.json",
                            "--out", out, "--workers", workers, *FLAGS], capsys)
        assert code == 0, err
        outputs.append(out.read_bytes())
    assert len(read_records(tmp_path / "forecast-1.jsonl")) == N_SERIES
    assert outputs[0] == outputs[1]
