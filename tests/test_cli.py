"""The command-line shell: round trip, refusals, configuration,
per-series failure isolation and ablation sweeps."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import wavets.cli
from wavets.cli import build_config, build_parser, main
from wavets.codebook import load_codebook
from wavets.data_io import Dataset, TimeSeries, load_dataset, save_dataset, write_jsonl
from wavets.data_synth import make_dataset
from wavets.exceptions import WavetsError
from wavets.pipeline import RunConfig
from wavets.seq_model import load_model, save_model

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


def rewrite_records(source, target, change):
    """Copy a JSON-lines file, passing every record but the header through
    ``change``, which returns the record to write or ``None`` to drop it."""
    meta, *lines = source.read_text().splitlines()
    records = [change(json.loads(line)) for line in lines]
    target.write_text("\n".join([meta, *(json.dumps(r, sort_keys=True)
                                         for r in records if r is not None)]) + "\n")


def test_train_fails_each_bad_record_alone(tmp_path, capsys):
    round_trip(tmp_path, capsys)
    tok, cb = tmp_path / "tokens.jsonl", tmp_path / "codebook.json"
    bad = {("synth-00000", "context"): lambda r: r.update(mu="0.5", sigma=True),
           ("synth-00001", "horizon"): lambda r: r["tokens"].__setitem__(3, 99999),
           ("synth-00002", "context"): lambda r: r["tokens"].__setitem__(0, -7),
           ("synth-00003", "horizon"): lambda r: r.update(mu=1, sigma=False),  # an int mu passes
           ("synth-00004", "horizon"): lambda r: r.pop("mu")}

    def corrupt(record):
        bad.get((record["item_id"], record["kind"]), lambda r: None)(record)
        return record

    rewrite_records(tok, tmp_path / "bad.jsonl", corrupt)
    rewrite_records(tok, tmp_path / "others.jsonl",
                    lambda r: None if r["item_id"] in {k[0] for k in bad} else r)
    code, out, err = run(["train", "--tokens", tmp_path / "bad.jsonl", "--codebook", cb,
                          "--out", tmp_path / "bad-model.json", *FLAGS], capsys)
    assert code == 1
    assert err.splitlines() == [
        "error: record 'synth-00000' context: mu must be a number, got str",
        "error: record 'synth-00001' horizon: token id(s) [99999] outside the vocabulary",
        "error: record 'synth-00002' context: token id(s) [-7] outside the vocabulary",
        "error: record 'synth-00003' horizon: sigma must be a number, got bool",
        "error: record 'synth-00004' horizon: missing field(s) mu"]
    assert f"on {N_SERIES - 5} pairs" in out
    # the other records train as if the bad series were not in the file
    assert run(["train", "--tokens", tmp_path / "others.jsonl", "--codebook", cb,
                "--out", tmp_path / "others-model.json", *FLAGS], capsys)[0] == 0
    assert (tmp_path / "bad-model.json").read_bytes() == (
        tmp_path / "others-model.json").read_bytes()


def test_train_reports_duplicate_and_unpaired_records_and_trains_on_the_complete_pairs(
        tmp_path, capsys):
    # synth-00001 loses its horizon record; synth-00003 gets a second, different context
    round_trip(tmp_path, capsys)
    tok, cb = tmp_path / "tokens.jsonl", tmp_path / "codebook.json"
    meta, *lines = tok.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    donor = next(r for r in records if (r["item_id"], r["kind"]) == ("synth-00004", "context"))
    extra = dict(donor, item_id="synth-00003")
    kept = [r for r in records if (r["item_id"], r["kind"]) != ("synth-00001", "horizon")]
    for name, chosen in (("bad.jsonl", [*kept, extra]),
                         ("others.jsonl", [r for r in records if r["item_id"] != "synth-00001"])):
        (tmp_path / name).write_text("\n".join([meta, *map(json.dumps, chosen)]) + "\n")
    code, out, err = run(["train", "--tokens", tmp_path / "bad.jsonl", "--codebook", cb,
                          "--out", tmp_path / "bad-model.json", *FLAGS], capsys)
    assert code == 1
    assert err.splitlines() == [
        "error: record 'synth-00003' context: a second context record of this series; the "
        "first is record 6",
        "error: record 'synth-00001' context: no horizon record for this series"]
    assert f"on {N_SERIES - 1} pairs" in out
    assert run(["train", "--tokens", tmp_path / "others.jsonl", "--codebook", cb,
                "--out", tmp_path / "others-model.json", *FLAGS], capsys)[0] == 0
    assert (tmp_path / "bad-model.json").read_bytes() == (
        tmp_path / "others-model.json").read_bytes()
    code, _, err = run(["detokenize", "--tokens", tmp_path / "bad.jsonl", "--codebook", cb,
                        "--out", tmp_path / "bad-detok.jsonl", *FLAGS], capsys)
    assert code == 1
    assert err.splitlines() == [
        "error: record 'synth-00003' context: a second context record of this series; the "
        "first is record 6"]
    keys = [(r["item_id"], r["kind"]) for r in records]
    assert len(set(keys)) == len(keys) == 2 * N_SERIES  # tokenize writes each record once


def test_detokenize_fails_a_corrupted_record_alone(tmp_path, capsys):
    round_trip(tmp_path, capsys)
    tok, cb = tmp_path / "tokens.jsonl", tmp_path / "codebook.json"

    def corrupt(record):
        if (record["item_id"], record["kind"]) == ("synth-00002", "context"):
            record["tokens"][5] = 99999
        return record

    rewrite_records(tok, tmp_path / "bad.jsonl", corrupt)
    code, out, err = run(["detokenize", "--tokens", tmp_path / "bad.jsonl", "--codebook", cb,
                          "--out", tmp_path / "bad-detok.jsonl", "--reference",
                          tmp_path / "data.jsonl", *FLAGS], capsys)
    assert code == 1
    assert err.splitlines() == [
        "error: record 'synth-00002' context: token id(s) [99999] outside the vocabulary"]
    assert f"RMSE over {2 * N_SERIES - 1} windows" in out
    clean = (tmp_path / "detok.jsonl").read_text().splitlines()
    lines = (tmp_path / "bad-detok.jsonl").read_text().splitlines()
    assert lines == [line for line in clean
                     if '"item_id":"synth-00002","kind":"context"' not in line]
    assert len(lines) == len(clean) - 1 == 2 * N_SERIES


def test_refuses_an_artifact_without_a_header(tmp_path, capsys):
    round_trip(tmp_path, capsys)
    cb, data = tmp_path / "codebook.json", tmp_path / "data.jsonl"
    for name in ("tokens.jsonl", "forecast.jsonl"):
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        (tmp_path / f"bare-{name}").write_text("".join(lines[1:]))
    save_model(load_model(tmp_path / "model.json"), tmp_path / "bare-model.json", meta={})
    tokens, model = tmp_path / "bare-tokens.jsonl", tmp_path / "bare-model.json"
    forecasts = tmp_path / "bare-forecast.jsonl"
    out = tmp_path / "out"
    for argv, source, key in [
        (["train", "--tokens", tokens, "--codebook", cb], tokens, "codebook"),
        (["detokenize", "--tokens", tokens, "--codebook", cb], tokens, "codebook"),
        (["forecast", "--data", data, "--codebook", cb, "--model", model], model, "codebook"),
        (["eval", "--data", data, "--forecasts", forecasts], forecasts, "fingerprint"),
    ]:
        code, _, err = run([*argv, "--out", out, *FLAGS], capsys)
        assert (code, err.splitlines(), out.exists()) == (
            1, [f"error: {source} has no {key} in its __meta__ header"], False), argv[0]


@pytest.mark.parametrize("line", ["[1, 2]", "7", "{not json"])
def test_refuses_a_token_file_line_that_is_not_an_object(tmp_path, capsys, line):
    round_trip(tmp_path, capsys)
    tokens, cb = tmp_path / "odd.jsonl", tmp_path / "codebook.json"
    tokens.write_text((tmp_path / "tokens.jsonl").read_text() + line + "\n")
    where = 2 + 2 * N_SERIES  # after the header and two records per series
    message = {"[1, 2]": "expected a JSON object, got list", "7": "expected a JSON object, got int",
               "{not json": "bad JSON: Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)"}[line]
    for argv in (["train", "--tokens", tokens, "--codebook", cb],
                 ["detokenize", "--tokens", tokens, "--codebook", cb]):
        code, _, err = run([*argv, "--out", tmp_path / "out", *FLAGS], capsys)
        assert (code, err.splitlines(), (tmp_path / "out").exists()) == (
            1, [f"error: {tokens}:{where}: {message}"], False), argv[0]


def test_refuses_a_dataset_line_that_is_not_an_object(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert run(["synth", "--out", data, "--n-series", 3, *FLAGS], capsys)[0] == 0
    data.write_text(data.read_text() + "5\n")
    code, _, err = run(["fit-codebook", "--data", data, "--out", tmp_path / "cb.json", *FLAGS],
                       capsys)
    assert (code, err.splitlines()) == (1, [f"error: {data}:5: expected a JSON object, got int"])


@pytest.mark.parametrize("name, text, message", [
    ("tz.csv", "item_id,timestamp,value\na,2020-01-01T00:00:00,1\na,2020-01-01T01:00:00+00:00,2\n",
     "3: series 'a' mixes timestamps with and without a UTC offset"),
    ("list.jsonl", '{"item_id": "a", "start": "2020-01-01", "freq": ["h"], "target": [1.0]}\n',
     "1: freq must be a string, got list"),
    ("int.jsonl", '{"item_id": "a", "start": "2020-01-01", "freq": "h", "target": [1.0]}\n'
                  '{"item_id": "b", "start": "2020-01-01", "freq": 1, "target": [1.0]}\n',
     "2: freq must be a string, got int"),
    ("start.jsonl", '{"item_id": "a", "start": 5, "freq": "h", "target": [1.0]}\n',
     "1: start must be a string, got int"),
    ("stamp.csv", "item_id,timestamp,value\na,2020-01-01T00:00:00,1\na,noon,2\n",
     "3: bad timestamp 'noon': Invalid isoformat string: 'noon'"),
    ("bad-start.jsonl", '{"item_id": "a", "start": "noon", "freq": "h", "target": [1.0]}\n',
     "1: bad start timestamp: Invalid isoformat string: 'noon'"),
], ids=["tz.csv", "list.jsonl", "int.jsonl", "start.jsonl", "stamp.csv", "bad-start.jsonl"])
def test_refuses_a_dataset_with_an_unreadable_timestamp_or_tag_in_one_error_line(
        tmp_path, capsys, name, text, message):
    (tmp_path / name).write_text(text)
    code, _, err = run(["fit-codebook", "--data", tmp_path / name, "--out", tmp_path / "cb.json",
                        *FLAGS], capsys)
    assert (code, err.splitlines()) == (1, [f"error: {tmp_path / name}:{message}"])


def test_train_reports_each_unpaired_record_before_it_refuses_an_empty_corpus(tmp_path, capsys):
    round_trip(tmp_path, capsys)
    contexts = tmp_path / "contexts.jsonl"
    kept = [f"synth-{i:05d}" for i in range(3)]
    rewrite_records(tmp_path / "tokens.jsonl", contexts,
                    lambda r: r if r["kind"] == "context" and r["item_id"] in kept else None)
    code, _, err = run(["train", "--tokens", contexts, "--codebook", tmp_path / "codebook.json",
                        "--out", tmp_path / "none.json", *FLAGS], capsys)
    assert (code, err.splitlines(), (tmp_path / "none.json").exists()) == (1, [
        *(f"error: record '{item_id}' context: no horizon record for this series"
          for item_id in kept),
        "error: cannot train on an empty corpus"], False)


def test_eval_refuses_a_second_forecast_record_of_one_series(tmp_path, capsys):
    round_trip(tmp_path, capsys)
    forecasts = tmp_path / "repeated.jsonl"
    text = (tmp_path / "forecast.jsonl").read_text()
    first = json.loads(text.splitlines()[1])
    assert first["item_id"] == "synth-00000"
    repeated = dict(first, samples=np.full(np.shape(first["samples"]), 1e6).tolist())
    forecasts.write_text(text + json.dumps(repeated) + "\n")
    code, _, err = run(["eval", "--data", tmp_path / "data.jsonl", "--forecasts", forecasts,
                        "--out", tmp_path / "repeated.csv", *FLAGS], capsys)
    assert (code, err.splitlines(), (tmp_path / "repeated.csv").exists()) == (1, [
        f"error: {forecasts}:{N_SERIES + 2}: duplicate item_id 'synth-00000'; first occurrence "
        "at line 2"], False)


@pytest.mark.parametrize("change, message", [
    (lambda r: r.pop("samples"), "need a string item_id and samples"),
    (lambda r: r.pop("item_id"), "need a string item_id and samples"),
    (lambda r: r.__setitem__("item_id", ["synth-00003"]), "need a string item_id and samples"),
    (lambda r: r.__setitem__("samples", "many"), "could not convert string to float: 'many'"),
    (lambda r: r["samples"][1].__setitem__(2, "1.5"), "samples must be numbers, got str"),
    (lambda r: r["samples"][0].__setitem__(0, True), "samples must be numbers, got bool"),
    (lambda r: r["samples"][3].__setitem__(15, None), "samples must be numbers, got NoneType"),
])
def test_eval_refuses_a_forecast_record_without_item_id_or_samples(tmp_path, capsys, change,
                                                                    message):
    round_trip(tmp_path, capsys)
    forecasts = tmp_path / "odd.jsonl"

    def corrupt(record):
        if record["item_id"] == "synth-00003":
            change(record)
        return record

    rewrite_records(tmp_path / "forecast.jsonl", forecasts, corrupt)
    code, _, err = run(["eval", "--data", tmp_path / "data.jsonl", "--forecasts", forecasts,
                        "--out", tmp_path / "odd.csv", *FLAGS], capsys)
    assert (code, err.splitlines(), (tmp_path / "odd.csv").exists()) == (
        1, [f"error: {forecasts}:5: {message}"], False)


def test_refuses_a_codebook_with_other_special_ids(tmp_path, capsys):
    round_trip(tmp_path, capsys)
    cb = tmp_path / "codebook.json"
    payload = json.loads(cb.read_text())
    payload["value_offset"] = 3
    cb.write_text(json.dumps(payload))
    code, _, err = run(["tokenize", "--data", tmp_path / "data.jsonl", "--codebook", cb,
                        "--out", tmp_path / "odd.jsonl", *FLAGS], capsys)
    assert (code, err.splitlines(), (tmp_path / "odd.jsonl").exists()) == (1, [
        f"error: codebook file {cb} has special token ids {{'value_offset': 3}}; the ids are "
        "fixed at {'pad_id': 0, 'value_offset': 1}"], False)


def test_a_level_too_deep_for_a_window_is_one_config_error(tmp_path, capsys):
    # bior2.2 takes level 3 at 64 steps and level 1 at 16 steps
    data, cb = tmp_path / "data.jsonl", tmp_path / "cb.json"
    assert run(["synth", "--out", data, "--n-series", 3, *FLAGS], capsys)[0] == 0
    assert run(["fit-codebook", "--data", data, "--out", cb, *FLAGS], capsys)[0] == 0
    for argv, length, level in (
            (["tokenize", "--data", data, "--codebook", cb], 16, 2),
            (["fit-codebook", "--data", data], 64, 4)):
        out = tmp_path / "out"
        code, _, err = run([*argv, "--out", out, *FLAGS, "--level", level], capsys)
        assert (code, err.splitlines(), out.exists()) == (1, [
            f"error: signal of length {length} is too short for level {level} with family "
            f"'bior2.2' (max level {1 if length == 16 else 3})"], False), argv[0]


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
        assert config.horizon == RunConfig().horizon  # default

    def test_rejects_unknown_key(self, tmp_path, capsys):
        config_file = tmp_path / "config.yaml"
        # a typo, two removed settings and a key that is no string
        config_file.write_text("levels: 3\ntemperature: 0.5\nalpha: 0.1\n1: 2\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config(self.parse("--config", config_file))
        code, _, err = run(["synth", "--out", tmp_path / "d.jsonl", "--config", config_file],
                           capsys)
        assert (code, err) == (1, f"error: unknown config keys in {config_file}: "
                                  "[1, 'alpha', 'levels', 'temperature']\n")

    @pytest.mark.parametrize("flag", ["--temperature", "--sigma-estimator", "--threshold-b",
                                      "--threshold-q", "--bound-lo", "--bound-hi",
                                      "--mix-tsmixup", "--alpha"])
    def test_refuses_each_removed_flag(self, capsys, flag):
        with pytest.raises(SystemExit) as exited:
            self.parse(flag, "1")
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} 1\n")

    @pytest.mark.parametrize("line, error", [
        ('level: "2"', "level must be of type int, got '2'"),
        ("horizon: 64.0", "horizon must be of type int, got 64.0"),
        ("n_samples: 2.5", "n_samples must be of type int, got 2.5"),
        ("order: true", "order must be of type int, got True"),
    ])
    def test_config_file_values_must_have_the_type_of_their_default(self, tmp_path, capsys,
                                                                    line, error):
        config_file = tmp_path / "config.yaml"
        config_file.write_text(line + "\n")
        out = tmp_path / "d.jsonl"
        code, _, err = run(["synth", "--out", out, "--n-series", 2, "--config", config_file],
                           capsys)
        assert (code, err.splitlines(), out.exists()) == (1, [f"error: {error}"], False)

    @pytest.mark.parametrize("text, error", [
        ("- level: 2\n", "config file {} must hold a mapping"),
        ("level: [1\n", "{}:2:1: malformed YAML: expected ',' or ']', but got '<stream end>'"),
    ], ids=["list", "malformed"])
    def test_a_config_file_that_is_malformed_or_holds_no_mapping_is_one_error_line(
            self, tmp_path, capsys, text, error):
        config_file = tmp_path / "config.yaml"
        config_file.write_text(text)
        out = tmp_path / "d.jsonl"
        code, _, err = run(["synth", "--out", out, "--config", config_file], capsys)
        assert (code, err.splitlines(), out.exists()) == (
            1, [f"error: {error.format(config_file)}"], False)

    def test_each_flag_shows_the_default_of_its_field(self):
        tokenize = build_parser()._subparsers._group_actions[0].choices["tokenize"]
        helps = {action.dest: action.help for action in tokenize._actions}
        assert helps["family"] == f"wavelet family name (default: {RunConfig().family})"
        for f in fields(RunConfig):
            assert helps[f.name].endswith(f"(default: {getattr(RunConfig(), f.name)})"), f.name

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


def test_eval_refuses_two_datasets_with_one_file_name(tmp_path, capsys):
    # scores are keyed by file name: the second dataset would replace the first
    round_trip(tmp_path, capsys)
    argv = ["eval", "--out", tmp_path / "both.csv", *FLAGS]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        for name in ("data.jsonl", "forecast.jsonl"):
            (tmp_path / sub / name).write_bytes((tmp_path / name).read_bytes())
        argv += ["--data", tmp_path / sub / "data.jsonl",
                 "--forecasts", tmp_path / sub / "forecast.jsonl"]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.splitlines() == ["error: --data file names must differ, repeated: data.jsonl"]
    assert not (tmp_path / "both.csv").exists()


def test_eval_refuses_a_count_of_forecasts_other_than_of_datasets(tmp_path, capsys):
    argv = ["eval", "--data", tmp_path / "a.jsonl", "--data", tmp_path / "b.jsonl",
            "--forecasts", tmp_path / "a-fc.jsonl", "--out", tmp_path / "eval.csv"]
    code, _, err = run(argv, capsys)
    assert (code, err.splitlines(), (tmp_path / "eval.csv").exists()) == (
        1, ["error: need one --forecasts per --data"], False)


def test_eval_scores_the_series_that_did_forecast(tmp_path, capsys):
    # synth-00001 has no observed context: every stage fails it alone, and
    # eval scores the other three as if the dataset held only them
    flags = [*FLAGS, "--seed", "1"]  # at seed 1 every score is defined
    full, kept = tmp_path / "full", tmp_path / "kept"
    data, cb, tok = full / "data.jsonl", tmp_path / "cb.json", tmp_path / "tok.jsonl"
    model, fc = tmp_path / "model.json", tmp_path / "forecast.jsonl"
    for directory in (full, kept):
        directory.mkdir()
    assert run(["synth", "--out", data, "--n-series", 4, *flags], capsys)[0] == 0
    dataset = load_dataset(data)
    dataset.series[1].values[:-16] = np.nan
    save_dataset(dataset, data)
    dataset.series.pop(1)
    save_dataset(dataset, kept / "data.jsonl")
    unscalable = "error: series 'synth-00001': cannot scale a window with no observed values"
    for argv, expected in (
            (["fit-codebook", "--data", data, "--out", cb], [unscalable]),
            (["tokenize", "--data", data, "--codebook", cb, "--out", tok], [unscalable]),
            (["train", "--tokens", tok, "--codebook", cb, "--out", model], []),
            (["forecast", "--data", data, "--codebook", cb, "--model", model, "--out", fc],
             [unscalable]),
            (["eval", "--data", data, "--forecasts", fc, "--out", full / "eval.csv"],
             ["error: series 'synth-00001': dataset data.jsonl: no forecast, "
              "expected (4, 16) finite paths"]),
            (["eval", "--data", kept / "data.jsonl", "--forecasts", fc,
              "--out", kept / "eval.csv"], [])):
        code, _, err = run(argv + flags, capsys)
        assert (code, err.splitlines()) == (1 if expected else 0, expected), argv[0]
    assert (full / "eval.csv").read_bytes() == (kept / "eval.csv").read_bytes()
    assert "nan" not in (kept / "eval.csv").read_text()


def test_eval_reports_every_failed_series_before_a_dataset_with_none_left(tmp_path, capsys):
    # every record has the wrong number of paths: each series' reason is
    # printed, then the dataset's, and no table is written
    dataset = make_dataset(3, context_length=64, horizon=16, seed=0)
    data, fc, out = tmp_path / "data.jsonl", tmp_path / "forecast.jsonl", tmp_path / "eval.csv"
    save_dataset(dataset, data)
    config = RunConfig(context_length=64, horizon=16, n_samples=4, order=2)  # FLAGS
    write_jsonl(fc, {"fingerprint": config.fingerprint()},
                [{"item_id": s.item_id, "samples": np.zeros((3, 16)).tolist()}
                 for s in dataset.series])
    code, out_text, err = run(["eval", "--data", data, "--forecasts", fc, "--out", out, *FLAGS],
                              capsys)
    assert (code, out_text) == (1, "")
    assert err.splitlines() == [
        *(f"error: series 'synth-{i:05d}': dataset data.jsonl: a forecast of shape (3, 16), "
          "expected (4, 16) finite paths" for i in range(3)),
        "error: dataset data.jsonl: no series to score"]
    assert not out.exists()


def test_eval_writes_its_table_when_a_seasonal_naive_score_is_0(tmp_path, capsys):
    # the series repeats its season exactly: seasonal naive scores WQL and
    # VRSE 0, so those relative scores are undefined, and MASE's in-sample
    # scale is 0
    values = np.tile(10 * np.sin(2 * np.pi * np.arange(24) / 24), 4)[:80] + 20
    data, fc, out = tmp_path / "data.jsonl", tmp_path / "forecast.jsonl", tmp_path / "eval.csv"
    save_dataset(Dataset([TimeSeries("s", datetime(2020, 1, 1), values)], "h"), data)
    config = RunConfig(context_length=64, horizon=16, n_samples=4, order=2)  # FLAGS
    write_jsonl(fc, {"fingerprint": config.fingerprint()},
                [{"item_id": "s", "samples": np.tile(values[-16:] + 1.0, (4, 1)).tolist()}])
    code, _, err = run(["eval", "--data", data, "--forecasts", fc, "--out", out, *FLAGS], capsys)
    assert code == 0
    assert err.splitlines() == [
        "warning: dataset data.jsonl: MASE is undefined for 1 of 1 series, left out of its "
        "mean: s",
        *(f"warning: dataset data.jsonl: relative {m} is undefined, the seasonal-naive {m} is 0"
          for m in ("WQL", "VRSE"))]
    with open(out, newline="", encoding="utf-8") as fh:
        table = {(row[0], row[1], row[2]): row[3] for row in csv.reader(fh)}
    assert table["data.jsonl", "seasonal_naive", "wql"] == "0.0"
    assert [table["ALL", "model", f"relative_{m}"] for m in ("wql", "mase", "vrse")] == 3 * ["nan"]


def test_eval_ranks_each_metric_over_the_datasets_where_it_is_defined(tmp_path, capsys):
    # periodic.jsonl repeats its season exactly, so its MASE is undefined for
    # both models; the mean MASE rank comes from the other dataset alone
    config = RunConfig(context_length=64, horizon=16, n_samples=4, order=2)  # FLAGS
    values = np.tile(10 * np.sin(2 * np.pi * np.arange(24) / 24), 4)[:80] + 20
    synthetic = make_dataset(3, context_length=64, horizon=16, seed=1)
    argv = []
    for name, dataset in (("periodic", Dataset([TimeSeries("s", datetime(2020, 1, 1), values)],
                                                  "h")),
                          ("synth", synthetic)):
        save_dataset(dataset, tmp_path / f"{name}.jsonl")
        noise = 0.1 * np.random.default_rng(2).standard_normal((4, 16))
        write_jsonl(tmp_path / f"{name}-fc.jsonl", {"fingerprint": config.fingerprint()},
                    [{"item_id": s.item_id, "samples": (s.values[-16:] + 1.0 + noise).tolist()}
                     for s in dataset.series])  # close to the truth: beats seasonal naive
        argv += ["--data", tmp_path / f"{name}.jsonl",
                 "--forecasts", tmp_path / f"{name}-fc.jsonl"]
    code, _, _ = run(["eval", *argv, "--out", tmp_path / "eval.csv", *FLAGS], capsys)
    assert code == 0
    with open(tmp_path / "eval.csv", newline="", encoding="utf-8") as fh:
        table = {(row[0], row[1], row[2]): float(row[3]) for row in list(csv.reader(fh))[2:]}
    assert np.isnan(table["periodic.jsonl", "model", "mase"])
    assert table["synth.jsonl", "model", "mase"] < table["synth.jsonl", "seasonal_naive", "mase"]
    assert 0 < table["ALL", "model", "relative_mase"] < 1
    assert (table["ALL", "model", "avg_rank_mase"],
            table["ALL", "seasonal_naive", "avg_rank_mase"]) == (1.0, 2.0)
    assert (table["ALL", "model", "avg_rank_wql"],
            table["ALL", "seasonal_naive", "avg_rank_wql"]) == (1.5, 1.5)


def test_eval_warns_naming_the_dataset_whose_tag_has_no_season_and_scores_it_with_season_1(
        tmp_path, capsys):
    dataset = make_dataset(3, context_length=64, horizon=16, seed=1)
    config = RunConfig(context_length=64, horizon=16, n_samples=4, order=2)  # FLAGS
    write_jsonl(tmp_path / "fc.jsonl", {"fingerprint": config.fingerprint()},
                [{"item_id": s.item_id, "samples": np.tile(s.values[-16:] + 1.0, (4, 1)).tolist()}
                 for s in dataset.series])
    for tag in ("7200s", "w"):  # weekly data has season 1
        (tmp_path / tag).mkdir()
        dataset.freq = tag
        save_dataset(dataset, tmp_path / tag / "data.csv")
        code, _, err = run(["eval", "--data", tmp_path / tag / "data.csv", "--forecasts",
                            tmp_path / "fc.jsonl", "--out", tmp_path / tag / "eval.csv", *FLAGS],
                           capsys)
        assert code == 0
        assert err.splitlines() == (["warning: dataset data.csv: frequency tag '7200s' has no "
                                     "season, using 1"] if tag == "7200s" else [])
    assert (tmp_path / "7200s" / "eval.csv").read_bytes() == (
        tmp_path / "w" / "eval.csv").read_bytes()


def test_fit_codebook_skips_unscalable_series(tmp_path, capsys):
    broken, _, _ = make_inputs(tmp_path, capsys)
    out = tmp_path / "codebook-broken.json"
    code, _, err = run(["fit-codebook", "--data", broken, "--out", out, *FLAGS], capsys)
    assert load_codebook(out).n_bins >= 3
    assert err.splitlines() == [
        "error: series 'synth-00002': cannot scale a window with no observed values"]
    assert code == 1


def test_fit_codebook_reports_each_unscalable_series_before_it_refuses_an_empty_sample(
        tmp_path, capsys):
    dataset = make_dataset(N_SERIES, context_length=64, horizon=16, seed=0)
    for series in dataset.series:
        series.values[:-16] = np.nan
    save_dataset(dataset, tmp_path / "data.jsonl")
    code, _, err = run(["fit-codebook", "--data", tmp_path / "data.jsonl",
                        "--out", tmp_path / "cb.json", *FLAGS], capsys)
    assert (code, err.splitlines(), (tmp_path / "cb.json").exists()) == (1, [
        *(f"error: series 'synth-{i:05d}': cannot scale a window with no observed values"
          for i in range(N_SERIES)),
        "error: cannot fit a codebook to an empty sample"], False)


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


@pytest.mark.parametrize("change, message", [
    ({"order": None}, "order must be an integer, got null"),
    ({"meta": 5}, "meta must be an object, got 5"),
])
def test_forecast_refuses_a_model_header_of_the_wrong_type_in_one_error_line(
        tmp_path, capsys, change, message):
    _, cb, model = make_inputs(tmp_path, capsys)
    with np.load(model) as npz:
        arrays = dict(npz)
    arrays["header"] = np.array(json.dumps({**json.loads(str(arrays["header"])), **change}))
    with open(model, "wb") as fh:
        np.savez(fh, **arrays)
    out = tmp_path / "forecast.jsonl"
    code, _, err = run(["forecast", "--data", tmp_path / "data.jsonl", "--codebook", cb,
                        "--model", model, "--out", out, *FLAGS], capsys)
    assert (code, err.splitlines(), out.exists()) == (
        1, [f"error: model file {model}: {message}"], False)


@pytest.mark.parametrize("workers", [0, -2])
def test_forecast_refuses_fewer_than_one_worker_before_it_reads_anything(tmp_path, capsys,
                                                                        workers):
    out = tmp_path / "forecast.jsonl"  # none of the inputs exists
    code, _, err = run(["forecast", "--data", tmp_path / "data.jsonl",
                        "--codebook", tmp_path / "cb.json", "--model", tmp_path / "model.json",
                        "--config", tmp_path / "config.yaml", "--out", out,
                        "--workers", workers, *FLAGS], capsys)
    assert (code, err.splitlines(), out.exists()) == (
        1, [f"error: --workers must be at least 1, got {workers}"], False)


def test_synth_refuses_a_negative_seed_naming_it(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    code, _, err = run(["synth", "--out", out, "--n-series", N_SERIES, "--seed", -1, *FLAGS],
                       capsys)
    assert (code, err.splitlines(), out.exists()) == (
        1, ["error: seed must be non-negative, got -1"], False)


@pytest.mark.parametrize("flag, error", [
    ("--n-series", "need at least one series, got 0"),
    ("--n-samples", "need at least one sample path, got 0"),
])
def test_synth_refuses_no_series_or_no_sample_path(tmp_path, capsys, flag, error):
    out = tmp_path / "data.jsonl"
    code, _, err = run(["synth", "--out", out, *FLAGS, flag, 0], capsys)
    assert (code, err.splitlines(), out.exists()) == (1, [f"error: {error}"], False)


@pytest.mark.parametrize("damage", ["truncated", "corrupted"])
def test_a_truncated_or_corrupted_gz_input_is_one_error_line(tmp_path, capsys, damage):
    data = tmp_path / "data.jsonl.gz"
    save_dataset(make_dataset(N_SERIES, context_length=64, horizon=16, seed=0), data)
    raw = data.read_bytes()
    assert len(raw) > 300
    data.write_bytes(raw[:300] if damage == "truncated" else
                     raw[:100] + bytes(b ^ 0xFF for b in raw[100:130]) + raw[130:])
    out = tmp_path / "cb.json"
    code, _, err = run(["fit-codebook", "--data", data, "--out", out, *FLAGS], capsys)
    error = {"truncated": "Compressed file ended before the end-of-stream marker was reached",
             "corrupted": "Error -3 while decompressing data: "}[damage]
    assert (code, len(err.splitlines()), err.startswith(f"error: {error}"), out.exists()) == (
        1, 1, True, False), err


def test_import_leaves_yaml_and_the_process_pool_unloaded():
    # only --config, ablate and forecast --workers above 1 need them
    code = ("import sys, wavets.cli; "
            "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))")
    src = str(Path(wavets.cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "[]\n"


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


def test_ablate_scores_each_dataset_it_is_given_in_a_shared_out_dir(tmp_path, capsys):
    grid = tmp_path / "grid.yaml"
    grid.write_text("grid:\n  family: [haar]\n")
    for seed in (0, 1):
        dataset = make_dataset(N_SERIES, context_length=64, horizon=16, seed=seed)
        save_dataset(dataset, tmp_path / f"data-{seed}.jsonl")

    def sweep(seed, out_dir):
        code, _, err = run(["ablate", "--data", tmp_path / f"data-{seed}.jsonl", "--grid", grid,
                            "--out-dir", out_dir, *FLAGS], capsys)
        assert code == 0, err
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    fresh = [sweep(seed, tmp_path / f"fresh-{seed}") for seed in (0, 1)]
    assert fresh[0]["sweep.csv"] != fresh[1]["sweep.csv"]
    # the cell fingerprint covers the configuration, not the data
    assert fresh[0].keys() == fresh[1].keys()
    shared = tmp_path / "shared"
    for seed in (0, 1):
        assert sweep(seed, shared) == fresh[seed], seed


def ablate_grid(tmp_path, capsys, grid_text, out_dir):
    save_dataset(make_dataset(N_SERIES, context_length=64, horizon=16, seed=0),
                 tmp_path / "data.jsonl")
    grid = tmp_path / "grid.yaml"
    grid.write_text(grid_text)
    return run(["ablate", "--data", tmp_path / "data.jsonl", "--grid", grid,
                "--out-dir", out_dir, *FLAGS], capsys)


def test_ablate_runs_a_grid_over_any_config_field(tmp_path, capsys):
    code, out, err = ablate_grid(tmp_path, capsys, "grid:\n  order: [1, 2]\n", tmp_path / "cells")
    assert code == 0, err
    assert "(2 cells, 0 failed)" in out
    with open(tmp_path / "cells" / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["fingerprint", "order"]
    assert sorted(row[1] for row in rows[1:]) == ["1", "2"]


def test_ablate_reports_a_failed_cell_and_tables_the_others(tmp_path, capsys, monkeypatch):
    run_cell = wavets.cli.run_cell

    def fail_db4(config, dataset):
        if config.family == "db4":
            raise WavetsError("no db4 today")
        return run_cell(config, dataset)

    monkeypatch.setattr(wavets.cli, "run_cell", fail_db4)
    cells = tmp_path / "cells"
    code, out, err = ablate_grid(tmp_path, capsys, "grid:\n  family: [haar, db4]\n", cells)
    config = RunConfig(context_length=64, horizon=16, n_samples=4, order=2)  # FLAGS
    good, bad = (replace(config, family=family).fingerprint() for family in ("haar", "db4"))
    assert code == 1
    assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
        f"cell {bad} ({{'family': 'db4'}}): FAILED: no db4 today"]
    # the count is of every cell in the grid, the failed one included
    assert out.splitlines()[-1] == f"wrote {cells / 'sweep.csv'} (2 cells, 1 failed)"
    assert json.loads((cells / f"cell-{bad}.json").read_text()) == {
        "fingerprint": bad, "overrides": {"family": "db4"}, "error": "no db4 today"}
    assert "scores" in json.loads((cells / f"cell-{good}.json").read_text())
    with open(cells / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [[good, "haar"]]


def test_ablate_refuses_a_grid_value_before_it_runs_any_cell(tmp_path, capsys):
    # level 2 fits the 64-step contexts but not the 16-step horizons
    code, out, err = ablate_grid(tmp_path, capsys, "grid:\n  level: [1, 2]\n",
                                 tmp_path / "refused")
    assert (code, out, err.splitlines()) == (1, "", [
        "error: signal of length 16 is too short for level 2 with family 'bior2.2' (max level 1)"])
    assert not (tmp_path / "refused").exists()
    # an order whose history keys overflow at the vocabulary budget
    code, out, err = ablate_grid(tmp_path, capsys, "grid:\n  order: [2, 7]\n",
                                 tmp_path / "refused")
    assert (code, out, err.splitlines()) == (1, "", [
        "error: order 7 overflows int64 history keys at vocabulary size 1024: "
        "(V + 1)**order * V must fit"])
    assert not (tmp_path / "refused").exists()
    # a grid that is no mapping of non-empty lists of distinct values, or no YAML
    for grid_text, error in (
            ("grid: 5\n", "grid file must contain a 'grid' mapping"),
            ("grid:\n  level: 2\n", "grid key 'level' must be a non-empty list of distinct "
                                     "values, got 2"),
            ("grid:\n  family: haar\n", "grid key 'family' must be a non-empty list of "
                                         "distinct values, got 'haar'"),
            ("grid:\n  family: []\n", "grid key 'family' must be a non-empty list of distinct "
                                       "values, got []"),
            ("grid:\n  order: [1, 2]\n  family: [haar, db4, haar]\n",
             "grid key 'family' must be a non-empty list of distinct values, got "
             "['haar', 'db4', 'haar']"),
            ("grid: {family: [haar\n", f"{tmp_path / 'grid.yaml'}:2:1: malformed YAML: "
                                        "expected ',' or ']', but got '<stream end>'")):
        code, out, err = ablate_grid(tmp_path, capsys, grid_text, tmp_path / "refused")
        assert (code, out, err.splitlines()) == (1, "", [f"error: {error}"]), grid_text
        assert not (tmp_path / "refused").exists()


def test_ablate_refuses_a_grid_key_that_is_no_config_field(tmp_path, capsys):
    code, _, err = ablate_grid(
        tmp_path, capsys, "grid:\n  order: [1]\n  colour: [red]\n  temperature: [0.5]\n"
        "  alpha: [0.5]\n  1: [2]\n", tmp_path / "refused")
    assert code == 1
    assert err.startswith("error: unsupported grid keys [1, 'alpha', 'colour', 'temperature']; "
                          "allowed ('family', ")
    assert not (tmp_path / "refused").exists()


def test_warnings_are_printed_as_one_line_each(tmp_path, capsys):
    # synth-00000 is all zeros: its MASE and VRSE are undefined in every cell
    dataset = make_dataset(N_SERIES, context_length=64, horizon=16, seed=0)
    dataset.series[0].values[-16:] = 0.0
    save_dataset(dataset, tmp_path / "data.jsonl")
    grid = tmp_path / "grid.yaml"
    grid.write_text("grid:\n  family: [haar, db4]\n")
    code, out, err = run(["ablate", "--data", tmp_path / "data.jsonl", "--grid", grid,
                          "--out-dir", tmp_path / "cells", *FLAGS], capsys)
    assert code == 0 and "(2 cells, 0 failed)" in out
    assert err.splitlines() == 2 * [
        f"warning: dataset cell: {metric} is undefined for 1 of {N_SERIES} series, "
        "left out of its mean: synth-00000" for metric in ("MASE", "VRSE")]


def test_a_target_that_is_no_array_of_numbers_fails_with_one_error_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0, {}, 3.0]}\n')
    code, _, err = run(["fit-codebook", "--data", data, "--out", tmp_path / "cb.json", *FLAGS],
                       capsys)
    assert code == 1
    assert err == (f"error: {data}:1: bad target: float() argument must be a string or a real "
                   "number, not 'dict'\n")
