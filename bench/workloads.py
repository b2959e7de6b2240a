"""Seeded inputs, CLI command sequences and output checks per workload.

Every workload draws its inputs from ``--seed`` alone and hands the CLI
nothing but the generated files. Why each workload exists:

* ``forecast-default``: the paper's default configuration, trained on one
  synthetic set and forecast on a disjoint held-out set. Sampling in
  ``seq_model`` dominates; the quality scores are out of sample.
* ``tokenize-gappy``: many level-3/fdrc series, half of them with runs of
  missing values. Exercises the DWT, thresholding, quantization, the PAD
  path, count training and JSON I/O, and never samples.
* ``ablate-sweep``: the in-memory ``ablate`` path over two families and
  both boundary modes, with almost no file I/O.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

#: Stream id mixed into the gap RNG so it never shares draws with
#: ``make_dataset``.
GAP_STREAM = 0x6761707
GAPPY_SHARE = 0.5
MAX_GAP_RUNS = 3
GAP_RUN_LENGTH = (4, 20)

DEFAULT_FLAGS = [
    "--family", "bior2.2", "--level", "1", "--threshold-method", "none",
    "--context-length", "512", "--horizon", "64", "--n-samples", "20", "--order", "3",
]


def data_seeds(seed: int) -> tuple[int, int]:
    """Train and test dataset seeds; disjoint for every workload seed."""
    return 2 * seed, 2 * seed + 1


def inject_gaps(values_list, seed: int):
    """Copies of the series with seeded runs of NaN.

    Each series is gappy with probability :data:`GAPPY_SHARE` and then
    receives 1 to :data:`MAX_GAP_RUNS` runs of :data:`GAP_RUN_LENGTH`
    (inclusive) missing values at uniformly random positions, horizons
    included. Runs are short enough that no 64-step window is ever
    entirely missing.
    """
    rng = np.random.default_rng([GAP_STREAM, seed])
    out = []
    for values in values_list:
        values = np.array(values, dtype=np.float64)
        if rng.random() < GAPPY_SHARE:
            for _ in range(int(rng.integers(1, MAX_GAP_RUNS + 1))):
                length = int(rng.integers(GAP_RUN_LENGTH[0], GAP_RUN_LENGTH[1] + 1))
                start = int(rng.integers(0, len(values) - length + 1))
                values[start:start + length] = np.nan
        out.append(values)
    return out


def count_failures(stderr_text: str) -> int:
    """Failed items a command reported: per-series ``error:`` lines and
    failed ablate cells."""
    return sum(
        1 for line in stderr_text.splitlines()
        if line.startswith("error:") or ": FAILED:" in line
    )


def failed_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def read_records(path) -> list[dict]:
    """The records of a JSON-lines file, without its ``__meta__`` line."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if "__meta__" not in r]


class Workload:
    """Base: subclasses set the sizes, generate inputs and name commands."""

    name = ""

    def generate(self, wavets, seed: int, in_dir: Path) -> None:
        raise NotImplementedError

    def commands(self, in_dir: Path, out_dir: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def items(self) -> int:
        """Per-item operations one pass of the command sequence attempts."""
        raise NotImplementedError

    def primary_outputs(self, out_dir: Path) -> list[Path]:
        """Files that must be byte-identical across passes."""
        raise NotImplementedError

    def check(self, in_dir: Path, out_dir: Path, stdout: dict[str, str]) -> list[str]:
        raise NotImplementedError

    def stage_metrics(self, in_dir: Path, out_dir: Path, stdout: dict[str, str],
                      command_s: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError

    def horizon_nll(self, wavets, in_dir: Path, out_dir: Path) -> float:
        """Mean held-out horizon cross-entropy; 0 where not measured."""
        return 0.0


class ForecastDefault(Workload):
    name = "forecast-default"
    n_train = 128
    n_test = 56
    n_samples = 20
    context_length = 512
    horizon = 64

    def generate(self, wavets, seed, in_dir):
        train_seed, test_seed = data_seeds(seed)
        make, save = wavets.data_synth.make_dataset, wavets.data_io.save_dataset
        save(make(self.n_train, seed=train_seed), in_dir / "train.jsonl")
        save(make(self.n_test, seed=test_seed), in_dir / "test.jsonl")

    def commands(self, in_dir, out_dir):
        cb, tok, model = out_dir / "codebook.json", out_dir / "tokens.jsonl", out_dir / "model.json"
        fc = out_dir / "forecast.jsonl"
        train, test = in_dir / "train.jsonl", in_dir / "test.jsonl"
        return [
            ("fit-codebook", ["fit-codebook", "--data", train, "--out", cb, *DEFAULT_FLAGS]),
            ("tokenize", ["tokenize", "--data", train, "--codebook", cb, "--out", tok,
                          *DEFAULT_FLAGS]),
            ("train", ["train", "--tokens", tok, "--codebook", cb, "--out", model,
                       *DEFAULT_FLAGS]),
            ("forecast", ["forecast", "--data", test, "--codebook", cb, "--model", model,
                          "--out", fc, "--workers", "1", *DEFAULT_FLAGS]),
            ("eval", ["eval", "--data", test, "--forecasts", fc,
                      "--out", out_dir / "eval.csv", *DEFAULT_FLAGS]),
        ]

    def items(self):
        return self.n_train + self.n_test  # tokenized train series, forecast test series

    def primary_outputs(self, out_dir):
        return [out_dir / "forecast.jsonl", out_dir / "eval.csv"]

    def relative_scores(self, out_dir) -> dict[str, float]:
        scores = {}
        with open(out_dir / "eval.csv", newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if row[:2] == ["ALL", "model"] and row[2].startswith("relative_"):
                    scores[row[2]] = float(row[3])
        return scores

    def check(self, in_dir, out_dir, stdout):
        problems = []
        test = read_records(in_dir / "test.jsonl")
        expected = {r["item_id"] for r in test}
        records = read_records(out_dir / "forecast.jsonl")
        got = [r["item_id"] for r in records]
        if sorted(got) != sorted(expected):
            problems.append(f"forecast covers {len(got)} series, expected {len(expected)}")
        for r in records:
            paths = np.asarray(r["samples"], dtype=np.float64)
            if paths.shape != (self.n_samples, self.horizon):
                problems.append(f"forecast {r['item_id']}: shape {paths.shape}")
            elif not np.all(np.isfinite(paths)):
                problems.append(f"forecast {r['item_id']}: non-finite samples")
        scores = self.relative_scores(out_dir)
        for metric in ("relative_wql", "relative_mase", "relative_vrse"):
            if not np.isfinite(scores.get(metric, float("nan"))):
                problems.append(f"eval: {metric} is {scores.get(metric)}")
        return problems

    def horizon_nll(self, wavets, in_dir, out_dir):
        """Cross-entropy of the trained model on the held-out test pairs,
        tokenized with the fitted codebook under the default config."""
        config = wavets.TokenizerConfig(family="bior2.2", level=1,
                                        threshold=wavets.ThresholdSpec(method="none"))
        codebook = wavets.load_codebook(out_dir / "codebook.json")
        model = wavets.load_model(out_dir / "model.json")
        test = wavets.load_dataset(in_dir / "test.jsonl")
        _, pairs = wavets.split_last_h(test, self.horizon, self.context_length)
        losses = []
        for pair in pairs:
            ctx, hor = wavets.tokenize_pair(wavets.pad_to_length(pair.context,
                                                                 self.context_length),
                                            pair.horizon, config, codebook)
            losses.append(wavets.cross_entropy(model, ctx, hor, codebook.pad_id))
        return float(np.mean(losses))

    def stage_metrics(self, in_dir, out_dir, stdout, command_s):
        return {
            # tokenize and train are too short here to time; tokenize-gappy times them
            "forecast_series_per_s": self.n_test / command_s["forecast"],
            **self.relative_scores(out_dir),
        }


class TokenizeGappy(Workload):
    name = "tokenize-gappy"
    n_series = 300
    flags = ["--family", "bior2.2", "--level", "3", "--threshold-method", "fdrc",
             "--context-length", "512", "--horizon", "64", "--order", "3"]

    def generate(self, wavets, seed, in_dir):
        dataset = wavets.data_synth.make_dataset(self.n_series, seed=data_seeds(seed)[0])
        gappy = inject_gaps([s.values for s in dataset.series], seed)
        for s, values in zip(dataset.series, gappy):
            s.values = values
        wavets.data_io.save_dataset(dataset, in_dir / "data.jsonl")

    def commands(self, in_dir, out_dir):
        data = in_dir / "data.jsonl"
        cb, tok = out_dir / "codebook.json", out_dir / "tokens.jsonl"
        return [
            ("fit-codebook", ["fit-codebook", "--data", data, "--out", cb, *self.flags]),
            ("tokenize", ["tokenize", "--data", data, "--codebook", cb, "--out", tok,
                          *self.flags]),
            ("detokenize", ["detokenize", "--tokens", tok, "--codebook", cb,
                            "--out", out_dir / "detok.jsonl", "--reference", data,
                            *self.flags]),
            ("train", ["train", "--tokens", tok, "--codebook", cb,
                       "--out", out_dir / "model.json", *self.flags]),
        ]

    def items(self):
        return 3 * self.n_series  # tokenized series, detokenized records (two per series)

    def primary_outputs(self, out_dir):
        return [out_dir / "tokens.jsonl", out_dir / "detok.jsonl"]

    @staticmethod
    def roundtrip_rmse(stdout: str) -> float:
        match = re.search(r"reconstruction RMSE over \d+ windows: mean (\S+)", stdout)
        return float(match.group(1)) if match else float("nan")

    def check(self, in_dir, out_dir, stdout):
        problems = []
        data = read_records(in_dir / "data.jsonl")
        expected = sorted((r["item_id"], k) for r in data for k in ("context", "horizon"))
        for name in ("tokens.jsonl", "detok.jsonl"):
            records = read_records(out_dir / name)
            got = sorted((r["item_id"], r["kind"]) for r in records)
            if got != expected:
                problems.append(f"{name}: {len(got)} records, expected {len(expected)}")
        if not np.isfinite(self.roundtrip_rmse(stdout.get("detokenize", ""))):
            problems.append("detokenize reported no finite reconstruction RMSE")
        if not (out_dir / "model.json").is_file():
            problems.append("train wrote no model")
        return problems

    def stage_metrics(self, in_dir, out_dir, stdout, command_s):
        return {
            "tokenize_windows_per_s": self.n_series / command_s["tokenize"],
            "train_tokens_per_s": token_count(out_dir / "tokens.jsonl") / command_s["train"],
            "roundtrip_rmse": self.roundtrip_rmse(stdout["detokenize"]),
        }


class AblateSweep(Workload):
    name = "ablate-sweep"
    n_series = 24
    grid = {"family": ["haar", "db4"], "boundary_mode": ["symmetric", "periodization"]}
    flags = ["--level", "1", "--threshold-method", "none", "--context-length", "512",
             "--horizon", "64", "--n-samples", "5", "--order", "3"]

    @property
    def n_cells(self) -> int:
        return int(np.prod([len(v) for v in self.grid.values()]))

    def generate(self, wavets, seed, in_dir):
        dataset = wavets.data_synth.make_dataset(self.n_series, seed=data_seeds(seed)[0])
        wavets.data_io.save_dataset(dataset, in_dir / "data.jsonl")
        (in_dir / "grid.yaml").write_text(json.dumps({"grid": self.grid}) + "\n")

    def commands(self, in_dir, out_dir):
        return [("ablate", ["ablate", "--data", in_dir / "data.jsonl",
                            "--grid", in_dir / "grid.yaml", "--out-dir", out_dir / "cells",
                            *self.flags])]

    def items(self):
        return self.n_cells

    def primary_outputs(self, out_dir):
        return [out_dir / "cells" / "sweep.csv"]

    def check(self, in_dir, out_dir, stdout):
        problems = []
        summary = re.search(r"\((\d+) cells, (\d+) failed\)", stdout.get("ablate", ""))
        if summary is None or summary.groups() != (str(self.n_cells), "0"):
            problems.append(f"ablate summary {summary and summary.group(0)!r}, "
                            f"expected {self.n_cells} cells and 0 failed")
        with open(out_dir / "cells" / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != self.n_cells:
            problems.append(f"sweep.csv has {len(rows)} cells, expected {self.n_cells}")
        return problems

    def stage_metrics(self, in_dir, out_dir, stdout, command_s):
        return {"forecast_series_per_s": self.n_cells * self.n_series / command_s["ablate"]}


def token_count(tokens_path) -> int:
    records = read_records(tokens_path)
    return sum(len(r["tokens"]) for r in records)


WORKLOADS = {w.name: w for w in (ForecastDefault(), TokenizeGappy(), AblateSweep())}
