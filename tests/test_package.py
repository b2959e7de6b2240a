"""The package namespace after a bare ``import wavets`` in a fresh
interpreter, where no other import has loaded a submodule yet, and the
modules that start-up of the command line loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Names bench/workloads.py and bench/tests read from the package itself.
BENCH_NAMES = [
    "TokenizerConfig", "ThresholdSpec", "load_codebook", "load_model", "load_dataset",
    "split_last_h", "tokenize_pair", "pad_to_length", "cross_entropy", "decompose", "get_family",
]
SUBMODULES = ["data_synth", "data_io", "seq_model", "tokenizer", "dwt"]

# Distributions start-up of the command line may load: pyproject.toml's
# dependencies, and the package itself when it is installed.
DEPENDENCIES = {"numpy", "PyYAML", "wavets"}

PROBE = """
import json, sys
before = set(sys.modules)
import wavets
result = {
    "file": wavets.__file__,
    "all": list(wavets.__all__),
    "unresolved": [n for n in wavets.__all__ if not hasattr(wavets, n)],
    "missing": [n for n in sys.argv[1:] if not hasattr(wavets, n)],
    "bench_reads": [
        callable(wavets.data_synth.make_dataset), callable(wavets.data_io.save_dataset)],
}
import wavets.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
from importlib.metadata import packages_distributions
owners = packages_distributions()
result["distributions"] = sorted({d for name in loaded for d in owners.get(name, [])})
print(json.dumps(result))
"""


def probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, *BENCH_NAMES, *SUBMODULES],
                         env=env, cwd=SRC, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_bare_import_exposes_the_names_the_benchmark_reads():
    result = probe()
    assert Path(result["file"]).resolve().parent == SRC / "wavets"
    assert result["unresolved"] == []
    assert result["missing"] == []
    assert set(BENCH_NAMES) <= set(result["all"])
    assert result["bench_reads"] == [True, True]


def test_command_line_start_up_loads_only_the_declared_dependencies():
    assert sorted(set(probe()["distributions"]) - DEPENDENCIES) == []
