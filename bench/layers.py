"""Which ``wavets`` functions the traced pass wraps, what each wrapper
counts, and how spans and counts become the per-layer metrics.

What each group of per-layer metrics should move (end-to-end ``wall_s``
unless said otherwise):

* ``seq_model.sample_forecast.*`` and ``seq_model.next_token_distribution.*``:
  forecast-default and ablate-sweep; nothing on tokenize-gappy.
* ``seq_model.horizon_nll``: ``relative_wql``/``relative_mase`` on
  forecast-default.
* ``seq_model.train_markov.*``, ``save_model``, ``load_model``,
  ``checkpoint_bytes``: tokenize-gappy, and the start of each forecast.
* ``dwt.*``, ``families.*``, ``thresholding.*``, ``codebook.*``,
  ``tokenizer.*``: tokenize-gappy and ablate-sweep; under 5% of
  forecast-default. The PAD, clamp and zeroed ratios move
  ``roundtrip_rmse`` on tokenize-gappy.
* ``data_io.*`` and ``cli.<command>.self_s`` (record I/O and glue):
  forecast-default and tokenize-gappy; almost nothing on ablate-sweep.
* ``setup.import_s`` and ``data_synth.make_dataset.busy_s``: ``setup_s``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .spans import Tracer, summarize

#: (defining module, function) pairs wrapped at every binding. The span
#: name is the module's last component plus the function name.
FUNCTIONS = [
    ("wavets.data_synth", "make_dataset"),
    ("wavets.data_io", "load_dataset"),
    ("wavets.data_io", "save_dataset"),
    ("wavets.data_io", "split_last_h"),
    ("wavets.families", "get_family"),
    ("wavets.dwt", "decompose"),
    ("wavets.dwt", "reconstruct"),
    ("wavets.thresholding", "apply_threshold"),
    ("wavets.codebook", "fit_codebook"),
    ("wavets.codebook", "quantize"),
    ("wavets.codebook", "dequantize"),
    ("wavets.tokenizer", "tokenize_pair"),
    ("wavets.tokenizer", "detokenize"),
    ("wavets.seq_model", "train_markov"),
    ("wavets.seq_model", "save_model"),
    ("wavets.seq_model", "load_model"),
    ("wavets.seq_model", "sample_forecast"),
    ("wavets.metrics", "wql"),
    ("wavets.metrics", "mase"),
    ("wavets.metrics", "vrse"),
    ("wavets.metrics", "seasonal_naive"),
    ("wavets.metrics", "sample_quantiles"),
]

METRIC_FUNCTIONS = ("wql", "mase", "vrse", "seasonal_naive", "sample_quantiles")

CLI_COMMANDS = ("fit-codebook", "tokenize", "detokenize", "train", "forecast", "eval", "ablate")


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


# -- observers: run after a successful call, see its inputs and output --


def _observe_tokenize_pair(tracer: Tracer, index, a, result):
    codebook = a["codebook"]
    if any(np.isnan(np.asarray(a[k], dtype=np.float64)).any() for k in ("context", "horizon")):
        tracer.flagged.add(index)
    for stream in result:
        tracer.counters["tokens"] += len(stream.tokens)
        tracer.counters["pad_tokens"] += int(np.sum(stream.tokens == codebook.pad_id))


def _observe_quantize(tracer: Tracer, index, a, result):
    values = np.atleast_1d(np.asarray(a["values"], dtype=np.float64))
    edges = a["codebook"].edges
    finite = values[np.isfinite(values)]
    tracer.counters["quantized"] += finite.size
    tracer.counters["clamped"] += int(np.sum((finite < edges[0]) | (finite >= edges[-1])))


def _observe_apply_threshold(tracer: Tracer, index, a, result):
    for before, after in zip(a["pyramid"].details, result.details):
        tracer.counters["detail_coefficients"] += before.size
        tracer.counters["zeroed"] += int(np.sum((before != 0.0) & (after == 0.0)))


def _observe_train_markov(tracer: Tracer, index, a, result):
    corpus = a["corpus"]
    if isinstance(corpus, (list, tuple)):
        tracer.counters["train_tokens"] += sum(len(c.tokens) + len(h.tokens) for c, h in corpus)


def _observe_save_model(tracer: Tracer, index, a, result):
    tracer.counters["checkpoint_bytes"] += Path(a["path"]).stat().st_size


OBSERVERS = {
    "tokenize_pair": _observe_tokenize_pair,
    "quantize": _observe_quantize,
    "apply_threshold": _observe_apply_threshold,
    "train_markov": _observe_train_markov,
    "save_model": _observe_save_model,
}


def install(tracer: Tracer) -> None:
    """Patch every listed function and ``MarkovModel.next_token_distribution``."""
    import wavets.seq_model

    for module, function in FUNCTIONS:
        if not tracer.patch_function(module, function, span_name(module, function),
                                     OBSERVERS.get(function)):
            raise RuntimeError(f"{module}.{function} is bound nowhere in wavets")
    tracer.patch_method(wavets.seq_model.MarkovModel, "next_token_distribution",
                        "seq_model.next_token_distribution")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentiles(values) -> tuple[float, float]:
    """p50 and p80 of ``values``, each only when at least ten samples lie
    beyond it (20 samples for p50, 50 for p80); 0 otherwise."""
    n = len(values)
    p50 = float(np.percentile(values, 50)) if n >= 20 else 0.0
    p80 = float(np.percentile(values, 80)) if n >= 50 else 0.0
    return p50, p80


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced pass. A layer the workload never
    calls reads 0."""
    stats = summarize(tracer)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return stats.get(name, empty)

    def us_per_call(durations):
        return 1e6 * float(np.mean(durations)) if len(durations) else 0.0

    out: dict[str, float] = {}
    for name in ("dwt.decompose", "dwt.reconstruct"):
        s = get(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.busy_s"] = s["busy_s"]
        out[f"{name}.us_per_call"] = us_per_call(s["durations"])
    for name in ("families.get_family", "thresholding.apply_threshold", "codebook.quantize"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.busy_s"] = get(name)["busy_s"]
    for name in ("codebook.fit_codebook", "codebook.dequantize", "seq_model.train_markov",
                 "seq_model.save_model", "seq_model.load_model", "data_io.load_dataset",
                 "data_io.save_dataset", "data_io.split_last_h", "data_synth.make_dataset"):
        out[f"{name}.busy_s"] = get(name)["busy_s"]

    sf = get("seq_model.sample_forecast")
    out["seq_model.sample_forecast.calls"] = sf["calls"]
    p50, p80 = tail_percentiles(1e3 * np.asarray(sf["durations"]))
    out["seq_model.sample_forecast.ms_p50"] = p50
    out["seq_model.sample_forecast.ms_p80"] = p80
    ntd = get("seq_model.next_token_distribution")
    out["seq_model.next_token_distribution.calls"] = ntd["calls"]
    out["seq_model.next_token_distribution.us_per_call"] = us_per_call(ntd["durations"])
    out["seq_model.train_markov.tokens"] = int(tracer.counters["train_tokens"])
    out["seq_model.checkpoint_bytes"] = int(tracer.counters["checkpoint_bytes"])

    tp = get("tokenizer.tokenize_pair")
    pair_spans = [i for i, n in enumerate(tracer.names) if n == "tokenizer.tokenize_pair"]
    full = [tracer.ends[i] - tracer.starts[i] for i in pair_spans if i not in tracer.flagged]
    gappy = [tracer.ends[i] - tracer.starts[i] for i in pair_spans if i in tracer.flagged]
    out["tokenizer.tokenize_pair.calls"] = tp["calls"]
    out["tokenizer.tokenize_pair.self_s"] = tp["self_s"]
    out["tokenizer.tokenize_pair.us_per_call_full"] = us_per_call(full)
    out["tokenizer.tokenize_pair.us_per_call_gappy"] = us_per_call(gappy)
    dt = get("tokenizer.detokenize")
    out["tokenizer.detokenize.calls"] = dt["calls"]
    out["tokenizer.detokenize.us_per_call"] = us_per_call(dt["durations"])

    c = tracer.counters
    out["tokenizer.pad_rate"] = _ratio(c["pad_tokens"], c["tokens"])
    out["codebook.clamp_rate"] = _ratio(c["clamped"], c["quantized"])
    out["thresholding.zeroed_share"] = _ratio(c["zeroed"], c["detail_coefficients"])

    out["metrics.busy_s"] = sum(get(f"metrics.{f}")["busy_s"] for f in METRIC_FUNCTIONS)
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = get(f"cli.{command}")["busy_s"]
        out[f"cli.{command}.self_s"] = get(f"cli.{command}")["self_s"]
    out["trace.failed_calls"] = sum(s["calls"] for n, s in stats.items() if n.endswith(".failed"))
    return out

