"""End-to-end benchmark of the ppkmsent CLI pipeline.

Usage, from the repository root::

    python3 bench/run.py --workload pipeline-classic --seed 1 --seconds 50 --trace 0

One process plays a single user in a closed loop: it calls the real CLI
entry point (``ppkmsent.cli.main``) for each stage, in order, and starts a
stage only after the previous one returned.  Set-up generates the raw dump
from ``--seed`` (several times; the median is ``setup_s``).  The timed part
then repeats the workload's stage sequence, each time in a fresh output
directory, until ``--seconds`` are used, and reports the median of each
call's samples over the whole run.  After every iteration the outputs are
checked.

With ``--trace 1`` the run alternates untraced and traced iterations on the
same inputs and reports per-layer metrics from the traced ones (see
``spans.py``); the traced artifacts must be byte-identical to the untraced
ones.

The last line of standard output is the JSON result; the line before it is
a JSON record of the environment, the input properties and every sample.
Metric definitions are in ``METRICS.md`` next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

# numerical libraries read these once, when they load
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs at least this many times, and until its samples add up to
# MIN_SETUP_S: a 0.2 s set-up at the start of a run otherwise reads the
# host's state of that moment only
SETUP_REPEATS = 3
MIN_SETUP_S = 3.0
RSS_SAMPLE_SECONDS = 0.01
# On a shared 2-vCPU VM the same call runs up to 1.7x slower or 1.3x faster
# in phases that last seconds to tens of seconds, in CPU time as well as wall
# time.  A call's samples are therefore spread over the whole run: each
# iteration times every call once, and a call shorter than this is repeated
# on the same inputs only until its samples in that iteration add up to it.
# Each call's time is the median of all its samples in the run.
MIN_CALL_SAMPLE_S = 0.3
MAX_CALL_REPEATS = 50
# Share of a traced iteration's wall time (timed around each ``cli.main``
# call) that the layer self times may leave unaccounted.  Only the harness
# work between a call's timestamps and the traced ``cli.main`` span falls
# in it: redirecting stdout and the wrapper's own bookkeeping, microseconds
# per call.  The check fails when the spans miss part of a stage call, as
# when ``cli.main`` is reached past its wrapper.
TRACE_TOLERANCE = 0.01
# the desk profile's sequence length, for the padding figure of the inputs
MAX_SEQUENCE_LENGTH = 64
LABELS = ("negative", "neutral", "positive")
STAGES = ("ingest", "label", "train", "eval", "viz")


@dataclass(frozen=True)
class Workload:
    name: str
    raw_rows: int
    models: tuple[str, ...]
    # config lines shared by every stage call; ``model`` is added per call
    settings: dict[str, str]

    def passes(self, model: str) -> int:
        """Passes over the training split that fitting ``model`` makes."""
        if model == "svm":
            return int(self.settings["svm_epochs"])
        if model == "bert":
            return int(self.settings["epochs"])
        return {"mnb": 1, "lexicon": 0}[model]


SPLIT_6_2_2 = {
    "train_fraction": "6/10",
    "validation_fraction": "2/10",
    "test_fraction": "2/10",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-classic",
            raw_rows=21_260,
            models=("mnb", "svm", "lexicon"),
            settings={**SPLIT_6_2_2, "svm_epochs": "5"},
        ),
        Workload(
            name="encoder-train",
            raw_rows=800,
            models=("bert",),
            # 3 epochs (39 steps) at this rate reach test macro-F near 1.0 on
            # every seed tried; with 2 epochs about one seed in 15 stops at
            # 0.55, and with 1 epoch it lands anywhere from 0.2 to 1.0
            settings={
                **SPLIT_6_2_2,
                "profile": "desk",
                "epochs": "3",
                "learning_rate": "0.003",
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# environment


def pin_threads() -> int:
    """Pin numerical libraries to ``BLAS_THREADS``; returns the cpu count.

    The memory sampler is the second thread, so two cpus are needed to
    keep the thread count within ``nproc``.
    """
    nproc = len(os.sched_getaffinity(0))
    if nproc < BLAS_THREADS + 1:
        raise SystemExit(f"error: needs {BLAS_THREADS + 1} cpus, found {nproc}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def import_program():
    """Import ppkmsent from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ppkmsent" / "__init__.py").is_file():
        raise SystemExit(f"error: no ppkmsent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ppkmsent

    if Path(ppkmsent.__file__).resolve().parent != SRC / "ppkmsent":
        raise SystemExit(f"error: imported ppkmsent from {ppkmsent.__file__}")
    from ppkmsent import cli

    return cli


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def environment(nproc: int, max_threads: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "max_threads": max_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


class RssSampler:
    """Peak resident memory while a stage runs, sampled by one thread."""

    def __init__(self) -> None:
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._active = False
        self._peak = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_SECONDS):
            if self._active:
                self._peak = max(self._peak, self._rss())

    def begin(self) -> None:
        self._peak = self._rss()
        self._active = True

    def end(self) -> int:
        self._active = False
        return max(self._peak, self._rss())

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# one iteration


def stage_of(call: str) -> str:
    """``train:svm`` -> ``train``; other calls are named after their stage."""
    return call.partition(":")[0]


def stage_times(samples: dict[str, list[float]]) -> dict[str, float]:
    """Median time of each call, summed per stage (train runs once per model)."""
    out = dict.fromkeys(STAGES, 0.0)
    for call, times in samples.items():
        out[stage_of(call)] += statistics.median(times)
    return out


@dataclass
class Iteration:
    # wall-time samples of each call: "ingest", "train:mnb", ...
    samples: dict[str, list[float]]
    peak_rss: int
    calls: int
    checks: int
    failures: list[str]
    hashes: dict[str, str]
    outputs: dict

    @property
    def wall_s(self) -> float:
        return sum(stage_times(self.samples).values())


def write_configs(workload: Workload, raw_path: Path, run_dir: Path) -> dict[str, Path]:
    """One config per model plus ``main`` for the non-training stages."""
    paths = {}
    for model in ("main", *workload.models):
        lines = {
            "output_dir": "out",
            "corpus_path": str(raw_path),
            **workload.settings,
            "model": workload.models[0] if model == "main" else model,
        }
        path = run_dir / f"{model}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
        paths[model] = path
    return paths


def call_stage(cli, stage: str, config: Path) -> str | None:
    """Run one CLI stage; returns a failure message or None."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([stage, "-c", str(config)])
    except SystemExit as exc:
        return f"{stage}: exited via SystemExit({exc.code})"
    except Exception as exc:  # the benchmark must report, not crash
        return f"{stage}: raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"{stage}: exit code {code}"


def hash_tree(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def split_sizes(labels: list[str], settings: dict[str, str]) -> tuple[int, int]:
    """(train, test) sizes under the README's stratified floor rule."""
    fractions = [
        Fraction(settings[k])
        for k in ("train_fraction", "validation_fraction", "test_fraction")
    ]
    train = test = 0
    for label in LABELS:
        n = labels.count(label)
        _, n_val, n_test = (int(f * n) for f in fractions)  # floor: f >= 0
        train += n - n_val - n_test
        test += n_test
    return train, test


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_outputs(workload: Workload, out: Path) -> tuple[list[str], int, dict]:
    """Check one iteration's artifacts.

    Returns the failure messages, the number of checks made, and what the
    checks parsed: the ingest report, labels, tokens and macro-F per model.
    """
    parsed: dict = {"macro_f": {}}

    def ingest_accounts():
        r = parsed["report"] = read_json(out / "ingest_report.json")
        return r["parsed"] == (
            r["kept"]
            + r["duplicates_removed"]
            + r["dropped_no_keyword"]
            + r["dropped_by_verdict"]
        )

    def labeled_rows():
        text = (out / "labeled.jsonl").read_text(encoding="utf-8")
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        parsed["labels"] = [row["label"] for row in rows]
        parsed["tokens"] = [row["tokens"] for row in rows]
        return 0 < len(rows) == parsed["report"]["kept"]

    def confusion_totals(model: str):
        payload = read_json(out / f"metrics_{model}.json")
        parsed["macro_f"][model] = payload["macro_f"]
        _, test = split_sizes(parsed["labels"], workload.settings)
        return 0 < test == sum(map(sum, payload["confusion"]))

    checks = [
        ("ingest_report accounts for every parsed row", ingest_accounts),
        ("labeled.jsonl holds one row per kept record", labeled_rows),
        *(
            (f"metrics_{m}.json confusion totals the test split", lambda m=m: confusion_totals(m))
            for m in workload.models
        ),
    ]
    failures = []
    for name, condition in checks:
        try:
            ok = condition()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            failures.append(f"{name}: failed")
    return failures, len(checks), parsed


def run_iteration(
    cli, workload: Workload, raw_path: Path, run_dir: Path, rss, repeat: bool
) -> Iteration:
    run_dir.mkdir(parents=True)
    configs = write_configs(workload, raw_path, run_dir)
    calls = [
        ("ingest", configs["main"]),
        ("label", configs["main"]),
        *((f"train:{model}", configs[model]) for model in workload.models),
        ("eval", configs["main"]),
        ("viz", configs["main"]),
    ]
    samples: dict[str, list[float]] = {}
    failures: list[str] = []
    peak = 0
    made = 0
    for call, config in calls:
        times = samples[call] = []
        while True:
            rss.begin()
            start = time.perf_counter()
            failure = call_stage(cli, stage_of(call), config)
            times.append(time.perf_counter() - start)
            peak = max(peak, rss.end())
            made += 1
            if failure:
                failures.append(failure)
                break
            if not repeat or sum(times) >= MIN_CALL_SAMPLE_S or len(times) >= MAX_CALL_REPEATS:
                break

    out = run_dir / "out"
    check_failures, checks, parsed = check_outputs(workload, out)
    return Iteration(
        samples=samples,
        peak_rss=peak,
        calls=made,
        checks=checks,
        failures=failures + check_failures,
        hashes=hash_tree(out),
        outputs=parsed,
    )


# ---------------------------------------------------------------------------
# metrics


def pooled_samples(its: list[Iteration]) -> dict[str, list[float]]:
    pooled: dict[str, list[float]] = {}
    for it in its:
        for call, times in it.samples.items():
            pooled.setdefault(call, []).extend(times)
    return pooled


def end_to_end_metrics(workload: Workload, setup_s: list[float], its: list[Iteration]) -> dict:
    def median_of(fn) -> float:
        return statistics.median(fn(it) for it in its)

    stage_s = stage_times(pooled_samples(its))
    train_docs, test_docs = split_sizes(its[0].outputs["labels"], workload.settings)
    doc_passes = train_docs * sum(workload.passes(m) for m in workload.models)
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(stage_s.values()), "s"),
        **{f"{stage}_s": (stage_s[stage], "s") for stage in STAGES},
        "train_docs_per_s": (doc_passes / stage_s["train"], "1/s"),
        "eval_docs_per_s": (test_docs * len(workload.models) / stage_s["eval"], "1/s"),
        "peak_rss_mb": (median_of(lambda it: it.peak_rss / 1e6), "MB"),
        "test_macro_f": (median_of(lambda it: min(it.outputs["macro_f"].values())), "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def traced_metrics(traced: list, plain: list[Iteration]) -> dict:
    import spans

    per_layer = [
        {**spans.layer_metrics(tracer, it.outputs["report"]), "trace.wall_s": it.wall_s}
        for tracer, it in traced
    ]
    metrics = {
        name: {
            "value": statistics.median(m[name] for m in per_layer),
            "unit": per_layer_unit(name),
        }
        for name in per_layer[0]
    }
    overhead = statistics.median(it.wall_s for _, it in traced) - statistics.median(
        it.wall_s for it in plain
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point


def setup(workload: Workload, seed: int, setup_dir: Path) -> tuple[Path, list[float], list[str]]:
    """Generate the raw dump repeatedly (see ``MIN_SETUP_S``); all copies must agree."""
    import inputs
    from ppkmsent.fixtures import write_jsonl

    times: list[float] = []
    digests = set()
    setup_dir.mkdir(parents=True)
    raw_path = setup_dir / "raw.jsonl"
    while len(times) < SETUP_REPEATS or (
        sum(times) < MIN_SETUP_S and len(times) < MAX_CALL_REPEATS
    ):
        start = time.perf_counter()
        write_jsonl(inputs.zipf_tweets(workload.raw_rows, seed), raw_path)
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(raw_path.read_bytes()).hexdigest())
    failures = [] if len(digests) == 1 else ["input generation is not deterministic"]
    return raw_path, times, failures


def run(args) -> tuple[dict, dict]:
    nproc = pin_threads()
    cli = import_program()
    import inputs
    import spans

    workload = WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rss = RssSampler()
    try:
        raw_path, setup_s, failures = setup(workload, args.seed, run_dir / "setup")
        attempted = 1
        # keep the benchmark's own objects out of the program's collections
        gc.collect()
        gc.freeze()
        plain: list[Iteration] = []
        traced: list[tuple[spans.Tracer, Iteration]] = []
        max_threads = thread_count()
        start = time.perf_counter()
        count = 0
        while True:
            # a traced run alternates which side of each pair goes first
            sides = (False,) if not args.trace else ((False, True), (True, False))[count % 2]
            for with_trace in sides:
                it_dir = run_dir / f"it{count}-{'traced' if with_trace else 'plain'}"
                gc.collect()
                if with_trace:
                    tracer = spans.Tracer()
                    with tracer:
                        it = run_iteration(cli, workload, raw_path, it_dir, rss, repeat=False)
                    traced.append((tracer, it))
                    attempted += 2
                    if not spans.is_clean():
                        failures.append("a traced name was not restored")
                    unaccounted = it.wall_s - sum(tracer.layer_self_times().values())
                    if abs(unaccounted) > TRACE_TOLERANCE * it.wall_s:
                        failures.append(
                            f"layer self times leave {unaccounted:.4f} s of the "
                            f"traced wall time ({it.wall_s:.4f} s) unaccounted"
                        )
                else:
                    it = run_iteration(
                        cli, workload, raw_path, it_dir, rss, repeat=not args.trace
                    )
                    plain.append(it)
                shutil.rmtree(it_dir)
                if it is not plain[0]:
                    it.outputs.pop("tokens", None)  # only the first is described
                attempted += it.calls + it.checks + 1
                failures.extend(it.failures)
                if it.hashes != plain[0].hashes:
                    failures.append(f"iteration {count} artifacts differ from the first's")
            max_threads = max(max_threads, thread_count())
            count += 1
            # stop where the next iteration would end more than half an
            # iteration past the budget
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / count / 2 > args.seconds:
                break
        measured_s = time.perf_counter() - start
    finally:
        rss.close()
        gc.unfreeze()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted += 1
    if max_threads > nproc:
        failures.append(f"{max_threads} threads exceed nproc={nproc}")
    first = plain[0].outputs
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(nproc, max_threads),
        "inputs": {
            "raw_rows": workload.raw_rows,
            **{k: first["report"][k] for k in ("parsed", "kept") if "report" in first},
            **(
                inputs.describe(first["tokens"], MAX_SEQUENCE_LENGTH)
                if first.get("tokens")
                else {}
            ),
        },
        "iterations": len(plain),
        "measured_s": measured_s,
        "setup_s_samples": setup_s,
        # each iteration's samples of each call, in run order
        "call_s_samples": [it.samples for it in plain],
        "macro_f": first["macro_f"],
        "failures": failures,
        "attempted": attempted,
        "error_rate": len(failures) / attempted,
    }
    try:
        if args.trace:
            metrics = traced_metrics(traced, plain)
            info["spans"] = [tracer.spans_as_rows() for tracer, _ in traced]
        else:
            metrics = end_to_end_metrics(workload, setup_s, plain)
    except (KeyError, ValueError, ZeroDivisionError):
        metrics = {}  # outputs are missing; the failures say why
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    info, result = run(args)

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps({**info, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    info.pop("spans", None)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
