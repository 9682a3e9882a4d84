"""Run one workload in this process and print its result as one JSON line.

Set-up time is measured from the top of this file, before ``fogndt`` and its
dependencies are imported, to the moment the workload's CLI arguments exist.
Each operation is the workload's in-process ``fogndt.cli.main(argv)`` calls
(one call, or ``gap_scan_12k``'s grid in slices), the same every time; their
standard output is captured, merged, hashed and checked.  With
``--trace 1`` operations alternate between untraced and traced, so the
tracing overhead is measured inside the same run.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected_sha256.json"
# Set-up is also measured in this many fresh processes, started between
# operations so the samples spread over the run; with this process's own
# set-up that makes seven samples.
SETUP_PROBES = 6

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


def load_cli():
    """Import ``fogndt.cli`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fogndt.cli

    if SRC not in Path(fogndt.cli.__file__).resolve().parents:
        raise RuntimeError(f"fogndt was imported from {fogndt.cli.__file__}, not from {SRC}")
    return fogndt.cli


def set_up(workload, seed):
    cli = load_cli()
    cli.build_parser()
    return cli, workload.slices(seed)


def pinned_digest(name: str, seed: int, table: dict | None = None) -> str | None:
    """The expected output sha256: seed-independent ("any") or pinned for one seed."""
    if table is None:
        table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    entry = table.get(name, {})
    return entry.get("any", entry.get(str(seed)))


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an operation that raises is a failed operation
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return rc, out.getvalue(), err.getvalue()


def _call_slices(cli, slices, slice_s):
    """One operation: each CLI call of ``slices`` in turn, timed into ``slice_s``."""
    calls = []
    for argv, times in zip(slices, slice_s):
        t = time.perf_counter()
        calls.append(_call(cli, argv))
        times.append(time.perf_counter() - t)
    return calls


def _merge(workload, calls):
    try:
        return workload.merge(calls)
    except (ValueError, IndexError) as exc:
        return None, "", f"merging the outputs failed: {type(exc).__name__}: {exc}\n"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.is_file():
                return ref_file.read_text(encoding="utf-8").strip()
            for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def provenance(workload, seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes(),
    }


def _setup_probe(workload, seed: int) -> float:
    """Set-up time of a fresh worker process that stops before the first call."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def measure(workload, cli, slices, seconds: float, trace: bool, digest: str | None,
            tracer: bench_trace.Tracer | None = None, probe=None) -> dict:
    """Repeat the operation until ``seconds`` would be exceeded; check every output.

    The operation is the CLI calls ``slices``, whose outputs the workload
    merges into one.  Throughput counts, for each call, its fastest untraced
    time in the run.  ``probe()``, when given, measures set-up in a fresh process; it runs
    between operations, spread over the run, ``SETUP_PROBES`` times.
    """
    expect = workload.prepare()
    setup_samples = []
    if trace and tracer is None:
        tracer = bench_trace.Tracer()
    durations = {False: [], True: []}
    slice_s = {False: [[] for _ in slices], True: [[] for _ in slices]}
    failures = []
    first_digest = None
    rss_after_first = None
    start = time.perf_counter()
    while True:
        traced = trace and len(durations[False]) > len(durations[True])
        t = time.perf_counter()
        if traced:
            calls = tracer.run_op(_call_slices, cli, slices, slice_s[True])
        else:
            calls = _call_slices(cli, slices, slice_s[False])
        durations[traced].append(time.perf_counter() - t)
        rc, out, err = _merge(workload, calls)
        del calls
        if rss_after_first is None:
            rss_after_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            problems = workload.check(rc, out, expect)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if digest is not None and got != digest:
            problems.append(f"output sha256 {got} differs from the pinned {digest}")
        if first_digest is None:
            first_digest = got
        elif got != first_digest:
            problems.append("output differs from the run's first operation")
        if problems:
            failures.append({"op": sum(map(len, durations.values())) - 1, "problems": problems,
                             "stderr_tail": err[-2000:]})
        del out
        elapsed = time.perf_counter() - start
        if probe is not None and len(setup_samples) < SETUP_PROBES \
                and elapsed >= len(setup_samples) * seconds / SETUP_PROBES:
            setup_samples.append(probe())
            elapsed = time.perf_counter() - start
        if trace:
            if not durations[True]:
                continue
            following = not traced
            estimate = statistics.median(durations[following]) if durations[following] else 0.0
        else:
            estimate = statistics.median(durations[False])
        if elapsed + estimate > seconds:
            break

    while probe is not None and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe())
    untraced = durations[False]
    attempted = len(untraced) + len(durations[True])
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "ops": {"untraced": len(untraced), "traced": len(durations[True])},
        "digest": first_digest,
    }
    if trace:
        stats = tracer.op_stats()
        bad = [i for i, s in enumerate(stats) if not s.self_times_consistent()]
        if bad:
            result["failed"] += len(bad)
            failures.extend({"traced_op": i, "problems": ["self times do not add up to the root span"]}
                            for i in bad)
        result["metrics"] = bench_trace.per_layer_metrics(tracer, untraced, durations[True])
    else:
        result["metrics"] = {
            "throughput_per_s": {"value": workload.items() / sum(map(min, slice_s[False])),
                                 "unit": "items/s"},
            "peak_rss_mb": {"value": rss_after_first, "unit": "MB"},
        }
        result["median_throughput_per_s"] = workload.items() / statistics.median(untraced)
        result["op_s"] = untraced
        result["setup_samples_s"] = setup_samples
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    args = parser.parse_args(argv)
    workload = bench_workloads.WORKLOADS[args.workload]
    cli, slices = set_up(workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = bench_trace.Tracer() if args.trace else None
    probe = None if args.trace else functools.partial(_setup_probe, workload, args.seed)
    result = measure(workload, cli, slices, args.seconds, bool(args.trace),
                     pinned_digest(workload.name, args.seed), tracer, probe)
    if not args.trace:
        result["setup_samples_s"].append(setup_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(result["setup_samples_s"]), "unit": "s"}
    result["argv"] = slices
    result["provenance"] = provenance(workload, args.seed)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans_{workload.name}.csv"
        tracer.write_spans(trace_path)
        result["spans_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
