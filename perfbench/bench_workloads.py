"""Benchmark workloads: CLI arguments generated from a seed, plus output checks.

Each workload is one ``fogndt`` subcommand at a fixed input size.  The seed
only changes inputs the program's result must not depend on (list order for
``gap-scan``), or picks one realization among equally sized ones (placement
seed for ``simulate``, demand permutation for ``schedule-export``), so every
seed does the same amount of work.
"""
from __future__ import annotations

import json
import math
import random

# The placement seed handed to ``simulate --seed`` is the benchmark seed
# reduced into the range numpy's SeedSequence accepts.
_PLACEMENT_SEED_MOD = 2 ** 32


class Workload:
    """One named CLI invocation at a fixed size.

    ``items`` is the work one operation completes, in ``item_unit``;
    ``throughput_name`` is the name the summary prints that rate under.
    """

    name: str
    why: str
    item_unit: str
    throughput_name: str

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def slices(self, seed: int) -> list[list[str]]:
        """The CLI calls that make up one operation, in order; by default one call."""
        return [self.argv(seed)]

    def merge(self, calls: list[tuple]) -> tuple:
        """One ``(rc, out, err)`` for the operation from those of its calls."""
        (call,) = calls
        return call

    def items(self) -> int:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> dict:
        """Reference values from the library, computed once before any timed call."""
        return {}

    def check(self, rc: int | None, out: str, expect: dict) -> list[str]:
        """Problems found in one operation's exit code and standard output."""
        raise NotImplementedError


def _config_flags(nt: int, nr: int, mu_t: float, mu_r: float, r: float) -> list[str]:
    return ["--nt", str(nt), "--nr", str(nr), "--mut", repr(mu_t), "--mur", repr(mu_r), "--r", repr(r)]


def _load_json(out: str, problems: list[str]):
    try:
        return json.loads(out)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


class GapScan(Workload):
    item_unit = "points"
    throughput_name = "points_per_s"

    def __init__(self, name: str, why: str, nt_range: tuple[int, int], nr_range: tuple[int, int],
                 mu_values: list[str], r_values: list[str]) -> None:
        self.name, self.why = name, why
        self.nt_range, self.nr_range = nt_range, nr_range
        self.mu_values, self.r_values = list(mu_values), list(r_values)

    def slices(self, seed: int) -> list[list[str]]:
        """One call per (n_t, n_r, r) of the grid, in an order set by the seed.

        A whole-grid call takes seconds, so a run holds only a few; calls of
        about 50 ms each give every part of the grid several samples per run.
        """
        rng = random.Random(seed)
        mu = list(self.mu_values)
        rng.shuffle(mu)
        calls = [
            ["gap-scan", "--nt-range", f"{nt}:{nt}", "--nr-range", f"{nr}:{nr}",
             "--mu-values", ",".join(mu), "--r-values", r]
            for nt in range(self.nt_range[0], self.nt_range[1] + 1)
            for nr in range(self.nr_range[0], self.nr_range[1] + 1)
            for r in self.r_values
        ]
        rng.shuffle(calls)
        return calls

    def merge(self, calls):
        """The whole-grid output: every call's rows in the CLI's order (gap descending, then row)."""
        rcs = [rc for rc, _, _ in calls]
        rc = next((rc for rc in rcs if rc != 0), 0)
        header, rows = None, []
        for _, out, _ in calls:
            lines = out.splitlines()
            if lines:
                header = lines[0]
                rows.extend(lines[1:])
        if header is None:
            return rc, "", "".join(err for _, _, err in calls)

        column = header.split(",").index("gap")

        def key(line: str):
            row = line.rsplit(",", 1)[0]
            return -float(row.split(",")[column]), row

        rows.sort(key=key)
        return rc, "\n".join([header, *rows]) + "\n", "".join(err for _, _, err in calls)

    def items(self) -> int:
        shapes = (self.nt_range[1] - self.nt_range[0] + 1) * (self.nr_range[1] - self.nr_range[0] + 1)
        return shapes * len(self.mu_values) ** 2 * len(self.r_values)

    def sizes(self) -> dict:
        return {"points": self.items(), "nt_range": list(self.nt_range), "nr_range": list(self.nr_range),
                "mu_values": len(self.mu_values), "r_values": len(self.r_values)}

    def check(self, rc, out, expect):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0 (worst gap within 12)")
        rows = out.count("\n") - 1
        if rows != self.items():
            problems.append(f"{rows} CSV rows, expected {self.items()}")
        return problems


class _OneNetwork(Workload):
    """A workload on one network shape, checked against ``ndt_upper`` of that shape."""

    def __init__(self, name: str, why: str, nt: int, nr: int, mu_t: float, mu_r: float, r: float) -> None:
        self.name, self.why = name, why
        self.shape = (nt, nr, mu_t, mu_r, r)

    def shape_sizes(self) -> dict:
        return dict(zip(("n_t", "n_r", "mu_t", "mu_r", "r"), self.shape))

    def prepare(self) -> dict:
        from fogndt.bounds import ndt_upper
        from fogndt.model import NetworkConfig

        nt, nr, mu_t, mu_r, r = self.shape
        return {"tau": repr(ndt_upper(NetworkConfig(nt, nr, nr, mu_t, mu_r, r)))}


class Simulate(_OneNetwork):
    item_unit = "verified_bits"
    throughput_name = "verified_bits_per_s"

    def __init__(self, name: str, why: str, nt: int, nr: int, mu_t: float, mu_r: float, r: float,
                 file_bits: int) -> None:
        super().__init__(name, why, nt, nr, mu_t, mu_r, r)
        self.file_bits = file_bits

    def argv(self, seed: int) -> list[str]:
        return ["simulate", *_config_flags(*self.shape), "--file-bits", str(self.file_bits),
                "--seed", str(seed % _PLACEMENT_SEED_MOD)]

    def items(self) -> int:
        return self.shape[1] * self.file_bits

    def sizes(self) -> dict:
        return {**self.shape_sizes(), "file_bits": self.file_bits, "verified_bits": self.items()}

    def check(self, rc, out, expect):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        doc = _load_json(out, problems)
        if not isinstance(doc, dict) or "report" not in doc:
            return problems + ["no decode report in the output"]
        if doc.get("failed_ues") != []:
            problems.append(f"failed users {doc.get('failed_ues')!r}")
        if not all(doc["report"].get("per_ue_success", [False])):
            problems.append("a user did not recover its file")
        tau = repr(doc.get("analytic", {}).get("tau"))
        if tau != expect["tau"]:
            problems.append(f"analytic tau {tau} differs from ndt_upper {expect['tau']}")
        return problems


class ScheduleExport(_OneNetwork):
    item_unit = "messages"
    throughput_name = "messages_per_s"

    def __init__(self, name: str, why: str, nt: int, nr: int, mu_t: float, mu_r: float, r: float) -> None:
        if not (0.0 < mu_t < 1.0 and 0.0 < mu_r < 1.0):
            raise ValueError("the message count below assumes every group is nonempty")
        super().__init__(name, why, nt, nr, mu_t, mu_r, r)

    def demand(self, seed: int) -> list[int]:
        demand = list(range(1, self.shape[1] + 1))
        random.Random(seed).shuffle(demand)
        return demand

    def argv(self, seed: int) -> list[str]:
        return ["schedule-export", *_config_flags(*self.shape),
                "--demand", ",".join(map(str, self.demand(seed)))]

    def items(self) -> int:
        # One coded message per (user group of size m+1, edge-node set of size n).
        nt, nr = self.shape[0], self.shape[1]
        return sum(math.comb(nr, m + 1) for m in range(nr)) * 2 ** nt

    def sizes(self) -> dict:
        return {**self.shape_sizes(), "messages": self.items()}

    def check(self, rc, out, expect):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        doc = _load_json(out, problems)
        if not isinstance(doc, dict) or "groups" not in doc:
            return problems + ["no schedule in the output"]
        tau = repr(doc.get("total_ndt"))
        if tau != expect["tau"]:
            problems.append(f"total_ndt {tau} differs from ndt_upper {expect['tau']}")
        messages = sum(len(g["messages"]) for g in doc["groups"])
        if messages != self.items():
            problems.append(f"{messages} messages, expected {self.items()}")
        return problems


# Operations are kept short (tens to hundreds of milliseconds per CLI call):
# on a shared machine whose speed changes for seconds at a time, the fastest of
# many short calls is far steadier from run to run than the fastest of a few
# long ones.
MU_GRID = [f"{k / 10:.1f}" for k in range(1, 10)]
R_GRID = ["0.1", "0.3", "1", "3", "10", "100"]

WORKLOADS = {
    w.name: w
    for w in (
        GapScan(
            "gap_scan_12k",
            "closed-form path only (bounds, dof, iter_group_terms) plus CLI sort and CSV; placement and oracle idle",
            (2, 6), (2, 6), MU_GRID, R_GRID,
        ),
        Simulate(
            "simulate_bulk_3x3",
            "56 messages over 50 kB files: placement sampling and cell indexing take over 90 % of the time",
            3, 3, 0.5, 0.5, 10.0, 400_000,
        ),
        Simulate(
            "simulate_many_5x5",
            "992 small messages: per-message Python overhead in the oracle and message materialization dominates",
            5, 5, 0.5, 0.5, 100.0, 100_000,
        ),
        ScheduleExport(
            "export_5x5",
            "only user of sub-messages, fronthaul plans and DeliverySchedule.to_json: schedule JSON, no oracle",
            5, 5, 0.5, 0.5, 100.0,
        ),
    )
}
