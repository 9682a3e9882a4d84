"""Byte-identity of CLI output against pinned sha256 digests.

Refactors of the scheduler, oracle and CLI must not move a single output
byte.  The cases cover groups cached at no edge node, both fronthaul modes,
duplicate demands, finite-file simulation with fixed seeds, a sweep CSV and
the bounds JSON.
A digest change here means a reported number or a schedule structure moved.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from fogndt.cli import main
from fogndt.model import DemandVector, NetworkConfig
from fogndt.oracle import execute_schedule
from fogndt.placement import sample_placement
from fogndt.scheduler import build_schedule

CASES = {
    "bounds_json": (
        ["bounds", "--nt", "3", "--nr", "4", "--mut", "0.3", "--mur", "0.6", "--r", "2", "--format", "json"],
        "f75a04d501ee3ea756c521567341b053fca44a44211a803aadc5d37068a980a0",
    ),
    "export_3x3": (
        ["schedule-export", "--nt", "3", "--nr", "3", "--mut", "0.25", "--mur", "0.25", "--r", "4"],
        "ea3ec2ac2beaf96990f0f1358f312af87d5f7aba0e4308952b554a6baf6f0278",
    ),
    "export_4x2": (
        ["schedule-export", "--nt", "4", "--nr", "2", "--mut", "0.6", "--mur", "0.1", "--r", "50"],
        "c262e3b5e2f642a26279a389eaa660c1a9bd31989bdd240e954b535cfd019767",
    ),
    "export_4x2_duplicate_demand": (
        ["schedule-export", "--nt", "4", "--nr", "2", "--nfiles", "3", "--mut", "0.3",
         "--mur", "0.4", "--r", "0.5", "--demand", "3,3"],
        "c1bcbc4e75a2d65e26da627994ba12113970960e282b549a66d95832d3a92dbf",
    ),
    # The shape and seed-0 demand of perfbench's export_5x5 workload, whose
    # pinned digest this equals.
    "export_5x5_demand_permuted": (
        ["schedule-export", "--nt", "5", "--nr", "5", "--mut", "0.5", "--mur", "0.5", "--r", "100.0",
         "--demand", "3,2,1,5,4"],
        "593647536fa710bf539820198d41c6e7fcec6c0547c2571b147e216787fc74ce",
    ),
    "simulate_2x2": (
        ["simulate", "--nt", "2", "--nr", "2", "--mut", "0.5", "--mur", "0.5", "--r", "1",
         "--file-bits", "3000", "--seed", "7"],
        "285993ca9dddaa74ccbb0d2963f93222c43bebeae020811469aecf7baa613d28",
    ),
    "simulate_3x3": (
        ["simulate", "--nt", "3", "--nr", "3", "--mut", "0.25", "--mur", "0.25", "--r", "4",
         "--file-bits", "4000", "--seed", "11"],
        "baa7e9e78acab08e3ed3bb2d5a89efcc0be46f47034e8e8ae7cc388a6cd74a26",
    ),
    "simulate_4x2_duplicate_demand": (
        ["simulate", "--nt", "4", "--nr", "2", "--nfiles", "3", "--mut", "0.6", "--mur", "0.1",
         "--r", "50", "--file-bits", "2000", "--seed", "3", "--demand", "2,2"],
        "2d6478f04ade8fe777e7d11e1631165ede5f01bb5b56a15d616a276009140897",
    ),
    # Three label-sampling chunks plus a partial fourth: bits past the first
    # chunk must land in the same cells as in one whole-file draw.
    "simulate_2x2_chunked": (
        ["simulate", "--nt", "2", "--nr", "2", "--mut", "0.4", "--mur", "0.3", "--r", "2",
         "--file-bits", str(3 * 65536 + 17), "--seed", "13"],
        "9d2f7f417e2f985b7eaf72a539fdc0b7aa08540ef716f3332f907076ff7dc445",
    ),
    "sweep_r": (
        ["sweep", "--nt", "2", "--nr", "5", "--mut", "0.5", "--mur", "0.2", "--r", "1",
         "--axis", "r", "--values", "geom:0.01:1e9:25"],
        "3713918885eebcfb8ef78dccedc46c388bef5374b73a24a81ff31da1634c2e1d",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, capsys):
    argv, digest = CASES[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_payload_record_digest():
    # Every materialized fronthaul and access payload of a small run, hex and
    # all: both fronthaul modes and the bare full-cooperation messages of
    # (m, 0) groups.
    cfg = NetworkConfig(4, 2, 2, 0.6, 0.1, 50.0)
    demand = DemandVector.distinct(cfg)
    schedule = build_schedule(cfg, demand)
    report = execute_schedule(sample_placement(cfg, 600, 5), demand, schedule, record_payloads=True)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "256aa214cee36668069f686a202a5244f9e98323b3964777ca79e9c46616f372"
    )


def test_split_sub_message_digest():
    # The default DoF only ever picks i = 0 or full cooperation, so every
    # message above is one sub-message.  This step DoF splits group (0, 1)
    # six ways (naive fronthaul, i = 2) and group (0, 2) three ways (coded,
    # i = 1); the digest covers the schedule JSON and every payload record.
    def step(m, j, cfg):
        return 1.0 if j >= 3 else 0.3

    cfg = NetworkConfig(5, 2, 2, 0.5, 0.25, 10.0)
    demand = DemandVector.distinct(cfg)
    schedule = build_schedule(cfg, demand, dof=step)
    report = execute_schedule(sample_placement(cfg, 600, 5), demand, schedule, record_payloads=True)
    text = json.dumps([schedule.to_json(), report.to_dict()], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "80e31a6468dd60ed300b2fe65112f22459ab6cbc19498040ce35eed679628968"
    )
