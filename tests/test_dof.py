from __future__ import annotations

import json

import pytest

from fogndt import check_contract
from fogndt.dof import DofContractError, per_user_dof_default, table_provider_from_json
from fogndt.scheduler import build_schedule
from conftest import make_cfg


def test_full_cooperation_square_network():
    cfg = make_cfg(nt=3, nr=3)
    for m in range(3):
        assert per_user_dof_default(m, 3, cfg) == 1.0


def test_single_node_anchor():
    cfg = make_cfg(nt=2, nr=5)
    assert per_user_dof_default(0, 1, cfg) == 2 / (2 + 4 / 1)


def test_anchor_maximum():
    cfg = make_cfg(nt=4, nr=3)
    assert per_user_dof_default(0, 1, cfg) == max(0.5, 4 / (4 + 2))


def test_tall_network_has_no_full_cooperation_bonus():
    # Fewer edge nodes than users: only the single-node anchor applies.
    cfg = make_cfg(nt=2, nr=5)
    assert per_user_dof_default(0, 2, cfg) == per_user_dof_default(0, 1, cfg)


def test_range_errors():
    cfg = make_cfg(nt=3, nr=3)
    with pytest.raises(ValueError):
        per_user_dof_default(3, 1, cfg)
    with pytest.raises(ValueError):
        per_user_dof_default(0, 0, cfg)
    with pytest.raises(ValueError):
        per_user_dof_default(0, 4, cfg)


def test_default_satisfies_contract_everywhere():
    configs = [
        make_cfg(nt=nt, nr=nr, nfiles=max(nr, 2))
        for nt in range(2, 7)
        for nr in range(2, 7)
    ]
    check_contract(per_user_dof_default, configs)


# A provider is put to use by vetting it with check_contract and then passing
# it as dof= to the bound and scheduling functions.


def test_register_accepts_constant_one():
    def provider(m, j, cfg):
        return 1.0

    check_contract(provider)
    schedule = build_schedule(make_cfg(nt=3, nr=3), dof=provider)
    assert {plan.dof_value for plan in schedule.groups.values()} == {1.0}


def test_register_rejects_zero():
    with pytest.raises(DofContractError) as err:
        check_contract(lambda m, j, cfg: 0.0)
    assert "(0, 1]" in str(err.value)


def test_register_rejects_non_monotone():
    def wobble(m, j, cfg):
        return 1.0 if j == 1 else 0.5

    with pytest.raises(DofContractError) as err:
        check_contract(wobble)
    assert "j=2" in str(err.value)


def _write_table(tmp_path, doc):
    path = tmp_path / "dof.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_table_provider_from_json(tmp_path):
    # The 2x5 default is 1/3 at every j for m = 0, so 0.4 at j = 2 stays monotone.
    path = _write_table(tmp_path, {"entries": [{"m": 0, "j": 2, "n_t": 2, "n_r": 5, "d": 0.4}]})
    provider = table_provider_from_json(path)
    cfg = make_cfg(nt=2, nr=5)
    assert provider(0, 2, cfg) == 0.4
    # Entries missing from the table fall back to the default anchors.
    assert provider(0, 1, cfg) == per_user_dof_default(0, 1, cfg)
    assert provider(1, 1, cfg) == per_user_dof_default(1, 1, cfg)
    assert provider(0, 1, make_cfg(nt=3, nr=3)) == per_user_dof_default(0, 1, make_cfg(nt=3, nr=3))


def test_table_provider_vets_the_contract(tmp_path):
    # 0.4 at j = 1 then the default 1/3 at j = 2 decreases in j.
    path = _write_table(tmp_path, {"entries": [{"m": 0, "j": 1, "n_t": 2, "n_r": 5, "d": 0.4}]})
    with pytest.raises(DofContractError) as err:
        table_provider_from_json(path)
    assert "j=2, n_t=2, n_r=5" in str(err.value)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"rows": []},
        {"entries": [{"m": 0, "j": 2, "n_t": 2, "d": 0.4}]},
        {"entries": [{"m": 0, "j": 2, "n_t": 2, "n_r": 5, "d": True}]},
        {"entries": [{"m": 0, "j": 2, "n_t": 2, "n_r": 5, "d": "0.4"}]},
        {"entries": [{"m": 0, "j": 2.0, "n_t": 2, "n_r": 5, "d": 0.4}]},
        {"entries": [{"m": 5, "j": 2, "n_t": 2, "n_r": 5, "d": 0.4}]},
        {"entries": [{"m": 0, "j": 2, "n_t": 2, "n_r": 5, "d": 10 ** 400}]},
        {"entries": [{"m": 0, "j": 2, "n_t": 2, "n_r": 5, "d": 0.4}] * 2},
    ],
)
def test_table_provider_rejects_malformed_entries(tmp_path, doc):
    with pytest.raises(DofContractError):
        table_provider_from_json(_write_table(tmp_path, doc))


def test_table_entry_error_echoes_a_bounded_entry(tmp_path):
    ordinary = {"m": 0, "j": 2, "n_t": 2, "n_r": 5, "d": "0.4"}
    with pytest.raises(DofContractError) as err:
        table_provider_from_json(_write_table(tmp_path, {"entries": [ordinary]}))
    assert str(err.value) == f"DoF table entry with non-numeric fields: {ordinary!r}"
    for entry in ({**ordinary, "d": "9" * 1_000_000}, {**ordinary, "k" * 500_000: 1}):
        with pytest.raises(DofContractError) as err:
            table_provider_from_json(_write_table(tmp_path, {"entries": [entry]}))
        message = str(err.value)
        assert message.startswith("DoF table entry ") and "{'m': 0, 'j': 2" in message
        assert len(message) < 200 and "..." in message


def test_table_provider_refuses_deeply_nested_json(tmp_path):
    path = tmp_path / "dof.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(DofContractError, match="nests too deeply"):
        table_provider_from_json(path)
