from __future__ import annotations

from dataclasses import astuple, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fogndt.model import (
    ConfigError,
    DemandVector,
    GroupIndex,
    NetworkConfig,
    config_from_dict,
    config_to_dict,
    validate_group,
)
from conftest import make_cfg


def test_validate_config_accepts_minimal():
    cfg = make_cfg()
    assert (cfg.num_ens, cfg.num_ues, cfg.num_files) == (2, 2, 2)


def test_validate_config_rejects_single_en():
    with pytest.raises(ConfigError) as err:
        make_cfg(nt=1)
    assert err.value.field == "num_ens"
    assert "below minimum" in str(err.value)


def test_validate_config_rejects_small_library():
    with pytest.raises(ConfigError) as err:
        NetworkConfig(2, 5, 4, 0.5, 0.5, 1.0)
    assert err.value.field == "num_files"
    assert "below num_ues" in str(err.value)


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(nr=1), "num_ues"),
        (dict(mu_t=1.2), "mu_t"),
        (dict(mu_t=-0.1), "mu_t"),
        (dict(mu_r=float("nan")), "mu_r"),
        (dict(r=0.0), "fronthaul_r"),
        (dict(r=-2.0), "fronthaul_r"),
    ],
)
def test_validate_config_names_offending_field(kw, field):
    with pytest.raises(ConfigError) as err:
        make_cfg(**kw)
    assert err.value.field == field


@pytest.mark.parametrize("value", ["0.5", True, False, None, [0.5]])
@pytest.mark.parametrize("field", ["mu_t", "mu_r", "fronthaul_r"])
def test_validate_config_rejects_non_numeric(field, value):
    with pytest.raises(ConfigError) as err:
        replace(make_cfg(), **{field: value})
    assert err.value.field == field


@given(
    num_ens=st.integers(0, 8),
    num_ues=st.integers(0, 8),
    num_files=st.integers(0, 12),
    mu_t=st.floats(-0.5, 1.5),
    mu_r=st.floats(-0.5, 1.5),
    fronthaul_r=st.floats(-1.0, 10.0),
)
def test_validate_config_matches_invariants(num_ens, num_ues, num_files, mu_t, mu_r, fronthaul_r):
    values = (num_ens, num_ues, num_files, mu_t, mu_r, fronthaul_r)
    legal = (
        num_ens >= 2
        and num_ues >= 2
        and num_files >= num_ues
        and 0.0 <= mu_t <= 1.0
        and 0.0 <= mu_r <= 1.0
        and fronthaul_r > 0.0
    )
    if legal:
        assert astuple(NetworkConfig(*values)) == values
    else:
        with pytest.raises(ConfigError):
            NetworkConfig(*values)


_LEGAL = {"num_ens": 3, "num_ues": 2, "num_files": 4, "mu_t": 0.25, "mu_r": 0.5, "fronthaul_r": 2.0}
_values = st.one_of(
    st.integers(-3, 12),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


@given(
    st.dictionaries(st.sampled_from(sorted(_LEGAL)), _values, max_size=2),
    st.sets(st.sampled_from(sorted(_LEGAL)), max_size=1),
    st.dictionaries(st.text(max_size=8).filter(lambda k: k not in _LEGAL), _values, max_size=1),
)
def test_config_from_dict_returns_equal_config_or_config_error(changes, dropped, junk):
    doc = {k: v for k, v in {**_LEGAL, **changes}.items() if k not in dropped}
    doc.update(junk)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert not (dropped or junk)
    assert config_to_dict(cfg) == doc
    assert all(type(getattr(cfg, k)) is type(v) for k, v in doc.items())


def test_config_dict_round_trip():
    cfg = make_cfg(nt=3, nr=4, nfiles=7, mu_t=0.3, mu_r=0.6, r=2.5)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ConfigError):
        config_from_dict({"num_ens": 2})


def test_delivery_groups_cover_expected_range():
    cfg = make_cfg(nt=3, nr=2)
    for m in range(cfg.num_ues):
        for n in range(cfg.num_ens + 1):
            g = GroupIndex(m, n)
            assert validate_group(g, cfg) is g
    with pytest.raises(ValueError):
        validate_group(GroupIndex(2, 0), cfg)
    with pytest.raises(ValueError):
        validate_group(GroupIndex(0, 4), cfg)


def test_demand_vector():
    cfg = make_cfg(nt=2, nr=3, nfiles=5)
    assert DemandVector.distinct(cfg).demands == (1, 2, 3)
    dup = DemandVector((2, 2, 5))
    assert dup.validated(cfg) is dup
    with pytest.raises(ValueError):
        DemandVector((1, 2)).validated(cfg)
    with pytest.raises(ValueError):
        DemandVector((1, 2, 6)).validated(cfg)
    with pytest.raises(ValueError):
        DemandVector((0, 1, 2)).validated(cfg)
