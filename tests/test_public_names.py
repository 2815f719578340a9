"""The package's public names: `__all__` lists exactly what `podium` binds,
and a theta is written as identity text, not through a callable API."""

import types

import podium
from podium import theta


def test_all_lists_every_public_name_bound_in_the_package():
    bound = {
        name
        for name, value in vars(podium).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(podium.__all__) == sorted(bound)


def test_the_callable_theta_api_is_not_public():
    for name in ("triangular", "gpent", "ceil_half", "QuadExp", "theta_series"):
        assert not hasattr(podium, name), name


def test_the_theta_index_helpers_are_gone():
    for name in ("triangular", "gpent", "ceil_half", "ExponentFn"):
        assert not hasattr(theta, name), name
