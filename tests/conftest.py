"""Fixtures shared by every test module."""

import pytest

from odoshift import language


@pytest.fixture(autouse=True)
def cold_desubstitution_caches():
    """Each test starts and ends with both desubstitution caches empty.

    A test that patches ``language._masses`` or ``language.fixed_point_count``
    reads no entry an earlier test left, so its patch sees every step and its
    call counts are of a cold cache; and it leaves behind no entry computed
    through its patch.
    """
    language._cached_masses.cache_clear()
    language._cached_fixed_point_count.cache_clear()
    yield
    language._cached_masses.cache_clear()
    language._cached_fixed_point_count.cache_clear()
