"""Fixtures shared by every test module."""

import pytest

from odoshift import ergodic, language

# the two desubstitution caches and the two answer caches around them
CACHES = (language._cached_masses, language._cached_fixed_point_count, language._word_measure,
          ergodic._fixed_point_frequency)


@pytest.fixture(autouse=True)
def cold_desubstitution_caches():
    """Each test starts and ends with the desubstitution caches and the answer caches empty.

    A test that patches ``language._masses`` or ``language.fixed_point_count``
    reads no entry an earlier test left, nor an answer built from one, so its
    patch sees every step and its call counts are of a cold cache; and it
    leaves behind no entry computed through its patch.
    """
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
