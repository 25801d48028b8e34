"""Fixtures shared by every test module."""

import pytest

from odoshift import ergodic, language

# the desubstitution cache, the two answer caches around it and the zero they share
CACHES = (language._cached_leaves, language._word_measure, ergodic._fixed_point_frequency, language._zero)


@pytest.fixture(autouse=True)
def cold_desubstitution_caches():
    """Each test starts and ends with the desubstitution cache and the answer caches empty.

    A test that patches ``language._leaves`` or ``language._class_masses``
    reads no entry an earlier test left, nor an answer built from one, so its
    patch sees every step and its call counts are of a cold cache; and it
    leaves behind no entry computed through its patch.
    """
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
