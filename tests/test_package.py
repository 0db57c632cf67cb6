"""The package namespace: every module's public names, re-exported."""

import pytest

import surfcomplex
from surfcomplex import exactlin, seifert, toruscomplex


@pytest.mark.parametrize("module", [exactlin, seifert, toruscomplex], ids=lambda m: m.__name__)
def test_package_reexports_each_modules_all(module):
    assert module.__all__
    for name in module.__all__:
        assert getattr(surfcomplex, name) is getattr(module, name), name
