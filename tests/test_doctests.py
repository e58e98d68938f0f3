"""Doctest audit of the public API surface.

Every audited module must carry at least one *runnable* example in its
docstrings (``attempted > 0``) and every example must pass.  This is the
enforcement half of the documentation audit: parameter/return prose can rot
silently, executable examples cannot.

CI additionally runs ``pytest --doctest-modules`` over the same modules in
the docs job; this in-suite version keeps the audit inside tier-1.
"""

import doctest
import importlib

import pytest

#: the audited public API surface: entry points users copy examples from
AUDITED_MODULES = [
    "repro.apps.runner",
    "repro.apps.service",
    "repro.apps.backends",
    "repro.apps.workloads",
    "repro.apps.warm_pool",
    "repro.apps.gateway",
    "repro.raytracer.mutation",
    "repro.snet.runtime.registry",
    "repro.snet.runtime.stream",
    "repro.snet.runtime.core",
    "repro.snet.runtime.plan",
]


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    assert results.attempted > 0, (
        f"{module_name} has no runnable docstring examples; the audit "
        "requires at least one per public module"
    )
    assert results.failed == 0, (
        f"{module_name}: {results.failed}/{results.attempted} doctest(s) failed "
        "(run `python -m doctest -v` on the module for details)"
    )
