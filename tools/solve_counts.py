"""A pytest plugin that counts, per test file, the solves the tests make.

    PYTHONPATH=src:tools python -m pytest -p solve_counts

Loaded by `-p`, it is imported before any conftest or test module, so it
wraps prandtl_lab.solver's functions before the package's other modules
bind them: picard_solve and imex_solve (one call per solve), mild_solution
(one per Picard sweep) and heat_propagate (one per IMEX step).  Each wrapper
counts the call against the test file whose test is running, its fixtures'
set-up and teardown included, and returns the call's result unchanged.  The
counts are printed in pytest's terminal summary, one line per test file
that ran a test:

    tests/test_cli.py picard_solve=7 mild_solution=52 imex_solve=31 heat_propagate=760

Calls made outside any test (at collection) are listed under "(no test)".
"""

from __future__ import annotations

import collections
import functools
import sys
import types
import warnings

import pytest

import prandtl_lab.solver as _solver

COUNTED = ("picard_solve", "mild_solution", "imex_solve", "heat_propagate")

_counts: dict = {}          # test file -> Counter of calls by name
_file = "(no test)"         # the test file whose test is running


def _counting(name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        _counts.setdefault(_file, collections.Counter())[name] += 1
        return fn(*args, **kwargs)
    return counted


for _name in COUNTED:
    setattr(_solver, _name, _counting(_name, getattr(_solver, _name)))
_WRAPPER = _solver.picard_solve.__code__      # the code every wrapper runs


def _warn(message, category=None, stacklevel=1, source=None):
    """warnings.warn as the solver module sees it: a wrapper's frame does
    not count as a stack level, so that a solver warning still names the
    line that called the solver function."""
    skip = sys._getframe(stacklevel).f_code is _WRAPPER
    warnings.warn(message, category, stacklevel + 1 + skip, source)


_solver.warnings = types.SimpleNamespace(**{**vars(warnings), "warn": _warn})


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    global _file
    _file = item.nodeid.split("::")[0]
    _counts.setdefault(_file, collections.Counter())
    yield
    _file = "(no test)"


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("solve counts")
    for file, counts in sorted(_counts.items()):
        terminalreporter.write_line(" ".join([file, *(f"{n}={counts[n]}" for n in COUNTED)]))
