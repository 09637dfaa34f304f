"""The solve path calls numpy's C entry points, not its Python-level wrappers.

`np.cumsum(a)`, `np.flatnonzero(m)`, `np.hstack(...)`, `np.diff(a)` and
the like run a Python frame of their own before the C call they forward
to, 0.7-1.6 us each on the small arrays of an agent pass; a pass stage
made about 34 such calls. Each instance is built first and then solved
under `sys.setprofile`, which sees every Python frame a womctl frame
enters: none may belong to one of numpy's wrapper modules. The module is
matched on the last component of its name, which holds on numpy 1.24
(`numpy.core.fromnumeric`, `numpy.lib.function_base`) and on 2.x
(`numpy._core.fromnumeric`, `numpy.lib._function_base_impl`).
"""

import sys

import pytest

from helpers import pomdp_dict, tail_read_dict
from womctl.instances import load_d2, load_static3
from womctl.solver import compare_agents, solve_prescription_dp
from womctl.sysmodel import instance_from_dict

WRAPPER_MODULES = {
    "fromnumeric",
    "numeric",
    "shape_base",
    "function_base",
    "_function_base_impl",
    "arraysetops",
    "_arraysetops_impl",
}


def _wrapper_calls(solve) -> list:
    """Each (numpy function, womctl caller file, line) `solve()` enters
    directly from a womctl frame into a numpy wrapper module."""
    calls = []

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("numpy.") or module.rsplit(".", 1)[-1] not in WRAPPER_MODULES:
            return
        caller = frame.f_back
        if caller is not None and caller.f_globals.get("__name__", "").startswith("womctl"):
            code = caller.f_code
            calls.append((f"{module}.{frame.f_code.co_name}", code.co_filename, caller.f_lineno))

    sys.setprofile(profile)
    try:
        solve()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "name, build, solve",
    [
        ("d2", load_d2, compare_agents),
        ("static3", load_static3, compare_agents),
        ("tail_read_dict(0)", lambda: instance_from_dict(tail_read_dict(0)), compare_agents),
        ("pomdp_dict(4)", lambda: instance_from_dict(pomdp_dict(4)),
         lambda inst: solve_prescription_dp(inst, 1)),
    ],
    ids=["d2", "static3", "tail_read", "pomdp4"],
)
def test_the_solve_path_calls_no_numpy_wrapper(name, build, solve):
    instance = build()
    calls = _wrapper_calls(lambda: solve(instance))
    for function, filename, line in sorted(set(calls)):
        print(f"{name}: {function} called from {filename}:{line}")
    assert calls == [], f"{len(calls)} numpy wrapper calls from womctl on {name}"
