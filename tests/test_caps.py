"""Every exhaustive sweep refuses a universe one past its fixed cap.

Single-set sweeps are capped at n <= 24, pair sweeps at 2n <= 24 and the
property triple sweep at n <= 12. The inputs below fail on first use
(the correspondence builds get a granulation of another universe), so a
sweep that started before its cap check would raise another error
instead of :class:`CapExceeded`.
"""

from __future__ import annotations

import inspect

import pytest

import roughpart
from roughpart import (
    CapExceeded,
    Granulation,
    InclusionFn,
    ParthoodRelation,
    Universe,
    analyze_properties,
    build_lower_correspondence,
    build_parthood,
    build_pu,
    build_upper_correspondence,
    check_admissibility,
    check_axiom,
    check_ggs_axioms,
    check_nonrepresentability,
    check_prif_implications,
    check_rational_proposition,
    classify_rif,
    equalizers,
    rational_lower,
    rational_upper,
)


def _universe(n: int) -> Universe:
    return Universe(tuple(f"e{i}" for i in range(n)))


def _untouched(*_):
    raise AssertionError("sweep work started before the cap check")


U25, U13 = _universe(25), _universe(13)
G25 = Granulation.of(U25, [U25.elements])
G13 = Granulation.of(U13, [U13.elements])
KAPPA = InclusionFn("untouched", _untouched)

# (entry point, call, sweep name, size checked, cap)
CASES = [
    ("Universe.subsets", lambda: next(U25.subsets()),
     "a powerset sweep", 25, 24),
    ("check_ggs_axioms",
     lambda: check_ggs_axioms(U25, _untouched, _untouched),
     "the structural axiom check", 25, 24),
    ("check_admissibility",
     lambda: check_admissibility(U25, G25, _untouched, _untouched),
     "the admissibility check", 25, 24),
    ("check_axiom", lambda: check_axiom(KAPPA, "R0", U25),
     "the R0 sweep", 25, 24),
    ("classify_rif", lambda: classify_rif(KAPPA, U25),
     "the R0 sweep", 25, 24),
    ("check_prif_implications", lambda: check_prif_implications(KAPPA, U25),
     "the U1 sweep", 25, 24),
    ("build_parthood", lambda: build_parthood("s0u", U13, G13, kappa=KAPPA),
     "the pairwise parthood sweep", 26, 24),
    ("build_pu", lambda: build_pu(U13, G13, kappa=KAPPA),
     "the pairwise parthood sweep", 26, 24),
    ("analyze_properties",
     lambda: analyze_properties(
         ParthoodRelation("custom", U13, (0,) * 2 ** 13)),
     "the property triple sweep", 13, 12),
    ("equalizers", lambda: equalizers(KAPPA, U25.empty, U25.full),
     "the equalizer sweep", 25, 24),
    ("rational_lower",
     lambda: rational_lower(U13.empty, _untouched, _untouched,
                            mode="exhaustive"),
     "the exhaustive rational lower search", 26, 24),
    ("rational_upper",
     lambda: rational_upper(U13.empty, _untouched, _untouched, _untouched),
     "the rational upper search", 26, 24),
    ("check_rational_proposition",
     lambda: check_rational_proposition(U13, _untouched, _untouched),
     "the rational proposition sweep", 26, 24),
    ("build_upper_correspondence",
     lambda: build_upper_correspondence(U25, G13, 0),
     "the correspondence sweep", 25, 24),
    ("build_lower_correspondence",
     lambda: build_lower_correspondence(U25, G13, 0),
     "the correspondence sweep", 25, 24),
    ("check_nonrepresentability",
     lambda: check_nonrepresentability(U25, 0),
     "the representability sweep", 25, 24),
]


@pytest.mark.parametrize("call, what, size, cap",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_sweep_one_past_its_cap_is_refused(call, what, size, cap):
    with pytest.raises(CapExceeded) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert str(info.value) == (
        f"{what} over a universe of size {size} exceeds the cap of {cap}")


def test_no_public_callable_takes_a_cap_or_override():
    for name in roughpart.__all__:
        obj = getattr(roughpart, name)
        if inspect.isclass(obj):
            fns = [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
        else:
            fns = [obj] if callable(obj) else []
        for fn in fns:
            params = inspect.signature(fn).parameters
            assert not {"cap", "override"} & set(params), \
                f"{name}: {fn.__qualname__}"
