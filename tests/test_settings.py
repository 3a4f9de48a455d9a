"""Each settings type, and each record of a fit's numbers, checks its own fields.

The CLI reports a settings ValueError under the flag of the field its
message starts with, so every rule here must name its field first.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdsvm import CvConfig, DirectionPolicy, KernelSpec, OutlyingnessReport, SvmModel, TrimPlan
from sdsvm.data import SimulationSpec
from sdsvm.errors import InvalidModel
from sdsvm.pipeline import CvSelection, check_kappa


def _model(**values):
    """A valid two-sample SvmModel with values in place; a ValueError it
    raises must be an InvalidModel."""
    fields = {"alpha": [0.5, 0.5], "labels": [1.0, -1.0], "bias": 0.0, "c": 1.0, "tol": 1e-3}
    try:
        return SvmModel(**{**fields, **values})
    except ValueError as exc:
        assert isinstance(exc, InvalidModel), repr(exc)
        raise


def _selection(**values):
    """The fixed-C CvSelection ((0.1, nan),) over 0 folds, values in place."""
    return CvSelection(**{"table": ((0.1, math.nan),), "folds_used": 0, **values})


_BAD_FIELDS = [  # (settings type, bad field values, field the message names)
    (KernelSpec, {"gamma": 0.0}, "gamma"),
    (KernelSpec, {"gamma": -1.0}, "gamma"),
    (KernelSpec, {"gamma": math.nan}, "gamma"),
    (KernelSpec, {"gamma": math.inf}, "gamma"),
    # Before these types checked them, the next four failed only later: in
    # the kernel stage, as a failed simulation row, or (an infinite C) as a
    # hard-margin solve that ran on.
    (KernelSpec, {"kind": "rbf", "gamma": math.inf}, "gamma"),
    (KernelSpec, {"kind": "polynomial", "coef0": math.nan}, "coef0"),
    (CvConfig, {"grid": (math.inf,)}, "grid"),
    (SimulationSpec, {"shift": math.nan}, "shift"),
    (KernelSpec, {"coef0": math.nan}, "coef0"),
    (KernelSpec, {"coef0": -math.inf}, "coef0"),
    (KernelSpec, {"degree": 0}, "degree"),
    (KernelSpec, {"degree": 2.5}, "degree"),
    (KernelSpec, {"kmer": 0}, "kmer"),
    (KernelSpec, {"kmer": math.inf}, "kmer"),
    (CvConfig, {"folds": 1}, "folds"),
    (CvConfig, {"grid": ()}, "grid"),
    (CvConfig, {"grid": (1.0, 0.0)}, "grid"),
    (CvConfig, {"grid": (math.nan,)}, "grid"),
    (DirectionPolicy, {"mode": "sampled", "count": 0}, "count"),
    (DirectionPolicy, {"count": -1}, "count"),
    (DirectionPolicy, {"seed": -1}, "seed"),
    (DirectionPolicy, {"seed": 2**64}, "seed"),
    (SimulationSpec, {"n_per_group": 0}, "n_per_group"),
    (SimulationSpec, {"dim": 0}, "dim"),
    (SimulationSpec, {"test_size": 1}, "test_size"),
    (SimulationSpec, {"runs": 0}, "runs"),
    (SimulationSpec, {"outliers_per_group": -1}, "outliers_per_group"),
    (SimulationSpec, {"shift": math.inf}, "shift"),
    (SimulationSpec, {"kappas": ()}, "kappas"),
    (SimulationSpec, {"kappas": (0.5, 0.4)}, "kappa"),  # check_kappa's message
    (check_kappa, {"kappa": 0.49}, "kappa"),
    (check_kappa, {"kappa": 1.01}, "kappa"),
    (check_kappa, {"kappa": math.nan}, "kappa"),
    (TrimPlan, {"kappa": 7.0, "reports": (), "labels": ()}, "kappa"),
    # Integer fields take integers only, as seeds do: each of these was once
    # accepted, then failed in the fit or wrote a report that did not read back.
    (CvConfig, {"folds": 2.5}, "folds"),
    (CvConfig, {"folds": 10.0}, "folds"),
    (DirectionPolicy, {"count": 2.5}, "count"),
    (DirectionPolicy, {"count": True}, "count"),
    (DirectionPolicy, {"count": np.float64(5.0)}, "count"),
    (SimulationSpec, {"n_per_group": 2.5}, "n_per_group"),
    (SimulationSpec, {"dim": 3.0}, "dim"),
    (SimulationSpec, {"test_size": 600.0}, "test_size"),
    (SimulationSpec, {"runs": True}, "runs"),
    (SimulationSpec, {"outliers_per_group": 0.5}, "outliers_per_group"),
    (KernelSpec, {"degree": 2.0}, "degree"),
    (KernelSpec, {"degree": np.True_}, "degree"),
    (KernelSpec, {"kmer": 2.0}, "kmer"),
    (KernelSpec, {"kmer": "3"}, "kmer"),
    # run_simulation once summarized a repeated kappa once per repeat, each
    # row pooling its cells twice over.
    (SimulationSpec, {"kappas": (0.5, 0.5, 1.0)}, "kappas"),
    (SimulationSpec, {"kappas": [np.float64(0.9), 0.9]}, "kappas"),
]


@pytest.mark.parametrize("settings, values, field", _BAD_FIELDS)
def test_bad_field_message_starts_with_its_name(settings, values, field):
    with pytest.raises(ValueError) as info:
        settings(**values)
    assert str(info.value).startswith(f"{field} "), str(info.value)


@pytest.mark.parametrize("settings", [DirectionPolicy, CvConfig, SimulationSpec])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_one_seed_rule(settings, seed):
    # CvConfig and SimulationSpec once took any seed, reduced mod 2^64.  The
    # CLI's stderr for a bad --seed is this message after the flag.
    with pytest.raises(ValueError) as info:
        settings(seed=seed)
    assert str(info.value) == f"seed must be in [0, 2^64), got {seed}"


@pytest.mark.parametrize("settings", [DirectionPolicy, CvConfig, SimulationSpec])
@pytest.mark.parametrize("seed", [1.5, 1.0, True, "3", None, np.float64(2.0), np.True_])
def test_seed_must_be_an_integer(settings, seed):
    # CvConfig(seed=1.5) once dealt the folds of seed 1, DirectionPolicy(seed=True)
    # was seed 1, and CvConfig(seed="3") raised a bare TypeError.
    with pytest.raises(ValueError) as info:
        settings(seed=seed)
    assert str(info.value).startswith("seed "), str(info.value)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)])
def test_integer_seeds_are_accepted(seed):
    assert DirectionPolicy(seed=seed).seed == seed
    assert CvConfig(seed=seed).seed == seed


def test_numpy_integer_fields_are_accepted():
    three = np.int64(3)
    assert DirectionPolicy(count=three).count == 3
    assert CvConfig(folds=three).folds == 3
    assert KernelSpec(degree=three, kmer=three).describe() == "kind=linear"
    assert SimulationSpec(n_per_group=three, dim=three, runs=three, test_size=three).runs == 3
    # Each record stores the Python int its check returns.
    policy = DirectionPolicy(count=three, seed=np.uint64(2**64 - 1))
    assert (type(policy.count), type(policy.seed)) == (int, int)
    cv = CvConfig(folds=three, seed=three)
    assert (type(cv.folds), type(cv.seed)) == (int, int)
    sizes = ("n_per_group", "dim", "outliers_per_group", "runs", "test_size", "seed")
    sim = SimulationSpec(**dict.fromkeys(sizes, three))
    assert {type(getattr(sim, name)) for name in sizes} == {int}
    assert type(_selection(table=((0.1, 0.2),), folds_used=three).folds_used) is int


# Every field of every settings type, each with the names its ValueError may
# start with: an item of kappas is checked as a kappa.
_FIELDS = [
    *((KernelSpec, name, (name,)) for name in ("kind", "gamma", "degree", "coef0", "kmer")),
    *((CvConfig, name, (name,)) for name in ("folds", "grid", "seed")),
    *((DirectionPolicy, name, (name,)) for name in ("mode", "count", "seed")),
    *(
        (SimulationSpec, name, ("kappa", name) if name == "kappas" else (name,))
        for name in (
            "n_per_group", "dim", "shift", "outliers_per_group", "test_size", "runs", "kappas", "seed",
        )
    ),
    # The records share the rules: a model's bad number is an InvalidModel
    # (see _model), and a bad C table is no choice of C.
    *((_model, name, (start,)) for name, start in (("c", "C"), ("tol", "tol"), ("bias", "bias"))),
    *((_selection, name, ("folds_used",)) for name in ("table", "folds_used")),
]

_ANY_VALUE = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["linear", "rbf", "sampled", "3", "0.7", "nan"]),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.integers(-3, 20),
    st.sampled_from([10**400, -(10**400), 2**63, 2**64]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(-3, 20).map(np.int64),
    st.integers(0, 20).map(np.uint64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(-2.0, 2.0, width=32).map(np.float32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.array),  # 0-d arrays are not scalars
)


@given(data=st.data())
def test_every_field_takes_any_value_or_names_itself(data):
    # Once, a huge int raised OverflowError, None a TypeError, and a string
    # gamma a ValueError that did not name its field.
    settings, name, starts = data.draw(st.sampled_from(_FIELDS))
    value = data.draw(_ANY_VALUE)
    if name in ("grid", "kappas") and data.draw(st.booleans()):
        value = (value,)
    if name == "table" and data.draw(st.booleans()):
        value = (data.draw(st.sampled_from([(value, math.nan), (0.1, value), (value, 0.2)])),)
    try:
        settings(**{name: value})
    except ValueError as exc:
        assert str(exc).split(" ", 1)[0] in starts, str(exc)


@pytest.mark.parametrize(
    "settings, values, field",
    [
        (CvConfig, {"grid": (10**400,)}, "grid"),
        (KernelSpec, {"gamma": 10**400}, "gamma"),
        (KernelSpec, {"coef0": -(10**400)}, "coef0"),
        (SimulationSpec, {"shift": 10**400}, "shift"),
        (KernelSpec, {"gamma": None}, "gamma"),
        (KernelSpec, {"gamma": "a"}, "gamma"),
        (KernelSpec, {"gamma": "2"}, "gamma"),
        (KernelSpec, {"coef0": True}, "coef0"),
        (CvConfig, {"grid": (None,)}, "grid"),
        (CvConfig, {"grid": 1.0}, "grid"),
        (CvConfig, {"grid": "1"}, "grid"),
        (SimulationSpec, {"kappas": (None,)}, "kappas"),
        (SimulationSpec, {"kappas": None}, "kappas"),
        (SimulationSpec, {"shift": None}, "shift"),
        (SimulationSpec, {"shift": "x"}, "shift"),
        (SimulationSpec, {"shift": np.True_}, "shift"),
        (check_kappa, {"kappa": None}, "kappa"),
        (check_kappa, {"kappa": "0.7"}, "kappa"),
        (KernelSpec, {"kind": None}, "kind"),
        # Each of these once raised TypeError or OverflowError, or was accepted.
        (_model, {"c": None}, "C"),
        (_model, {"c": 10**400}, "C"),
        (_model, {"c": True}, "C"),
        (_model, {"tol": "a"}, "tol"),
        (_model, {"bias": None}, "bias"),
        (_selection, {"table": ((None, 0.1),), "folds_used": 2}, "folds_used"),
        (_selection, {"table": ((10**400, 0.1),), "folds_used": 2}, "folds_used"),
        (_selection, {"table": ((True, "0.2"),), "folds_used": 2}, "folds_used"),
        (_selection, {"table": None}, "folds_used"),
    ],
)
def test_real_field_rejects_what_is_not_a_finite_number(settings, values, field):
    with pytest.raises(ValueError) as info:
        settings(**values)
    assert str(info.value).startswith(f"{field} "), str(info.value)


def test_real_fields_are_stored_as_floats():
    kernel = KernelSpec(gamma=np.float32(0.5), coef0=2**70)
    assert (type(kernel.gamma), type(kernel.coef0)) == (float, float)
    assert kernel.coef0 == float(2**70)
    assert type(SimulationSpec(shift=np.int64(1)).shift) is float
    assert CvConfig(grid=np.array([0.5, 2])).grid == (0.5, 2.0)
    assert SimulationSpec(kappas=[np.float64(0.5), 1]).kappas == (0.5, 1.0)
    # The records too: each stores the float its check returns.
    reports = (OutlyingnessReport([0.0, 1.0], DirectionPolicy("exhaustive")),) * 2
    assert type(TrimPlan(np.float64(0.5), reports, [-1, -1, 1, 1]).kappa) is float
    model = _model(c=np.float32(2.0), tol=np.float64(0.01), bias=np.int64(-1))
    assert (type(model.c), type(model.tol), type(model.bias)) == (float, float, float)
    selection = _selection(table=((np.float64(0.5), np.float32(0.25)), (2, 0)), folds_used=2)
    assert selection.table == ((0.5, 0.25), (2.0, 0.0)) and type(selection.c) is float
    assert {type(x) for row in selection.table for x in row} == {float}
