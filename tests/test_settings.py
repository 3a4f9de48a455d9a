"""Each settings type checks its own fields.

The CLI reports a settings ValueError under the flag of the field its
message starts with, so every rule here must name its field first.
"""

import math

import pytest

from sdsvm import CvConfig, DirectionPolicy, KernelSpec, TrimPlan
from sdsvm.data import SimulationSpec
from sdsvm.pipeline import check_kappa

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
    (TrimPlan, {"kappa": 7.0, "outlyingness": (), "trimmed": ()}, "kappa"),
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
