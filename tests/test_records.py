import pytest

import beckerdoring as bd
from beckerdoring import _rk, coefficients, equilibrium, experiments, maximum_principle, solver, supersolution, tails

# the read-only result records, with their field names and order
RECORDS = {
    coefficients.AssumptionReport: (
        "frag_ok", "frag_first_violation", "b_bar_observed", "ratio_ok", "ratio_estimate",
        "ratio_target", "profile_monotone_ok", "profile_start_index",
    ),
    equilibrium.CriticalValues: ("z_s", "rho_s", "n_terms"),
    equilibrium.EquilibriumData: ("z_bar", "profile", "log_profile", "rho", "cut_index", "tail_bound"),
    experiments.Preamble: ("model", "critical", "z_bar", "equilibrium", "c0", "rho", "omega", "opts"),
    experiments.ShortTimeBound: ("c_phi", "eps", "a_phi"),
    experiments.Certificate: ("key", "label", "kind", "factor", "extra", "anchor", "short_time"),
    supersolution.Supersolution: ("r", "s", "params", "n_head", "tail_value"),
    supersolution.SupersolutionCheck: ("ok", "r1_ok", "worst_margin", "worst_index", "n_checked"),
    supersolution.WeightedSumBound: ("lhs", "rhs", "c_used"),
    maximum_principle.DominationReport: ("holds", "max_gap", "tol", "first_violation", "n_snapshots"),
    tails.StretchedWeights: ("alpha", "mu", "eta1", "eta2"),
    _rk.RKSolution: ("t", "y", "t_eval", "y_eval", "stats"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_keep_their_fields_and_refuse_assignment(record):
    names = RECORDS[record]
    assert record._fields == names
    instance = record(*range(len(names)))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)


# name -> the module it was public in; each is a test oracle now (tests/oracles.py)
MOVED = {
    "MetzlerSystem": maximum_principle,
    "build_tail_comparison_matrix": maximum_principle,
    "SignPreservationResult": maximum_principle,
    "verify_sign_preservation": maximum_principle,
    "SandwichReport": tails,
    "stretched_sandwich_check": tails,
    "tail_rhs": tails,
    "moment": solver,
    "stretched_moment": solver,
    "net_rates": solver,
    "rhs": solver,
    "weak_form_residual": solver,
    "density_at_activity": equilibrium,
}


@pytest.mark.parametrize("name", MOVED)
def test_oracles_are_not_part_of_the_package(name):
    assert not hasattr(bd, name)
    assert not hasattr(MOVED[name], name)
