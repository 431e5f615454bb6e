"""Fault injection against the equivalence audit on the 100-instance gate.

Each fault is a monkeypatch of one library function, and the audit
(``run_equivalence``) runs over the seeded gate instances with the fault in
place. A fault the audit catches must fail it on at least one instance.

A fault the audit cannot see today is listed with its reason. Its test
asserts that the fault really changes the instances and that the audit
still passes every one of them. When the audit gains a check that is
independent of the prior's factor (ROADMAP item 17), these tests fail, and
each such fault moves to the caught list.
"""

import numpy as np
import pytest

from enscgp import condition, gaussian, psd, rkhs
from enscgp.experiments import make_instance, rel_vec_diff, run_equivalence
from enscgp.gaussian import ObservationModel

GATE = range(100)


def gate_instances():
    return [make_instance(index, base_seed=0) for index in GATE]


def audit_failures(instances):
    return sum(not run_equivalence(prior, obs, y).passed for prior, obs, y in instances)


@pytest.fixture(scope="module")
def clean():
    return gate_instances()


# --- faults the audit catches -------------------------------------------

def whiten_with_the_inverse(monkeypatch):
    """whiten applies R^(-1), through noise_solve, instead of L_R^(-1)."""
    monkeypatch.setattr(ObservationModel, "whiten", lambda self, x: self.noise_solve(x))


def jitter_the_innovation(monkeypatch):
    """_spd_chol factors the innovation covariance with a 1e-6 relative
    jitter on its diagonal."""
    spd_chol = gaussian._spd_chol

    def jittered(matrix, name):
        if name == gaussian._INNOVATION:
            matrix = matrix + 1e-6 * np.diag(np.diag(matrix))
        return spd_chol(matrix, name)

    monkeypatch.setattr(gaussian, "_spd_chol", jittered)


def nan_in_the_rkhs_mean(monkeypatch):
    """The RKHS route's mean gets a NaN in its first entry."""
    rkhs_solve = rkhs.rkhs_solve

    def planted(*args, **kwargs):
        mean = rkhs_solve(*args, **kwargs).copy()
        mean[0] = np.nan
        return mean

    monkeypatch.setattr(rkhs, "rkhs_solve", planted)


@pytest.mark.parametrize("fault", [whiten_with_the_inverse, jitter_the_innovation],
                         ids=lambda fault: fault.__name__)
def test_the_audit_catches(fault, clean, monkeypatch):
    fault(monkeypatch)
    assert audit_failures(clean) >= 1, fault.__doc__


def test_a_planted_nan_fails_every_instance(clean, monkeypatch):
    # a NaN discrepancy passes no tolerance
    nan_in_the_rkhs_mean(monkeypatch)
    assert audit_failures(clean) == len(GATE)


# --- faults the audit does not catch today ------------------------------

def test_missed_dropping_the_smallest_kept_mode(clean, monkeypatch):
    """canonicalize_factor drops its smallest kept mode (rank >= 2 only).

    Missed because every audit route starts from ``prior.cov_factor``: the
    routes agree on the posterior of the wrong prior.
    """
    canonicalize_factor = psd.canonicalize_factor

    def dropped(*args, **kwargs):
        factor = canonicalize_factor(*args, **kwargs)
        if factor.rank < 2:
            return factor
        return psd.PsdFactor(factor=factor.factor[:, :-1],
                             eigenvalues=factor.eigenvalues[:-1])

    monkeypatch.setattr(psd, "canonicalize_factor", dropped)
    faulty = gate_instances()
    changed = [index for index, (a, b) in enumerate(zip(clean, faulty))
               if a[0].rank != b[0].rank]
    assert len(changed) >= 10
    moved = max(rel_vec_diff(condition(*clean[i]).covariance,
                             condition(*faulty[i]).covariance) for i in changed)
    assert moved > 0.1  # the posterior covariance moves by tens of percent
    assert audit_failures(faulty) == 0


def test_missed_a_larger_rank_cutoff(clean, monkeypatch):
    """Every resolved rank cutoff is multiplied by 1e6.

    Missed because no eigenvalue of a gate prior lies near the cutoff: the
    fault changes no rank, so the gate does not exercise the rank rule.
    """
    rank_tol = psd._rank_tol
    monkeypatch.setattr(psd, "_rank_tol", lambda *args: rank_tol(*args) * 1e6)
    faulty = gate_instances()
    assert [p.rank for p, _, _ in faulty] == [p.rank for p, _, _ in clean]
    assert audit_failures(faulty) == 0
