"""Package-wide contracts: the public surface, NaN rejection at every check and
the modules a cold import loads."""

import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import zipforder
from zipforder import (
    DomainError,
    RankedCounts,
    bounds,
    corpus,
    errors,
    estimate,
    estimate_N_total,
    hurwitz_zeta,
    local_scale_estimates,
    poisson_lower_tail_bound,
    poisson_upper_tail_bound,
    simulate,
    skellam_order_bound,
    solve_zeta_equals,
    special,
    threshold_A,
    threshold_n_hat,
    threshold_n_prime,
)

NAN = math.nan

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from ops import IMPORT_SPANS, parse_importtime  # noqa: E402


def test_public_names_are_the_module_declarations():
    """The package exports each module's ``__all__`` and the error classes, nothing else."""
    error_classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert len(error_classes) == 5
    declared = {name: errors for name in error_classes}
    for module in (bounds, corpus, estimate, simulate, special):
        declared.update({name: module for name in module.__all__})
    public = {
        name for name, obj in vars(zipforder).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(declared)
    for name, module in declared.items():
        assert getattr(zipforder, name) is getattr(module, name), name


_TABLE = RankedCounts(counts=(9.0, 5.0, 2.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: skellam_order_bound(NAN, 1.0),
        lambda: skellam_order_bound(2.0, NAN),
        lambda: poisson_upper_tail_bound(NAN, 5.0),
        lambda: poisson_upper_tail_bound(2.0, NAN),
        lambda: poisson_lower_tail_bound(NAN, 0.5),
        lambda: poisson_lower_tail_bound(2.0, NAN),
        lambda: threshold_A(NAN),
        lambda: threshold_n_prime(NAN, 1.5),
        lambda: threshold_n_prime(1e7, NAN),
        lambda: threshold_n_hat(NAN, 1.5),
        lambda: threshold_n_hat(1e7, NAN),
        lambda: estimate_N_total(NAN, 1.5, 0.0),
        lambda: estimate_N_total(1e7, NAN, 0.0),
        lambda: estimate_N_total(1e7, 1.5, NAN),
        lambda: local_scale_estimates(_TABLE, NAN, 1, 2),
        lambda: hurwitz_zeta(NAN, 1.0),
        lambda: hurwitz_zeta(2.0, NAN),
        lambda: solve_zeta_equals(NAN),
    ],
)
def test_nan_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_import_reports_every_traced_span():
    """A cold ``import zipforder`` imports each module the traced benchmark times.

    A traced benchmark run reports its per-layer metrics only when each of
    them has a sample, and the import spans get one only from this import.
    The benchmark change that drops scipy for one root-finder retires this
    test together with the spans it times.
    """
    path = [str(Path(zipforder.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import zipforder"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    spans = {span for span, _seconds, _parent in parse_importtime(proc.stderr)}
    assert spans == set(IMPORT_SPANS.values())
