"""A deterministic search of the config space: every config exits 0, 1 or 2.

Each example runs main() on one verb with RuntimeWarnings as errors, so an
overflow anywhere between validate() and the reports fails the example as a
traceback would.  Each size field draws from its minimum, its cap, one past
the cap, 0, -1 and an int past the doubles of either sign, and a config
that passes validate() runs its verb at the minimum sizes.  Every refusal
prints one line of under 200 characters.  hopf-asymptotic is
replaced in the verb table, so only validate() runs for it; the chord verbs
run with their samplers replaced by the scale factors they multiply, as in
criterion 09, so every other line of both verbs runs at the drawn lambda
and disk radius.  What the real samplers do with their data is outside this
search; validate() refuses fewer triples than hypermc.MIN_TRIPLES, below
which a fit could find no triangle.
"""

import dataclasses
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curlwave import cli, hyperbolic, hypermc, s3
from curlwave.cli import VERBS, ExperimentConfig, main
from curlwave.fieldlines import MAX_QUAD_POINTS, MAX_TRACE_STATES
from curlwave.seeds import MAX_WORKERS

FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
MINIMUM_SIZES = {
    "n_points": 1, "n_quad": 100, "n_chords": hypermc.MIN_CHORDS, "n_triples": hypermc.MIN_TRIPLES, "n_pairs": 100,
    "workers": 1,
}
SIZE_CAPS = {
    "n_points": s3.MAX_CURL_POINTS, "n_quad": MAX_QUAD_POINTS, "n_chords": hypermc.MAX_CHORDS,
    "n_triples": hypermc.MAX_TRIPLES, "n_pairs": MAX_TRACE_STATES // 4, "workers": MAX_WORKERS,
}

# The ends of the doubles, the bounds validate() enforces, and the defaults.
EDGES = [
    5e-324, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-103, 1e-8, 1e-5, 1e-4, 0.01,
    0.1, 0.15, 0.2, 0.3, 0.4, 1.0, 1.5, 3.0, 5.0, 10.0, 50.0, 60.0, 1e6, 1e103, 1e200, 1e300, 1.7e308,
]
reals = st.one_of(st.sampled_from(EDGES), st.floats(min_value=5e-324, max_value=1.7e308))


def between(lo, hi):
    return st.one_of(st.sampled_from([e for e in EDGES if lo <= e <= hi]), st.floats(min_value=lo, max_value=hi))


def below(hi):
    return between(5e-324, hi)


verified = between(*hyperbolic.VERIFIED_LAMBDA_RANGE)


def lists(values, min_size):
    return st.lists(values, min_size=min_size, max_size=6, unique=True)


# Each field draws from the whole range, or half the time or more from a
# range that passes its own check, so that the other fields' checks and the
# verbs run: lambda from VERIFIED_LAMBDA_RANGE, and trace_step from steps
# whose trace at the minimum n_pairs and the default trace_T fits the cap.
configs = st.fixed_dictionaries(
    {"verb": st.sampled_from(VERBS)},
    optional={
        "lambda_grid": st.one_of(lists(verified, 5), lists(verified, 1), lists(reals, 1)),
        "eps_list": st.one_of(lists(below(1.5), 4), lists(reals, 1)).map(lambda v: sorted(v, reverse=True)),
        "disk_radius": st.one_of(between(1e-4, 50.0), reals),
        "seed": st.one_of(reals.map(int), reals),
        "trace_step": st.one_of(between(1e-3, 0.01), reals),
        "max_left_residual": reals,
        "min_right_residual": reals,
        **{
            name: st.sampled_from([MINIMUM_SIZES[name], cap, cap + 1, 0, -1, 10**400, -(10**400)])
            for name, cap in SIZE_CAPS.items()
        },
    },
)


def _pair_scale(K, R, N, rng):
    return hypermc.disk_perimeter(K, R) ** 2 / hypermc.disk_area(K, R), 0.0


def _scan_scale(K, R, N, eps_list, rng, n_triples=0):
    scale = hypermc.disk_perimeter(K, R) ** 3 / hypermc.disk_area(K, R) ** 2
    eps = np.asarray(eps_list, dtype=float)
    return hypermc.ScalingFit(eps, np.full(eps.size, scale), 0.0, scale, 0.0, {"counts": [1], "total": 1})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=configs)
def test_every_config_exits_0_1_or_2_and_names_a_field(tmp_path_factory, payload):
    work = tmp_path_factory.mktemp("fuzz")
    verb = payload.pop("verb")
    (work / "cfg.json").write_text(json.dumps({**MINIMUM_SIZES, **payload, "out_dir": str(work / "out")}))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name, run in list(cli._VERB_TABLE.items()):
            mp.setitem(cli._VERB_TABLE, name, lambda c, t, run=run: run(dataclasses.replace(c, **MINIMUM_SIZES), t))
        mp.setitem(cli._VERB_TABLE, "hopf-asymptotic", lambda config, timings: ([], {}, []))
        mp.setattr(hypermc, "pair_intersection_density", _pair_scale)
        mp.setattr(hypermc, "epsilon_limit_scan", _scan_scale)
        mp.setattr(sys, "stderr", err)
        mp.setattr(sys, "stdout", io.StringIO())
        rc = main([verb, "--config", str(work / "cfg.json")])
    assert rc in (0, 1, 2)
    if rc == 1:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert message[len("error: "):].split(":")[0] in FIELDS, message
        assert len(message.rstrip("\n")) < 200, message

