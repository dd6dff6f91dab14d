"""
Every experiment is linear in B over B's whole domain: at B = 2^k, from
k = -1000 to 1000, each run stops at the step and for the reason it stops
at B = 1, the spurious sweep confirms the same takeovers, and the
convergence sweep writes the same errors, bit for bit.  A power of two
scales every rounding of the fields, so only an absolute constant in a
stop test or a norm can break this.
"""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idsa_lab import ProblemSpec, SolverConfig, make_uniform_grid, run_to_time
from idsa_lab import run_spurious_trapped_experiment
from idsa_lab.cli import main
from idsa_lab.diagnostics import convergence_sweep, oracle_moments_for
from idsa_lab.reformed import ReformedScheme

R = 6.0
COARSE = make_uniform_grid(18.0, 50)
SPLIT = make_uniform_grid(18.0, 90)  # R on a cell edge, as the domain split needs
KAPPAS = (1.0, 10.0)


@functools.cache
def _outcomes(B: float):
    """The stops of run_to_time and both domain-split marches, the spurious
    sweep's records and both variants' convergence records, at B."""
    spec = ProblemSpec(B=B, R=R, kappa=1.0)
    split_cfg = SolverConfig(dt=0.1, t_end=400.0, stationarity_tol=1e-10)
    runs = [run_to_time(spec, COARSE, SolverConfig(dt=0.1, t_end=1000.0, stationarity_tol=1e-8)),
            *(ReformedScheme(v, spec, SPLIT, split_cfg).run_to_stationarity()
              for v in ("old", "new"))]
    takeovers = run_spurious_trapped_experiment((0.1, 0.03, 0.01), spec, COARSE,
                                                SolverConfig(dt=0.1, t_end=200.0))
    oracle = oracle_moments_for(KAPPAS, SPLIT, R, B)
    records = [convergence_sweep(KAPPAS, R, B, SPLIT, v, oracle) for v in ("old", "new")]
    return [(run.steps, run.stopped) for run in runs], takeovers, records


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-1000)
@example(k=1000)
def test_every_experiment_is_linear_in_B(k):
    stops, takeovers, records = _outcomes(2.0**k)
    ref_stops, ref_takeovers, ref_records = _outcomes(1.0)
    assert all(stopped == "stationary" for _, stopped in ref_stops)
    assert not any(record.censored for record in ref_takeovers)
    assert stops == ref_stops
    assert takeovers == ref_takeovers
    assert records == ref_records  # the errors' floats compare bit for bit


def _body(out):
    """Each file but the manifest, without its ``#`` lines (the config echo)."""
    return {p.name: [line for line in p.read_bytes().splitlines() if not line.startswith(b"#")]
            for p in out.iterdir() if p.name != "manifest.json"}


# An absolute floor in the takeover test or the relative change censors
# every row of the sweep near B = 1e-300, and unscaled squares in the norms
# overflow into NaN errors near 2^700.  Both B are powers of two, the only B
# at which the bits are linear: at B = 1e-300 the fields round differently
# from B = 1's, and a chattering takeover may move by 2 steps (the physics
# gate's bound), while 2^-997 (7.5e-301) still sits below any floor of 1e-300.
@pytest.mark.parametrize("experiment, keys, B", [
    ("spurious", "eps_list = 0.1, 0.03, 0.01\nexclude_largest = 0\n", 2.0**-997),
    ("convergence", "n_cells = 90\nkappa_list = 1, 10\n", 2.0**700),
], ids=["spurious", "convergence"])
def test_cli_at_an_extreme_B_writes_the_body_of_B_1(tmp_path, experiment, keys, B):
    bodies = []
    for b in (1.0, B):
        cfg = tmp_path / f"{b!r}.cfg"
        cfg.write_text(f"experiment = {experiment}\nB = {b!r}\n{keys}")
        out = tmp_path / repr(b)
        assert main(["run", str(cfg), "--set", f"output_dir={out}"]) == 0
        bodies.append(_body(out))
    assert bodies[1] == bodies[0]
    assert b"nan" not in b"".join(line for lines in bodies[0].values() for line in lines)
