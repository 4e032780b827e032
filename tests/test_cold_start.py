"""Cold start: `import stablegap` loads numpy and nothing heavier, and scipy
arrives only with the first exact assignment solve or exact OU W1.

The rest of the suite imports scipy itself, so each check here runs in a
fresh interpreter that sees only the package's own imports.
"""
import json
import os
import subprocess
import sys
import textwrap

import stablegap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stablegap.__file__)))


def _fresh(code: str, threads: int = 1) -> dict:
    """Run code in a new interpreter with src/ on the path; its last stdout
    line is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC, STABLEGAP_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_import_loads_no_scipy_until_the_first_assignment_solve():
    out = _fresh(f"""
        import json, sys
        import stablegap, stablegap.cli
        before = {SCIPY_LOADED}
        import numpy as np
        from stablegap import w1_assignment
        gen = np.random.default_rng(7)
        X, Y = gen.standard_normal((9, 3)), gen.standard_normal((9, 3)) + 0.5
        value = w1_assignment(X, Y).value
        after = {SCIPY_LOADED}
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist
        C = cdist(X, Y)
        rows, cols = linear_sum_assignment(C)
        print(json.dumps({{"before": before, "after": after, "value": value,
                          "expected": float(C[rows, cols].mean())}}))
    """)
    assert out["before"] == []
    assert "scipy.optimize" in out["after"]
    assert out["value"] == out["expected"]


def test_first_assignment_solve_on_two_workers_writes_the_serial_bytes(tmp_path):
    # three alphas over two workers: both threads reach w1_assignment's
    # function-local scipy import at once
    code = """
        import json, sys
        from stablegap import ExperimentConfig, run_alpha_sweep
        cfg = ExperimentConfig(experiment="alpha_sweep", seed=11, estimator="assignment",
                               alpha_grid=(1.5, 1.7, 1.9), n_samples=256, n_bootstrap=4,
                               output_path={path!r})
        before = {loaded}
        run_alpha_sweep(cfg)
        print(json.dumps({{"before": before}}))
    """
    csvs = {}
    for threads in (1, 2):
        path = tmp_path / f"threads{threads}.csv"
        out = _fresh(code.format(path=str(path), loaded=SCIPY_LOADED), threads=threads)
        assert out["before"] == []
        csvs[threads] = [p.read_bytes() for p in sorted(tmp_path.glob(f"threads{threads}*"))]
    assert len(csvs[1]) == 2  # the table and its plot companion
    assert csvs[2] == csvs[1]


def test_ou_transient_loads_no_scipy_until_the_exact_w1():
    # the exact-draw transient samples and sorts with numpy alone; the exact
    # W1 it is checked against is a scipy quadrature
    out = _fresh(f"""
        import json, sys
        from stablegap import ExperimentConfig, ou_w1_exact, run_transient
        run_transient(ExperimentConfig(experiment="transient", seed=1, alpha_grid=(1.9,),
                                       n_samples=64, T=1.0, n_bootstrap=4))
        before = {SCIPY_LOADED}
        ou_w1_exact(1, 1.9, 1.0, 10.0)
        after = {SCIPY_LOADED}
        print(json.dumps({{"before": before, "after": after}}))
    """)
    assert out["before"] == []
    assert "scipy.integrate" in out["after"] and "scipy.optimize" in out["after"]
