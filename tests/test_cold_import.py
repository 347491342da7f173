"""What a fresh interpreter loads: scipy only on first use.

The spectrum and the wave functions are closed forms built on numpy alone,
so `import ncosc` and the `spectrum` and `wavefunction` subcommands must not
load scipy.special or scipy.linalg; the propagator's Bessel kernel needs
scipy.special and nothing else, and the radial DVR check needs numpy alone.
Each case runs in its own interpreter, since this test process has loaded
scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncosc

WATCHED = ("scipy.special", "scipy.linalg")
SUBMODULES = ("ncosc.model", "ncosc.oracle", "ncosc.propagator", "ncosc.specfun", "ncosc.spectrum",
              "ncosc.verify")


def loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter that imports the ncosc under test, and
    return which of WATCHED and SUBMODULES it has loaded; an assert in code
    fails the test."""
    env = dict(os.environ)
    src = str(Path(ncosc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = f"import json, sys; print(json.dumps({{m: m in sys.modules for m in {WATCHED + SUBMODULES!r}}}))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_every_submodule_but_not_scipy():
    loaded = loaded_after("import ncosc")
    assert all(loaded[m] for m in SUBMODULES)
    assert not any(loaded[m] for m in WATCHED)


def test_import_leaves_numpy_polynomial_unloaded():
    # the Bessel fallback's U_k table is formed in plain floats at import,
    # so it adds no module to the cold start
    loaded_after("import sys\nimport ncosc\nassert 'numpy.polynomial' not in sys.modules\n")


@pytest.mark.parametrize("command, needs_special", [("spectrum", False), ("wavefunction", False),
                                                    ("propagator", True)])
def test_subcommands_load_only_the_scipy_they_need(command, needs_special):
    loaded = loaded_after(
        "import contextlib, io\n"
        "from ncosc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main([{command!r}, '--no-timestamp']) == 0\n"
    )
    assert loaded["scipy.special"] == needs_special
    assert not loaded["scipy.linalg"]


def test_radial_functions_load_no_scipy():
    # the radial norm is a running sum of log1p over the degrees, so neither
    # an array of ell_tilde nor the all-degree norm reaches scipy.special
    loaded = loaded_after(
        "import numpy as np\n"
        "from ncosc import model, spectrum\n"
        "p = model.PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)\n"
        "spectrum.radial_profiles(p, np.array([0.5, 1.5, 2.7]), 6, [0.3, 1.0, 2.0])\n"
        "model.radial_log_norm(p, 40, np.array([[0.0, 1.0], [20.5, 63.2]]))\n"
        "spectrum.radial_wavefunction(p, 3, 1.5, np.linspace(0.1, 4.0, 50))\n"
    )
    assert not loaded["scipy.special"]
    assert not loaded["scipy.linalg"]


def test_first_bessel_call_binds_the_compiled_ive():
    # after one call the module global is scipy's compiled function itself,
    # so later calls pay no import
    loaded_after(
        "from ncosc import specfun\n"
        "specfun.log_bessel_ie(0.5, 2.0)\n"
        "from scipy.special.cython_special import ive\n"
        "assert specfun._ive is ive\n"
    )


def test_first_closed_kernel_call_binds_the_compiled_exprel():
    loaded_after(
        "from ncosc import propagator, specfun\n"
        "propagator.radial_kernel_closed(propagator.PotentialParams(), 0, 0, 1.0, 1.0, 0.5)\n"
        "from scipy.special.cython_special import exprel\n"
        "assert specfun._exprel is exprel\n"
    )


def test_radial_spectrum_agreement_loads_no_scipy():
    # the radial check solves a dense sinc DVR with numpy's eigvalsh, so it
    # needs neither scipy.linalg's tridiagonal solver nor scipy.special
    loaded = loaded_after(
        "from ncosc import run_check\n"
        "assert run_check('oracle', 'radial-spectrum-agreement').passed\n"
    )
    assert not loaded["scipy.special"]
    assert not loaded["scipy.linalg"]
