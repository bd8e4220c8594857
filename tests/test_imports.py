"""What each step loads.  Importing the package, or running a report that
needs no heat calculus, loads neither sympy nor scipy; and a call that a
benchmark stage times imports no module that its set-up has not.  Each check
runs in a fresh interpreter, since this test session has long imported both
libraries."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("sympy", "scipy")


def run_fresh(script: str):
    """Run a script in a new interpreter that finds the package in ``src``;
    returns the JSON value on the last line it prints."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_trees_report_load_neither_sympy_nor_scipy():
    out = run_fresh("""
import importlib, io, json, sys
from contextlib import redirect_stdout
for name in ("trees", "rules", "hopf", "renorm", "kernels", "heatkernel",
             "models", "cli"):
    importlib.import_module("regkit." + name)
import regkit
on_import = sorted(sys.modules)
from regkit.cli import main
with redirect_stdout(io.StringIO()) as report:
    main(["trees"], standalone_mode=False)
print(json.dumps({"on_import": on_import, "after_trees": sorted(sys.modules),
                  "report": json.loads(report.getvalue())}))
""")
    assert out["report"]["total"] > 0
    for stage in ("on_import", "after_trees"):
        roots = {name.split(".")[0] for name in out[stage]}
        assert roots.isdisjoint(HEAVY), stage
    # the sampler's first draw must not import numpy.random in a timed stage
    assert "numpy.random" in out["on_import"]


def test_model_calls_import_nothing_after_set_up():
    new = run_fresh("""
import json, sys
from fractions import Fraction
from regkit.models import (Grid, build_model, bump_kernel,
                           expectation_oracle, mollified_noise_sampler,
                           recentering_exponent)
from regkit.renorm import PreparationMap, hist
from regkit.trees import Degree, TypeSet, noise, plant, tree_product
ts = TypeSet.make(scaling=(2, 1), kappa=Fraction(1, 100),
                  types={"Xi": Degree(Fraction(-3, 2), Fraction(-1)),
                         "I": Degree(Fraction(2))})
psi = plant(noise(ts, "Xi"), "I")
sector = hist([tree_product(psi, psi)])
kernels = {"I": bump_kernel(order=8)}
sampler = mollified_noise_sampler(Grid((64, 64), (1 / 256, 1 / 16)), ["Xi"],
                                  epsilon=4, seed=7)
before = set(sys.modules)
prep = PreparationMap(lambda t: Fraction(0))
expectation_oracle(sector, kernels, sampler, prep, tree_product(psi, psi), 3)
model = build_model(sector, kernels, sampler(0), prep)
recentering_exponent(model, psi, model.base_points[1])
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert new == []


def test_heat_calls_import_nothing_after_the_field():
    new = run_fresh("""
import json, sys
import numpy as np
from regkit.heatkernel import (CoefficientField, EDecomposition,
                               decompose_green, e_kernel, heat_convolve,
                               volterra, z_kernel)
from regkit.kernels import CutoffFamily
field = CoefficientField.make("1 + t/10 + sin(x)/5", "x/7", "cos(x)/3")
before = set(sys.modules)
w, z, zbar = np.zeros(2), np.array([0.3, 0.2]), np.array([0.01, 0.02])
EDecomposition(field, 3).reassemble(w, z, zbar)
heat_convolve(z_kernel(field), e_kernel(field))(z, zbar)
volterra(field, 2)(z, zbar)
decompose_green(field, 3, 2, CutoffFamily((2, 1))).certificate()
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert new == []


def test_heat_objects_built_from_sympy_need_no_parse_first():
    """A field or a certificate term made directly from sympy objects, in a
    process that has parsed nothing, loads what its methods use."""
    field, term = (run_fresh(f"""
import json
import sympy as sp
from regkit.heatkernel import CoefficientField, LambdaTerm
x, u = sp.Symbol("x", real=True), sp.Symbol("u")
{body}
""") for body in (
        "f = CoefficientField(sp.Integer(1), x, sp.Integer(0))\n"
        "print(json.dumps([float(f.b([[0.0, 2.0]])[0]),"
        " str(f.adjoint().b_expr)]))",
        "print(json.dumps(LambdaTerm(sp.Integer(1), (u,)).validate(1)))"))
    assert field == [2.0, "-x"]
    assert term is True
