"""Package-wide guards: every public name exists, every error type is used."""
import ast
import importlib
import inspect
import math
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import schreg
from schreg import errors

SRC = pathlib.Path(schreg.__file__).parent
MODULES = ["schreg"] + [f"schreg.{m.name}" for m in pkgutil.iter_modules(schreg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # a span tracer wraps each module's public functions by looking up
    # every `__all__` entry, so one stale entry breaks every traced run
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"


def _loads(module):
    """The schreg modules a fresh interpreter holds after importing module."""
    code = (f"import sys, {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'schreg')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_two_halves_meet_only_in_spectrum():
    # the Martin data of a set E and the operator's solutions exchange only
    # what `spectrum` holds, and the package loads a submodule on first use
    assert _loads("schreg") == {"schreg", "schreg.errors"}
    operator = {"schreg.propagation", "schreg.potentials", "schreg.floquet",
                "schreg.periodic", "schreg.regularity"}
    assert not _loads("schreg.martin") & operator
    assert not _loads("schreg.periodic") & {"schreg.martin", "schreg.quadrature",
                                             "schreg.regularity"}
    assert _loads("schreg.cli") == set(MODULES)
    imports = [node for node in ast.walk(ast.parse((SRC / "spectrum.py").read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {node.module for node in imports if getattr(node, "level", 0)} == {"record"}
    assert not any(a.name.split(".")[0] == "schreg" for node in imports for a in node.names)
    from schreg import martin, propagation, spectrum
    assert martin.GapSet is spectrum.GapSet
    assert propagation.MeasureCDF is spectrum.MeasureCDF


def _raised_or_caught(path):
    """Every name or attribute inside a raise or an except clause of path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        target = (node.exc if isinstance(node, ast.Raise)
                  else node.type if isinstance(node, ast.ExceptHandler) else None)
        for sub in ast.walk(target) if target is not None else ():
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_every_error_type_is_raised_or_caught():
    used = set().union(*(_raised_or_caught(p) for p in SRC.glob("*.py")
                         if p.name != "errors.py"))
    classes = [n for n, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SchregError) and cls is not errors.SchregError]
    assert classes
    orphans = sorted(set(classes) - used)
    assert not orphans, f"error types nothing in src/ raises or catches: {orphans}"


def test_src_calls_no_blas_lapack_or_numpy_polynomial():
    # on float arrays a matrix product calls BLAS, and numpy.linalg LAPACK:
    # both page their library into the process and may round differently
    # on another build or CPU kernel.  Sums of products are written out.
    banned = {"linalg", "polynomial", "dot", "matmul", "inner", "vdot"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                names = {"@"} if isinstance(node.op, ast.MatMult) else set()
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & banned
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                names = {part for m in modules for part in m.split(".")} & banned
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names)]
    assert not found


def test_every_potential_family_is_named_and_owns_its_two_views():
    # `from_json` builds only what `_VARIANTS` names, and `segments` and
    # `prefix_integral` reach a family only through its own two methods
    from schreg import potentials as P
    from schreg.record import Record
    families = {getattr(P, n) for n in P.__all__
                if inspect.isclass(getattr(P, n)) and issubclass(getattr(P, n), Record)}
    assert families - {P.CesaroTrace} == set(P._VARIANTS.values())
    for cls in P._VARIANTS.values():
        assert callable(cls.__dict__.get("_cells")), cls.__name__
        assert callable(cls.__dict__.get("_integral")), cls.__name__
    assert P.Tabulated._cells is P.PiecewiseConstant._cells
    assert P.Tabulated._integral is P.PiecewiseConstant._integral


def test_cli_commands_match_the_config_schema():
    from schreg import cli
    schema = cli.load_schema("experiment_config.schema.json")
    assert list(cli.COMMANDS) == schema["properties"]["command"]["enum"]
    params = {k[len("params_"):] for k in schema["$defs"] if k.startswith("params_")}
    assert params == set(cli.COMMANDS)


def _input_checks():
    """(id, call, error, message) for each input check in src/ that no other
    test reaches."""
    from schreg import martin as M, periodic as PE, potentials as P, propagation as PR
    from schreg.errors import FitIllConditioned, ZeroSolution
    free, one_gap, wave = P.Constant(0.0), M.GapSet(0.0, ((1.0, 2.0),)), P.PeriodicSquare(0.5)
    return [
        ("gap_set_b0", lambda: M.GapSet(math.inf), ValueError, "finite"),
        ("c_count", lambda: M.a_constant(one_gap, ()), ValueError, "one critical point"),
        ("c_outside_gap", lambda: M.a_constant(one_gap, (3.0,)), ValueError, "outside"),
        ("cdf_empty_grid", lambda: M.martin_measure_cdf(M.GapSet(0.0), (), []),
         ValueError, "nonempty"),
        ("cdf_grid_not_increasing", lambda: M.martin_measure_cdf(M.GapSet(0.0), (), [1.0, 1.0]),
         ValueError, "increasing"),
        ("fit_one_k", lambda: M.fit_a_from_martin(M.GapSet(0.0), (), [-50.0, 50.0]),
         FitIllConditioned, "two positive"),
        ("discriminant_period", lambda: PE.discriminant(wave, 0.0, 1.0), ValueError, "period"),
        ("band_window_reversed", lambda: PE.band_spectrum(wave, 1.0, (3.0, -2.0)),
         ValueError, "increasing window"),
        ("band_resolution", lambda: PE.band_spectrum(wave, 1.0, (-2.0, 3.0), 1),
         ValueError, "resolution"),
        ("band_window_inf_bottom", lambda: PE.band_spectrum(wave, 1.0, (-math.inf, 10.0)),
         ValueError, "finite"),
        ("band_window_inf_top", lambda: PE.band_spectrum(wave, 1.0, (-2.0, math.inf)),
         ValueError, "finite"),
        ("gap_set_of_no_bands",
         lambda: PE.to_gap_set(PE.band_spectrum(wave, 1.0, (-5.0, -3.0))), ValueError, "no bands"),
        ("to_json_unknown", lambda: P.to_json(one_gap), TypeError, "unknown potential type"),
        ("log_growth_at_a_zero",
         lambda: PR.SolutionSample(u=0j, du=1 + 0j, log_scale=0.0).log_growth(1.0),
         ZeroSolution, "vanished"),
        ("log_growth_x", lambda: PR.log_growth(free, 0.0, -1.0), ValueError, "positive"),
        ("profile_decreasing", lambda: PR.dirichlet_profile(free, [2.0, 1.0], [-1.0]),
         ValueError, "increasing"),
        ("eigenvalue_count_x", lambda: PR.eigenvalue_count(free, 0.0, 1.0), ValueError, "positive"),
        ("transfer_matrix_at_0", lambda: PR.transfer_matrix(free, 0.0, -1.0), ValueError,
         "positive"),
        ("transfer_matrix_at_inf", lambda: PR.transfer_matrix(free, math.inf, -1.0), ValueError,
         "finite"),
        ("repeat_transfer_matrix_at_inf", lambda: PR.transfer_matrix(wave, math.inf, -1.0),
         ValueError, "finite"),
        ("cdf_at_inf", lambda: PR.zero_counting_cdf(free, math.inf, [1.0]), ValueError, "finite"),
        ("eigenvalue_count_at_inf", lambda: PR.eigenvalue_count(free, math.inf, 1.0), ValueError,
         "finite"),
        ("profile_at_inf", lambda: PR.dirichlet_profile(free, [1.0, math.inf], [-1.0]),
         ValueError, "finite"),
        ("band_period_inf", lambda: PE.band_spectrum(wave, math.inf, (-2.0, 3.0)), ValueError,
         "finite"),
        ("transfer_matrix_no_energies", lambda: PR.transfer_matrix(free, 1.0, []), ValueError,
         "nonempty"),
        ("profile_no_energies", lambda: PR.dirichlet_profile(free, [1.0], []), ValueError,
         "nonempty"),
        ("discriminant_no_energies", lambda: PE.discriminant(wave, 1.0, []), ValueError,
         "nonempty"),
        ("martin_function_nan", lambda: M.martin_function(one_gap, (1.5,), math.nan), ValueError,
         "finite"),
        ("distance_to_set_inf", lambda: M.distance_to_set(one_gap, complex(math.inf, 0.5)), ValueError,
         "finite"),
        ("z_grid_nan", lambda: M.check_z_grid([complex(math.nan, 1.0)], one_gap), ValueError,
         "finite"),
    ]


@pytest.mark.parametrize("call, error, message",
                         [pytest.param(*row, id=name) for name, *row in _input_checks()])
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
