"""The package's exports: theorem's names load on first use (PEP 562)."""

import importlib
import os
import subprocess
import sys

import pytest

import circulant_terms


@pytest.mark.parametrize("name", circulant_terms.__all__)
def test_every_export_is_its_home_modules_object(name):
    value = getattr(circulant_terms, name)
    home = importlib.import_module(value.__module__)
    assert value.__module__.startswith("circulant_terms.")
    assert getattr(home, name) is value


def test_dir_lists_every_export():
    assert set(circulant_terms.__all__) <= set(dir(circulant_terms))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        circulant_terms.no_such_name
    with pytest.raises(ImportError):
        from circulant_terms import no_such_name  # noqa: F401


def test_theorem_loads_on_first_use():
    # importing the package leaves theorem out; a name of it brings it in
    code = ("import sys; import circulant_terms as ct; "
            "assert 'circulant_terms.theorem' not in sys.modules; "
            "assert 'dominance_check' in dir(ct); "
            "from circulant_terms import dominance_check; "
            "from circulant_terms.theorem import dominance_check as home; "
            "sys.exit(dominance_check is not home)")
    src = os.path.dirname(os.path.dirname(circulant_terms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
