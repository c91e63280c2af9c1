import importlib
import pkgutil

import pytest

import qcldpc

MODULES = ["qcldpc"] + [f"qcldpc.{m.name}" for m in pkgutil.iter_modules(qcldpc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_each_library_modules_all_once():
    # The package lists no public name itself; its __all__ is built from the modules'.
    modules = [qcldpc.channel, qcldpc.codes, qcldpc.decoder, qcldpc.gf2, qcldpc.sim]
    want = ["__version__"] + [n for m in modules for n in m.__all__]
    assert qcldpc.__all__ == want and len(set(want)) == len(want)
    assert all(getattr(qcldpc, n) is getattr(m, n) for m in modules for n in m.__all__)
    assert {"TannerGraph", "pack_bits", "trial_uniforms", "pauli_bits"} <= set(qcldpc.__all__)
