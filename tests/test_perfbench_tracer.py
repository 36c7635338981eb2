"""The benchmark tracer's entry points still exist in the program.

``perfbench/tracer.py`` patches layer entry points by dotted name, some of
them private (``ShardCoordinator._broadcast``, ``timeline._reduce_epoch``).
A rename under ``src/`` would otherwise surface only as a crashed traced
benchmark run, so this loads the tracer by path and resolves every entry.
"""

import importlib.util
import pathlib

import pytest

TRACER_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "perfbench" / "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name, path, name",
    tracer.SPANS + tracer.COUNTED,
    ids=[f"{module_name}.{path}" for module_name, path, _name in
         tracer.SPANS + tracer.COUNTED])
def test_tracer_entry_point_resolves(module_name, path, name):
    owner, attribute = tracer._resolve(module_name, path)
    assert callable(getattr(owner, attribute, None)), \
        f"{module_name}.{path} (span {name}) is not a callable attribute"


def test_tracer_restores_every_original():
    originals = [getattr(*tracer._resolve(module_name, path))
                 for module_name, path, _name in
                 tracer.SPANS + tracer.COUNTED]
    with tracer.Tracer():
        pass
    assert [getattr(*tracer._resolve(module_name, path))
            for module_name, path, _name in
            tracer.SPANS + tracer.COUNTED] == originals
