"""The lean import graph: package names load on first use, and a process
imports only the modules its work runs.

A warm ``qbss-replay`` (every shard a cache hit) evaluates nothing, so it
must not load an algorithm, a kernel, the remote wire or the observability
stack; ``import repro`` must not load numpy.  The package re-exports stay
what the eager packages bound.
"""

import importlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

from repro._lazy import LazyPackage
from repro.qbss.registry import ALGORITHMS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SAMPLE_SWF = pathlib.Path(__file__).resolve().parent / "data" / "sample.swf"

#: Packages whose re-exports resolve on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.qbss",
    "repro.speed_scaling",
    "repro.speed_scaling.multi",
    "repro.engine",
    "repro.engine.backends",
    "repro.bounds",
    "repro.analysis",
    "repro.obs",
    "repro.traces",
)


def run_python(program: str, cwd: pathlib.Path | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", program],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_loads_no_numpy():
    out = run_python(
        "import sys, repro\n"
        "from repro import __version__\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    assert out == "False ['repro', 'repro._lazy']"


def test_warm_replay_loads_only_what_a_cache_hit_needs(tmp_path):
    argv = [str(SAMPLE_SWF), "--shard-window", "100", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"), "--output", "r.json"]
    replay = (
        "import sys\n"
        "from repro.cli import replay_main\n"
        f"assert replay_main({argv!r}) == 0\n"
    )
    run_python(replay, cwd=tmp_path)  # cold: primes the cache
    runners = sorted({spec.runner.partition(":")[0] for spec in ALGORITHMS.values()})
    out = run_python(
        replay
        + "print(sorted(m for m in sys.modules if m == 'repro.qbss.clairvoyant'\n"
        f"    or m in {runners!r}\n"
        "    or m.startswith(('repro.speed_scaling', 'repro.obs'))\n"
        "    or m in ('repro.core.edf', 'repro.core.profile_kernel',\n"
        "             'repro.engine.backends.remote', 'repro.traces.tabular',\n"
        "             'csv')))\n",
        cwd=tmp_path,
    )
    assert out.splitlines()[-1] == "[]"


def test_load_evaluation_imports_all_a_shard_evaluation_runs():
    """The daemons call it before they announce readiness (and qbss-serve
    before it forks its workers): afterwards a first shard evaluation
    imports no module, of the package or of its dependencies."""
    out = run_python(
        "import sys\n"
        "from repro.traces import iter_shards, parse_swf, synthesize_jobs\n"
        "from repro.traces.replay import _evaluate_shard, _shard_doc, load_evaluation\n"
        "load_evaluation(('avrq', 'bkpq', 'oaq'))\n"
        f"shard = next(iter_shards(synthesize_jobs(parse_swf({str(SAMPLE_SWF)!r})), 100.0))\n"
        "before = set(sys.modules)\n"
        "_evaluate_shard(_shard_doc(shard), ('avrq', 'bkpq', 'oaq'), 3.0)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert out == "[]"


def test_checking_algorithm_names_loads_no_algorithm():
    out = run_python(
        "import sys\n"
        "from repro.traces.replay import validate_replay_algorithms\n"
        "from repro.qbss import get_algorithm\n"
        "validate_replay_algorithms(('avrq', 'bkpq', 'oaq'))\n"
        "assert get_algorithm('crcd').accepts == {'query_policy'}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.qbss.')))\n"
    )
    assert out == "['repro.qbss.registry']"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_definition_and_is_listed(package):
    pkg = importlib.import_module(package)
    assert isinstance(pkg, LazyPackage)
    listed = dir(pkg)
    for name in pkg.__all__:
        assert name in listed, name
        value = getattr(pkg, name)
        source = pkg._SOURCES.get(name)
        if source is None:  # bound eagerly, or a submodule re-export
            assert name in vars(pkg)
            if isinstance(value, types.ModuleType):
                assert value is importlib.import_module(f"{package}.{name}")
        else:
            assert value is getattr(importlib.import_module(f"{package}.{source}"), name)


def test_a_submodule_never_shadows_the_export_of_its_name():
    """Loading module ``repro.qbss.avrq`` binds it on its package; the
    function ``avrq`` keeps the package name, as with eager imports."""
    shared = [
        (package, name)
        for package in LAZY_PACKAGES
        for name, source in importlib.import_module(package)._SOURCES.items()
        if name == source
    ]
    assert ("repro.qbss", "bkpq") in shared and ("repro.speed_scaling", "yds") in shared
    for package, name in shared:
        module = importlib.import_module(f"{package}.{name}")
        value = getattr(importlib.import_module(package), name)
        assert not isinstance(value, types.ModuleType), (package, name)
        assert value is getattr(module, name)
    from repro.qbss import bkpq, get_algorithm, run_algorithm

    assert callable(bkpq) and get_algorithm("bkpq").fn is bkpq
    assert callable(run_algorithm)


def test_a_submodule_is_reachable_as_an_attribute():
    out = run_python(
        "import repro\n"
        "print(repro.core.edf.__name__, repro.engine.backends.remote.__name__)\n"
    )
    assert out == "repro.core.edf repro.engine.backends.remote"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        importlib.import_module("repro.core").nope  # noqa: B018


def test_registry_resolves_runners_when_read():
    spec = ALGORITHMS["avrq"]
    from repro.qbss.avrq import avrq
    from repro.qbss.policies import AlwaysQuery
    from repro.speed_scaling.avr import avr_profile

    assert (spec.fn, spec.profile_fn, spec.default_query) == (avrq, avr_profile, AlwaysQuery)
    assert ALGORITHMS["oaq"].profile_fn is None and ALGORITHMS["oaq"].default_query is None
